// Multi-tenant scheduler regressions: zero-job drain, construction-time
// weight validation (TenancyConfig and DsmSortConfig paths), cross-job
// isolation when one tenant's job rides through a mid-run crash while
// another is admitted, seeded-run determinism, and fair-share weighting
// actually speeding up the heavier tenant.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "core/dsm_sort.hpp"
#include "tenant/tenant.hpp"

namespace asu = lmas::asu;
namespace core = lmas::core;
namespace tenant = lmas::tenant;

namespace {

asu::MachineParams machine(unsigned hosts, unsigned asus) {
  asu::MachineParams mp;
  mp.num_hosts = hosts;
  mp.num_asus = asus;
  return mp;
}

tenant::TenantSpec spec(std::string name, double weight = 1.0) {
  tenant::TenantSpec ts;
  ts.name = std::move(name);
  ts.fair_share_weight = weight;
  return ts;
}

tenant::TenancyConfig small_config() {
  tenant::TenancyConfig cfg;
  cfg.tenants.push_back(spec("alice"));
  cfg.tenants.push_back(spec("bob"));
  cfg.total_jobs = 4;
  cfg.offered_rate = 4.0;
  cfg.max_in_flight = 2;
  cfg.job_alpha = 4;
  cfg.job_log2_alpha_beta = 8;
  return cfg;
}

// ---- construction-time validation ------------------------------------

TEST(Tenancy, FairShareWeightZeroThrowsAtConstruction) {
  tenant::TenancyConfig cfg = small_config();
  cfg.tenants[1].fair_share_weight = 0.0;
  EXPECT_THROW(tenant::run_tenancy(machine(1, 4), cfg),
               std::invalid_argument);
  cfg.tenants[1].fair_share_weight = -1.0;
  EXPECT_THROW(tenant::run_tenancy(machine(1, 4), cfg),
               std::invalid_argument);
}

TEST(Tenancy, DsmSortConfigRejectsNonPositiveFairShare) {
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 10;
  cfg.alpha = 4;
  cfg.log2_alpha_beta = 8;
  cfg.fair_share_weight = 0.0;
  EXPECT_THROW(core::run_dsm_sort(machine(1, 4), cfg),
               std::invalid_argument);
}

TEST(Tenancy, NonPositiveManagerPeriodThrowsInsteadOfRunningUnmanaged) {
  // A zero-length sleep does not suspend, so a period-0 monitor would
  // take all its samples at t=0 and the "managed" run would silently
  // finish with no switches and no migrations. Both entry points that
  // build a monitor must reject it.
  core::DsmSortConfig dsm;
  dsm.total_records = 1 << 10;
  dsm.alpha = 4;
  dsm.log2_alpha_beta = 8;
  dsm.load_manager.mode = core::LoadManagerMode::Manage;
  dsm.load_manager.period = 0.0;
  EXPECT_THROW(core::run_dsm_sort(machine(2, 4), dsm), std::invalid_argument);

  tenant::TenancyConfig cfg = small_config();
  cfg.load_manager.mode = core::LoadManagerMode::Manage;
  cfg.load_manager.period = 0.0;
  EXPECT_THROW(tenant::run_tenancy(machine(2, 4), cfg),
               std::invalid_argument);
  cfg.load_manager.period = -0.01;
  EXPECT_THROW(tenant::run_tenancy(machine(2, 4), cfg),
               std::invalid_argument);
}

TEST(Tenancy, InvalidMixAndArrivalConfigsThrow) {
  tenant::TenancyConfig cfg = small_config();
  cfg.tenants[0].mix.push_back({.weight = 0.0});
  EXPECT_THROW(tenant::ArrivalProcess{cfg}, std::invalid_argument);

  cfg = small_config();
  cfg.tenants[0].arrival_weight = 0.0;
  EXPECT_THROW(tenant::ArrivalProcess{cfg}, std::invalid_argument);

  cfg = small_config();
  cfg.offered_rate = 0.0;
  EXPECT_THROW(tenant::ArrivalProcess{cfg}, std::invalid_argument);

  cfg = small_config();
  cfg.tenants.clear();
  EXPECT_THROW(tenant::ArrivalProcess{cfg}, std::invalid_argument);
}

TEST(Tenancy, ZeroJobAlphaThrowsAtEntry) {
  // Unchecked, it divides by zero inside the first DsmSort job.
  tenant::TenancyConfig cfg = small_config();
  cfg.job_alpha = 0;
  EXPECT_THROW(tenant::run_tenancy(machine(1, 4), cfg),
               std::invalid_argument);
  EXPECT_THROW(tenant::ArrivalProcess{cfg}, std::invalid_argument);
}

TEST(Tenancy, MachineWithoutHostsThrowsAtEntry) {
  // Unchecked, it divides by zero sizing a DsmSort job's inboxes.
  EXPECT_THROW(tenant::run_tenancy(machine(0, 4), small_config()),
               std::invalid_argument);
}

TEST(Tenancy, MachineWithoutAsusThrowsAtEntry) {
  EXPECT_THROW(tenant::run_tenancy(machine(1, 0), small_config()),
               std::invalid_argument);
}

// ---- zero-admitted-jobs drain ----------------------------------------

TEST(Tenancy, ZeroJobsDrainsWithoutHanging) {
  tenant::TenancyConfig cfg = small_config();
  cfg.total_jobs = 0;
  const auto rep = tenant::run_tenancy(machine(1, 4), cfg);
  EXPECT_EQ(rep.jobs_submitted, 0u);
  EXPECT_EQ(rep.jobs_completed, 0u);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.makespan, 0.0);
}

// ---- cross-job isolation under a crash window ------------------------

TEST(Tenancy, TenantAdmittedWhileAnotherRidesThroughCrash) {
  tenant::TenancyConfig cfg = small_config();
  cfg.total_jobs = 6;
  cfg.offered_rate = 50.0;  // arrivals pile up against max_in_flight
  cfg.max_in_flight = 2;
  cfg.load_manager.mode = core::LoadManagerMode::Manage;
  // Crash one sort-tier ASU early enough to land mid-migration for the
  // first admitted jobs, recover before the run ends.
  cfg.faults.crash(/*on_asu=*/true, /*node=*/1, /*at=*/0.005,
                   /*duration=*/0.05);
  const auto rep = tenant::run_tenancy(machine(2, 4), cfg);
  EXPECT_EQ(rep.jobs_completed, 6u);
  EXPECT_TRUE(rep.conservation_ok);
  EXPECT_TRUE(rep.ok());
  // The cap was binding at this offered rate: someone waited.
  EXPECT_GT(rep.admission_waits, 0u);
  for (const auto& t : rep.tenants) {
    EXPECT_TRUE(t.conservation_ok) << t.name;
    EXPECT_EQ(t.records_in, t.records_out) << t.name;
  }
}

// ---- seeded determinism ----------------------------------------------

TEST(Tenancy, SameSeedReproducesDigestAndFingerprint) {
  tenant::TenancyConfig cfg = small_config();
  cfg.tenants[0].mix.push_back(
      {.kind = tenant::JobKind::ActiveScan, .records = 1 << 12});
  cfg.tenants[1].mix.push_back(
      {.kind = tenant::JobKind::RTreeBulkLoad, .records = 1 << 12});
  const auto a = tenant::run_tenancy(machine(2, 4), cfg);
  const auto b = tenant::run_tenancy(machine(2, 4), cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.arrival_fingerprint, b.arrival_fingerprint);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.makespan, b.makespan);

  tenant::TenancyConfig other = cfg;
  other.seed = 43;
  const auto c = tenant::run_tenancy(machine(2, 4), other);
  EXPECT_NE(a.arrival_fingerprint, c.arrival_fingerprint);
}

// ---- fair-share weighting has teeth ----------------------------------

TEST(Tenancy, HigherFairShareWeightRunsFaster) {
  auto run_with_weight = [](double w) {
    tenant::TenancyConfig cfg;
    cfg.tenants.push_back(spec("solo", w));
    cfg.total_jobs = 2;
    cfg.offered_rate = 10.0;
    cfg.max_in_flight = 1;  // serialize: pure per-job cost comparison
    cfg.job_alpha = 4;
    cfg.job_log2_alpha_beta = 8;
    return tenant::run_tenancy(machine(1, 4), cfg);
  };
  const auto heavy = run_with_weight(2.0);   // charged at half rate
  const auto light = run_with_weight(0.5);   // charged at double rate
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());
  EXPECT_LT(heavy.mean_job_seconds, light.mean_job_seconds);
}

// ---- per-tenant telemetry shape --------------------------------------

TEST(Tenancy, ManagedRunPublishesPerTenantHistogramsAndLmCounters) {
  tenant::TenancyConfig cfg = small_config();
  cfg.load_manager.mode = core::LoadManagerMode::Manage;
  const auto rep = tenant::run_tenancy(machine(2, 4), cfg);
  ASSERT_TRUE(rep.histograms.is_object());
  EXPECT_NE(rep.histograms.find("dsm.job_seconds"), nullptr);
  EXPECT_NE(rep.histograms.find("dsm.job_seconds.alice"), nullptr);
  EXPECT_NE(rep.histograms.find("dsm.job_seconds.bob"), nullptr);
  const lmas::obs::Json* counters = rep.metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("lm.alice.migrations"), nullptr);
  EXPECT_NE(counters->find("lm.bob.router_switches"), nullptr);
}

}  // namespace
