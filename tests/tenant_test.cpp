// Multi-tenant scheduler regressions: zero-job drain, construction-time
// weight validation (TenancyConfig and DsmSortConfig paths), cross-job
// isolation when one tenant's job rides through a mid-run crash while
// another is admitted, seeded-run determinism, and fair-share weighting
// actually speeding up the heavier tenant, and tenant-scoped instruments
// (a key set that does not grow with jobs, totals pinned per tenant).
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
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

// ---- tenant-scoped instruments ---------------------------------------

// Three tenants, each with two job kinds, under the shared manager: every
// tenant runs both of its kinds by 18 jobs.
tenant::TenancyConfig mixed_config(std::size_t jobs) {
  tenant::TenantSpec alice = spec("alice", 2.0);
  alice.mix = {{tenant::JobKind::DsmSort, 1.0, 1 << 10},
               {tenant::JobKind::ActiveScan, 1.0, 1 << 11}};
  tenant::TenantSpec bob = spec("bob");
  bob.mix = {{tenant::JobKind::DsmSort, 1.0, 1 << 9},
             {tenant::JobKind::RTreeBulkLoad, 1.0, 1 << 10}};
  tenant::TenantSpec carol = spec("carol");
  carol.mix = {{tenant::JobKind::ActiveScan, 1.0, 1 << 10},
               {tenant::JobKind::RTreeBulkLoad, 1.0, 1 << 9}};
  tenant::TenancyConfig cfg;
  cfg.tenants = {alice, bob, carol};
  cfg.total_jobs = jobs;
  cfg.offered_rate = 400.0;
  cfg.max_in_flight = 3;
  cfg.job_alpha = 4;
  cfg.job_log2_alpha_beta = 8;
  cfg.load_manager.mode = core::LoadManagerMode::Manage;
  return cfg;
}

// Every instrument name in a metrics snapshot, across its sections.
std::set<std::string> instrument_keys(const lmas::obs::Json& metrics) {
  std::set<std::string> keys;
  for (const auto& [section, block] : metrics.members()) {
    for (const auto& [name, value] : block.members()) keys.insert(name);
  }
  return keys;
}

// True when some dot-separated component of `key` is `j<digits>`, the
// form of a per-job label.
bool has_job_component(const std::string& key) {
  for (std::size_t p = key.find(".j"); p != std::string::npos;
       p = key.find(".j", p + 1)) {
    if (p + 2 < key.size() &&
        std::isdigit(static_cast<unsigned char>(key[p + 2]))) {
      return true;
    }
  }
  return false;
}

// Differential oracle for the multi-tenant path: DSM-Sort, scan and
// bulk-load jobs under the shared manager while one host runs 8x slow
// and the other crashes mid-transfer. The digest and the metrics
// fingerprint were computed before the load-manager, fault-retry and
// tenancy-telemetry options became constants.
TEST(Tenancy, ManagedFaultedMixedRunIsPinned) {
  tenant::TenancyConfig cfg = mixed_config(12);
  for (auto& ts : cfg.tenants) {
    for (auto& m : ts.mix) m.records <<= 5;  // 32x the records per job
  }
  cfg.offered_rate = 100.0;
  cfg.load_manager.period = 0.002;
  cfg.faults.crash(/*on_asu=*/false, /*node=*/0, /*at=*/0.026,
                   /*duration=*/0.004);
  cfg.faults.slowdown(/*on_asu=*/false, /*node=*/1, /*at=*/0.002,
                      /*duration=*/0.08, /*factor=*/8.0);
  const auto rep = tenant::run_tenancy(machine(2, 4), cfg);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.jobs_completed, 12u);
  // The run exercises every path the oracle guards: in-flight retries
  // after the crash (`*.fault_retries` registers at the first retry),
  // router swaps and migrations.
  EXPECT_NE(rep.metrics.dump().find(".fault_retries"), std::string::npos);
  EXPECT_GT(rep.lm_router_switches, 0u);
  EXPECT_GT(rep.lm_migrations, 0u);
  EXPECT_EQ(rep.digest, 0xb2901e3cd0b7e744ULL);
  EXPECT_EQ(lmas::sim::fnv1a64(rep.metrics.dump()), 0x9bcd3825602ea8fbULL);
}

TEST(Tenancy, InstrumentKeySetDoesNotGrowWithJobs) {
  const auto few = tenant::run_tenancy(machine(2, 4), mixed_config(18));
  const auto many = tenant::run_tenancy(machine(2, 4), mixed_config(72));
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  const auto keys = instrument_keys(few.metrics);
  EXPECT_EQ(keys, instrument_keys(many.metrics));
  for (const auto& key : keys) EXPECT_FALSE(has_job_component(key)) << key;
}

// Each tenant's counters equal the sums of its jobs' `<tenant>.j<i>.*`
// counters at the commit before instruments were scoped by tenant,
// pinned from that commit on this config.
TEST(Tenancy, TenantTotalsEqualThePerJobSums) {
  const std::map<std::string, double> pinned = {
      {"alice.functor.distribute0.records", 1024},
      {"alice.functor.distribute1.records", 1024},
      {"alice.functor.distribute2.records", 1024},
      {"alice.functor.distribute3.records", 1024},
      {"alice.functor.sort0.records", 2979},
      {"alice.functor.sort1.records", 1117},
      {"alice.functor.store0.records", 1028},
      {"alice.functor.store1.records", 1235},
      {"alice.functor.store2.records", 930},
      {"alice.functor.store3.records", 903},
      {"alice.scan.records", 2048},
      {"alice.to_sort.bytes", 524288},
      {"alice.to_sort.packets", 64},
      {"alice.to_sort.records", 4096},
      {"alice.to_sort.routed.0", 32},
      {"alice.to_sort.routed.1", 32},
      {"alice.to_store.bytes", 524288},
      {"alice.to_store.packets", 72},
      {"alice.to_store.records", 4096},
      {"alice.to_store.routed.0", 20},
      {"alice.to_store.routed.1", 20},
      {"alice.to_store.routed.2", 16},
      {"alice.to_store.routed.3", 16},
      {"bob.functor.distribute0.records", 640},
      {"bob.functor.distribute1.records", 640},
      {"bob.functor.distribute2.records", 640},
      {"bob.functor.distribute3.records", 640},
      {"bob.functor.sort0.records", 1875},
      {"bob.functor.sort1.records", 685},
      {"bob.functor.store0.records", 770},
      {"bob.functor.store1.records", 673},
      {"bob.functor.store2.records", 645},
      {"bob.functor.store3.records", 472},
      {"bob.load.records", 4096},
      {"bob.to_sort.bytes", 327680},
      {"bob.to_sort.packets", 80},
      {"bob.to_sort.records", 2560},
      {"bob.to_sort.routed.0", 40},
      {"bob.to_sort.routed.1", 40},
      {"bob.to_store.bytes", 327680},
      {"bob.to_store.packets", 53},
      {"bob.to_store.records", 2560},
      {"bob.to_store.routed.0", 15},
      {"bob.to_store.routed.1", 15},
      {"bob.to_store.routed.2", 13},
      {"bob.to_store.routed.3", 10},
      {"carol.load.records", 1536},
      {"carol.scan.records", 1024},
  };
  // Histogram (count, sum) per tenant, pinned the same way.
  const std::map<std::string, std::pair<double, double>> pinned_hists = {
      {"alice.to_sort.packet_records", {64, 4096}},
      {"alice.to_store.packet_records", {72, 4096}},
      {"bob.to_sort.packet_records", {80, 2560}},
      {"bob.to_store.packet_records", {53, 2560}},
  };

  const auto rep = tenant::run_tenancy(machine(2, 4), mixed_config(18));
  ASSERT_TRUE(rep.ok());
  const auto is_tenant_key = [](const std::string& key) {
    for (const char* t : {"alice.", "bob.", "carol."}) {
      if (key.starts_with(t)) return true;
    }
    return false;
  };
  std::map<std::string, double> counters;
  for (const auto& [name, v] : rep.metrics.at("counters").members()) {
    if (is_tenant_key(name)) counters[name] = v.as_double();
  }
  EXPECT_EQ(counters, pinned);
  for (const auto& [name, want] : pinned_hists) {
    const lmas::obs::Json* h = rep.metrics.at("histograms").find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->at("count").as_double(), want.first) << name;
    EXPECT_EQ(h->at("sum").as_double(), want.second) << name;
  }

  // The counters account for every record a tenant's jobs put out.
  for (const auto& t : rep.tenants) {
    double out = 0;
    for (const auto& [name, n] : counters) {
      if (!name.starts_with(t.name + ".")) continue;
      if (name.find(".functor.store") != std::string::npos ||
          name.ends_with(".scan.records") || name.ends_with(".load.records")) {
        out += n;
      }
    }
    EXPECT_EQ(out, double(t.records_out)) << t.name;
  }
}

}  // namespace
