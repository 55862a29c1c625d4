/// Multi-tenant serving: a throughput–latency sweep of the cluster-level
/// scheduler. Three tenants share one simulated cluster — a DSM-Sort
/// tenant submitting sorts of mixed sizes, an active-scan tenant, and an
/// R-tree bulk-load tenant — on a seeded open-arrival process. Offered
/// load is swept from light to past saturation, once with the cross-job
/// load manager off (the unmanaged column) and once arbitrating every
/// in-flight job (router promotion + migration, journaled per tenant).
///
/// A serial reference run (one DSM job, alone on the cluster) fixes the
/// job-time scale J that calibrates the offered rates, the manager's
/// sampling period, and the mid-run host-0 slowdown window each cell
/// rides through. The 2x3 sweep then goes through the parallel executor:
/// results come back in submission order, so the artifact is
/// bit-identical at any LMAS_JOBS.
///
/// Acceptance gates: every run conserves records per tenant and completes
/// every admitted job; at the saturating load the managed column beats
/// the unmanaged one on p99 job completion AND goodput; the managed
/// high-load cell journals at least one load-manager action; every cell
/// publishes the per-tenant dsm.job_seconds.<name> histogram blocks.
///
/// Writes BENCH_fig_tenancy.json (schema lmas-bench-v1): one entry per
/// cell carrying the full tenancy_report_to_json payload (per-tenant
/// stats, admission waits, decision journal). Set LMAS_TRACE=1 to export
/// a Chrome trace per cell.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fault/fault.hpp"
#include "obs/report.hpp"
#include "tenant/tenant.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace obs = lmas::obs;
namespace fault = lmas::fault;
namespace tenant = lmas::tenant;
namespace benchio = lmas::benchio;

namespace {

constexpr std::size_t kTotalJobs = 24;

asu::MachineParams machine() {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 8;
  mp.c = 4.0;
  return mp;
}

/// The tenant population. alice dominates arrivals with skewed DSM sorts
/// of two sizes (the jobs the manager can actually steer); bob streams
/// active scans, carol bulk-loads R-tree pages — both add disk + wire
/// pressure the admission gate and the manager see as background.
std::vector<tenant::TenantSpec> tenants() {
  std::vector<tenant::TenantSpec> out;
  tenant::TenantSpec alice;
  alice.name = "alice";
  alice.fair_share_weight = 2.0;
  alice.arrival_weight = 2.0;
  alice.mix = {{tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 15},
               {tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 14}};
  tenant::TenantSpec bob;
  bob.name = "bob";
  bob.mix = {{tenant::JobKind::ActiveScan, 1.0, std::size_t(1) << 16}};
  tenant::TenantSpec carol;
  carol.name = "carol";
  carol.mix = {{tenant::JobKind::RTreeBulkLoad, 1.0, std::size_t(1) << 15}};
  out.push_back(std::move(alice));
  out.push_back(std::move(bob));
  out.push_back(std::move(carol));
  return out;
}

tenant::TenancyConfig base_config() {
  tenant::TenancyConfig cfg;
  cfg.tenants = tenants();
  cfg.total_jobs = kTotalJobs;
  cfg.seed = 42;
  cfg.max_in_flight = 4;
  cfg.job_alpha = 8;
  cfg.job_log2_alpha_beta = 10;
  return cfg;
}

/// Control-loop tuning scaled to the single-job time J: sample several
/// times within one job so sustained imbalance is caught while the job
/// that caused it still runs.
core::LoadManagerConfig manager_cfg(double J, bool act) {
  core::LoadManagerConfig cfg;
  cfg.mode = act ? core::LoadManagerMode::Manage : core::LoadManagerMode::Off;
  cfg.period = J / 8.0;
  cfg.promote_hysteresis = 2;
  cfg.demote_hysteresis = 4;
  cfg.cooldown_samples = 2;
  cfg.migrate_hysteresis = 2;
  cfg.dwell_samples = 4;
  return cfg;
}

struct Cell {
  double load = 1.0;  // offered rate multiplier on the saturation scale
  bool managed = false;
  const char* key = "";
};

}  // namespace

int main() {
  obs::BenchReport report("fig_tenancy");
  report.params()["hosts"] = 2;
  report.params()["asus"] = 8;
  report.params()["c"] = 4.0;
  report.params()["tenants"] = 3;
  report.params()["total_jobs"] = double(kTotalJobs);
  report.params()["max_in_flight"] = 4;
  std::printf("# multi-tenant serving: 2 hosts + 8 ASUs, %zu jobs from 3 "
              "tenants (DSM sorts / scans / bulk loads)\n", kTotalJobs);

  // Serial reference: one DSM job alone on the cluster fixes the time
  // scale J. offered_rate = load * kInFlight / J then means "load ~ 1
  // keeps the admission window exactly full of sort-sized jobs".
  tenant::TenancyConfig ref = base_config();
  ref.tenants.resize(1);  // alice only
  ref.total_jobs = 1;
  ref.offered_rate = 1000.0;
  const double J = tenant::run_tenancy(machine(), ref).mean_job_seconds;
  std::printf("# reference single-job time J = %.4fs; manager period J/8 = "
              "%.5fs\n", J, J / 8.0);
  report.params()["reference_job_seconds"] = J;

  benchio::SweepSpec<Cell, tenant::TenancyReport> sweep;
  sweep.report_name = "fig_tenancy";
  sweep.cells = {
      {0.25, false, "low-unmanaged"},    {0.25, true, "low-managed"},
      {1.0, false, "mid-unmanaged"},     {1.0, true, "mid-managed"},
      {4.0, false, "high-unmanaged"},    {4.0, true, "high-managed"},
  };
  sweep.run_fn = [J](const Cell& cell) {
    tenant::TenancyConfig cfg = base_config();
    cfg.offered_rate = cell.load * double(cfg.max_in_flight) / J;
    cfg.pressure_limit = 8.0 * J;  // back off when queues grow deep
    cfg.load_manager = manager_cfg(J, cell.managed);
    // Mid-run host-0 slowdown, scaled to the arrival span: the window
    // both columns ride through, and the one migration steers around.
    const double span = double(kTotalJobs) / cfg.offered_rate;
    cfg.faults.slowdown(/*on_asu=*/false, 0, 0.25 * span, 0.40 * span, 3.0);
    cfg.faults.normalize();
    cfg.trace_file =
        benchio::trace_path(std::string("fig_tenancy_") + cell.key);
    return tenant::run_tenancy(machine(), cfg);
  };

  benchio::SweepStats stats;
  const std::vector<tenant::TenancyReport> cells =
      benchio::run_sweep(sweep, &stats);

  report.results() = obs::Json::array();
  bool all_ok = true;
  bool tenant_blocks_ok = true;
  double sweep_sim_events = 0;
  for (std::size_t run = 0; run < cells.size(); ++run) {
    const tenant::TenancyReport& r = cells[run];
    all_ok &= r.ok();
    sweep_sim_events += double(r.sim_events);
    // Every cell must publish the per-tenant completion histograms the
    // report tool groups on (CI greps the artifact for these blocks).
    for (const char* name : {"alice", "bob", "carol"}) {
      tenant_blocks_ok &=
          r.histograms.find((std::string("dsm.job_seconds.") + name)
                                .c_str()) != nullptr;
    }
    obs::Json entry = tenant::tenancy_report_to_json(r);
    entry["cell"] = sweep.cells[run].key;
    entry["load"] = sweep.cells[run].load;
    entry["managed"] = sweep.cells[run].managed;
    report.results().push_back(std::move(entry));
  }
  report.add_digest(cells[5].digest);  // the managed saturating run

  // The throughput–latency curve: goodput against completion quantiles,
  // managed and unmanaged columns side by side.
  std::printf("\n%-16s %5s %8s %9s %9s %9s %6s %5s %5s %5s\n", "cell",
              "load", "goodput", "p50(s)", "p99(s)", "mean(s)", "waits",
              "sw", "mig", "ok");
  for (std::size_t run = 0; run < cells.size(); ++run) {
    const tenant::TenancyReport& r = cells[run];
    std::printf("%-16s %5.2f %8.3f %9.4f %9.4f %9.4f %6zu %5llu %5llu %5s\n",
                sweep.cells[run].key, sweep.cells[run].load,
                r.goodput_jobs_per_sec, r.p50_job_seconds, r.p99_job_seconds,
                r.mean_job_seconds, r.admission_waits,
                static_cast<unsigned long long>(r.lm_router_switches),
                static_cast<unsigned long long>(r.lm_migrations),
                r.ok() ? "ok" : "FAIL");
  }

  // Per-tenant quantile table for the saturating managed cell: who pays
  // the tail, and what the manager did on whose behalf.
  {
    const tenant::TenancyReport& hot = cells[5];
    std::printf("\n# high-managed per-tenant completion quantiles:\n");
    std::printf("%-10s %6s %9s %9s %9s %5s %5s\n", "tenant", "jobs",
                "p50(s)", "p99(s)", "mean(s)", "sw", "mig");
    for (const auto& t : hot.tenants) {
      std::printf("%-10s %6zu %9.4f %9.4f %9.4f %5llu %5llu\n",
                  t.name.c_str(), t.jobs_completed, t.p50_job_seconds,
                  t.p99_job_seconds, t.mean_job_seconds,
                  static_cast<unsigned long long>(t.lm_router_switches),
                  static_cast<unsigned long long>(t.lm_migrations));
    }
    std::printf("\n# high-managed decision journal:\n");
    for (const auto& e : hot.lm_events) {
      std::printf("#   t=%.4f %s\n", e.time, e.what.c_str());
    }
  }

  // Acceptance gates, evaluated where management earns its keep: at the
  // saturating load the managed column must pull the completion tail in
  // AND push at least as many jobs per second through, having actually
  // done something (journaled actions, not a silent no-op win).
  const tenant::TenancyReport& hi_un = cells[4];
  const tenant::TenancyReport& hi_mg = cells[5];
  const bool tail_wins = hi_mg.p99_job_seconds < hi_un.p99_job_seconds;
  const bool goodput_holds =
      hi_mg.goodput_jobs_per_sec >= hi_un.goodput_jobs_per_sec;
  const bool acted =
      hi_mg.lm_router_switches + hi_mg.lm_migrations >= 1;
  std::printf("\n# saturating load: managed p99 %.4fs vs unmanaged %.4fs "
              "(%s), goodput %.3f vs %.3f (%s), %llu action(s)\n",
              hi_mg.p99_job_seconds, hi_un.p99_job_seconds,
              tail_wins ? "wins" : "DOES NOT win",
              hi_mg.goodput_jobs_per_sec, hi_un.goodput_jobs_per_sec,
              goodput_holds ? "holds" : "DROPS",
              static_cast<unsigned long long>(hi_mg.lm_router_switches +
                                              hi_mg.lm_migrations));
  std::printf("# per-tenant histogram blocks: %s\n",
              tenant_blocks_ok ? "present in every cell" : "MISSING");
  all_ok &= tail_wins && goodput_holds && acted && tenant_blocks_ok;

  benchio::stamp_sweep(report, stats, sweep_sim_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs\n", stats.cells,
              stats.jobs, stats.wall_clock_s);
  std::printf("# validation: %s\n", all_ok ? "all runs ok" : "FAILURES");
  return benchio::finish(report, all_ok);
}
