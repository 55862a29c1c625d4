/// Figure 10 — Effect of skew: host CPU utilization over time for two
/// DSM-Sort runs on two hosts and 16 ASUs, with and without load
/// management. The first half of the input is uniformly distributed, the
/// second half exponential, so static subset partitioning starves one
/// host mid-run; the load-managed run (SR routing of every subset across
/// both hosts) keeps utilizations nearly identical and terminates
/// earlier.
///
/// Both runs are declared as a two-cell SweepSpec and evaluated through
/// the parallel executor (LMAS_JOBS threads); results return in
/// submission order, so output is bit-identical to a serial run.
///
/// Alongside the text table, writes BENCH_fig10_skew.json
/// (schema lmas-bench-v1): one result entry per run carrying the full
/// dsm_report_to_json payload (per-pass timings, per-node utilization
/// series, per-host record shares, metrics snapshot). Set LMAS_TRACE=1
/// to also export Chrome trace files for both runs.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "obs/report.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace obs = lmas::obs;
namespace benchio = lmas::benchio;

namespace {

struct Cell {
  core::RouterKind router = core::RouterKind::Static;
  const char* key = "";
  const char* label = "";
};

core::DsmSortReport run_cell(const Cell& cell) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 16;
  mp.c = 8.0;
  mp.util_bin = 0.05;

  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 23;
  cfg.alpha = 16;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.seed = 42;
  cfg.sort_router = cell.router;
  cfg.trace_file = benchio::trace_path(std::string("fig10_") + cell.key);
  return core::run_dsm_sort(mp, cfg);
}

}  // namespace

int main() {
  constexpr std::size_t kRecords = std::size_t(1) << 23;
  constexpr double kUtilBin = 0.05;

  obs::BenchReport report("fig10_skew");
  report.params()["records"] = double(kRecords);
  report.params()["hosts"] = 2;
  report.params()["asus"] = 16;
  report.params()["c"] = 8.0;
  report.params()["alpha"] = 16.0;
  report.params()["util_bin_seconds"] = kUtilBin;
  report.params()["key_dist"] = "half_uniform_half_exp";
  report.results() = obs::Json::array();

  std::printf("# Figure 10: host CPU utilization under skew, 2 hosts + 16 "
              "ASUs, n=%zu\n", kRecords);
  std::printf("# input: first half uniform, second half exponential\n");

  benchio::SweepSpec<Cell, core::DsmSortReport> sweep;
  sweep.report_name = "fig10_skew";
  sweep.run_fn = run_cell;
  sweep.cells = {
      {core::RouterKind::Static, "static", "no load control"},
      {core::RouterKind::SimpleRandomization, "managed", "load-controlled"},
  };

  benchio::SweepStats stats;
  const std::vector<core::DsmSortReport> reports =
      benchio::run_sweep(sweep, &stats);

  bool all_ok = true;
  double total_sim_events = 0;
  for (std::size_t run = 0; run < reports.size(); ++run) {
    all_ok &= reports[run].ok();
    total_sim_events += double(reports[run].sim_events);
    obs::Json entry = core::dsm_report_to_json(reports[run]);
    entry["router"] = sweep.cells[run].key;
    report.results().push_back(std::move(entry));
  }
  // Top-level digest: the load-managed run (each result entry also
  // carries its own digest for per-run comparison across artifacts).
  report.add_digest(reports[1].digest);

  // One row per time bin, paper-style four series.
  std::printf("\n%-8s %16s %16s %18s %18s\n", "time(s)", "static.host1",
              "static.host2", "managed.host1", "managed.host2");
  const std::size_t bins = std::max(reports[0].hosts[0].series.size(),
                                    reports[1].hosts[0].series.size());
  auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  for (std::size_t b = 0; b < bins; ++b) {
    std::printf("%-8.2f %16.3f %16.3f %18.3f %18.3f\n",
                double(b) * kUtilBin,
                at(reports[0].hosts[0].series, b),
                at(reports[0].hosts[1].series, b),
                at(reports[1].hosts[0].series, b),
                at(reports[1].hosts[1].series, b));
  }

  for (std::size_t run = 0; run < reports.size(); ++run) {
    const auto& r = reports[run];
    const double a = double(r.records_sorted_per_host[0]);
    const double b = double(r.records_sorted_per_host[1]);
    std::printf("\n# %-16s makespan %.3fs | host shares %.0f / %.0f "
                "(imbalance %.1f%%) | mean util %.2f / %.2f\n",
                sweep.cells[run].label, r.pass1_seconds, a, b,
                100.0 * std::abs(a - b) / (a + b), r.hosts[0].mean,
                r.hosts[1].mean);
  }
  std::printf("# load-managed run ends %.1f%% earlier\n",
              100.0 * (1.0 - reports[1].pass1_seconds /
                                 reports[0].pass1_seconds));
  benchio::stamp_sweep(report, stats, total_sim_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs\n", stats.cells,
              stats.jobs, stats.wall_clock_s);
  std::printf("# validation: %s\n", all_ok ? "all runs ok" : "FAILURES");
  return benchio::finish(report, all_ok);
}
