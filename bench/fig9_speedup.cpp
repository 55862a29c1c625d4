/// Figure 9 — Speedup of DSM-Sort pass 1 (run formation) over a passive
/// storage baseline, as ASUs are added to a single host.
///
/// Paper setup: 128-byte records / 4-byte keys, one host, ASUs at 1/8 the
/// host clock (c = 8), input pre-distributed across ASUs, distribute
/// functors on the ASUs. Series: alpha in {1,4,16,64,256} plus the
/// adaptive configuration (predictor-chosen alpha per machine shape).
/// Expected shape: high alpha far below 1.0 at D=2; all curves rise with
/// D; the host saturates around 16 ASUs, after which high alpha wins and
/// adaptive tracks the upper envelope.
///
/// The whole grid — 6 machine sizes x (baseline + 5 alphas + adaptive) =
/// 42 simulations — is declared as one SweepSpec and evaluated across
/// LMAS_JOBS threads. Every cell is an independent engine, results come
/// back in submission order, so the table and artifact are bit-identical
/// to a serial run; only the wall-clock fields move.
///
/// Alongside the text table, writes BENCH_fig9_speedup.json
/// (schema lmas-bench-v1) with per-run pass timings and, for the largest
/// machine's adaptive run, per-node utilization plus the full metrics
/// snapshot. Set LMAS_TRACE=1 to also export a Chrome trace of that run.

#include <array>
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

enum class Kind { kBaseline, kAlpha, kAdaptive };

/// One (machine size, configuration) grid point. Self-contained: run()
/// builds its own machine + config, so cells can execute on any thread.
struct Cell {
  unsigned asus = 0;
  Kind kind = Kind::kBaseline;
  unsigned alpha = 0;  ///< kAlpha: the series value; kAdaptive: alpha*
  bool detailed = false;
};

constexpr std::size_t kRecords = 1 << 22;

core::DsmSortReport run_cell(const Cell& cell) {
  asu::MachineParams mp;
  mp.num_hosts = 1;
  mp.num_asus = cell.asus;
  mp.c = 8.0;

  core::DsmSortConfig cfg;
  cfg.total_records = kRecords;
  cfg.log2_alpha_beta = 18;
  cfg.seed = 42;
  cfg.distribute_on_asus = cell.kind != Kind::kBaseline;
  if (cell.kind != Kind::kBaseline) cfg.alpha = cell.alpha;
  // The detailed (largest adaptive) cell additionally carries latency
  // quantiles and a host/ASU load time series into the artifact, and is
  // the one traced. Digest-neutral: its pinned digest is unaffected.
  if (cell.detailed) {
    cfg.trace_file = benchio::trace_path("fig9_adaptive");
    cfg.telemetry.histograms = true;
    cfg.telemetry.sampler = true;
  }
  return core::run_dsm_sort(mp, cfg);
}

}  // namespace

int main() {
  constexpr std::array<unsigned, 5> kAlphas{1, 4, 16, 64, 256};
  constexpr std::array<unsigned, 6> kAsus{2, 4, 8, 16, 32, 64};

  obs::BenchReport report("fig9_speedup");
  report.params()["records"] = double(kRecords);
  report.params()["hosts"] = 1;
  report.params()["c"] = 8.0;
  report.params()["log2_alpha_beta"] = 18;
  report.params()["alphas"] = obs::Json::array_of(
      std::vector<double>(kAlphas.begin(), kAlphas.end()));
  report.params()["asus"] = obs::Json::array_of(
      std::vector<double>(kAsus.begin(), kAsus.end()));
  report.results() = obs::Json::array();

  // Flatten the grid. The adaptive alpha is chosen by the (pure) cost
  // predictor, so it can be fixed before any simulation runs — that is
  // what lets the adaptive cells join the same parallel sweep.
  benchio::SweepSpec<Cell, core::DsmSortReport> sweep;
  sweep.report_name = "fig9_speedup";
  sweep.run_fn = run_cell;
  for (const auto d : kAsus) {
    asu::MachineParams mp;
    mp.num_hosts = 1;
    mp.num_asus = d;
    mp.c = 8.0;
    core::DsmSortConfig cfg;
    cfg.total_records = kRecords;
    cfg.log2_alpha_beta = 18;
    cfg.seed = 42;
    cfg.distribute_on_asus = true;
    const unsigned star = core::choose_alpha(mp, cfg, kAlphas);

    sweep.cells.push_back({.asus = d, .kind = Kind::kBaseline});
    for (const auto a : kAlphas) {
      sweep.cells.push_back({.asus = d, .kind = Kind::kAlpha, .alpha = a});
    }
    sweep.cells.push_back({.asus = d,
                           .kind = Kind::kAdaptive,
                           .alpha = star,
                           .detailed = d == kAsus.back()});
  }

  benchio::SweepStats stats;
  const std::vector<core::DsmSortReport> runs =
      benchio::run_sweep(sweep, &stats);

  std::printf("# Figure 9: DSM-Sort pass-1 speedup vs number of ASUs\n");
  std::printf("# n=%zu records (128B, 4B key), H=1, c=8, alpha*beta=2^18\n",
              kRecords);
  std::printf("%-8s %10s", "ASUs", "baseline");
  for (auto a : kAlphas) std::printf(" a=%-6u", a);
  std::printf(" %-8s %s\n", "adaptive", "(alpha*)");

  // Reassemble the table in grid order: each machine size owns a
  // contiguous slice of (1 + |alphas| + 1) results.
  bool all_ok = true;
  double total_sim_events = 0;
  constexpr std::size_t kPerRow = 1 + kAlphas.size() + 1;
  for (std::size_t row_i = 0; row_i < kAsus.size(); ++row_i) {
    const std::size_t base_i = row_i * kPerRow;
    const Cell& base_cell = sweep.cells[base_i];
    const core::DsmSortReport& base = runs[base_i];
    all_ok &= base.ok();
    total_sim_events += double(base.sim_events);

    obs::Json row = obs::Json::object();
    row["asus"] = double(base_cell.asus);
    row["baseline_pass1_seconds"] = base.pass1_seconds;
    std::printf("%-8u %9.3fs", base_cell.asus, base.pass1_seconds);

    obs::Json& by_alpha = row["by_alpha"];
    by_alpha = obs::Json::object();
    for (std::size_t k = 0; k < kAlphas.size(); ++k) {
      const core::DsmSortReport& rep = runs[base_i + 1 + k];
      all_ok &= rep.ok();
      total_sim_events += double(rep.sim_events);
      obs::Json cell = obs::Json::object();
      cell["pass1_seconds"] = rep.pass1_seconds;
      cell["speedup"] = base.pass1_seconds / rep.pass1_seconds;
      by_alpha[std::to_string(kAlphas[k])] = std::move(cell);
      std::printf(" %7.2f", base.pass1_seconds / rep.pass1_seconds);
    }

    const Cell& ad_cell = sweep.cells[base_i + 1 + kAlphas.size()];
    const core::DsmSortReport& ad = runs[base_i + 1 + kAlphas.size()];
    all_ok &= ad.ok();
    total_sim_events += double(ad.sim_events);
    row["adaptive_alpha"] = double(ad_cell.alpha);
    row["adaptive_pass1_seconds"] = ad.pass1_seconds;
    row["adaptive_speedup"] = base.pass1_seconds / ad.pass1_seconds;
    row["adaptive_digest"] = obs::digest_to_string(ad.digest);
    if (ad_cell.detailed) {
      report.add_digest(ad.digest);
      for (const auto& h : ad.hosts) {
        report.add_utilization(h.node, h.mean, ad.util_bin_seconds, h.series);
      }
      for (const auto& a : ad.asus) {
        report.add_utilization(a.node, a.mean, ad.util_bin_seconds, a.series);
      }
      report.root()["metrics"] = ad.metrics;
      report.root()["histograms"] = ad.histograms;
      report.root()["time_series"] = ad.time_series;
      row["sim_events"] = double(ad.sim_events);
    }
    report.results().push_back(std::move(row));
    std::printf(" %8.2f  (a=%u)\n", base.pass1_seconds / ad.pass1_seconds,
                ad_cell.alpha);
  }

  benchio::stamp_sweep(report, stats, total_sim_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs, "
              "speedup %.2fx, %.0f events/s\n",
              stats.cells, stats.jobs, stats.wall_clock_s,
              stats.parallel_speedup(),
              total_sim_events / stats.cell_seconds_total);
  std::printf("# validation: %s\n", all_ok ? "all runs ok" : "FAILURES");
  return benchio::finish(report, all_ok);
}
