#pragma once

/// Shared plumbing for the figure/ablation benches: every bench binary
/// writes a machine-readable BENCH_<name>.json next to its text output,
/// so the perf trajectory can be recorded run-over-run instead of
/// scraped from stdout.
///
/// The sweep helpers here are the front door to the parallel executor
/// (src/par): a bench declares its grid as a SweepSpec — a flat list of
/// self-contained cells plus a pure run function — and run_sweep()
/// evaluates the cells across LMAS_JOBS worker threads, returning
/// results in submission order. Because each cell owns a private
/// sim::Engine and results are slotted by index, the artifact bytes are
/// identical whether the sweep ran on 1 thread or 64 — only the
/// wall-clock fields stamped by stamp_sweep() differ.
///
/// google-benchmark microbenches use gbench_tee.hpp instead; this header
/// deliberately does not include benchmark.h.

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "par/executor.hpp"

namespace lmas::benchio {

/// Timing facts for one sweep. Everything here is wall-clock derived and
/// therefore machine-dependent: stamp_sweep() writes it into the
/// artifact's dedicated timing fields, never into "results".
struct SweepStats {
  unsigned jobs = 1;              ///< worker threads used
  std::size_t cells = 0;          ///< grid cells evaluated
  double wall_clock_s = 0;        ///< end-to-end sweep wall time
  double cell_seconds_total = 0;  ///< sum of per-cell wall times

  /// Observed speedup over running the same cells back-to-back on one
  /// thread: sum of per-cell times / elapsed wall time. ~jobs when the
  /// grid is wide and cells are balanced; 1.0 when jobs == 1.
  [[nodiscard]] double parallel_speedup() const {
    return wall_clock_s > 0 ? cell_seconds_total / wall_clock_s : 0.0;
  }
};

/// A declarative sweep: the full grid as a flat cell list plus the pure
/// function evaluating one cell. Cells must be self-contained (a cell
/// builds its own machine + config + engine inside run_fn) — run_fn runs
/// concurrently on executor threads and must not touch shared mutable
/// state. report_name names the BENCH_<name>.json artifact the caller
/// assembles from the results.
template <class Cell, class Result>
struct SweepSpec {
  std::string report_name;
  std::vector<Cell> cells;
  std::function<Result(const Cell&)> run_fn;
};

/// Evaluate every cell, jobs-wide, and return results in cell order
/// (results[i] is run_fn(cells[i]) regardless of which thread ran it or
/// when it finished). Fills *stats with the sweep's timing facts when
/// non-null. Throws whatever run_fn threw (first failing cell wins).
template <class Cell, class Result>
std::vector<Result> run_sweep(const SweepSpec<Cell, Result>& spec,
                              SweepStats* stats = nullptr) {
  using clock = std::chrono::steady_clock;
  par::Executor ex;
  std::vector<double> cell_seconds(spec.cells.size(), 0.0);
  const auto t0 = clock::now();
  std::vector<Result> results = par::map_ordered<Result>(
      ex, spec.cells.size(), [&](std::size_t i) {
        const auto c0 = clock::now();
        Result r = spec.run_fn(spec.cells[i]);
        cell_seconds[i] = std::chrono::duration<double>(clock::now() - c0)
                              .count();
        return r;
      });
  if (stats != nullptr) {
    stats->jobs = ex.jobs();
    stats->cells = spec.cells.size();
    stats->wall_clock_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    stats->cell_seconds_total = 0;
    for (double s : cell_seconds) stats->cell_seconds_total += s;
  }
  return results;
}

/// Stamp a sweep's timing facts into the artifact. These are the ONLY
/// machine-dependent fields a figure bench writes: they live at the
/// document root (never inside "results"), so artifacts from serial and
/// parallel runs of the same build differ exactly here and nowhere else.
/// total_sim_events, when > 0, also records engine throughput as
/// events_per_sec = simulated events per second of cell compute time —
/// the hot-path metric the microbenches track.
inline void stamp_sweep(obs::BenchReport& report, const SweepStats& stats,
                        double total_sim_events = 0) {
  report.root()["jobs"] = double(stats.jobs);
  report.set_wall_clock(stats.wall_clock_s);
  report.root()["cell_seconds_total"] = stats.cell_seconds_total;
  report.root()["parallel_speedup"] = stats.parallel_speedup();
  if (total_sim_events > 0 && stats.cell_seconds_total > 0) {
    report.set_events_per_sec(total_sim_events / stats.cell_seconds_total);
  }
}

/// The Chrome-trace path for `stem` ("trace_<stem>.json") when the
/// environment sets LMAS_TRACE=1; "" (tracing off) otherwise.
inline std::string trace_path(const std::string& stem) {
  const char* v = std::getenv("LMAS_TRACE");
  if (v == nullptr || v[0] != '1') return "";
  return "trace_" + stem + ".json";
}

/// The sweep benches' shared epilogue: stamp the verdict at the artifact
/// root, write it, and name the file (or say it could not be written).
/// Returns the process exit code: 0 iff `all_ok` and the write succeeded.
inline int finish(obs::BenchReport& report, bool all_ok) {
  report.root()["ok"] = all_ok;
  if (!report.write()) {
    std::printf("# FAILED to write %s\n", report.path().c_str());
    return 1;
  }
  std::printf("# bench artifact: %s\n", report.path().c_str());
  return all_ok ? 0 : 1;
}

}  // namespace lmas::benchio
