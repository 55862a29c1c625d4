/// Figure 10 matrix — which routing regime keeps two hosts balanced under
/// skewed input: the same skewed DSM-Sort workload as fig10_skew (first
/// half uniform, second half exponential) at n = 2^22, swept over a
/// router axis, a load-manager axis and a perturbation axis.
///
/// Perturbations (fault plans scaled to the measured horizon H):
///
///   none    clean machine, no faults
///   mild    10% ASU background load + a mid-run 2x host-0 slowdown
///   severe  25% ASU background load + a 3x host-0 slowdown for the
///           middle third + a transient ASU crash (records park/retry)
///   mixed   a 3x host-0 degradation, two ASU slowdowns, an ASU crash-
///           and-recover window and a link delay/jitter window, with no
///           background load
///
/// Cells:
///
///   static-none              the fault-free static reference (Off)
///   {unmanaged,managed}-X    X in none/mild/severe: static routing with
///                            the LoadManager in Monitor mode (observes,
///                            never acts) vs Manage mode (hot-swaps the
///                            sort router to SR when host imbalance
///                            sustains and plans budgeted migrations
///                            through the pressure-driven placer)
///   <router>-none            round-robin / sr / least-loaded, manager Off
///                            (Ablation B: the routing policies alone)
///   <router>-mixed           static / sr / least-loaded, manager Off
///                            (routing under injected faults)
///
/// The reference runs first (serially: it fixes the horizon H that scales
/// the sampling period and the fault windows); the other cells then form
/// a SweepSpec evaluated through the parallel executor. Results come back
/// in submission order: bit-identical output at any LMAS_JOBS.
///
/// Acceptance gates: every run validates and stores every record it read;
/// at every intensity the managed cell beats its unmanaged counterpart on
/// pass-1 time, actionable-mean host imbalance and pass-1 tail latency
/// (to_sort queue-wait p99) without worsening the peak; across the
/// managed cells, at least one router switch, one migration and one
/// journaled placer decision; under the mixed plan, SR and least-loaded
/// each finish pass 1 strictly before static.
///
/// Writes BENCH_fig10_adapt.json (schema lmas-bench-v1): one entry per
/// cell carrying the full dsm_report_to_json payload, including the
/// manager's decision journal and the placer block. Set LMAS_TRACE=1 to
/// export Chrome traces (the load manager and the fault injector journal
/// onto their own tracks).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "fault/fault.hpp"
#include "obs/report.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace obs = lmas::obs;
namespace fault = lmas::fault;
namespace benchio = lmas::benchio;

namespace {

/// Perturbation: background load stolen from every ASU plus a
/// horizon-scaled fault plan (built once H is known).
enum class Intensity { None, Mild, Severe, Mixed };

double background_load(Intensity i) {
  switch (i) {
    case Intensity::Mild: return 0.10;
    case Intensity::Severe: return 0.25;
    case Intensity::None:
    case Intensity::Mixed: return 0.0;
  }
  return 0.0;
}

const char* intensity_name(Intensity i) {
  switch (i) {
    case Intensity::None: return "none";
    case Intensity::Mild: return "mild";
    case Intensity::Severe: return "severe";
    case Intensity::Mixed: return "mixed";
  }
  return "?";
}

asu::MachineParams machine(Intensity i) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 16;
  mp.c = 8.0;
  mp.util_bin = 0.05;
  // The perturbed cells steal a slice of every ASU's cycles for
  // unrelated storage-unit work (the paper's shared-ASU scenario).
  mp.asu_background_load = background_load(i);
  return mp;
}

core::DsmSortConfig base_config() {
  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 22;
  cfg.alpha = 16;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = 42;
  return cfg;
}

/// Control-loop tuning scaled to the measured horizon: ~64 samples per
/// run, act after 2 sustained hot samples, hold 4 after each action.
/// Managed cells get a 2-move per-tick budget so one gate opening can
/// fix both a hot host and a planned follow-up (the placer's virtual
/// rebalance keeps the two moves off the same destination). Off keeps
/// the default config: no monitor, no manager.
core::LoadManagerConfig manager_cfg(double H, core::LoadManagerMode mode) {
  core::LoadManagerConfig cfg;
  if (mode == core::LoadManagerMode::Off) return cfg;
  cfg.mode = mode;
  cfg.period = H / 64.0;
  cfg.promote_hysteresis = 2;
  cfg.demote_hysteresis = 4;
  cfg.cooldown_samples = 4;
  cfg.migrate_hysteresis = 2;
  cfg.dwell_samples = 8;
  cfg.budget_moves_per_tick = 2;
  return cfg;
}

/// Horizon-scaled fault plans per perturbation. Mild: host 0 at half
/// speed for a fifth of the run. Severe: host 0 at a third of its speed
/// for the middle third, plus a transient early ASU crash (accepted
/// records park and retry — nothing is lost) — the schedule the placer
/// must steer around rather than merely survive. Mixed: host 0 degrades
/// for the middle third; two ASUs slow down, one crashes and recovers;
/// the interconnect jitters late in the run — nothing static
/// partitioning can steer around.
fault::FaultPlan make_window(Intensity i, double H) {
  fault::FaultPlan plan;
  switch (i) {
    case Intensity::None:
      break;
    case Intensity::Mild:
      plan.slowdown(/*on_asu=*/false, 0, 0.40 * H, 0.20 * H, 2.0);
      break;
    case Intensity::Severe:
      plan.slowdown(/*on_asu=*/false, 0, 0.35 * H, 0.30 * H, 3.0);
      plan.crash(/*on_asu=*/true, 3, 0.15 * H, 0.05 * H);
      break;
    case Intensity::Mixed:
      plan.slowdown(/*on_asu=*/false, 0, 0.15 * H, 0.30 * H, 3.0);
      plan.slowdown(/*on_asu=*/true, 1, 0.10 * H, 0.20 * H, 4.0);
      plan.slowdown(/*on_asu=*/true, 5, 0.45 * H, 0.25 * H, 2.5);
      plan.crash(/*on_asu=*/true, 2, 0.25 * H, 0.15 * H);
      plan.link_delay(0.40 * H, 0.20 * H, /*extra=*/1e-4, /*jitter=*/5e-5);
      break;
  }
  plan.normalize();
  return plan;
}

struct Cell {
  core::LoadManagerMode lm = core::LoadManagerMode::Off;
  core::RouterKind router = core::RouterKind::Static;
  Intensity intensity = Intensity::None;
  const char* key = "";
};

/// One cell's run. Telemetry is on everywhere: per-stage latency
/// quantiles answer the tail question the mean imbalance hides (does
/// management shorten the p99 packet service time, not just the
/// average?), and the host-load series is the managed-vs-unmanaged
/// picture itself. Digest-neutral, so every cell's digest is its
/// telemetry-free run's. `H` = 0 (the reference, before H is known)
/// samples at the machine's utilization bin.
core::DsmSortReport run_cell(const Cell& cell, double H) {
  core::DsmSortConfig c = base_config();
  c.sort_router = cell.router;
  c.load_manager = manager_cfg(H, cell.lm);
  c.faults = make_window(cell.intensity, H);
  c.telemetry.histograms = true;
  c.telemetry.sampler = true;
  c.telemetry.sample_period = H / 64.0;  // aligned with the manager
  c.trace_file = benchio::trace_path(std::string("fig10_adapt_") + cell.key);
  return core::run_dsm_sort(machine(cell.intensity), c);
}

}  // namespace

int main() {
  using Mode = core::LoadManagerMode;
  using Router = core::RouterKind;
  obs::BenchReport report("fig10_adapt");
  {
    const core::DsmSortConfig cfg = base_config();
    report.params()["records"] = double(cfg.total_records);
    report.params()["hosts"] = 2;
    report.params()["asus"] = 16;
    report.params()["c"] = 8.0;
    report.params()["alpha"] = double(cfg.alpha);
    report.params()["key_dist"] = "half_uniform_half_exp";
    std::printf("# Figure 10 matrix: 2 hosts + 16 ASUs, n=%zu, skewed "
                "input, router x manager x perturbation\n",
                cfg.total_records);
  }
  report.results() = obs::Json::array();

  // Fault-free static reference: fixes the horizon H that scales the
  // sampling period and the perturbation windows. Serial by necessity.
  const Cell ref_cell{Mode::Off, Router::Static, Intensity::None,
                      "static-none"};
  const core::DsmSortReport base = run_cell(ref_cell, 0.0);
  const double H = base.pass1_seconds;
  std::printf("# horizon H = fault-free static pass 1 = %.3fs; manager "
              "period H/64 = %.4fs\n", H, H / 64.0);
  {
    obs::Json plans_json = obs::Json::object();
    for (Intensity i :
         {Intensity::Mild, Intensity::Severe, Intensity::Mixed}) {
      obs::Json plan_json = obs::Json::array();
      for (const auto& e : make_window(i, H).events) {
        const std::string d = fault::describe(e);
        std::printf("# perturbation[%s]: %s\n", intensity_name(i), d.c_str());
        plan_json.push_back(d);
      }
      plans_json[intensity_name(i)] = std::move(plan_json);
    }
    report.params()["fault_plans"] = std::move(plans_json);
    report.params()["manager_period"] = H / 64.0;
  }

  benchio::SweepSpec<Cell, core::DsmSortReport> sweep;
  sweep.report_name = "fig10_adapt";
  sweep.cells = {
      {Mode::Monitor, Router::Static, Intensity::None, "unmanaged-none"},
      {Mode::Manage, Router::Static, Intensity::None, "managed-none"},
      {Mode::Monitor, Router::Static, Intensity::Mild, "unmanaged-mild"},
      {Mode::Manage, Router::Static, Intensity::Mild, "managed-mild"},
      {Mode::Monitor, Router::Static, Intensity::Severe, "unmanaged-severe"},
      {Mode::Manage, Router::Static, Intensity::Severe, "managed-severe"},
      {Mode::Off, Router::RoundRobin, Intensity::None, "round-robin-none"},
      {Mode::Off, Router::SimpleRandomization, Intensity::None, "sr-none"},
      {Mode::Off, Router::LeastLoaded, Intensity::None, "least-loaded-none"},
      {Mode::Off, Router::Static, Intensity::Mixed, "static-mixed"},
      {Mode::Off, Router::SimpleRandomization, Intensity::Mixed, "sr-mixed"},
      {Mode::Off, Router::LeastLoaded, Intensity::Mixed,
       "least-loaded-mixed"},
  };
  sweep.run_fn = [H](const Cell& cell) { return run_cell(cell, H); };

  benchio::SweepStats stats;
  std::vector<core::DsmSortReport> cells = benchio::run_sweep(sweep, &stats);
  // The reference is the matrix's first row.
  sweep.cells.insert(sweep.cells.begin(), ref_cell);
  cells.insert(cells.begin(), base);
  const auto at = [&](const std::string& key) -> const core::DsmSortReport& {
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      if (key == sweep.cells[i].key) return cells[i];
    }
    std::fprintf(stderr, "no cell %s\n", key.c_str());
    std::abort();
  };

  bool all_ok = true;
  double sweep_sim_events = 0;
  for (std::size_t run = 0; run < cells.size(); ++run) {
    const core::DsmSortReport& r = cells[run];
    // Every record read must be stored, faults or not (the retry/park
    // delivery contract).
    all_ok &= r.ok() && r.records_stored == r.records_in;
    // events_per_sec divides by the sweep's cell time, which excludes
    // the serial reference.
    if (run > 0) sweep_sim_events += double(r.sim_events);
    obs::Json entry = core::dsm_report_to_json(r);
    entry["cell"] = sweep.cells[run].key;
    entry["managed"] = sweep.cells[run].lm == Mode::Manage;
    entry["intensity"] = intensity_name(sweep.cells[run].intensity);
    report.results().push_back(std::move(entry));
  }
  report.add_digest(at("managed-severe").digest);

  // Tail latencies per cell: sort-stage packet service time quantiles
  // from the run's latency histograms (the managed cells should pull the
  // p99 in, since migration/SR stop packets from queueing behind a hot
  // host). Values are sim seconds.
  const auto wait_p99 = [](const core::DsmSortReport& r) {
    const obs::Json* h = r.histograms.find("to_sort.queue_wait_seconds");
    const obs::Json* v = h != nullptr ? h->find("p99") : nullptr;
    return v != nullptr ? v->as_double() : 0.0;
  };

  // Managed vs unmanaged: only the cells whose monitor measured imbalance.
  std::printf("\n%-18s %10s %12s %12s %12s %9s %11s %7s\n", "cell",
              "pass1(s)", "mean.imbal", "peak.imbal", "wait.p99(s)",
              "switches", "migrations", "valid");
  for (std::size_t run = 0; run < cells.size(); ++run) {
    if (sweep.cells[run].lm == Mode::Off) continue;
    const auto& r = cells[run];
    std::printf("%-18s %10.3f %12.3f %12.3f %12.5f %9llu %11llu %7s\n",
                sweep.cells[run].key, r.pass1_seconds,
                r.mean_host_imbalance, r.peak_host_imbalance, wait_p99(r),
                static_cast<unsigned long long>(r.lm_router_switches),
                static_cast<unsigned long long>(r.lm_migrations),
                r.ok() ? "ok" : "FAIL");
  }

  // Routing policies alone on the clean machine: imbalance is the split
  // of sorted records between the two hosts.
  std::printf("\n# routing policy under skewed input, no faults, no "
              "manager\n%-18s %10s %12s %14s %14s\n",
              "policy", "pass1(s)", "imbalance", "host1 util", "host2 util");
  for (const char* key : {"static-none", "round-robin-none", "sr-none",
                          "least-loaded-none"}) {
    const auto& r = at(key);
    const double a = double(r.records_sorted_per_host[0]);
    const double b = double(r.records_sorted_per_host[1]);
    std::printf("%-18s %9.3fs %11.1f%% %14.2f %14.2f\n", key,
                r.pass1_seconds, 100.0 * std::abs(a - b) / (a + b),
                r.hosts[0].mean, r.hosts[1].mean);
  }

  // Routing under the mixed fault plan, against the faulted static run.
  const core::DsmSortReport& mixed_static = at("static-mixed");
  std::printf("\n# routing under the mixed fault plan, no manager\n"
              "%-20s %12s %12s %14s %10s\n",
              "cell", "pass1(s)", "vs static", "records lost", "valid");
  for (const char* key : {"static-mixed", "sr-mixed", "least-loaded-mixed"}) {
    const auto& r = at(key);
    std::printf("%-20s %12.3f %11.1f%% %14zu %10s\n", key, r.pass1_seconds,
                100.0 * (r.pass1_seconds / mixed_static.pass1_seconds - 1.0),
                r.records_in - r.records_stored, r.ok() ? "ok" : "FAIL");
  }
  std::printf("# fault-free static reference: %.3fs (mixed faults cost "
              "static +%.1f%%)\n", H,
              100.0 * (mixed_static.pass1_seconds / H - 1.0));

  std::printf("\n# decision journals:\n");
  for (std::size_t run = 0; run < cells.size(); ++run) {
    for (const auto& e : cells[run].lm_events) {
      std::printf("#   [%s] t=%.4f %s\n", sweep.cells[run].key, e.time,
                  e.what.c_str());
    }
  }
  std::printf("# placer decisions:\n");
  std::size_t placer_decisions = 0;
  for (std::size_t run = 0; run < cells.size(); ++run) {
    for (const auto& d : cells[run].lm_decisions) {
      ++placer_decisions;
      std::printf("#   [%s] t=%.4f i%zu %s -> %s (%s, %zu B, stall "
                  "%.5fs, gain %.4fs)\n",
                  sweep.cells[run].key, d.time, d.instance, d.from.c_str(),
                  d.to.c_str(), core::migration_mode_name(d.mode), d.bytes,
                  d.est_stall, d.gain);
    }
  }

  // Acceptance gates, per intensity. The imbalance comparison uses the
  // actionable-mean statistic: a raw peak saturates at 1.0 for both
  // runs, because the manager acts only AFTER observing the same
  // sustained-hot windows the unmanaged run suffers (and any
  // lone-straggler drain window reads as imbalance 1.0). What
  // management shrinks is how long the hot phases last — exactly what
  // the mean integrates. The peak must still not get worse, and the
  // pass-1 tail (queue-wait p99) must come in too.
  std::uint64_t switches = 0, migrations = 0;
  for (Intensity i : {Intensity::None, Intensity::Mild, Intensity::Severe}) {
    const std::string name = intensity_name(i);
    const core::DsmSortReport& unmanaged = at("unmanaged-" + name);
    const core::DsmSortReport& managed = at("managed-" + name);
    const bool wins =
        managed.pass1_seconds < unmanaged.pass1_seconds &&
        managed.mean_host_imbalance < unmanaged.mean_host_imbalance &&
        managed.peak_host_imbalance <= unmanaged.peak_host_imbalance &&
        wait_p99(managed) < wait_p99(unmanaged);
    std::printf("# managed %s unmanaged at intensity %s\n",
                wins ? "beats" : "DOES NOT beat", name.c_str());
    all_ok &= wins;
    switches += managed.lm_router_switches;
    migrations += managed.lm_migrations;
  }
  std::printf("# journaled across managed cells: %llu router switch(es), "
              "%llu migration(s), %zu placer decision(s)\n",
              static_cast<unsigned long long>(switches),
              static_cast<unsigned long long>(migrations),
              placer_decisions);
  all_ok &= switches >= 1 && migrations >= 1 && placer_decisions >= 1;

  // Under the identical mixed plan and seed, both dynamic routers must
  // beat static outright.
  const bool sr_wins =
      at("sr-mixed").pass1_seconds < mixed_static.pass1_seconds;
  const bool ll_wins =
      at("least-loaded-mixed").pass1_seconds < mixed_static.pass1_seconds;
  std::printf("# under mixed faults: SR %s static, least-loaded %s static\n",
              sr_wins ? "beats" : "DOES NOT beat",
              ll_wins ? "beats" : "DOES NOT beat");
  all_ok &= sr_wins && ll_wins;

  benchio::stamp_sweep(report, stats, sweep_sim_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs\n", stats.cells,
              stats.jobs, stats.wall_clock_s);
  std::printf("# validation: %s\n", all_ok ? "all runs ok" : "FAILURES");
  return benchio::finish(report, all_ok);
}
