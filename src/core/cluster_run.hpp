#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asu/params.hpp"
#include "core/load_manager.hpp"
#include "fault/plan.hpp"
#include "obs/json.hpp"

namespace lmas::fault {
class FaultInjector;
}

namespace lmas::core {

/// Report fields DsmSortReport and tenant::TenancyReport share: the
/// makespan, the load-management outcome, the engine-wide observability
/// blocks and the execution digest. ClusterRun::finish fills all but the
/// makespan, which each entry point measures itself.
struct RunReport {
  double makespan = 0;

  /// Load-management outcome (zero/empty when unmanaged): the manager's
  /// action counts, its text journal, and the structured placer journal
  /// (one entry per planned move with mode, priced bytes, stall
  /// estimate, gain). `lm_managed` records whether the run constructed a
  /// manager at all — config-driven, so the serialized `placer` block's
  /// presence never depends on runtime state.
  std::uint64_t lm_migrations = 0;
  std::uint64_t lm_router_switches = 0;
  std::vector<LoadManagerEvent> lm_events;
  bool lm_managed = false;
  std::vector<PlacerDecision> lm_decisions;

  /// Full registry snapshot of the run's engine (per-resource busy
  /// seconds / requests, per-channel bytes, per-functor record counts,
  /// routing choices, gauges) — everything a bench artifact needs.
  obs::Json metrics;

  /// Quantile summaries ({name: {count, mean, p50, p90, p99, max}}) of
  /// every latency histogram when the run asked for them; null
  /// otherwise (and then absent from the serialized artifact).
  obs::Json histograms;

  /// Events the engine processed for this run (simulator work metric).
  std::uint64_t sim_events = 0;

  /// Execution digest of the run's engine (see sim::Engine::digest):
  /// identical configuration + seed must reproduce this value exactly.
  std::uint64_t digest = 0;
};

/// Append the `lm_events` journal and — when the run was managed — the
/// `placer` decision block to an artifact object.
void lm_blocks_to_json(obs::Json& j, const RunReport& rep);

/// The run control plane (Section 3.3: load management is a system
/// service around whatever programs run on the cluster). One ClusterRun
/// owns the engine and the cluster of a single run_dsm_sort or
/// run_tenancy call, and builds the services every workload shares:
/// trace enablement, the fault injector, the load monitor and manager,
/// and the report tail. The workload borrows engine() and cluster(),
/// builds its own pipeline, calls start() and spawns its tasks, drives
/// the engine, then hands its report to finish().
class ClusterRun {
 public:
  /// Build the engine and the cluster for `machine`, rejecting a machine
  /// without hosts, ASUs or record bytes (std::invalid_argument). A
  /// non-empty `trace_file` enables sim-time tracing; finish() exports
  /// the Chrome trace there.
  ClusterRun(const asu::MachineParams& machine, std::string trace_file);
  ~ClusterRun();
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] asu::Cluster& cluster() noexcept { return cluster_; }

  /// Spawn the shared services ahead of the workload's own tasks, in the
  /// order the pinned digests fold: first the fault injector (a
  /// non-empty `faults` plan only, driven by the "faults" stream of
  /// `seed`), then — unless `lm.mode` is Off — the `load-monitor`
  /// process, feeding a LoadManager in Manage mode. Off, like an empty
  /// plan, builds nothing: no events, no metrics, no digest drift.
  /// `stop_when_idle` is LoadMonitor::start's; a caller that passes
  /// false must call monitor()->request_stop() when its work is done.
  void start(const fault::FaultPlan& faults, std::uint64_t seed,
             const LoadManagerConfig& lm, bool stop_when_idle);

  /// Null unless start() built them.
  [[nodiscard]] LoadMonitor* monitor() const noexcept {
    return monitor_.get();
  }
  [[nodiscard]] LoadManager* manager() const noexcept {
    return manager_.get();
  }

  /// Fill the shared report tail once the engine has drained: the lm_*
  /// fields, the metrics snapshot, the latency summaries (when
  /// `latency_summaries`), sim_events and the digest; then export the
  /// Chrome trace if one was requested.
  void finish(RunReport& rep, bool latency_summaries);

 private:
  std::string trace_file_;
  sim::Engine eng_;
  asu::Cluster cluster_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<LoadMonitor> monitor_;
  std::unique_ptr<LoadManager> manager_;
};

}  // namespace lmas::core
