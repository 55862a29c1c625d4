#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asu/params.hpp"
#include "core/cluster_run.hpp"
#include "core/load_manager.hpp"
#include "core/routing.hpp"
#include "core/workload.hpp"
#include "fault/plan.hpp"
#include "obs/json.hpp"

namespace lmas::core {

/// Distribution-level telemetry for a DSM-Sort run (ISSUE: the registry's
/// scalar counters/gauges cannot answer tail questions). Everything here
/// defaults OFF and is digest-neutral when on: histograms are push-model
/// instruments fed from existing control flow, and the sampler is driven
/// by the engine's run loop at period boundaries rather than by a
/// scheduled process — no extra events, no RNG draws, no resource use,
/// so the pinned golden digests are bit-identical either way (only the
/// metrics snapshot grows, which is why the default stays off: the
/// goldens also pin a metrics fingerprint).
struct TelemetryConfig {
  /// Latency histograms: per-stage packet service time, per-packet queue
  /// wait and delivery time (StageSpec.telemetry on every stage),
  /// migration duration, and job/phase completion time. Quantile
  /// summaries land in DsmSortReport::histograms.
  bool histograms = false;

  /// Sim-time series: periodic snapshots of host/ASU CPU backlog, fault
  /// state (when a plan is active) and lm.* decisions (when managed)
  /// into bounded rings, emitted as DsmSortReport::time_series.
  bool sampler = false;

  /// Sampling period in sim seconds; 0 derives it from the machine's
  /// utilization bin so the series lines up with the utilization block.
  double sample_period = 0;
};

/// Configuration of the hybrid distribute/sort/merge program (Section 4.3).
/// DSM-Sort partitions records into alpha buckets, forms sorted runs of
/// beta records per bucket, and gamma-way merges the runs, with
/// alpha * beta * gamma = n and `Total Work = n log(alpha beta gamma)`.
/// Choosing alpha shifts comparisons between the ASU-resident distribute
/// functors and the host-resident sort functors — the knob behind Fig. 9.
struct DsmSortConfig {
  std::size_t total_records = 1 << 20;

  /// Distribute order (buckets). alpha = 1 degenerates to pure forwarding.
  unsigned alpha = 16;

  /// log2 of the fixed product K = alpha * beta: both configurations reach
  /// the same post-pass-1 sortedness (pass-2 fan-in gamma = n / K), so
  /// raising alpha lowers beta one-for-one in compare counts.
  unsigned log2_alpha_beta = 18;

  /// false = passive-storage baseline: conventional storage units stream
  /// raw blocks, all computation (full-K run formation) on the hosts.
  bool distribute_on_asus = true;

  /// Routing of subset packets across replicated host sort functors.
  /// Static partitioning is Fig. 10's unmanaged run; SR is the managed one.
  RouterKind sort_router = RouterKind::Static;

  KeyDist key_dist = KeyDist::Uniform;

  /// How distribute buckets are delimited: Range = equal-width key
  /// slices (assumes uniform keys); Sampled = quantile splitters from a
  /// key sample (balances stationary skew, but not time-varying skew —
  /// that is what SR routing addresses).
  enum class Splitters { Range, Sampled };
  Splitters splitters = Splitters::Range;

  /// Records per network packet; 0 derives it from the ASU memory bound
  /// (alpha staging buffers of packet_records * record_bytes must fit).
  std::size_t packet_records = 0;

  /// Run pass 2 (the final merges) as well; Fig. 9 reports pass 1 only.
  bool run_merge_pass = false;

  /// ASU-side pre-merge fan-in gamma_1 (gamma = gamma_1 * gamma_2 split
  /// between ASUs and hosts): 0 = merge all local runs per subset at the
  /// ASU, 1 = no ASU merge (hosts take the full fan-in).
  unsigned gamma1 = 0;

  std::uint64_t seed = 42;

  /// Spawn-name and trace-track prefix for this job ("<label>."
  /// prepended to every spawned-task name and tracer track). Empty (the
  /// default) keeps every name at its legacy form, so single-program
  /// runs and their pinned goldens are byte-identical. The tenant
  /// scheduler assigns a unique label per admitted job, so each job's
  /// tasks and tracks stay apart on the shared engine.
  std::string label;

  /// Instrument prefix for this job ("<metrics_scope>." prepended to
  /// every counter, gauge and histogram name); empty means `label`.
  /// Jobs that share a scope share its instruments: counters sum and
  /// histograms take every job's observations. The tenant scheduler
  /// sets the tenant's name, so the registry grows with tenants, not
  /// with jobs.
  std::string metrics_scope;

  /// Fair-share weight for multi-tenant charging: this job's CPU and
  /// wire charges scale at 1/weight, so a weight-2 tenant occupies
  /// shared resources half as long per unit of work (weighted fair
  /// sharing approximated at functor granularity; ASU disk time is the
  /// job's own data and is never scaled). Must be > 0 (see validate()).
  /// 1.0 multiplies exactly, so single-tenant runs stay bit-identical.
  double fair_share_weight = 1.0;

  /// Deterministic fault schedule driven while pass 1 runs (the injector
  /// drains its whole timeline inside the pass-1 event loop). Empty plan
  /// = injector never spawned: zero digest drift, zero extra metrics —
  /// fault-free runs stay bit-identical to pre-fault-layer builds.
  fault::FaultPlan faults;

  /// Online load management for pass 1 (Section 3.3). Off (the default)
  /// constructs neither monitor nor manager: zero extra events, zero
  /// extra metrics, pinned golden digests stay bit-for-bit intact.
  /// Monitor samples backlogs (peak_host_imbalance in the report) but
  /// never acts — sampling occupies no resources, so pass timings match
  /// Off exactly. Manage additionally hot-swaps the sort router between
  /// the configured `sort_router` baseline and SR, and migrates sort
  /// instances between hosts, paying state transfer plus
  /// kMigrationOverheadBytes per move.
  LoadManagerConfig load_manager;

  /// When non-empty, enable sim-time tracing for this run and export the
  /// Chrome trace-event file here (loadable in chrome://tracing or
  /// Perfetto). Benches wire this to the LMAS_TRACE environment variable.
  std::string trace_file;

  /// Latency histograms + sim-time series (see TelemetryConfig). Both
  /// default off; enabling them does not move the execution digest.
  TelemetryConfig telemetry;

  /// The validation boundary: run_dsm_sort and DsmSortJob call this
  /// once at entry. Throws std::invalid_argument for alpha == 0,
  /// log2_alpha_beta >= 64, fair_share_weight <= 0, or an invalid
  /// load_manager (LoadManagerConfig::validate).
  void validate() const;

  [[nodiscard]] std::size_t beta() const {
    const std::size_t k = std::size_t(1) << log2_alpha_beta;
    const std::size_t b = k / std::max(1u, alpha);
    return b == 0 ? 1 : b;
  }
  /// Effective run length on the host: the baseline forms full-K runs.
  [[nodiscard]] std::size_t host_run_length() const {
    return distribute_on_asus ? beta()
                              : (std::size_t(1) << log2_alpha_beta);
  }
};

/// Per-node utilization summary extracted from the simulation.
struct NodeUtilization {
  std::string node;
  double mean = 0;                   // busy fraction over the makespan
  std::vector<double> series;        // per-bin utilization (Fig. 10)
};

/// One DSM-Sort run's outcome; the shared tail (makespan, lm_*, metrics,
/// histograms, sim_events, digest) lives in RunReport.
struct DsmSortReport : RunReport {
  double pass1_seconds = 0;
  double pass2_seconds = 0;          // 0 when pass 2 not run

  std::size_t records_in = 0;
  std::size_t records_stored = 0;    // run records written back to ASUs
  std::size_t records_final = 0;     // pass-2 output records
  std::size_t runs_stored = 0;

  bool runs_sorted_ok = false;       // every stored run is key-sorted
  bool subsets_ok = false;           // records landed in the right bucket
  bool checksum_ok = false;          // key-sum conservation in == out
  // Pass 2 (if run): every subset's output is sorted and in its subset
  // (so globally ordered), records_final == records_in, and the output
  // key sum equals the input key sum.
  bool final_sorted_ok = false;

  std::vector<NodeUtilization> hosts;
  std::vector<NodeUtilization> asus;

  /// Records sorted per host (skew visibility for Fig. 10).
  std::vector<std::size_t> records_sorted_per_host;

  /// The monitor's peak and actionable-window-mean host imbalance (zero
  /// when load_manager.mode == Off). The peak saturates on any
  /// lone-straggler window; the mean is the managed-vs-unmanaged figure
  /// of merit.
  double peak_host_imbalance = 0;
  double mean_host_imbalance = 0;

  double util_bin_seconds = 0;

  /// The sampler's time-series block ({period, samples, times, series:
  /// {probe: [...]}}), when telemetry.sampler was on; null otherwise.
  obs::Json time_series;

  [[nodiscard]] bool ok() const {
    return runs_sorted_ok && subsets_ok && checksum_ok &&
           (pass2_seconds == 0 || final_sorted_ok);
  }
};

/// Serialize a report for a BENCH_*.json artifact: validation flags,
/// per-pass timings, per-node utilization series, and the metrics
/// snapshot.
[[nodiscard]] obs::Json dsm_report_to_json(const DsmSortReport& rep);

/// Execute DSM-Sort on an emulated cluster built from `machine`, timing it
/// with the discrete-event simulator. Records are really distributed,
/// sorted and merged; only time is modeled. The run's ClusterRun owns
/// the engine, the cluster, the fault injector and the monitor/manager
/// pair. Throws std::invalid_argument for an invalid config
/// (DsmSortConfig::validate) or machine (ClusterRun).
DsmSortReport run_dsm_sort(const asu::MachineParams& machine,
                           const DsmSortConfig& config);

class DsmSortSim;

/// One DSM-Sort embedded as a *job* on a shared engine/cluster (the
/// multi-tenant serving path): construction validates the config and
/// builds the pass-1 pipeline against the caller's cluster, body() is
/// the root coroutine the scheduler spawns, and report() is valid once
/// finished(). Jobs construct no monitor/manager, sampler, or fault
/// injector — the owner's control plane runs those for the whole
/// cluster (one shared LoadManager, see attach_manager) — so a config
/// carrying `faults`, `trace_file` or `telemetry.sampler` is rejected
/// with std::invalid_argument at construction, as is `run_merge_pass`
/// (pass 2 is unsupported). `load_manager` stays allowed: Manage makes
/// the job build the switchable router the shared manager drives. Give
/// each concurrent job a unique cfg.label, which names its tasks and
/// trace tracks; jobs with one cfg.metrics_scope aggregate into one set
/// of instruments.
class DsmSortJob {
 public:
  DsmSortJob(sim::Engine& eng, asu::Cluster& cluster,
             const DsmSortConfig& cfg);
  ~DsmSortJob();
  DsmSortJob(const DsmSortJob&) = delete;
  DsmSortJob& operator=(const DsmSortJob&) = delete;

  /// The job's root coroutine: spawns the pipeline instances, waits for
  /// all of them to drain, assembles the report. Spawn exactly once.
  [[nodiscard]] sim::Task<> body();

  [[nodiscard]] bool finished() const noexcept;

  /// Valid once finished(). Timings are relative to the job's own start
  /// (body()'s first resume), so pass1_seconds/makespan compose with an
  /// admission-queue wait measured by the scheduler. Engine-wide blocks
  /// (metrics/digest/utilization/time_series) are left empty — they
  /// belong to the shared engine's owner.
  [[nodiscard]] const DsmSortReport& report() const;

  /// Register this job as a client of a shared cross-job LoadManager
  /// (labeled `label`): its switchable sort router, if built, and its
  /// declared sort instances, whose consult points then plan → consult →
  /// confirm through that client. Call before spawning body(), which
  /// detaches the client when the job completes.
  void attach_manager(LoadManager& manager, const std::string& label);

 private:
  std::unique_ptr<DsmSortSim> sim_;
};

}  // namespace lmas::core
