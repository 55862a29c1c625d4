#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "asu/params.hpp"
#include "core/dsm_sort.hpp"
#include "core/load_manager.hpp"
#include "fault/plan.hpp"
#include "obs/json.hpp"
#include "sim/random.hpp"

namespace lmas::tenant {

/// The job shapes a tenant can submit. DsmSort runs the full embedded
/// two-stage pipeline (core::DsmSortJob); ActiveScan streams every ASU's
/// local share through a selective filter and reduces the survivors on a
/// host; RTreeBulkLoad sorts on a host (STR-style) and ships leaf pages
/// round-robin onto ASU disks.
enum class JobKind { DsmSort, ActiveScan, RTreeBulkLoad };

[[nodiscard]] const char* job_kind_name(JobKind k) noexcept;

/// One entry of a tenant's workload mix: a job shape, its relative draw
/// weight within the tenant, and the record count per submitted job.
struct JobMixEntry {
  JobKind kind = JobKind::DsmSort;
  double weight = 1.0;
  std::size_t records = std::size_t(1) << 14;
};

/// One tenant of the shared cluster. fair_share_weight scales every
/// job's CPU + wire charges at 1/weight (see DsmSortConfig); a weight of
/// 0 or less is rejected at construction. arrival_weight biases which
/// tenant each open-arrival draw lands on. An empty mix defaults to one
/// DsmSort entry.
struct TenantSpec {
  std::string name;
  double fair_share_weight = 1.0;
  double arrival_weight = 1.0;
  std::vector<JobMixEntry> mix;
};

/// Configuration of one multi-tenant serving run: the tenant set, the
/// seeded open-arrival process, the admission controller's caps, and the
/// (optional) cross-job load-management layer.
struct TenancyConfig {
  std::vector<TenantSpec> tenants;

  /// Open-arrival intensity, jobs per sim second (exponential
  /// inter-arrival times from the "tenant.arrivals" named stream).
  double offered_rate = 1.0;

  /// Jobs generated in total (the run ends when all have completed).
  std::size_t total_jobs = 8;

  std::uint64_t seed = 42;

  /// Admission controller: at most this many jobs in flight at once.
  std::size_t max_in_flight = 4;

  /// Admission controller: when > 0, an arrival additionally waits while
  /// the published mean per-node CPU backlog (host + ASU pressure)
  /// exceeds this many seconds. A job is always admitted when nothing is
  /// in flight, so the gate cannot deadlock an idle cluster. 0 disables
  /// the pressure gate (max_in_flight still applies).
  double pressure_limit = 0;

  /// Cross-job load management. Off = unmanaged (no monitor, manager, or
  /// lm.* metrics — the comparison baseline). Manage = one shared
  /// LoadMonitor plus a LoadManager arbitrating promote/demote and
  /// migration across every in-flight job (one client per job, labeled
  /// by tenant so lm.<tenant>.* counters aggregate per tenant).
  core::LoadManagerConfig load_manager;

  /// Cluster-level fault timeline, injected once by the scheduler. Empty =
  /// no injector spawned.
  fault::FaultPlan faults;

  /// Chrome-trace export path ("" = tracing off).
  std::string trace_file;

  /// Shape of submitted DSM-Sort jobs (kept small: many concurrent jobs,
  /// not one big one).
  unsigned job_alpha = 8;
  unsigned job_log2_alpha_beta = 10;

  /// The validation boundary of run_tenancy and ArrivalProcess: throws
  /// std::invalid_argument for total_jobs > 0 with no tenants or a
  /// non-positive offered_rate, max_in_flight == 0, a tenant fair-share
  /// or arrival weight <= 0, a mix entry with weight <= 0 or no records,
  /// a DSM-Sort job shape that DsmSortConfig::validate rejects, or an
  /// invalid load_manager.
  void validate() const;
};

/// One pre-generated arrival: when, who, what. job_seed derives from the
/// run seed and the arrival index (not from RNG draws), so every job is
/// reproducible in isolation.
struct ArrivalEvent {
  double time = 0;
  std::size_t tenant = 0;
  JobKind kind = JobKind::DsmSort;
  std::size_t records = 0;
  std::uint64_t job_seed = 0;
};

/// The seeded open-arrival schedule, generated eagerly at construction
/// from the "tenant.arrivals" named stream: exponential inter-arrivals
/// at offered_rate, tenant picked by arrival_weight, job shape picked by
/// mix weight. Deterministic — same config + seed reproduces the same
/// schedule (and fingerprint()) exactly, which is the determinism
/// contract the tenant-arrival property suite pins.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const TenancyConfig& cfg);

  [[nodiscard]] const std::vector<ArrivalEvent>& events() const noexcept {
    return events_;
  }

  /// Order-sensitive fold over the full schedule (times, tenants, kinds,
  /// sizes, seeds): two schedules are the same iff fingerprints match,
  /// up to hash collision.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  std::vector<ArrivalEvent> events_;
};

/// Per-tenant outcome block of a tenancy run.
struct TenantStats {
  std::string name;
  std::size_t jobs_completed = 0;
  std::size_t records_in = 0;
  std::size_t records_out = 0;
  bool conservation_ok = true;
  /// Job completion time (arrival → done, admission wait included).
  double mean_job_seconds = 0;
  double p50_job_seconds = 0;
  double p99_job_seconds = 0;
  std::uint64_t lm_migrations = 0;
  std::uint64_t lm_router_switches = 0;
};

/// One tenancy run's outcome; the shared tail (makespan, lm_*, metrics,
/// histograms, sim_events, digest) lives in core::RunReport. The lm_*
/// fields describe the shared cross-job arbiter, whose placer journal
/// labels each move by tenant.
struct TenancyReport : core::RunReport {
  double goodput_jobs_per_sec = 0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  /// Jobs that waited in the admission queue (cap or pressure gate).
  std::size_t admission_waits = 0;

  bool conservation_ok = true;  ///< AND over every job's own check

  double mean_job_seconds = 0;
  double p50_job_seconds = 0;
  double p99_job_seconds = 0;

  std::vector<TenantStats> tenants;

  std::uint64_t arrival_fingerprint = 0;

  [[nodiscard]] bool ok() const noexcept {
    return conservation_ok && jobs_completed == jobs_submitted;
  }
};

/// Run one multi-tenant serving experiment: N concurrent jobs on one
/// simulated cluster, seeded open arrivals, admission control, fair-share
/// charging, and (when configured) cross-job load management. Throws
/// std::invalid_argument at entry for an invalid config
/// (TenancyConfig::validate) or machine (core::ClusterRun).
TenancyReport run_tenancy(const asu::MachineParams& machine,
                          const TenancyConfig& cfg);

/// Serialize for a BENCH_*.json artifact (same conventions as
/// dsm_report_to_json: telemetry blocks present iff configured on).
[[nodiscard]] obs::Json tenancy_report_to_json(const TenancyReport& rep);

}  // namespace lmas::tenant
