#include "tenant/tenant.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <stdexcept>
#include <utility>

#include "asu/asu.hpp"
#include "core/cluster_run.hpp"
#include "obs/report.hpp"
#include "sim/sim.hpp"

namespace lmas::tenant {

namespace {

namespace sim = lmas::sim;
namespace asu_ns = lmas::asu;

/// Default mix for a tenant that declared none.
const std::vector<JobMixEntry>& default_mix() {
  static const std::vector<JobMixEntry> kMix = {JobMixEntry{}};
  return kMix;
}

const std::vector<JobMixEntry>& mix_of(const TenantSpec& ts) {
  return ts.mix.empty() ? default_mix() : ts.mix;
}

std::uint64_t fold64(std::uint64_t h, std::uint64_t v) noexcept {
  return sim::splitmix64_once(h ^ v);
}

}  // namespace

void TenancyConfig::validate() const {
  if (total_jobs > 0 && tenants.empty()) {
    throw std::invalid_argument(
        "TenancyConfig: total_jobs > 0 requires at least one tenant");
  }
  if (total_jobs > 0 && !(offered_rate > 0)) {
    throw std::invalid_argument(
        "TenancyConfig.offered_rate must be > 0 when jobs arrive");
  }
  if (max_in_flight == 0) {
    throw std::invalid_argument("TenancyConfig.max_in_flight must be >= 1");
  }
  for (const auto& ts : tenants) {
    if (!(ts.fair_share_weight > 0)) {
      throw std::invalid_argument("TenantSpec '" + ts.name +
                                  "': fair_share_weight must be > 0");
    }
    if (!(ts.arrival_weight > 0)) {
      throw std::invalid_argument("TenantSpec '" + ts.name +
                                  "': arrival_weight must be > 0");
    }
    for (const auto& m : ts.mix) {
      if (!(m.weight > 0)) {
        throw std::invalid_argument("TenantSpec '" + ts.name +
                                    "': mix weight must be > 0");
      }
      if (m.records == 0) {
        throw std::invalid_argument("TenantSpec '" + ts.name +
                                    "': mix records must be >= 1");
      }
    }
  }
  // The shape every DsmSort job is built with (tenant weight and seed
  // are filled per job and checked above or always valid).
  core::DsmSortConfig job;
  job.alpha = job_alpha;
  job.log2_alpha_beta = job_log2_alpha_beta;
  try {
    job.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("TenancyConfig job shape: ") +
                                e.what());
  }
  load_manager.validate();
}

const char* job_kind_name(JobKind k) noexcept {
  switch (k) {
    case JobKind::DsmSort: return "dsm-sort";
    case JobKind::ActiveScan: return "active-scan";
    case JobKind::RTreeBulkLoad: return "rtree-bulk-load";
  }
  return "?";
}

ArrivalProcess::ArrivalProcess(const TenancyConfig& cfg) {
  cfg.validate();
  if (cfg.total_jobs == 0 || cfg.tenants.empty()) return;

  double total_aw = 0;
  for (const auto& ts : cfg.tenants) total_aw += ts.arrival_weight;

  auto rng = sim::Rng(cfg.seed).stream(sim::stream_id("tenant.arrivals"));
  double t = 0;
  events_.reserve(cfg.total_jobs);
  for (std::size_t i = 0; i < cfg.total_jobs; ++i) {
    t += rng.exponential(cfg.offered_rate);

    // Tenant by arrival weight, then shape by mix weight: two uniform
    // draws per arrival, always consumed in the same order — the draw
    // count never depends on the outcome, so schedules with the same
    // seed are identical element-for-element.
    double u = rng.uniform() * total_aw;
    std::size_t tenant = 0;
    for (; tenant + 1 < cfg.tenants.size(); ++tenant) {
      u -= cfg.tenants[tenant].arrival_weight;
      if (u < 0) break;
    }
    const auto& mix = mix_of(cfg.tenants[tenant]);
    double total_mw = 0;
    for (const auto& m : mix) total_mw += m.weight;
    double v = rng.uniform() * total_mw;
    std::size_t entry = 0;
    for (; entry + 1 < mix.size(); ++entry) {
      v -= mix[entry].weight;
      if (v < 0) break;
    }

    ArrivalEvent ev;
    ev.time = t;
    ev.tenant = tenant;
    ev.kind = mix[entry].kind;
    ev.records = mix[entry].records;
    // Derived, not drawn: re-running job i standalone needs only the run
    // seed and the index.
    ev.job_seed = cfg.seed ^ sim::stream_id("tenant.job", i);
    events_.push_back(ev);
  }
}

std::uint64_t ArrivalProcess::fingerprint() const noexcept {
  std::uint64_t h = sim::stream_id("tenant.fingerprint", events_.size());
  for (const auto& ev : events_) {
    h = fold64(h, std::bit_cast<std::uint64_t>(ev.time));
    h = fold64(h, ev.tenant);
    h = fold64(h, std::uint64_t(ev.kind));
    h = fold64(h, ev.records);
    h = fold64(h, ev.job_seed);
  }
  return h;
}

namespace {

/// What one finished job reports back to the scheduler.
struct JobOutcome {
  std::size_t records_in = 0;
  std::size_t records_out = 0;
  bool conservation_ok = false;
};

/// Join state for a job's fan-out across ASUs (scan shards, leaf-page
/// writers): the parent waits on the condition until every shard counts
/// itself done. Lives in the parent coroutine's frame; the parent only
/// returns after the last shard has finished, so the pointer the shards
/// hold never dangles.
struct FanState {
  explicit FanState(sim::Engine& eng) : cv(eng) {}
  std::size_t done = 0;
  std::size_t processed = 0;
  sim::Condition cv;
};

/// The cluster-level scheduler behind run_tenancy: drives admission off
/// the pre-generated arrival schedule and launches per-tenant jobs on
/// the engine and cluster of its control plane, whose shared monitor +
/// cross-job LoadManager (when managed) every DsmSort job attaches to.
class TenantScheduler {
 public:
  TenantScheduler(const asu_ns::MachineParams& machine,
                  const TenancyConfig& cfg)
      : cfg_(cfg),
        arrivals_(cfg),
        plane_(machine, cfg.trace_file),
        eng_(plane_.engine()),
        cluster_(plane_.cluster()),
        mp_(cluster_.params()),
        d_(mp_.num_asus),
        h_(mp_.num_hosts),
        job_done_(eng_) {}

  TenancyReport run() {
    accum_.assign(cfg_.tenants.size(), TenantAccum{});

    // Job completion histograms (arrival → completion, admission wait
    // included), aggregate and per tenant: tail latency is the product.
    job_hist_ = &eng_.metrics().latency("dsm.job_seconds");
    for (const auto& ts : cfg_.tenants) {
      tenant_hists_.push_back(
          &eng_.metrics().latency("dsm.job_seconds." + ts.name));
    }

    // Shared management layer: one monitor feeding one cross-job
    // manager, built only when jobs arrive. stop_when_idle=false —
    // quiescent gaps between arrivals are normal in an open-arrival run
    // — so the last job completion must request_stop() or the monitor
    // would tick forever.
    const bool jobs = !arrivals_.events().empty();
    plane_.start(cfg_.faults, cfg_.seed,
                 jobs ? cfg_.load_manager : core::LoadManagerConfig{},
                 /*stop_when_idle=*/false);
    if (plane_.manager() != nullptr) {
      // Pre-register the per-tenant counters so they exist (at zero)
      // even for tenants whose jobs never trigger an action — the
      // artifact then has a stable shape across cells.
      for (const auto& ts : cfg_.tenants) {
        tenant_migrations_.push_back(
            &eng_.metrics().counter("lm." + ts.name + ".migrations"));
        tenant_switches_.push_back(
            &eng_.metrics().counter("lm." + ts.name + ".router_switches"));
      }
    }

    // Scan and bulk-load jobs count their records into one
    // `<tenant>.<kind>.records` counter per kind in the tenant's mix,
    // resolved once here, so a tenant's jobs share it.
    if (jobs) {
      kind_records_.assign(cfg_.tenants.size(), {});
      for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
        const TenantSpec& ts = cfg_.tenants[t];
        for (const JobMixEntry& m : mix_of(ts)) {
          if (const char* kind = fan_out_kind(m.kind)) {
            kind_records_[t][std::size_t(m.kind)] =
                &eng_.metrics().counter(ts.name + "." + kind + ".records");
          }
        }
      }
      eng_.spawn(admission(), "tenant-admission");
    }
    eng_.run_to_completion("tenancy run");
    return assemble();
  }

 private:
  struct TenantAccum {
    std::size_t jobs = 0;
    std::size_t records_in = 0;
    std::size_t records_out = 0;
    bool conservation_ok = true;
  };

  /// Published pressure: mean per-node CPU backlog (seconds of queued
  /// work) across hosts and ASUs — the aggregate signal the admission
  /// gate compares against pressure_limit.
  [[nodiscard]] double pressure() {
    double total = 0;
    for (unsigned i = 0; i < h_; ++i) total += cluster_.host(i).cpu().backlog();
    for (unsigned a = 0; a < d_; ++a) total += cluster_.asu(a).cpu().backlog();
    return total / double(h_ + d_);
  }

  /// Arrival + admission in one process: walk the pre-generated schedule
  /// in time order; each arrival is admitted once the in-flight cap and
  /// the pressure gate allow. A job with nothing in flight is always
  /// admitted (progress guarantee: the gate can defer, never starve).
  sim::Task<> admission() {
    const auto& events = arrivals_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const ArrivalEvent& ev = events[i];
      if (ev.time > eng_.now()) co_await eng_.sleep(ev.time - eng_.now());
      bool waited = false;
      while (in_flight_ >= cfg_.max_in_flight ||
             (in_flight_ > 0 && cfg_.pressure_limit > 0 &&
              pressure() > cfg_.pressure_limit)) {
        waited = true;
        co_await job_done_.wait();
      }
      if (waited) ++admission_waits_;
      ++in_flight_;
      ++jobs_submitted_;
      const std::string label =
          cfg_.tenants[ev.tenant].name + ".j" + std::to_string(i);
      eng_.spawn(run_job(ev, label), label);
    }
  }

  sim::Task<> run_job(ArrivalEvent ev, std::string label) {
    const TenantSpec& ts = cfg_.tenants[ev.tenant];
    JobOutcome out;
    switch (ev.kind) {
      case JobKind::DsmSort:
        co_await run_dsm_job(ev, ts, label, out);
        break;
      case JobKind::ActiveScan:
        co_await run_scan_job(ev, ts, label, out);
        break;
      case JobKind::RTreeBulkLoad:
        co_await run_bulk_load_job(ev, ts, label, out);
        break;
    }
    // Completion time includes the admission wait: arrival → done is
    // what a tenant experiences, and what the fig_tenancy tail reports.
    const double completion = eng_.now() - ev.time;
    job_hist_->observe(completion);
    tenant_hists_[ev.tenant]->observe(completion);
    TenantAccum& acc = accum_[ev.tenant];
    acc.jobs += 1;
    acc.records_in += out.records_in;
    acc.records_out += out.records_out;
    acc.conservation_ok = acc.conservation_ok && out.conservation_ok;
    --in_flight_;
    ++jobs_completed_;
    if (jobs_completed_ == arrivals_.events().size() &&
        plane_.monitor() != nullptr) {
      plane_.monitor()->request_stop();
    }
    job_done_.notify_all();
  }

  sim::Task<> run_dsm_job(const ArrivalEvent& ev, const TenantSpec& ts,
                          const std::string& label, JobOutcome& out) {
    core::DsmSortConfig jc;
    jc.total_records = ev.records;
    jc.alpha = cfg_.job_alpha;
    jc.log2_alpha_beta = cfg_.job_log2_alpha_beta;
    jc.key_dist = core::KeyDist::HalfUniformHalfExp;
    jc.sort_router = core::RouterKind::Static;
    jc.seed = ev.job_seed;
    jc.label = label;
    jc.metrics_scope = ts.name;
    jc.fair_share_weight = ts.fair_share_weight;
    // Build hint: Manage makes the job construct its SwitchableRouter so
    // the shared manager has something to promote/demote.
    jc.load_manager = cfg_.load_manager;

    core::DsmSortJob job(eng_, cluster_, jc);
    // Clients are labeled by TENANT (not job), so lm.<tenant>.* counters
    // aggregate a tenant's jobs and journal lines read as
    // "alice: plan migrate ...". The job detaches itself on completion.
    if (core::LoadManager* m = plane_.manager()) {
      job.attach_manager(*m, ts.name);
    }
    co_await job.body();
    const core::DsmSortReport& r = job.report();
    out.records_in = r.records_in;
    out.records_out = r.records_stored;
    out.conservation_ok = r.ok();
  }

  /// The name a fan-out job kind gives its shard tasks and its records
  /// counter; nullptr for DSM-Sort, whose job counts its own records.
  static const char* fan_out_kind(JobKind k) noexcept {
    switch (k) {
      case JobKind::ActiveScan: return "scan";
      case JobKind::RTreeBulkLoad: return "load";
      case JobKind::DsmSort: break;
    }
    return nullptr;
  }

  /// Fan a job's records out over every ASU — one shard task per ASU,
  /// named "<label>.<kind><a>" — wait for all of them, and account the
  /// job's records to its tenant's `<kind>.records` counter.
  template <typename MakeShard>
  sim::Task<> fan_out(const ArrivalEvent& ev, const std::string& label,
                      JobOutcome& out, MakeShard make_shard) {
    const char* kind = fan_out_kind(ev.kind);
    const std::size_t n = ev.records;
    FanState st(eng_);
    std::size_t assigned = 0;
    for (unsigned a = 0; a < d_; ++a) {
      const std::size_t share = n / d_ + (a < n % d_ ? 1 : 0);
      assigned += share;
      eng_.spawn(counted(make_shard(a, share), share, &st),
                 label + "." + kind + std::to_string(a));
    }
    while (st.done < d_) co_await st.cv.wait();
    kind_records_[ev.tenant][std::size_t(ev.kind)]->inc(st.processed);
    out.records_in = n;
    out.records_out = st.processed;
    out.conservation_ok = st.processed == n && assigned == n;
  }

  static sim::Task<> counted(sim::Task<> shard, std::size_t share,
                             FanState* st) {
    co_await std::move(shard);
    st->processed += share;
    st->done += 1;
    st->cv.notify_all();
  }

  /// Active scan: every ASU streams its local share off disk through a
  /// selective filter (the paper's filter functor — bounded per-record
  /// cost, safe on shared ASUs), ships survivors to one host, which
  /// reduces them. Deterministic 1/16 selectivity keeps the record
  /// accounting exact.
  sim::Task<> run_scan_job(const ArrivalEvent& ev, const TenantSpec& ts,
                           const std::string& label, JobOutcome& out) {
    asu_ns::Node* host = &cluster_.host(unsigned(ev.job_seed % h_));
    const double w = 1.0 / ts.fair_share_weight;
    co_await fan_out(ev, label, out,
                     [=, this](unsigned a, std::size_t share) {
                       return scan_shard(a, share, share / 16, host, w);
                     });
  }

  sim::Task<> scan_shard(unsigned a, std::size_t share, std::size_t selected,
                         asu_ns::Node* host, double w) {
    asu_ns::Node& node = cluster_.asu(a);
    if (share == 0) co_return;
    while (!node.running()) co_await node.health_wait();
    co_await node.disk().read(share * mp_.record_bytes);
    co_await node.compute(w * double(share) *
                          mp_.cost.scan_per_record(/*on_asu=*/true));
    if (selected > 0) {
      co_await cluster_.network().transfer(node, *host,
                                           selected * mp_.record_bytes);
      co_await host->compute(w * double(selected) * mp_.cost.host_handling);
    }
  }

  /// R-tree bulk load, STR-style: sort the entries on a host (two
  /// passes: order by one axis, tile by the other), pack leaf pages,
  /// stripe them across the ASUs' disks.
  sim::Task<> run_bulk_load_job(const ArrivalEvent& ev, const TenantSpec& ts,
                                const std::string& label, JobOutcome& out) {
    asu_ns::Node* host = &cluster_.host(unsigned(ev.job_seed % h_));
    const double w = 1.0 / ts.fair_share_weight;
    while (!host->running()) co_await host->health_wait();
    co_await host->compute(
        w * 2.0 * double(ev.records) *
        mp_.cost.sort_per_record(std::max<std::size_t>(ev.records, 2),
                                 /*on_asu=*/false));
    co_await fan_out(ev, label, out,
                     [=, this](unsigned a, std::size_t share) {
                       return load_shard(a, share, host, w);
                     });
  }

  sim::Task<> load_shard(unsigned a, std::size_t share, asu_ns::Node* host,
                         double w) {
    asu_ns::Node& node = cluster_.asu(a);
    if (share == 0) co_return;
    while (!node.running()) co_await node.health_wait();
    const std::size_t bytes = share * mp_.record_bytes;
    co_await host->nic_transfer(bytes, w);
    co_await cluster_.network().transfer(*host, node, bytes);
    co_await node.disk().write(bytes);
  }

  TenancyReport assemble() {
    TenancyReport rep;
    rep.makespan = eng_.now();
    rep.jobs_submitted = jobs_submitted_;
    rep.jobs_completed = jobs_completed_;
    rep.admission_waits = admission_waits_;
    rep.goodput_jobs_per_sec =
        rep.makespan > 0 ? double(jobs_completed_) / rep.makespan : 0;
    rep.mean_job_seconds = job_hist_->mean();
    rep.p50_job_seconds = job_hist_->quantile(0.5);
    rep.p99_job_seconds = job_hist_->quantile(0.99);
    rep.conservation_ok = true;
    for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
      TenantStats st;
      st.name = cfg_.tenants[t].name;
      st.jobs_completed = accum_[t].jobs;
      st.records_in = accum_[t].records_in;
      st.records_out = accum_[t].records_out;
      st.conservation_ok = accum_[t].conservation_ok;
      rep.conservation_ok = rep.conservation_ok && st.conservation_ok;
      st.mean_job_seconds = tenant_hists_[t]->mean();
      st.p50_job_seconds = tenant_hists_[t]->quantile(0.5);
      st.p99_job_seconds = tenant_hists_[t]->quantile(0.99);
      if (!tenant_migrations_.empty()) {
        st.lm_migrations = tenant_migrations_[t]->value();
        st.lm_router_switches = tenant_switches_[t]->value();
      }
      rep.tenants.push_back(std::move(st));
    }
    rep.arrival_fingerprint = arrivals_.fingerprint();
    plane_.finish(rep, /*latency_summaries=*/true);
    return rep;
  }

  TenancyConfig cfg_;
  ArrivalProcess arrivals_;
  core::ClusterRun plane_;
  sim::Engine& eng_;
  asu_ns::Cluster& cluster_;
  const asu_ns::MachineParams& mp_;
  unsigned d_;
  unsigned h_;
  sim::Condition job_done_;

  std::size_t in_flight_ = 0;
  std::size_t jobs_submitted_ = 0;
  std::size_t jobs_completed_ = 0;
  std::size_t admission_waits_ = 0;
  std::vector<TenantAccum> accum_;

  obs::LatencyHistogram* job_hist_ = nullptr;
  std::vector<obs::LatencyHistogram*> tenant_hists_;
  std::vector<obs::Counter*> tenant_migrations_;
  std::vector<obs::Counter*> tenant_switches_;
  /// Per tenant, its `<kind>.records` counter by JobKind (null for
  /// DSM-Sort and for kinds outside the tenant's mix).
  std::vector<std::array<obs::Counter*, 3>> kind_records_;
};

}  // namespace

TenancyReport run_tenancy(const asu::MachineParams& machine,
                          const TenancyConfig& cfg) {
  cfg.validate();
  TenantScheduler sched(machine, cfg);
  return sched.run();
}

obs::Json tenancy_report_to_json(const TenancyReport& rep) {
  obs::Json j = obs::Json::object();
  j["makespan"] = rep.makespan;
  j["goodput_jobs_per_sec"] = rep.goodput_jobs_per_sec;
  j["jobs_submitted"] = rep.jobs_submitted;
  j["jobs_completed"] = rep.jobs_completed;
  j["admission_waits"] = rep.admission_waits;
  j["ok"] = rep.ok();
  j["mean_job_seconds"] = rep.mean_job_seconds;
  j["p50_job_seconds"] = rep.p50_job_seconds;
  j["p99_job_seconds"] = rep.p99_job_seconds;
  j["lm_migrations"] = rep.lm_migrations;
  j["lm_router_switches"] = rep.lm_router_switches;
  j["sim_events"] = rep.sim_events;
  j["digest"] = obs::digest_to_string(rep.digest);
  j["arrival_fingerprint"] = obs::digest_to_string(rep.arrival_fingerprint);
  obs::Json tenants = obs::Json::object();
  for (const auto& t : rep.tenants) {
    obs::Json e = obs::Json::object();
    e["jobs_completed"] = t.jobs_completed;
    e["records_in"] = t.records_in;
    e["records_out"] = t.records_out;
    e["conservation_ok"] = t.conservation_ok;
    e["mean_job_seconds"] = t.mean_job_seconds;
    e["p50_job_seconds"] = t.p50_job_seconds;
    e["p99_job_seconds"] = t.p99_job_seconds;
    e["lm_migrations"] = t.lm_migrations;
    e["lm_router_switches"] = t.lm_router_switches;
    tenants[t.name] = std::move(e);
  }
  j["tenants"] = std::move(tenants);
  core::lm_blocks_to_json(j, rep);
  if (!rep.histograms.is_null()) j["histograms"] = rep.histograms;
  j["metrics"] = rep.metrics;
  return j;
}

}  // namespace lmas::tenant
