#include "core/dsm_sort.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "asu/asu.hpp"
#include "core/pipeline.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "core/splitters.hpp"
#include "extmem/distribute.hpp"
#include "extmem/merge.hpp"
#include "extmem/radix_sort.hpp"
#include "extmem/record.hpp"
#include "sim/sim.hpp"

namespace lmas::core {

namespace {

namespace sim = lmas::sim;
namespace asu_ns = lmas::asu;
namespace em = lmas::em;

constexpr std::uint32_t kSubsetDoneMarker = 0xffffffffu;

/// Records a distribute instance generates and classifies per batch.
constexpr std::size_t kDistributeChunk = 256;

/// Fraction of a sort instance's staged records assumed re-dirtied while
/// a pre-copy bulk transfer runs in the background (the stalled delta on
/// top of kMigrationOverheadBytes). Declared to the placer and honored by
/// the consult point, so the priced stall and the paid stall agree.
constexpr double kPrecopyDirtyFraction = 0.125;

/// Wall-clock seconds on the emulation host (the paper's fine-grained
/// processor cycle counter, in portable form).
double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void DsmSortConfig::validate() const {
  if (alpha == 0) {
    throw std::invalid_argument("DsmSortConfig.alpha must be >= 1");
  }
  if (log2_alpha_beta >= 64) {
    throw std::invalid_argument(
        "DsmSortConfig.log2_alpha_beta must be < 64 (got " +
        std::to_string(log2_alpha_beta) + ")");
  }
  if (!(fair_share_weight > 0)) {
    throw std::invalid_argument(
        "DsmSortConfig.fair_share_weight must be > 0 (got " +
        std::to_string(fair_share_weight) + ")");
  }
  load_manager.validate();
}

/// Whole-program state for one emulated DSM-Sort execution on a
/// borrowed engine and cluster (the machine shape comes from the
/// cluster). Instance bodies are member coroutines; the object outlives
/// the engine run. Every track and spawn name is routed through
/// job_name() and every instrument through metric_name(), so an empty
/// cfg.label reproduces the legacy names byte-for-byte and the pinned
/// golden digests are untouched.
class DsmSortSim {
 public:
  DsmSortSim(sim::Engine& eng, asu_ns::Cluster& cluster,
             const DsmSortConfig& cfg)
      : mp_(cluster.params()),
        cfg_(cfg),
        eng_(eng),
        cluster_(cluster),
        d_(mp_.num_asus),
        h_(mp_.num_hosts),
        hosts_(tier(cluster, asu_ns::NodeKind::Host, h_)),
        asus_(tier(cluster, asu_ns::NodeKind::Asu, d_)),
        alpha_(cfg.distribute_on_asus ? cfg.alpha : 1),
        packet_records_(derive_packet_records()),
        block_records_(std::max<std::size_t>(
            1, std::size_t(64 * 1024) / mp_.record_bytes)),
        classifier_(make_classifier()),
        charge_scale_(1.0 / cfg.fair_share_weight) {}

  /// The standalone program (run_dsm_sort) on `plane`'s engine and
  /// cluster: pass 1 with the control plane's services, optionally
  /// pass 2, then the full report.
  DsmSortReport run(ClusterRun& plane) {
    dsm_track_ = eng_.tracer().track(job_name("dsm-sort"));
    build_pass1();
    plane.start(cfg_.faults, cfg_.seed, cfg_.load_manager,
                /*stop_when_idle=*/true);
    if (LoadManager* m = plane.manager()) attach_manager(*m, "");
    attach_sampler();
    spawn_pass1();
    eng_.run_to_completion("DSM-Sort pass 1");
    DsmSortReport rep;
    finish_pass1(rep);
    eng_.tracer().complete(dsm_track_, "pass1", 0.0, pass1_end_);
    eng_.metrics().gauge(metric_name("dsm.pass1_seconds")).set(pass1_end_);
    if (phase_hist_ != nullptr) phase_hist_->observe(pass1_end_);
    if (cfg_.run_merge_pass) {
      run_pass2(rep);
      eng_.tracer().complete(dsm_track_, "pass2", pass1_end_,
                             pass1_end_ + rep.pass2_seconds);
      eng_.metrics()
          .gauge(metric_name("dsm.pass2_seconds"))
          .set(rep.pass2_seconds);
      if (phase_hist_ != nullptr) phase_hist_->observe(rep.pass2_seconds);
    }
    rep.makespan = eng_.now();
    if (job_hist_ != nullptr) job_hist_->observe(rep.makespan);
    if (const LoadMonitor* monitor = plane.monitor()) {
      rep.peak_host_imbalance = monitor->peak_host_imbalance();
      rep.mean_host_imbalance = monitor->mean_host_imbalance();
    }
    collect_utilization(rep);
    if (sampler_ != nullptr) rep.time_series = sampler_->to_json();
    plane.finish(rep, cfg_.telemetry.histograms);
    return rep;
  }

  // ------------------------- embedded (job) mode ----------------------

  /// Build the pipeline against the shared cluster without spawning
  /// anything; DsmSortJob's constructor calls this once.
  void build_embedded() {
    if (cfg_.run_merge_pass) {
      throw std::invalid_argument(
          "DsmSortJob: run_merge_pass is not supported in embedded mode "
          "(pass 2 re-runs the engine, which a shared engine forbids)");
    }
    // The shared engine's owner runs these for the whole cluster; on a
    // job they would be silently dropped, so the run would be neither
    // faulted, traced nor sampled as configured.
    const auto owned_elsewhere = [](const char* field, const char* owner) {
      throw std::invalid_argument(std::string("DsmSortJob: ") + field +
                                  " is not supported in embedded mode; set "
                                  "it on " + owner);
    };
    if (!cfg_.faults.empty()) {
      owned_elsewhere("faults", "TenancyConfig.faults (ClusterRun::start)");
    }
    if (!cfg_.trace_file.empty()) {
      owned_elsewhere("trace_file",
                      "TenancyConfig.trace_file (the ClusterRun)");
    }
    if (cfg_.telemetry.sampler) {
      owned_elsewhere("telemetry.sampler",
                      "the engine's owner (its ClusterRun's sim::Engine)");
    }
    build_pass1();
  }

  /// Root coroutine of the embedded job: stamp the start time, launch
  /// the instances, wait until every one of them drains, then assemble
  /// the job-relative report. Completion is condition-driven — on a
  /// shared engine, "the event loop returned" is everyone's signal, not
  /// this job's.
  sim::Task<> job_body() {
    t0_ = eng_.now();
    spawn_pass1();
    while (finished_instances_ < total_instances_) {
      co_await pass1_done_.wait();
    }
    finish_pass1(rep_);
    rep_.makespan = eng_.now() - t0_;
    if (manager_ != nullptr) manager_->remove_client(client_);
    finished_flag_ = true;
  }

  [[nodiscard]] bool job_finished() const noexcept { return finished_flag_; }
  [[nodiscard]] const DsmSortReport& job_report() const { return rep_; }

  /// The one management attach path, shared by both modes: register a
  /// client of `manager`, hand it the switchable sort router (if built)
  /// and the sort instances (one per host, any host a candidate
  /// destination), each declaring its live working set and wire cost so
  /// the placer can price moves and pick pre-copy vs stop-copy. The
  /// consult point in sort_instance() then plans, consults and confirms
  /// through this client.
  void attach_manager(LoadManager& manager, const std::string& label) {
    manager_ = &manager;
    client_ = manager.add_client(label);
    if (switch_router_ != nullptr) {
      manager.client_router(client_, switch_router_);
    }
    std::vector<MigrationDeclaration> decls;
    for (unsigned hh = 0; hh < h_; ++hh) {
      decls.push_back(sort_declaration(hh));
    }
    manager.client_instances(client_, hosts_, hosts_, std::move(decls));
  }

 private:
  /// Prefix a track or spawn name with the job label. Empty label
  /// returns the legacy name unchanged (golden compatibility).
  [[nodiscard]] std::string job_name(const char* s) const {
    return cfg_.label.empty() ? std::string(s) : cfg_.label + "." + s;
  }

  /// Prefix an instrument name with the metrics scope, the label when
  /// no scope is set: jobs of one scope share each instrument.
  [[nodiscard]] std::string metric_name(const char* s) const {
    const std::string& scope =
        cfg_.metrics_scope.empty() ? cfg_.label : cfg_.metrics_scope;
    return scope.empty() ? std::string(s) : scope + "." + s;
  }

  /// Fair-share scaling for CPU charges. The ==1.0 fast path is not an
  /// optimization: it guarantees default-weight charges are the very
  /// same doubles as before this knob existed.
  [[nodiscard]] double scaled(double x) const {
    return charge_scale_ == 1.0 ? x : x * charge_scale_;
  }

  // ----------------------------- pass 1 -------------------------------

  /// Build the pass-1 pipeline: inboxes, routers, stage outputs,
  /// histograms and validation state. No coroutines are spawned yet.
  void build_pass1() {
    // The host-side inbox may buffer generously: hosts have large
    // memories (the model's asymmetry), and smooth pipelining requires
    // roughly K = alpha*beta records of slack to absorb the synchronized
    // beta-block fill waves across subsets. ASU-side inboxes stay small
    // (bounded ASU memory).
    const std::size_t host_inbox_packets = std::max<std::size_t>(
        64, mp_.host_memory / mp_.record_bytes / 2 /
                std::max<std::size_t>(1, packet_records_) / h_);
    sort_in_ = std::make_unique<StageInboxes>(eng_, h_, host_inbox_packets);
    store_in_ = std::make_unique<StageInboxes>(eng_, d_, 64);

    // Passive baseline has no subsets, so spread packets round-robin; the
    // active configurations route per the configured policy. Under the
    // load manager the baseline policy sits inside a SwitchableRouter
    // whose dynamic alternative is SR — not least-loaded: SR keeps every
    // instance fed, so the recv-side migration consult points keep
    // firing even on the host being drained. The decorator order is
    // Instrumented(Switchable(...)): route counters then attribute picks
    // to whichever regime made them.
    const RouterKind sort_kind =
        cfg_.distribute_on_asus ? cfg_.sort_router : RouterKind::RoundRobin;
    auto sort_stream = sim::Rng(cfg_.seed).stream(sim::stream_id("routing.sort"));
    std::unique_ptr<RoutingPolicy> sort_router;
    if (cfg_.load_manager.mode == LoadManagerMode::Manage &&
        cfg_.distribute_on_asus) {
      auto switchable = std::make_unique<SwitchableRouter>(
          make_router({.kind = sort_kind,
                       .rng = sort_stream,
                       .total_subsets = alpha_}),
          std::make_unique<SimpleRandomizationRouter>(
              sim::Rng(cfg_.seed)
                  .stream(sim::stream_id("routing.sort.dynamic"))));
      switch_router_ = switchable.get();
      sort_router = std::make_unique<InstrumentedRouter>(
          std::move(switchable), eng_, "sort");
    } else {
      sort_router = make_router({.kind = sort_kind,
                                 .rng = sort_stream,
                                 .total_subsets = alpha_,
                                 .instrument = &eng_,
                                 .label = "sort"});
    }
    to_sort_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = sort_in_->endpoints(hosts_),
                  .router = std::move(sort_router),
                  .producers = d_,
                  .name = job_name("to_sort"),
                  .metrics_prefix = metric_name("to_sort"),
                  .charge_scale = charge_scale_,
                  .telemetry = cfg_.telemetry.histograms});
    // Runs are striped across ASUs at packet granularity (Section 4.3:
    // merged/sorted runs are stored striped across the ASUs). On a
    // hierarchical topology the striping prefers the producing sort
    // instance's own rack (run_id encodes the producer: hh * 0x100000,
    // so run_id >> 20 recovers it; sort_rack_ tracks migrations), which
    // keeps run chunks off the oversubscribed spine. Flat topologies
    // stripe round-robin over every ASU.
    std::unique_ptr<RoutingPolicy> store_router;
    const asu_ns::TopologySpec& topo = cluster_.topology();
    if (topo.hierarchical()) {
      sort_rack_.assign(h_, 0);
      for (unsigned hh = 0; hh < h_; ++hh) {
        sort_rack_[hh] = topo.rack_of_host(hh);
      }
      store_router = std::make_unique<RackAffinityRouter>(
          [this](const Packet& p) {
            return sort_rack_[std::size_t(p.run_id >> 20) % h_];
          },
          [this](const asu_ns::Node* n) {
            return cluster_.topology().rack_of_asu(unsigned(n->id()));
          });
    } else {
      store_router = std::make_unique<RoundRobinRouter>();
    }
    to_store_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = store_in_->endpoints(asus_),
                  .router = std::move(store_router),
                  .producers = h_,
                  .name = job_name("to_store"),
                  .metrics_prefix = metric_name("to_store"),
                  .charge_scale = charge_scale_,
                  .telemetry = cfg_.telemetry.histograms});

    // Functor-level latency histograms (the per-packet delivery and
    // queue-wait instruments live inside the StageOutputs above). All
    // push-model: registered only on opt-in, fed from control flow that
    // runs anyway, so the digest and — when off — the metrics
    // fingerprint are untouched.
    if (cfg_.telemetry.histograms) {
      auto& reg = eng_.metrics();
      sort_hist_ = &reg.latency(metric_name("sort.packet_seconds"));
      store_hist_ = &reg.latency(metric_name("store.packet_seconds"));
      phase_hist_ = &reg.latency(metric_name("dsm.phase_seconds"));
      job_hist_ = &reg.latency(metric_name("dsm.job_seconds"));
      if (cfg_.load_manager.mode == LoadManagerMode::Manage) {
        migration_hist_ = &reg.latency(metric_name("lm.migration_seconds"));
      }
    }

    if (cfg_.run_merge_pass) stored_.assign(d_, {});
    records_sorted_per_host_.assign(h_, 0);
    sort_records_counter_.assign(h_, nullptr);
    sort_staged_records_.assign(h_, 0);
    store_end_.assign(d_, 0.0);
  }

  /// Standalone only: the passive sim-time sampler, driven from the
  /// engine's run loop (see Engine::set_sampler), NOT a scheduled
  /// process — a sampling coroutine would add events and move the
  /// digest. Probe order is fixed by configuration, so serial and
  /// parallel sweeps emit identical time_series blocks.
  void attach_sampler() {
    if (cfg_.telemetry.sampler) {
      const double period = cfg_.telemetry.sample_period > 0
                                ? cfg_.telemetry.sample_period
                                : mp_.util_bin;
      sampler_ = std::make_unique<obs::Sampler>(period);
      for (unsigned i = 0; i < h_; ++i) {
        sampler_->add_probe(
            "host.load." + std::to_string(i),
            [n = &cluster_.host(i)] { return n->cpu().backlog(); });
      }
      for (unsigned a = 0; a < d_; ++a) {
        sampler_->add_probe(
            "asu.backlog." + std::to_string(a),
            [n = &cluster_.asu(a)] { return n->cpu().backlog(); });
      }
      if (!cfg_.faults.empty()) {
        sampler_->add_probe("fault.nodes_impaired", [this] {
          double n = 0;
          for (unsigned i = 0; i < h_; ++i) {
            if (cluster_.host(i).health() != asu_ns::NodeHealth::Healthy) {
              ++n;
            }
          }
          for (unsigned a = 0; a < d_; ++a) {
            if (cluster_.asu(a).health() != asu_ns::NodeHealth::Healthy) {
              ++n;
            }
          }
          return n;
        });
      }
      if (manager_ != nullptr) {
        sampler_->add_probe("lm.migrations", [this] {
          return double(manager_->migrations());
        });
        sampler_->add_probe("lm.router_switches", [this] {
          return double(manager_->router_switches());
        });
        if (switch_router_ != nullptr) {
          sampler_->add_probe("lm.router_dynamic", [this] {
            return switch_router_->dynamic_active() ? 1.0 : 0.0;
          });
        }
      }
      eng_.set_sampler(sampler_.get());
    }
  }

  /// Launch the pass-1 instance coroutines as bare roots (the pinned
  /// digests fold their spawn names, in this order). Each instance counts
  /// itself finished as its last step (instance_done), which is how
  /// job_body() detects drain on a shared engine, where Engine::run()
  /// returning is not this job's signal.
  void spawn_pass1() {
    total_instances_ = std::size_t(d_) + h_ + d_;
    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(distribute_instance(a),
                 job_name("distribute") + std::to_string(a));
    }
    for (unsigned hh = 0; hh < h_; ++hh) {
      eng_.spawn(sort_instance(hh), job_name("sort") + std::to_string(hh));
    }
    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(store_instance(a), job_name("store") + std::to_string(a));
    }
  }

  /// Count one pass-1 instance finished; the last one wakes job_body().
  /// A standalone run has no waiter, so the notify schedules nothing.
  void instance_done() {
    if (++finished_instances_ == total_instances_) pass1_done_.notify_all();
  }

  /// The finishing step both modes share once pass 1 has drained.
  void finish_pass1(DsmSortReport& rep) {
    pass1_end_ = *std::max_element(store_end_.begin(), store_end_.end());
    rep.pass1_seconds = pass1_end_ - t0_;
    validate_pass1(rep);
  }

  static std::vector<asu_ns::Node*> tier(asu_ns::Cluster& cluster,
                                         asu_ns::NodeKind kind, unsigned n) {
    std::vector<asu_ns::Node*> nodes;
    for (unsigned i = 0; i < n; ++i) nodes.push_back(&cluster.node(kind, i));
    return nodes;
  }

  /// The migration economics of sort instance `hh`: its working set is
  /// the records currently staged toward incomplete runs (exactly the
  /// bytes the consult point ships), the fixed overhead is the control/
  /// context cost every move pays, and the wire cost is the declared
  /// host-to-host path (serialize out of one NIC, across a link, into
  /// the other NIC) — an estimate for *pricing*; the actual transfer is
  /// charged by the network model when the move executes.
  [[nodiscard]] MigrationDeclaration sort_declaration(unsigned hh) {
    MigrationDeclaration decl;
    decl.working_set_bytes = [this, hh] {
      return sort_staged_records_[hh] * mp_.record_bytes;
    };
    decl.wire_seconds_per_byte =
        2.0 / mp_.host_nic_bandwidth + 1.0 / mp_.link_bandwidth;
    decl.dirty_fraction = kPrecopyDirtyFraction;
    return decl;
  }

  /// Per-ASU workload stream: the splitter pre-pass must regenerate the
  /// exact key sequence each distribute instance will see, so both draw
  /// from the same named stream. Independent of the routing stream by
  /// construction (distinct stream ids), not by seed arithmetic.
  [[nodiscard]] sim::Rng workload_stream(unsigned a) const {
    return sim::Rng(cfg_.seed).stream(sim::stream_id("workload", a));
  }

  [[nodiscard]] std::size_t local_share(unsigned a) const {
    const std::size_t base = cfg_.total_records / d_;
    const std::size_t extra = a < cfg_.total_records % d_ ? 1 : 0;
    return base + extra;
  }

  /// One distribute instance's per-subset staging buffers and the state
  /// that decides when a buffer is flushed as a packet.
  struct Staging {
    std::vector<Packet> buffers;     // one per subset
    std::vector<std::uint32_t> seq;  // next packet seq per subset
    std::size_t staged_records = 0;
    std::size_t budget_records = 0;
    std::uint32_t next_id = 0;
  };

  sim::Task<> distribute_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    obs::Counter& records_done =
        eng_.metrics().counter(metric_name("functor.distribute") +
                               std::to_string(a) + ".records");
    const std::size_t n_local = local_share(a);
    if (n_local == 0) {
      to_sort_->producer_done();
      instance_done();
      co_return;
    }
    KeyGenerator gen(cfg_.key_dist, n_local, workload_stream(a));
    asu_ns::Disk::ReadStream rs(node.disk(),
                                block_records_ * mp_.record_bytes);

    Staging st;
    st.buffers.resize(alpha_);
    st.seq.assign(alpha_, 0);
    for (unsigned s = 0; s < alpha_; ++s) {
      st.buffers[s].subset = s;
      st.buffers[s].records = to_sort_->pool().acquire(packet_records_);
    }

    const double per_record_cpu =
        cfg_.distribute_on_asus
            ? mp_.cost.distribute_per_record(cfg_.alpha, /*on_asu=*/true)
            : 0.0;  // conventional storage: no integrated processing

    // The staged-record budget is the ASU memory bound; when staging
    // grows past it, the fullest subset buffer is flushed as a (possibly
    // partial) packet. This keeps ASU state bounded while records flow
    // downstream continuously instead of bursting at end-of-input.
    st.budget_records = std::max<std::size_t>(
        packet_records_, mp_.asu_memory / mp_.record_bytes / 2);
    st.next_id = a * 0x1000000u;

    std::size_t remaining = n_local;
    std::vector<Packet> ready;
    while (remaining > 0) {
      // Degraded modes: a crashed ASU stops reading/classifying until it
      // recovers (one branch on the healthy path, no engine work).
      while (!node.running()) co_await node.health_wait();
      const std::size_t blk = std::min(block_records_, remaining);
      remaining -= blk;
      co_await rs.next_block(/*last=*/remaining == 0);

      // Execute the real classification for this block; flushes are
      // collected and emitted after the (possibly measured) CPU charge.
      ready.clear();
      const double w0 = wall_seconds();
      distribute_records(blk, gen, st, ready);
      const double wall = wall_seconds() - w0;
      records_done.inc(blk);

      if (cfg_.distribute_on_asus) {
        // Measured mode times the real classification kernel; the
        // per-record I/O-path handling is not executed by the emulation
        // (disk and NIC are models), so it stays a declared charge.
        const double charge =
            mp_.measured_timing
                ? wall * mp_.measured_scale +
                      double(blk) * mp_.cost.asu_handling
                : double(blk) * per_record_cpu;
        if (charge > 0) co_await node.compute(scaled(charge));
      }
      for (auto& pkt : ready) {
        co_await to_sort_->emit(node, std::move(pkt));
      }
    }
    ready.clear();
    for (unsigned s = 0; s < alpha_; ++s) {
      if (!st.buffers[s].records.empty()) {
        stage_ready(st.buffers[s], st.seq[s], ready, to_sort_->pool(),
                    packet_records_);
      }
    }
    for (auto& pkt : ready) {
      co_await to_sort_->emit(node, std::move(pkt));
    }
    to_sort_->producer_done();
    instance_done();
  }

  /// Distribute the next `n` records of an ASU's input in two phases,
  /// partition then stage, per chunk of kDistributeChunk: generate the
  /// keys (checksum and count in the same loop), classify them all, then
  /// stage the records in input order, so flush points are those of a
  /// per-record loop. Flushed packets go to `ready`. A plain function,
  /// not part of the coroutine, so the arrays live on the stack rather
  /// than in every suspended instance's frame.
  void distribute_records(std::size_t n, KeyGenerator& gen, Staging& st,
                          std::vector<Packet>& ready) {
    std::array<std::uint32_t, kDistributeChunk> keys;
    std::array<std::uint32_t, kDistributeChunk> subsets{};
    for (std::size_t done = 0; done < n;) {
      const std::size_t m = std::min(kDistributeChunk, n - done);
      done += m;
      std::uint64_t checksum = 0;
      for (std::size_t i = 0; i < m; ++i) {
        keys[i] = gen.next();
        checksum += keys[i];
      }
      key_sum_in_ += checksum;
      records_in_ += m;
      if (cfg_.distribute_on_asus) {
        classifier_.classify(std::span(keys).first(m), subsets);
      }
      for (std::size_t i = 0; i < m; ++i) {
        Packet& slot = st.buffers[subsets[i]];
        slot.records.push_back({keys[i], st.next_id++});
        ++st.staged_records;
        if (slot.records.size() >= packet_records_) {
          st.staged_records -= slot.records.size();
          stage_ready(slot, st.seq[subsets[i]], ready, to_sort_->pool(),
                      packet_records_);
        } else if (st.staged_records >= st.budget_records) {
          std::size_t fullest = 0;
          for (unsigned t = 1; t < alpha_; ++t) {
            if (st.buffers[t].records.size() >
                st.buffers[fullest].records.size()) {
              fullest = t;
            }
          }
          st.staged_records -= st.buffers[fullest].records.size();
          stage_ready(st.buffers[fullest], st.seq[fullest], ready,
                      to_sort_->pool(), packet_records_);
        }
      }
    }
  }

  /// Flush one staging slot into `ready`, refilling the slot with a
  /// recycled buffer so the next fill starts at full capacity without a
  /// fresh allocation.
  static void stage_ready(Packet& slot, std::uint32_t& seq,
                          std::vector<Packet>& ready, PacketPool& pool,
                          std::size_t capacity) {
    Packet out;
    out.subset = slot.subset;
    out.seq = seq++;
    out.records = std::move(slot.records);
    slot.records = pool.acquire(capacity);
    ready.push_back(std::move(out));
  }

  sim::Task<> sort_instance(unsigned hh) {
    // The instance's location is mutable state: the load manager may
    // re-pin it to another host mid-stream (functor migration).
    asu_ns::Node* node = &cluster_.host(hh);
    auto& in = sort_in_->inbox(hh);
    const std::uint32_t track =
        eng_.tracer().track(job_name("sort") + std::to_string(hh));
    const std::size_t run_len = cfg_.host_run_length();
    std::unordered_map<std::uint32_t, std::vector<em::KeyRecord>> staging;
    std::uint32_t next_run_id = hh * 0x100000u;

    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_sort_->consumed(*p, track);
      const double t_take = eng_.now();
      // Accepted packets stay queued across a crash window; processing
      // pauses here and resumes on recovery (nothing is lost).
      while (!node->running()) co_await node->health_wait();
      // Migration consult point: between packets, the functor's state is
      // exactly its staged records, so that is what the move ships (plus
      // the fixed control/context overhead). Packets already in flight
      // complete against the old location's accounting.
      if (manager_ != nullptr) {
        const MigrationPlan& plan = manager_->migration_plan(client_, hh);
        asu_ns::Node* target = plan.to;
        if (target != nullptr && target != node) {
          std::size_t staged = 0;
          for (const auto& [s, buf] : staging) staged += buf.size();
          const std::size_t state_bytes = staged * mp_.record_bytes;
          const double t_move = eng_.now();
          if (plan.mode == MigrationMode::PreCopy && state_bytes > 0) {
            // Pre-copy: the bulk state ships in the background (its
            // wire charges are real, but the instance does not wait on
            // them); the stalled transfer is only the fixed overhead
            // plus the dirty delta assumed re-staged meanwhile.
            eng_.spawn(precopy_bulk(*node, *target, state_bytes),
                       job_name("sort") + std::to_string(hh) + ".precopy");
            const std::size_t dirty = std::size_t(
                double(state_bytes) * kPrecopyDirtyFraction);
            co_await cluster_.network().transfer(
                *node, *target, dirty + kMigrationOverheadBytes);
          } else {
            // Stop-copy: freeze for the whole working set + overhead.
            co_await cluster_.network().transfer(
                *node, *target, state_bytes + kMigrationOverheadBytes);
          }
          if (migration_hist_ != nullptr) {
            migration_hist_->observe(eng_.now() - t_move);
          }
          if (p->trace_id != 0 && eng_.tracer().enabled()) {
            // The re-pin shows up in the packet's flow lane: the packet
            // that triggered the consult carries the move.
            eng_.tracer().flow_step(track,
                                    "migrate->" + target->cpu().name(),
                                    eng_.now(), p->trace_id);
          }
          node = target;
          if (!sort_rack_.empty()) {
            sort_rack_[hh] =
                cluster_.topology().rack_of_host(unsigned(target->id()));
          }
          to_sort_->set_target_node(hh, *target);
          manager_->migration_performed(client_, hh, *target);
        }
      }
      const std::uint64_t parent_flow = p->trace_id;
      auto& buf = staging[p->subset];
      buf.insert(buf.end(), p->records.begin(), p->records.end());
      sort_staged_records_[hh] += p->records.size();
      to_sort_->pool().release(std::move(p->records));
      while (buf.size() >= run_len) {
        std::vector<em::KeyRecord> block(buf.begin(),
                                         buf.begin() + std::ptrdiff_t(run_len));
        buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(run_len));
        sort_staged_records_[hh] -= run_len;
        co_await emit_run(*node, hh, p->subset, std::move(block),
                          next_run_id++, parent_flow);
      }
      if (sort_hist_ != nullptr) sort_hist_->observe(eng_.now() - t_take);
    }
    // Input closed: flush partial blocks as short runs.
    for (auto& [subset, buf] : staging) {
      if (!buf.empty()) {
        sort_staged_records_[hh] -= buf.size();
        co_await emit_run(*node, hh, subset, std::move(buf), next_run_id++,
                          /*parent_flow=*/0);
      }
    }
    to_store_->producer_done();
    instance_done();
  }

  /// Background half of a pre-copy move: ship the bulk working set
  /// without the instance waiting on it. The wire charges are real —
  /// pre-copy trades stall time for total bytes (the dirty delta ships
  /// twice), exactly the tradeoff the placer priced.
  sim::Task<> precopy_bulk(asu_ns::Node& from, asu_ns::Node& to,
                           std::size_t bytes) {
    co_await cluster_.network().transfer(from, to, bytes);
  }

  sim::Task<> emit_run(asu_ns::Node& node, unsigned hh, std::uint32_t subset,
                       std::vector<em::KeyRecord> block,
                       std::uint32_t run_id, std::uint64_t parent_flow) {
    const double w0 = wall_seconds();
    if (mp_.measured_timing) {
      // Direct execution times the kernel the model declares: a
      // comparison sort, whose log2(beta) compares per record are what
      // moving log2(alpha) of them to the ASUs saves. The radix kernel's
      // cost does not depend on beta, so timing it would erase the work
      // split that Ablation I measures; std::stable_sort would charge a
      // slower sort than the one measured_scale was calibrated against.
      std::sort(block.begin(), block.end());
    } else {
      // Every sort instance shares sort_scratch_. That is safe only
      // because the sort completes before this coroutine's first
      // co_await: keep the kernel call ahead of every suspension point.
      em::sort_by_key(block, sort_scratch_);
    }
    const double wall = wall_seconds() - w0;
    const double charge =
        mp_.measured_timing
            ? wall * mp_.measured_scale +
                  double(block.size()) * mp_.cost.host_handling
            : double(block.size()) *
                  mp_.cost.sort_per_record(cfg_.host_run_length(),
                                           /*on_asu=*/false);
    co_await node.compute(scaled(charge));
    records_sorted_per_host_[hh] += block.size();
    // Resolved on the first run, so a host that sorts nothing registers
    // no counter.
    obs::Counter*& records_done = sort_records_counter_[hh];
    if (records_done == nullptr) {
      records_done = &eng_.metrics().counter(metric_name("functor.sort") +
                                             std::to_string(hh) + ".records");
    }
    records_done->inc(block.size());
    // Derived flow: the sorted-run packet's lane links back to the
    // distribute packet whose arrival completed the run.
    SpanSource src{block};
    co_await ship_run(*to_store_, node, subset, run_id, src, parent_flow);
  }

  /// One sorted span as a ship_run source, drawn the way em::RunMerger
  /// is drawn: remaining() records are left and fill() appends the next.
  struct SpanSource {
    std::span<const em::KeyRecord> rest;
    [[nodiscard]] std::size_t remaining() const { return rest.size(); }
    void fill(std::vector<em::KeyRecord>& out, std::size_t n) {
      n = std::min(n, rest.size());
      out.insert(out.end(), rest.begin(), rest.begin() + std::ptrdiff_t(n));
      rest = rest.subspan(n);
    }
  };

  /// Ship one sorted run through `out` as packets of packet_records_,
  /// seq 0, 1, ... in key order. `src` is a SpanSource (pass 1's sorted
  /// block) or an em::RunMerger over chunk lists (every pass-2 ship). A
  /// `per_record` charge paces the run: each packet's records are
  /// charged to `node` before the packet is emitted.
  template <typename Source>
  sim::Task<> ship_run(StageOutput& out, asu_ns::Node& node,
                       std::uint32_t subset, std::uint32_t run_id,
                       Source& src, std::uint64_t parent_flow = 0,
                       std::optional<double> per_record = std::nullopt) {
    for (std::uint32_t seq = 0; src.remaining() > 0; ++seq) {
      Packet pkt;
      pkt.subset = subset;
      pkt.run_id = run_id;
      pkt.seq = seq;
      pkt.sorted = true;
      pkt.parent_id = parent_flow;
      pkt.records =
          out.pool().acquire(std::min(packet_records_, src.remaining()));
      src.fill(pkt.records, packet_records_);
      if (per_record) {
        co_await node.compute(double(pkt.records.size()) * *per_record);
      }
      co_await out.emit(node, std::move(pkt));
    }
  }

  /// The run store both merge levels read: run id -> chunk seq -> chunk.
  /// Chunks are keyed by seq, not appended in arrival order: fault
  /// re-routing (retry-with-timeout) can let a later chunk of a run
  /// overtake an earlier one, and a run's chunk seqs are assigned in key
  /// order, so its chunks in seq order are the sorted run under any
  /// interleaving (arrival order == seq order in fault-free runs).
  using RunChunks =
      std::map<std::uint32_t, std::map<std::uint32_t, PacketPool::Buffer>>;
  using SubsetRuns = std::map<std::uint32_t, RunChunks>;  // subset -> runs

  /// File `p` as chunk p.seq of its run; a repeated seq appends to that
  /// chunk, and the spent buffer goes back to `pool`.
  static void file_chunk(RunChunks& runs, Packet& p, PacketPool& pool) {
    auto& chunk = runs[p.run_id][p.seq];
    if (chunk.empty()) {
      chunk = std::move(p.records);
    } else {
      chunk.insert(chunk.end(), p.records.begin(), p.records.end());
      pool.release(std::move(p.records));
    }
  }

  sim::Task<> store_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    obs::Counter& records_done =
        eng_.metrics().counter(metric_name("functor.store") +
                               std::to_string(a) + ".records");
    const std::uint32_t track =
        eng_.tracer().track(job_name("store") + std::to_string(a));
    auto& in = store_in_->inbox(a);
    // Each chunk is checked as it lands. Only pass 2 needs the records:
    // with it the chunk is filed in its subset's runs on this ASU,
    // without it the chunk goes straight back to the pool and the store
    // holds nothing but the checks.
    std::map<std::uint32_t, RunCheck> checks;  // run_id -> its check
    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_store_->consumed(*p, track);
      const double t_take = eng_.now();
      while (!node.running()) co_await node.health_wait();
      records_done.inc(p->records.size());
      co_await node.disk().write(p->wire_bytes(mp_.record_bytes));
      if (store_hist_ != nullptr) store_hist_->observe(eng_.now() - t_take);
      checks[p->run_id].add(p->seq, p->records, subset_classifier(),
                            p->subset);
      if (cfg_.run_merge_pass) {
        file_chunk(stored_[a][p->subset], *p, to_store_->pool());
      } else {
        to_store_->pool().release(std::move(p->records));
      }
    }
    runs_stored_ += checks.size();
    for (const auto& [run_id, check] : checks) stored_check_ += check.verdict();
    store_end_[a] = eng_.now();
    instance_done();
  }

  void validate_pass1(DsmSortReport& rep) const {
    rep.records_in = records_in_;
    // The stores checked every run as it landed.
    rep.runs_stored = runs_stored_;
    rep.records_stored = stored_check_.records;
    rep.runs_sorted_ok = stored_check_.sorted;
    rep.subsets_ok = stored_check_.in_subset;
    rep.checksum_ok = (key_sum_in_ == stored_check_.key_sum) &&
                      (rep.records_in == rep.records_stored);
    rep.records_sorted_per_host = records_sorted_per_host_;
  }

  /// The classifier a stored record's subset is checked against; null
  /// for the passive baseline, whose one subset takes every key.
  [[nodiscard]] const KeyClassifier* subset_classifier() const {
    return cfg_.distribute_on_asus ? &classifier_ : nullptr;
  }

  // ----------------------------- pass 2 -------------------------------

  void run_pass2(DsmSortReport& rep) {
    merge_in_ = std::make_unique<StageInboxes>(eng_, h_, 16);
    final_in_ = std::make_unique<StageInboxes>(eng_, d_, 8);

    to_host_merge_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = merge_in_->endpoints(hosts_),
                  .router = std::make_unique<StaticPartitionRouter>(),
                  .producers = d_,
                  .name = "to_host_merge",
                  .telemetry = cfg_.telemetry.histograms});
    to_final_store_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = final_in_->endpoints(asus_),
                  .router = std::make_unique<RoundRobinRouter>(),
                  .producers = h_,
                  .name = "to_final_store",
                  .telemetry = cfg_.telemetry.histograms});

    final_end_.assign(d_, pass1_end_);
    final_check_.assign(alpha_, {});

    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(asu_merge_instance(a), "asu_merge" + std::to_string(a));
    }
    for (unsigned hh = 0; hh < h_; ++hh) {
      eng_.spawn(host_merge_instance(hh), "host_merge" + std::to_string(hh));
    }
    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(final_store_instance(a), "final_store" + std::to_string(a));
    }

    eng_.run_to_completion("DSM-Sort pass 2");

    rep.pass2_seconds =
        *std::max_element(final_end_.begin(), final_end_.end()) - pass1_end_;
    // Each subset is sorted and lies in its subset; both classifiers are
    // monotone in the key, so together that is the global order.
    RunCheck::Verdict out;
    for (const RunCheck& check : final_check_) out += check.verdict();
    rep.records_final = out.records;
    rep.final_sorted_ok = out.sorted && out.in_subset &&
                          out.records == rep.records_in &&
                          out.key_sum == key_sum_in_;
  }

  /// The chunks of runs [first, last), run after run, as merge sources.
  /// A run's chunks are consecutive sources in key order and ties go to
  /// the lower source, so merging the chunks merges the runs, and one
  /// run's chunks merge to their concatenation.
  static std::vector<std::span<const em::KeyRecord>> chunk_sources(
      RunChunks::const_iterator first, RunChunks::const_iterator last) {
    std::vector<std::span<const em::KeyRecord>> sources;
    for (; first != last; ++first) {
      for (const auto& [seq, c] : first->second) sources.emplace_back(c);
    }
    return sources;
  }

  /// Drop a merged subset, handing its chunks to to_host_merge_'s pool.
  void recycle(SubsetRuns& subsets, SubsetRuns::iterator merged) {
    for (auto& [run_id, chunks] : merged->second) {
      for (auto& [seq, chunk] : chunks) {
        to_host_merge_->pool().release(std::move(chunk));
      }
    }
    subsets.erase(merged);
  }

  sim::Task<> asu_merge_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    std::uint32_t next_run_id = a * 0x10000u + 1;
    for (std::uint32_t s = 0; s < alpha_; ++s) {
      if (const auto it = stored_[a].find(s); it != stored_[a].end()) {
        RunChunks& runs = it->second;
        std::size_t records = 0;
        for (const auto& [run_id, chunks] : runs) {
          for (const auto& [seq, chunk] : chunks) records += chunk.size();
        }
        // Sequential disk read of the runs we are about to merge.
        co_await node.disk().read(records * mp_.record_bytes);
        // gamma1 == 1, or a single run: no ASU-side merge, each run ships
        // as-is and the hosts take the full fan-in. Otherwise groups of
        // gamma1 runs (0 = all of them) merge here, each group charged
        // whole before its packets stream out of the merger.
        const bool merge = cfg_.gamma1 != 1 && runs.size() > 1;
        const std::size_t g =
            !merge ? 1 : cfg_.gamma1 == 0 ? runs.size() : cfg_.gamma1;
        for (auto first = runs.cbegin(); first != runs.cend();) {
          auto last = first;
          unsigned cnt = 0;
          for (; last != runs.cend() && cnt < g; ++last) ++cnt;
          const auto sources = chunk_sources(first, last);
          em::RunMerger<em::KeyRecord> merger(sources);
          if (merge) {
            co_await node.compute(
                double(merger.remaining()) *
                mp_.cost.merge_per_record(cnt, /*on_asu=*/true));
          }
          co_await ship_run(*to_host_merge_, node, s, next_run_id++, merger);
          first = last;
        }
        recycle(stored_[a], it);
      }
      // Per-subset completion marker so hosts can merge s immediately.
      Packet marker;
      marker.subset = s;
      marker.run_id = kSubsetDoneMarker;
      co_await to_host_merge_->emit(node, std::move(marker));
    }
    to_host_merge_->producer_done();
  }

  /// Each host merges whole subsets in one pass (it takes the full
  /// fan-in gamma2 = the subset's run count), pacing the merge per packet.
  sim::Task<> host_merge_instance(unsigned hh) {
    asu_ns::Node& node = cluster_.host(hh);
    auto& in = merge_in_->inbox(hh);
    const std::uint32_t track =
        eng_.tracer().track("host_merge" + std::to_string(hh));
    SubsetRuns pending;
    std::vector<unsigned> done_markers(alpha_, 0);

    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_host_merge_->consumed(*p, track);
      if (p->run_id != kSubsetDoneMarker) {
        file_chunk(pending[p->subset], *p, to_host_merge_->pool());
        continue;
      }
      if (++done_markers[p->subset] < d_) continue;
      const auto it = pending.find(p->subset);
      if (it == pending.end()) continue;
      RunChunks& runs = it->second;
      const auto sources = chunk_sources(runs.cbegin(), runs.cend());
      em::RunMerger<em::KeyRecord> merger(sources);
      co_await ship_run(
          *to_final_store_, node, p->subset, /*run_id=*/0, merger,
          /*parent_flow=*/0,
          mp_.cost.merge_per_record(unsigned(runs.size()), /*on_asu=*/false));
      recycle(pending, it);
    }
    to_final_store_->producer_done();
  }

  /// The D final stores feed one RunCheck per subset: a subset's packets
  /// carry consecutive seqs whichever store they land on, so the check
  /// also covers the boundaries between stores.
  sim::Task<> final_store_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    auto& in = final_in_->inbox(a);
    const std::uint32_t track =
        eng_.tracer().track("final_store" + std::to_string(a));
    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_final_store_->consumed(*p, track);
      co_await node.disk().write(p->wire_bytes(mp_.record_bytes));
      final_check_[p->subset].add(p->seq, p->records, subset_classifier(),
                                  p->subset);
      to_final_store_->pool().release(std::move(p->records));
    }
    final_end_[a] = eng_.now();
  }

  // ----------------------------- reporting ----------------------------

  void collect_utilization(DsmSortReport& rep) {
    const double horizon = rep.makespan > 0 ? rep.makespan : 1e-9;
    for (unsigned i = 0; i < h_; ++i) {
      const auto& cpu = cluster_.host(i).cpu();
      rep.hosts.push_back({cpu.name(),
                           cpu.utilization().mean_utilization(horizon),
                           cpu.utilization().series(horizon)});
    }
    for (unsigned i = 0; i < d_; ++i) {
      const auto& cpu = cluster_.asu(i).cpu();
      rep.asus.push_back({cpu.name(),
                          cpu.utilization().mean_utilization(horizon),
                          cpu.utilization().series(horizon)});
    }
    rep.util_bin_seconds = mp_.util_bin;
  }

  /// Build the bucket classifier. Sampled splitters take a deterministic
  /// pre-pass over each ASU's key stream (the generators are cheap and
  /// reproducible; a real deployment would sample the stored input).
  [[nodiscard]] KeyClassifier make_classifier() const {
    if (cfg_.splitters == DsmSortConfig::Splitters::Sampled && alpha_ > 1) {
      std::vector<std::uint32_t> sample;
      for (unsigned a = 0; a < d_; ++a) {
        const std::size_t n_local = local_share(a);
        if (n_local == 0) continue;
        KeyGenerator gen(cfg_.key_dist, n_local, workload_stream(a));
        sample_keys(gen, n_local, std::max<std::size_t>(1, n_local / 4096),
                    sample);
      }
      return KeyClassifier(
          SplitterClassifier(choose_splitters(std::move(sample), alpha_)));
    }
    return KeyClassifier(
        em::RangeClassifier<std::uint32_t>(0, std::uint32_t(-1), alpha_));
  }

  [[nodiscard]] std::size_t derive_packet_records() const {
    if (cfg_.packet_records != 0) return cfg_.packet_records;
    const unsigned buckets = cfg_.distribute_on_asus ? cfg_.alpha : 1;
    const std::size_t by_memory =
        mp_.asu_memory / (std::size_t(buckets) * mp_.record_bytes);
    return std::clamp<std::size_t>(by_memory, 64, 4096);
  }

  asu_ns::MachineParams mp_;
  DsmSortConfig cfg_;
  sim::Engine& eng_;
  asu_ns::Cluster& cluster_;
  unsigned d_;
  unsigned h_;
  std::vector<asu_ns::Node*> hosts_;
  std::vector<asu_ns::Node*> asus_;
  unsigned alpha_;
  std::size_t packet_records_;
  std::size_t block_records_;
  KeyClassifier classifier_;
  std::vector<em::KeyRecord> sort_scratch_;  // see emit_run

  std::unique_ptr<StageInboxes> sort_in_;
  std::unique_ptr<StageInboxes> store_in_;
  std::unique_ptr<StageOutput> to_sort_;
  std::unique_ptr<StageOutput> to_store_;

  std::unique_ptr<StageInboxes> merge_in_;
  std::unique_ptr<StageInboxes> final_in_;
  std::unique_ptr<StageOutput> to_host_merge_;
  std::unique_ptr<StageOutput> to_final_store_;

  // Every input record the distribute instances read: count, key sum.
  std::size_t records_in_ = 0;
  std::uint64_t key_sum_in_ = 0;
  // Every store instance's runs and their checks, summed.
  std::size_t runs_stored_ = 0;
  RunCheck::Verdict stored_check_;
  std::vector<SubsetRuns> stored_;  // per ASU, pass 2 only
  std::vector<std::size_t> records_sorted_per_host_;
  /// Per sort instance `functor.sort<h>.records`, resolved on first use.
  std::vector<obs::Counter*> sort_records_counter_;
  /// Live working set per sort instance (records staged toward
  /// incomplete runs) — the quantity its MigrationDeclaration reports.
  /// Pure bookkeeping on existing control flow: no events, no charges,
  /// digest-neutral in every mode.
  std::vector<std::size_t> sort_staged_records_;
  /// Current rack of each sort instance (hierarchical topologies only;
  /// empty otherwise). Migrations update it so
  /// run storage follows the instance to its new rack.
  std::vector<unsigned> sort_rack_;
  std::vector<double> store_end_;
  double pass1_end_ = 0;

  std::vector<double> final_end_;
  std::vector<RunCheck> final_check_;  // per subset
  std::uint32_t dsm_track_ = 0;
  /// The manager this run's consult points use (the control plane's,
  /// or the tenant scheduler's shared one; null when unmanaged) and this
  /// run's client id in it.
  LoadManager* manager_ = nullptr;
  std::size_t client_ = 0;
  std::unique_ptr<obs::Sampler> sampler_;
  obs::LatencyHistogram* sort_hist_ = nullptr;
  obs::LatencyHistogram* store_hist_ = nullptr;
  obs::LatencyHistogram* migration_hist_ = nullptr;
  obs::LatencyHistogram* phase_hist_ = nullptr;
  obs::LatencyHistogram* job_hist_ = nullptr;
  SwitchableRouter* switch_router_ = nullptr;  // owned by to_sort_'s router

  // charge_scale_ is exactly 1.0 at the default weight, so single-tenant
  // charges are unchanged. t0_ stays 0 in a standalone run, whose pass-1
  // completion notify finds no waiter.
  double charge_scale_;  // 1 / cfg.fair_share_weight
  double t0_ = 0;
  std::size_t total_instances_ = 0;
  std::size_t finished_instances_ = 0;
  sim::Condition pass1_done_{eng_};
  DsmSortReport rep_;
  bool finished_flag_ = false;
};

DsmSortReport run_dsm_sort(const asu::MachineParams& machine,
                           const DsmSortConfig& config) {
  config.validate();
  ClusterRun plane(machine, config.trace_file);
  DsmSortSim sim(plane.engine(), plane.cluster(), config);
  return sim.run(plane);
}

DsmSortJob::DsmSortJob(sim::Engine& eng, asu::Cluster& cluster,
                       const DsmSortConfig& cfg) {
  cfg.validate();
  sim_ = std::make_unique<DsmSortSim>(eng, cluster, cfg);
  sim_->build_embedded();
}

DsmSortJob::~DsmSortJob() = default;

sim::Task<> DsmSortJob::body() { return sim_->job_body(); }

bool DsmSortJob::finished() const noexcept { return sim_->job_finished(); }

const DsmSortReport& DsmSortJob::report() const {
  return sim_->job_report();
}

void DsmSortJob::attach_manager(LoadManager& manager,
                                const std::string& label) {
  sim_->attach_manager(manager, label);
}

obs::Json dsm_report_to_json(const DsmSortReport& rep) {
  obs::Json j = obs::Json::object();
  j["pass1_seconds"] = rep.pass1_seconds;
  j["pass2_seconds"] = rep.pass2_seconds;
  j["makespan"] = rep.makespan;
  j["records_in"] = rep.records_in;
  j["records_stored"] = rep.records_stored;
  j["records_final"] = rep.records_final;
  j["runs_stored"] = rep.runs_stored;
  j["ok"] = rep.ok();
  j["sim_events"] = rep.sim_events;
  j["digest"] = obs::digest_to_string(rep.digest);
  j["records_sorted_per_host"] =
      obs::Json::array_of(rep.records_sorted_per_host);
  j["peak_host_imbalance"] = rep.peak_host_imbalance;
  j["mean_host_imbalance"] = rep.mean_host_imbalance;
  j["lm_migrations"] = rep.lm_migrations;
  j["lm_router_switches"] = rep.lm_router_switches;
  lm_blocks_to_json(j, rep);
  obs::Json util = obs::Json::object();
  const auto add_nodes = [&](const std::vector<NodeUtilization>& nodes) {
    for (const auto& n : nodes) {
      obs::Json e = obs::Json::object();
      e["mean"] = n.mean;
      e["bin_seconds"] = rep.util_bin_seconds;
      e["series"] = obs::Json::array_of(n.series);
      util[n.node] = std::move(e);
    }
  };
  add_nodes(rep.hosts);
  add_nodes(rep.asus);
  j["utilization"] = std::move(util);
  // Telemetry blocks are config-driven (present iff the run opted in),
  // so serial and parallel sweeps of the same cells emit bit-identical
  // artifacts — presence never depends on runtime state.
  if (!rep.histograms.is_null()) j["histograms"] = rep.histograms;
  if (!rep.time_series.is_null()) j["time_series"] = rep.time_series;
  j["metrics"] = rep.metrics;
  return j;
}

}  // namespace lmas::core
