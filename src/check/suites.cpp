#include "check/suites.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "asu/network.hpp"
#include "check/generators.hpp"
#include "core/adaptive.hpp"
#include "core/dsm_sort.hpp"
#include "core/pipeline.hpp"
#include "core/splitters.hpp"
#include "extmem/distribute.hpp"
#include "extmem/merge.hpp"
#include "extmem/radix_sort.hpp"
#include "extmem/sort.hpp"
#include "fault/fault.hpp"
#include "extmem/stream.hpp"
#include "obs/latency.hpp"
#include "sim/sim.hpp"
#include "tenant/tenant.hpp"

namespace lmas::check {

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string cfg_str(const asu::MachineParams& mp,
                    const core::DsmSortConfig& cfg) {
  return fmt("H=%u D=%u c=%.0f n=%zu alpha=%u K=2^%u dist=%s router=%s "
             "splitters=%s asus=%d merge=%d seed=0x%llx",
             mp.num_hosts, mp.num_asus, mp.c, cfg.total_records, cfg.alpha,
             cfg.log2_alpha_beta, core::key_dist_name(cfg.key_dist),
             core::router_kind_name(cfg.sort_router),
             cfg.splitters == core::DsmSortConfig::Splitters::Range
                 ? "range"
                 : "sampled",
             int(cfg.distribute_on_asus), int(cfg.run_merge_pass),
             static_cast<unsigned long long>(cfg.seed));
}

std::uint64_t metrics_fingerprint(const core::DsmSortReport& rep) {
  return sim::fnv1a64(rep.metrics.dump());
}

// ---- permutation ---------------------------------------------------

std::optional<std::string> prop_permutation(sim::Rng& rng, unsigned size) {
  const std::size_t n = 1 + rng.below(std::size_t(256) * size);
  const auto keys = gen_keys(rng, n);

  em::Stream<em::KeyRecord> in(em::make_memory_bte());
  for (std::size_t i = 0; i < n; ++i) {
    in.push_back({keys[i], std::uint32_t(i)});
  }
  em::SortOptions opt;
  // Tiny run-formation memory so even small inputs exercise multi-run
  // merging; fan-in 2..5 forces multiple merge passes.
  opt.memory_bytes = std::max<std::size_t>(1, 8 * (1 + rng.below(8)));
  opt.max_fan_in = 2 + rng.below(4);
  em::Stream<em::KeyRecord> out(em::make_memory_bte());
  em::sort_stream(in, out, opt);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  got.reserve(n);
  out.rewind();
  std::uint32_t prev = 0;
  while (auto r = out.read()) {
    if (!got.empty() && r->key < prev) {
      return fmt("output not sorted at position %zu: %u after %u",
                 got.size(), r->key, prev);
    }
    prev = r->key;
    got.emplace_back(r->key, r->id);
  }
  if (got.size() != n) {
    return fmt("record count changed: %zu in, %zu out", n, got.size());
  }
  // ids are unique, so multiset equality reduces to set equality of
  // (key, id) pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  want.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    want.emplace_back(keys[i], std::uint32_t(i));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    return fmt("output is not a permutation of the input (n=%zu)", n);
  }
  return std::nullopt;
}

// ---- packet order --------------------------------------------------

/// One of `values`, uniformly.
template <typename T, std::size_t N>
T pick(sim::Rng& rng, const T (&values)[N]) {
  return values[rng.below(N)];
}

/// The routers a PacketPlan is driven through.
constexpr core::RouterKind kPlanRouters[] = {
    core::RouterKind::Static, core::RouterKind::RoundRobin,
    core::RouterKind::SimpleRandomization, core::RouterKind::LeastLoaded};

sim::Task<> plan_producer(core::StageOutput& out, asu::Node& from,
                          std::vector<core::Packet> pkts) {
  for (auto& p : pkts) {
    co_await out.emit(from, std::move(p));
  }
  out.producer_done();
}

sim::Task<> plan_consumer(asu::Node& node, sim::Channel<core::Packet>& in,
                          std::vector<core::Packet>& got) {
  while (auto p = co_await in.recv()) {
    // Pump-pause convention: accepted packets wait out a crash window.
    while (!node.running()) co_await node.health_wait();
    got.push_back(std::move(*p));
  }
}

using RouterFactory =
    std::function<std::unique_ptr<core::RoutingPolicy>(sim::Engine&)>;

RouterFactory plan_router(core::RouterKind kind, sim::Rng rng,
                          unsigned subsets) {
  return [=](sim::Engine&) {
    return core::make_router(
        {.kind = kind, .rng = rng, .total_subsets = subsets});
  };
}

/// How a PacketPlan runs through one StageOutput: by default producers
/// on the ASUs feed one consumer per target on the hosts.
struct PlanSetup {
  RouterFactory router;
  const char* name = "prop.stage";
  /// Consumers on the ASUs (the crashable tier) and producers on hosts.
  bool consumers_on_asus = false;
  /// Hosts beyond the consumers (legal migration targets).
  unsigned spare_hosts = 0;
  const fault::FaultPlan* faults = nullptr;
  std::uint64_t fault_seed = 0;
  /// Control process spawned last, given the stage and every host.
  std::function<sim::Task<>(sim::Engine&, core::StageOutput&,
                            std::vector<asu::Node*>)>
      controller = nullptr;
};

struct PlanRun {
  std::vector<std::vector<core::Packet>> got;  // per target
  std::size_t packets = 0;
  std::size_t records = 0;
  std::uint64_t digest = 0;
  std::size_t unfinished = 0;
  double makespan = 0;
};

PlanRun run_plan(const PacketPlan& plan, const PlanSetup& setup) {
  const bool on_asus = setup.consumers_on_asus;
  asu::MachineParams mp;
  mp.num_hosts = (on_asus ? plan.producers : plan.targets) + setup.spare_hosts;
  mp.num_asus = on_asus ? plan.targets : plan.producers;
  sim::Engine eng;
  asu::Cluster cluster(eng, mp);
  const asu::NodeKind consumer = on_asus ? asu::NodeKind::Asu
                                         : asu::NodeKind::Host;
  const asu::NodeKind producer = on_asus ? asu::NodeKind::Host
                                         : asu::NodeKind::Asu;

  core::StageInboxes inboxes(eng, plan.targets, /*capacity_packets=*/4);
  std::vector<asu::Node*> nodes;
  for (unsigned t = 0; t < plan.targets; ++t) {
    nodes.push_back(&cluster.node(consumer, t));
  }
  core::StageOutput out(eng, cluster.network(),
                        core::StageSpec{.record_bytes = mp.record_bytes,
                                        .endpoints = inboxes.endpoints(nodes),
                                        .router = setup.router(eng),
                                        .producers = plan.producers,
                                        .window_per_producer = 4,
                                        .name = setup.name});
  std::unique_ptr<fault::FaultInjector> inj;
  if (setup.faults != nullptr && !setup.faults->empty()) {
    inj = std::make_unique<fault::FaultInjector>(
        cluster, *setup.faults,
        sim::Rng(setup.fault_seed).stream(sim::stream_id("faults")));
    eng.spawn(inj->run(), "fault-injector");
  }

  PlanRun res;
  res.got.resize(plan.targets);
  for (unsigned p = 0; p < plan.producers; ++p) {
    eng.spawn(plan_producer(out, cluster.node(producer, p),
                            plan.per_producer[p]));
  }
  for (unsigned t = 0; t < plan.targets; ++t) {
    eng.spawn(plan_consumer(*nodes[t], inboxes.inbox(t), res.got[t]));
  }
  if (setup.controller) {
    std::vector<asu::Node*> hosts;
    for (unsigned h = 0; h < mp.num_hosts; ++h) {
      hosts.push_back(&cluster.host(h));
    }
    eng.spawn(setup.controller(eng, out, std::move(hosts)));
  }
  eng.run();
  for (const auto& g : res.got) {
    res.packets += g.size();
    for (const auto& p : g) res.records += p.records.size();
  }
  res.digest = eng.digest();
  res.unfinished = eng.unfinished_tasks();
  res.makespan = eng.now();
  return res;
}

/// The set contract as delivered: records stay together and in order
/// within every packet and, when `ordered`, each (producer, subset)
/// stream arrives seq-increasing at every instance.
std::optional<std::string> check_delivery(const PlanRun& run, bool ordered) {
  for (std::size_t t = 0; t < run.got.size(); ++t) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> last;
    for (const auto& p : run.got[t]) {
      auto [it, fresh] = last.try_emplace({p.run_id, p.subset}, p.seq);
      if (ordered && !fresh) {
        if (p.seq <= it->second) {
          return fmt("instance %zu saw producer %u subset %u seq %u after "
                     "seq %u",
                     t, p.run_id, p.subset, p.seq, it->second);
        }
        it->second = p.seq;
      }
      for (std::size_t r = 0; r < p.records.size(); ++r) {
        if (p.records[r].id != std::uint32_t(r)) {
          return fmt("packet records reordered at instance %zu", t);
        }
      }
    }
  }
  return std::nullopt;
}

/// Every emitted packet and record arrived.
std::optional<std::string> check_conserved(const PlanRun& run,
                                           const PacketPlan& plan) {
  std::size_t sent = 0;
  for (const auto& pp : plan.per_producer) sent += pp.size();
  if (run.packets == sent && run.records == plan.total_records) {
    return std::nullopt;
  }
  return fmt("lost traffic: %zu/%zu packets, %zu/%zu records", run.packets,
             sent, run.records, plan.total_records);
}

std::optional<std::string> prop_packet_order(sim::Rng& rng, unsigned size) {
  const PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = pick(rng, kPlanRouters);
  const PlanRun run =
      run_plan(plan, {.router = plan_router(kind, rng.split(), plan.subsets)});
  const std::string ctx =
      fmt(" (router=%s)", core::router_kind_name(kind));
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked after run", run.unfinished) + ctx;
  }
  // Per (producer, subset), the seqs seen at one instance must be a
  // strictly increasing subsequence of the producer's emission order.
  if (auto err = check_delivery(run, /*ordered=*/true)) return *err + ctx;
  if (auto err = check_conserved(run, plan)) return *err + ctx;
  return std::nullopt;
}

// ---- conservation --------------------------------------------------

std::optional<std::string> prop_conservation(sim::Rng& rng, unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  const core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);

  if (rep.records_in != cfg.total_records) {
    return fmt("records_in %zu != n %zu [%s]", rep.records_in,
               cfg.total_records, cfg_str(mp, cfg).c_str());
  }
  if (rep.records_stored != rep.records_in) {
    return fmt("pass 1 stored %zu of %zu records [%s]", rep.records_stored,
               rep.records_in, cfg_str(mp, cfg).c_str());
  }
  if (!rep.checksum_ok) {
    return fmt("key checksum not conserved [%s]", cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.runs_sorted_ok) {
    return fmt("stored runs not sorted [%s]", cfg_str(mp, cfg).c_str());
  }
  if (cfg.run_merge_pass && !rep.final_sorted_ok) {
    return fmt("pass 2 output (%zu of %zu records) not globally sorted or "
               "not conserved [%s]",
               rep.records_final, rep.records_in, cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- SR balance ----------------------------------------------------

std::optional<std::string> prop_sr_balance(sim::Rng& rng, unsigned size) {
  const std::size_t k = 1 + rng.below(std::max(2u, size));
  const unsigned subsets = 1 + unsigned(rng.below(8));
  core::SimpleRandomizationRouter router(rng.split());
  const std::vector<core::RouteTarget> targets(k);

  for (unsigned s = 0; s < subsets; ++s) {
    const std::size_t n_s = 1 + rng.below(16 * std::size_t(size));
    std::vector<std::size_t> count(k, 0);
    core::Packet p;
    p.subset = s;
    for (std::size_t i = 0; i < n_s; ++i) {
      const std::size_t idx = router.pick(p, targets);
      if (idx >= k) return fmt("pick returned %zu for k=%zu", idx, k);
      ++count[idx];
    }
    // Randomized cycling: every full cycle touches each target once, so
    // after n_s picks each target holds floor or ceil of n_s / k.
    const std::size_t lo = n_s / k;
    const std::size_t hi = lo + (n_s % k == 0 ? 0 : 1);
    for (std::size_t t = 0; t < k; ++t) {
      if (count[t] < lo || count[t] > hi) {
        return fmt("subset %u target %zu got %zu packets; bound [%zu, %zu] "
                   "with n_s=%zu k=%zu",
                   s, t, count[t], lo, hi, n_s, k);
      }
    }
  }
  return std::nullopt;
}

// ---- predictor -----------------------------------------------------

/// Declared tolerance: the analytic model prices aggregate station work
/// and takes the pipeline max; it ignores startup ramp, packet
/// quantization and interleaving, so at property-test scale (n = 2^13,
/// where fixed overheads are proportionally large) the emulated time can
/// sit up to ~2.5x above the bound. 3.0 leaves margin without letting a
/// mispriced cost term through.
constexpr double kPredictorTolerance = 3.0;

std::optional<std::string> prop_predictor(sim::Rng& rng, unsigned size) {
  asu::MachineParams mp;
  mp.num_hosts = 1 + unsigned(rng.below(2));
  mp.num_asus = 2 + unsigned(rng.below(std::max(2u, size)));
  mp.c = 2.0 * double(1 + rng.below(8));

  core::DsmSortConfig cfg;
  // Large enough that the modeled per-record terms dominate the fixed
  // startup/latency overheads the model leaves unpriced.
  cfg.total_records = std::size_t(1) << 15;
  cfg.log2_alpha_beta = 12;
  // The model's regime: enough subsets that static partitioning spreads
  // them evenly over the hosts (alpha >= 2H, divisible by H) — with
  // fewer, one host carries everything while the model divides by H —
  // and beta >= 64, because shorter runs (alpha -> K) are dominated by
  // per-packet overheads the model deliberately leaves unpriced. The
  // paper's configurations never operate outside either bound.
  cfg.alpha = 1u << (2 + rng.below(5));
  cfg.distribute_on_asus = true;
  cfg.key_dist = core::KeyDist::Uniform;
  cfg.splitters = core::DsmSortConfig::Splitters::Range;
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = rng.next();

  const double predicted = core::predict_pass1(mp, cfg).seconds;
  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (!rep.ok()) {
    return fmt("run failed validation [%s]", cfg_str(mp, cfg).c_str());
  }
  const double actual = rep.pass1_seconds;
  if (predicted <= 0 || actual <= 0) {
    return fmt("non-positive time: predicted=%g actual=%g [%s]", predicted,
               actual, cfg_str(mp, cfg).c_str());
  }
  const double ratio = actual / predicted;
  if (ratio > kPredictorTolerance || ratio < 1.0 / kPredictorTolerance) {
    return fmt("predict_pass1=%.4fs vs emulated=%.4fs (ratio %.2f outside "
               "[%.2f, %.2f]) [%s]",
               predicted, actual, ratio, 1.0 / kPredictorTolerance,
               kPredictorTolerance, cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- digest --------------------------------------------------------

std::optional<std::string> prop_digest(sim::Rng& rng, unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  cfg.total_records = std::size_t(1) << 10;  // digest cares about replay,
  cfg.log2_alpha_beta = 8;                   // not scale — keep runs tiny
  cfg.alpha = std::min(cfg.alpha, 1u << 8);

  const core::DsmSortReport a = run_dsm_sort(mp, cfg);
  const core::DsmSortReport b = run_dsm_sort(mp, cfg);
  if (a.digest != b.digest) {
    return fmt("same config, different digests: 0x%016llx vs 0x%016llx "
               "[%s]",
               static_cast<unsigned long long>(a.digest),
               static_cast<unsigned long long>(b.digest),
               cfg_str(mp, cfg).c_str());
  }
  if (metrics_fingerprint(a) != metrics_fingerprint(b)) {
    return fmt("same config, different metric snapshots [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (a.sim_events != b.sim_events || a.makespan != b.makespan) {
    return fmt("same config, different event counts or makespans [%s]",
               cfg_str(mp, cfg).c_str());
  }
  // A different seed must move the digest — but only in a regime where
  // the seed feeds the timing. Deterministic keys (sorted/reverse) or
  // quantile splitters make bucket sizes seed-independent, and the
  // simulator prices work by record counts, so such configs genuinely
  // replay the same execution under any seed (the harness caught both).
  // Pin the sensitivity check to ASU-side distribute with uniform keys,
  // range splitters and alpha >= 8: there bucket counts are multinomial
  // in the seed, so packet boundaries — and the digest — must move.
  // (The passive baseline ships fixed-size raw packets, so it too is
  // seed-insensitive by construction.)
  core::DsmSortConfig sens = cfg;
  sens.key_dist = core::KeyDist::Uniform;
  sens.splitters = core::DsmSortConfig::Splitters::Range;
  sens.distribute_on_asus = true;
  sens.alpha = std::max(sens.alpha, 8u);
  core::DsmSortConfig other = sens;
  other.seed = sens.seed + 1;
  const core::DsmSortReport s1 = run_dsm_sort(mp, sens);
  const core::DsmSortReport s2 = run_dsm_sort(mp, other);
  if (s1.digest == s2.digest) {
    return fmt("different seeds, same digest 0x%016llx [%s]",
               static_cast<unsigned long long>(s1.digest),
               cfg_str(mp, sens).c_str());
  }
  return std::nullopt;
}

// ---- fault conservation --------------------------------------------

std::optional<std::string> prop_fault_conservation(sim::Rng& rng,
                                                   unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  // Fault plans perturb pass 1; keep runs single-pass so the measured
  // horizon brackets the whole faulted execution.
  cfg.run_merge_pass = false;

  const core::DsmSortReport base = run_dsm_sort(mp, cfg);
  if (!base.ok()) {
    return fmt("fault-free baseline failed validation [%s]",
               cfg_str(mp, cfg).c_str());
  }
  cfg.faults = gen_fault_plan(rng, mp, base.pass1_seconds, size);

  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (rep.records_stored != rep.records_in) {
    return fmt("faults lost records: stored %zu of %zu (%zu fault events) "
               "[%s]",
               rep.records_stored, rep.records_in, cfg.faults.size(),
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.checksum_ok) {
    return fmt("key checksum not conserved under faults [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries under faults [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.runs_sorted_ok) {
    return fmt("stored runs not sorted under faults (retry re-ordering "
               "leaked through seq-keyed store) [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (rep.digest == base.digest) {
    return fmt("fault plan (%zu events) left the digest unchanged [%s]",
               cfg.faults.size(), cfg_str(mp, cfg).c_str());
  }
  // Same seed + same plan replay bit-identically.
  const core::DsmSortReport again = run_dsm_sort(mp, cfg);
  if (again.digest != rep.digest) {
    return fmt("same fault plan, different digests: 0x%016llx vs 0x%016llx "
               "[%s]",
               static_cast<unsigned long long>(rep.digest),
               static_cast<unsigned long long>(again.digest),
               cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- fault routing -------------------------------------------------

std::optional<std::string> prop_fault_routing(sim::Rng& rng, unsigned size) {
  PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = pick(rng, kPlanRouters);
  PlanSetup setup{.router = plan_router(kind, rng.split(), plan.subsets),
                  .name = "prop.fault_stage",
                  .consumers_on_asus = true,
                  .fault_seed = rng.next()};

  const PlanRun base = run_plan(plan, setup);
  if (base.unfinished != 0) {
    return fmt("baseline left %zu tasks blocked", base.unfinished);
  }
  asu::MachineParams shape;
  shape.num_hosts = plan.producers;
  shape.num_asus = plan.targets;
  const fault::FaultPlan faults =
      gen_fault_plan(rng, shape, base.makespan, size);
  setup.faults = &faults;

  const PlanRun faulted = run_plan(plan, setup);
  const std::string ctx = fmt(" under faults (%zu events, router=%s)",
                              faults.size(), core::router_kind_name(kind));
  if (faulted.unfinished != 0) {
    return fmt("%zu tasks still blocked", faulted.unfinished) + ctx;
  }
  if (auto err = check_conserved(faulted, plan)) return *err + ctx;
  if (auto err = check_delivery(faulted, /*ordered=*/false)) {
    return *err + ctx;
  }
  // Router balance: when the plan never shrinks the target set (no
  // crashes), SR's floor/ceil bound must survive slowdowns and link
  // delays untouched — degraded nodes stay routing targets.
  const bool has_crash = std::any_of(
      faults.events.begin(), faults.events.end(), [](const auto& e) {
        return e.kind == fault::FaultSpec::Kind::Crash;
      });
  if (!has_crash && kind == core::RouterKind::SimpleRandomization) {
    std::map<std::uint32_t, std::size_t> subset_totals;
    std::map<std::uint32_t, std::vector<std::size_t>> subset_counts;
    for (unsigned t = 0; t < plan.targets; ++t) {
      for (const auto& p : faulted.got[t]) {
        ++subset_totals[p.subset];
        auto& c = subset_counts[p.subset];
        c.resize(plan.targets, 0);
        ++c[t];
      }
    }
    for (const auto& [s, total] : subset_totals) {
      const std::size_t lo = total / plan.targets;
      const std::size_t hi = lo + (total % plan.targets == 0 ? 0 : 1);
      for (std::size_t t = 0; t < subset_counts[s].size(); ++t) {
        if (subset_counts[s][t] < lo || subset_counts[s][t] > hi) {
          return fmt("SR balance broken under crash-free faults: subset %u "
                     "target %zu got %zu, bound [%zu, %zu]",
                     s, t, subset_counts[s][t], lo, hi);
        }
      }
    }
  }
  // Same plan, same seeds: the faulted run replays bit-identically.
  if (run_plan(plan, setup).digest != faulted.digest) {
    return fmt("same fault plan, different digests (router=%s)",
               core::router_kind_name(kind));
  }
  return std::nullopt;
}

// ---- load-manager router hot-swap ----------------------------------

sim::Task<> switch_controller(sim::Engine& eng, core::SwitchableRouter* sw,
                              std::vector<double> delays) {
  bool promote = true;
  for (double d : delays) {
    co_await eng.sleep(d);
    if (promote) {
      sw->promote();
    } else {
      sw->demote();
    }
    promote = !promote;
  }
}

std::optional<std::string> prop_lm_switch(sim::Rng& rng, unsigned size) {
  PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind baseline = pick(rng, kPlanRouters);
  const core::RouterKind dynamic = pick(rng, kPlanRouters);
  const sim::Rng base_rng = rng.split();
  const sim::Rng dyn_rng = rng.split();
  // Promote/demote at random instants spanning microseconds to
  // milliseconds, so swaps land before, inside, and after the burst of
  // traffic.
  std::vector<double> toggles(1 + rng.below(8));
  for (double& d : toggles) d = double(1 + rng.below(1000)) * 1e-5;

  // The production composition: metrics wrapper outside, hot-swap
  // decorator inside, concrete policies innermost.
  core::SwitchableRouter* sw = nullptr;
  const PlanSetup setup{
      .router = [&](sim::Engine& eng) -> std::unique_ptr<core::RoutingPolicy> {
        auto inner = std::make_unique<core::SwitchableRouter>(
            plan_router(baseline, base_rng, plan.subsets)(eng),
            plan_router(dynamic, dyn_rng, plan.subsets)(eng));
        sw = inner.get();
        return std::make_unique<core::InstrumentedRouter>(std::move(inner),
                                                          eng, "lmswitch");
      },
      .name = "prop.lmswitch",
      .controller = [&](sim::Engine& eng, core::StageOutput&,
                        std::vector<asu::Node*>) {
        return switch_controller(eng, sw, toggles);
      }};

  const PlanRun run = run_plan(plan, setup);
  const std::string ctx =
      fmt(" across router swaps (%s -> %s, %zu toggles)",
          core::router_kind_name(baseline), core::router_kind_name(dynamic),
          toggles.size());
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked", run.unfinished) + ctx;
  }
  // Hot-swapping the policy mid-run must not weaken the set contract at
  // all: every per-(producer, subset) stream still arrives seq-ordered at
  // every instance, packets stay intact, nothing is lost.
  if (auto err = check_delivery(run, /*ordered=*/true)) return *err + ctx;
  if (auto err = check_conserved(run, plan)) return *err + ctx;
  // Same plan + same toggle schedule replays bit-identically.
  if (run_plan(plan, setup).digest != run.digest) {
    return "same toggle schedule, different digests" + ctx;
  }
  return std::nullopt;
}

// ---- load-manager migration ----------------------------------------

struct MigrationMove {
  double delay = 0;       // sleep before this move
  std::size_t instance = 0;
  std::size_t node = 0;   // index into the host list
};

sim::Task<> migration_controller(sim::Engine& eng, core::StageOutput& out,
                                 std::vector<asu::Node*> hosts,
                                 std::vector<MigrationMove> moves) {
  for (const auto& m : moves) {
    co_await eng.sleep(m.delay);
    out.set_target_node(m.instance, *hosts[m.node]);
  }
}

std::optional<std::string> prop_lm_migration(sim::Rng& rng, unsigned size) {
  PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = pick(rng, kPlanRouters);
  const sim::Rng router_rng = rng.split();

  std::vector<MigrationMove> moves(1 + rng.below(8));
  for (auto& m : moves) {
    m.delay = double(1 + rng.below(1000)) * 1e-5;
    m.instance = rng.below(plan.targets);
    m.node = rng.below(plan.targets + 1);  // incl. the spare host
  }

  // The emitted multiset, keyed (producer, subset, seq) — unique per
  // packet by construction.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> want;
  for (const auto& pp : plan.per_producer) {
    for (const auto& p : pp) want.emplace_back(p.run_id, p.subset, p.seq);
  }
  std::sort(want.begin(), want.end());

  // One spare host beyond the consumers: a legal migration target that
  // never hosted an instance, so re-pins also exercise "fresh" nodes.
  const PlanSetup setup{
      .router = plan_router(kind, router_rng, plan.subsets),
      .name = "prop.lmmigrate",
      .spare_hosts = 1,
      .controller = [&](sim::Engine& eng, core::StageOutput& out,
                        std::vector<asu::Node*> hosts) {
        return migration_controller(eng, out, std::move(hosts), moves);
      }};
  const PlanRun run = run_plan(plan, setup);
  const std::string ctx = fmt(" under migration (%zu moves, router=%s)",
                              moves.size(), core::router_kind_name(kind));
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked", run.unfinished) + ctx;
  }
  // Migration deliberately weakens the ordering half of the set contract:
  // re-pinning an endpoint changes the delivery path, so a later packet
  // can overtake an earlier one still in flight to the old location. What
  // must survive is conservation — the delivered multiset equals the
  // emitted multiset — and intra-packet record integrity.
  if (auto err = check_delivery(run, /*ordered=*/false)) return *err + ctx;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> got;
  for (const auto& g : run.got) {
    for (const auto& p : g) got.emplace_back(p.run_id, p.subset, p.seq);
  }
  std::sort(got.begin(), got.end());
  if (got != want) {
    return fmt("delivered packet multiset differs from emitted: %zu/%zu "
               "packets",
               got.size(), want.size()) +
           ctx;
  }
  if (auto err = check_conserved(run, plan)) return *err + ctx;
  // Same plan + same move schedule replays bit-identically.
  if (run_plan(plan, setup).digest != run.digest) {
    return "same migration schedule, different digests" + ctx;
  }
  return std::nullopt;
}

// ---- histogram -----------------------------------------------------

// The telemetry pipeline's accuracy contract: a log-bucketed
// LatencyHistogram's streamed nearest-rank quantile lands in the same
// bucket as the exact nearest-rank sample, so its midpoint answer is
// within the documented per-bucket relative error of the truth; and
// merging per-shard histograms is order- and grouping-independent in
// everything quantiles depend on (bucket counts, count, min, max).
std::optional<std::string> prop_histogram(sim::Rng& rng, unsigned size) {
  const std::size_t n = 1 + rng.below(std::size_t(512) * size);

  // Log-uniform samples spanning ~28 octaves, kept strictly inside the
  // bucketed range so neither the underflow nor overflow bucket (whose
  // answers are exact-min / exact-max, not midpoints) absorbs them.
  // A quarter of the draws repeat the previous value to exercise ties.
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!samples.empty() && rng.below(4) == 0) {
      samples.push_back(samples.back());
    } else {
      samples.push_back(std::exp2(rng.uniform(-20.0, 8.0)));
    }
  }

  obs::LatencyHistogram pooled;
  for (const double v : samples) pooled.observe(v);
  if (pooled.count() != n) {
    return fmt("pooled count %llu != n %zu",
               static_cast<unsigned long long>(pooled.count()), n);
  }

  // Streamed vs exact nearest-rank quantiles, within the documented
  // bound: both land in the same bucket, and the midpoint is at most
  // half a bucket width (<= kRelativeError, relative) from the sample.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * double(n))));
    const double exact = sorted[std::min(rank, n) - 1];
    const double streamed = pooled.quantile(q);
    const double tol =
        exact * obs::LatencyHistogram::kRelativeError * (1 + 1e-9) + 1e-12;
    if (std::abs(streamed - exact) > tol) {
      return fmt("q=%.2f streamed %.9g vs exact %.9g exceeds bound %.3g "
                 "(n=%zu)",
                 q, streamed, exact, tol, n);
    }
  }

  // Shard the samples round-robin, then merge the shards in two
  // different permutations and one nested grouping. Quantiles depend
  // only on bucket counts + min/max, all of which merge exactly, so
  // every merge order must agree with the pooled histogram bit-for-bit
  // on those — and therefore on every quantile.
  const std::size_t shards = 2 + rng.below(5);
  std::vector<obs::LatencyHistogram> parts(shards);
  for (std::size_t i = 0; i < n; ++i) parts[i % shards].observe(samples[i]);

  obs::LatencyHistogram fwd;
  for (const auto& p : parts) fwd.merge(p);
  obs::LatencyHistogram rev;
  for (std::size_t i = shards; i-- > 0;) rev.merge(parts[i]);
  obs::LatencyHistogram nested;  // (last..k) merged first, then (0..k)
  const std::size_t cut = rng.below(shards);
  obs::LatencyHistogram tail;
  for (std::size_t i = cut; i < shards; ++i) tail.merge(parts[i]);
  for (std::size_t i = 0; i < cut; ++i) nested.merge(parts[i]);
  nested.merge(tail);

  for (const obs::LatencyHistogram* m : {&fwd, &rev, &nested}) {
    if (m->count() != pooled.count() ||
        m->bucket_counts() != pooled.bucket_counts() ||
        m->min() != pooled.min() || m->max() != pooled.max()) {
      return fmt("merge order changed counts/min/max (shards=%zu n=%zu)",
                 shards, n);
    }
    for (const double q : {0.5, 0.9, 0.99}) {
      if (m->quantile(q) != pooled.quantile(q)) {
        return fmt("merge order changed q=%.2f (shards=%zu n=%zu)", q,
                   shards, n);
      }
    }
  }
  return std::nullopt;
}

// ---- tenant-conservation / tenant-arrival ----------------------------

/// Random multi-tenant serving config: 1-3 tenants with random fair-share
/// and arrival weights, mixed job shapes, a random admission cap, and
/// load management on for roughly half the cases (so migration and
/// router promotion run against concurrent jobs).
tenant::TenancyConfig gen_tenancy(sim::Rng& rng, unsigned size,
                                  asu::MachineParams& mp) {
  mp = asu::MachineParams{};
  mp.num_hosts = 1 + unsigned(rng.below(2));
  mp.num_asus = 2 + unsigned(rng.below(3));

  tenant::TenancyConfig cfg;
  static const char* kNames[] = {"t0", "t1", "t2"};
  const std::size_t tenants = 1 + rng.below(3);
  for (std::size_t t = 0; t < tenants; ++t) {
    tenant::TenantSpec ts;
    ts.name = kNames[t];
    ts.fair_share_weight = 0.5 + rng.uniform(0.0, 1.5);
    ts.arrival_weight = 0.5 + rng.uniform(0.0, 1.5);
    const std::size_t entries = 1 + rng.below(2);
    for (std::size_t e = 0; e < entries; ++e) {
      tenant::JobMixEntry m;
      switch (rng.below(3)) {
        case 0: m.kind = tenant::JobKind::DsmSort; break;
        case 1: m.kind = tenant::JobKind::ActiveScan; break;
        default: m.kind = tenant::JobKind::RTreeBulkLoad; break;
      }
      m.weight = 0.5 + rng.uniform(0.0, 1.5);
      m.records = 128 * (1 + rng.below(1 + size));
      ts.mix.push_back(m);
    }
    cfg.tenants.push_back(std::move(ts));
  }
  cfg.total_jobs = 1 + rng.below(2 + size / 2);
  cfg.offered_rate = 2.0 + rng.uniform(0.0, 48.0);
  cfg.seed = rng.next();
  cfg.max_in_flight = 1 + rng.below(3);
  cfg.pressure_limit = rng.below(2) == 0 ? 0.0 : 0.02 * (1 + rng.below(8));
  cfg.job_alpha = 2 + unsigned(rng.below(3));
  cfg.job_log2_alpha_beta = 7 + unsigned(rng.below(3));
  if (rng.below(2) == 0) {
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = 0.002 + rng.uniform(0.0, 0.01);
    cfg.load_manager.promote_hysteresis = 1 + rng.below(2);
    cfg.load_manager.migrate_hysteresis = 1 + rng.below(2);
  }
  return cfg;
}

std::string tenancy_str(const asu::MachineParams& mp,
                        const tenant::TenancyConfig& cfg) {
  return fmt("H=%u D=%u tenants=%zu jobs=%zu rate=%.1f cap=%zu plim=%.2f "
             "mode=%d seed=0x%llx",
             mp.num_hosts, mp.num_asus, cfg.tenants.size(), cfg.total_jobs,
             cfg.offered_rate, cfg.max_in_flight, cfg.pressure_limit,
             int(cfg.load_manager.mode),
             static_cast<unsigned long long>(cfg.seed));
}

/// Per-tenant record conservation under concurrent jobs, admission
/// waits, fair-share charging, and (half the time) cross-job load
/// management with migration: every admitted job completes, and each
/// tenant's records-out multiset size equals its records-in.
std::optional<std::string> prop_tenant_conservation(sim::Rng& rng,
                                                    unsigned size) {
  asu::MachineParams mp;
  const tenant::TenancyConfig cfg = gen_tenancy(rng, size, mp);
  const tenant::TenancyReport rep = tenant::run_tenancy(mp, cfg);

  if (rep.jobs_submitted != cfg.total_jobs ||
      rep.jobs_completed != cfg.total_jobs) {
    return fmt("jobs lost: submitted=%zu completed=%zu of %zu (%s)",
               rep.jobs_submitted, rep.jobs_completed, cfg.total_jobs,
               tenancy_str(mp, cfg).c_str());
  }
  if (!rep.conservation_ok || !rep.ok()) {
    return fmt("conservation violated (%s)", tenancy_str(mp, cfg).c_str());
  }
  std::size_t tenant_jobs = 0;
  for (const auto& t : rep.tenants) {
    tenant_jobs += t.jobs_completed;
    if (!t.conservation_ok || t.records_in != t.records_out) {
      return fmt("tenant %s leaked records: in=%zu out=%zu (%s)",
                 t.name.c_str(), t.records_in, t.records_out,
                 tenancy_str(mp, cfg).c_str());
    }
  }
  if (tenant_jobs != cfg.total_jobs) {
    return fmt("per-tenant job counts sum to %zu, want %zu (%s)",
               tenant_jobs, cfg.total_jobs, tenancy_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

/// The open-arrival determinism contract: the same config reproduces the
/// same schedule element-for-element (and the same fingerprint, and —
/// re-running the full sim — the same execution digest), every event is
/// well-formed against the tenant set, and a different seed moves the
/// fingerprint.
std::optional<std::string> prop_tenant_arrival(sim::Rng& rng,
                                               unsigned size) {
  asu::MachineParams mp;
  tenant::TenancyConfig cfg = gen_tenancy(rng, size, mp);

  const tenant::ArrivalProcess a(cfg);
  const tenant::ArrivalProcess b(cfg);
  if (a.fingerprint() != b.fingerprint()) {
    return fmt("same config, different fingerprints (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  if (a.events().size() != cfg.total_jobs ||
      b.events().size() != cfg.total_jobs) {
    return fmt("schedule length %zu, want %zu (%s)", a.events().size(),
               cfg.total_jobs, tenancy_str(mp, cfg).c_str());
  }
  double prev = 0;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const tenant::ArrivalEvent& ea = a.events()[i];
    const tenant::ArrivalEvent& eb = b.events()[i];
    if (ea.time != eb.time || ea.tenant != eb.tenant ||
        ea.kind != eb.kind || ea.records != eb.records ||
        ea.job_seed != eb.job_seed) {
      return fmt("schedules diverge at arrival %zu (%s)", i,
                 tenancy_str(mp, cfg).c_str());
    }
    if (ea.time < prev || ea.tenant >= cfg.tenants.size()) {
      return fmt("malformed arrival %zu: t=%.9g tenant=%zu (%s)", i,
                 ea.time, ea.tenant, tenancy_str(mp, cfg).c_str());
    }
    prev = ea.time;
    bool in_mix = false;
    for (const auto& m : cfg.tenants[ea.tenant].mix) {
      in_mix = in_mix || (m.kind == ea.kind && m.records == ea.records);
    }
    if (!in_mix) {
      return fmt("arrival %zu not drawn from tenant %zu's mix (%s)", i,
                 ea.tenant, tenancy_str(mp, cfg).c_str());
    }
  }

  const std::uint64_t fp = a.fingerprint();
  cfg.seed += 1;
  const tenant::ArrivalProcess c(cfg);
  if (c.fingerprint() == fp) {
    return fmt("seed %llu and %llu share a fingerprint (%s)",
               static_cast<unsigned long long>(cfg.seed - 1),
               static_cast<unsigned long long>(cfg.seed),
               tenancy_str(mp, cfg).c_str());
  }
  cfg.seed -= 1;

  // Full-run determinism: the schedule contract extends through the sim
  // (same seed => same digest), with the report's fingerprint matching a
  // standalone ArrivalProcess of the same config. Kept small: two full
  // tenancy runs per case.
  cfg.total_jobs = std::min<std::size_t>(cfg.total_jobs, 3);
  const tenant::TenancyReport r1 = tenant::run_tenancy(mp, cfg);
  const tenant::TenancyReport r2 = tenant::run_tenancy(mp, cfg);
  if (r1.digest != r2.digest || r1.sim_events != r2.sim_events) {
    return fmt("rerun moved digest/events (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  if (r1.arrival_fingerprint !=
      tenant::ArrivalProcess(cfg).fingerprint()) {
    return fmt("report fingerprint disagrees with ArrivalProcess (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- topology conservation -----------------------------------------

std::optional<std::string> prop_topology_conservation(sim::Rng& rng,
                                                      unsigned size) {
  // The set contract is placement-free: where packets physically travel
  // (flat full bisection, or racks under an oversubscribed spine, with
  // heterogeneous node speeds) must never change what arrives. Run one
  // DSM-Sort config as an embedded job on a random topology AND on the
  // flat machine; both must conserve records, checksums, subset
  // boundaries, and run-sortedness.
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  cfg.run_merge_pass = false;  // embedded jobs are pass-1 only
  const asu::TopologySpec topo = gen_topology(rng, mp);

  const auto run_on = [&](const asu::TopologySpec& t)
      -> std::pair<core::DsmSortReport, std::string> {
    sim::Engine eng;
    asu::Cluster cluster(eng, t);
    core::DsmSortJob job(eng, cluster, cfg);
    eng.spawn(job.body(), "topo-conservation-job");
    eng.run();
    if (!job.finished()) return {{}, "job did not finish"};
    return {job.report(), ""};
  };

  for (const bool flat : {false, true}) {
    const auto& t = flat ? asu::TopologySpec::flat(mp) : topo;
    const auto [rep, err] = run_on(t);
    const char* shape = flat ? "flat" : "hierarchical";
    if (!err.empty()) {
      return fmt("%s (%s racks=%u) [%s]", err.c_str(), shape, t.racks,
                 cfg_str(mp, cfg).c_str());
    }
    if (rep.records_in != cfg.total_records ||
        rep.records_stored != rep.records_in) {
      return fmt("%s racks=%u: stored %zu of %zu records [%s]", shape,
                 t.racks, rep.records_stored, cfg.total_records,
                 cfg_str(mp, cfg).c_str());
    }
    if (!rep.checksum_ok) {
      return fmt("%s racks=%u: key checksum not conserved [%s]", shape,
                 t.racks, cfg_str(mp, cfg).c_str());
    }
    if (!rep.subsets_ok) {
      return fmt("%s racks=%u: records crossed subset boundaries [%s]",
                 shape, t.racks, cfg_str(mp, cfg).c_str());
    }
    if (!rep.runs_sorted_ok) {
      return fmt("%s racks=%u: stored runs not sorted [%s]", shape, t.racks,
                 cfg_str(mp, cfg).c_str());
    }
  }
  return std::nullopt;
}

// ---- pod balance ----------------------------------------------------

std::optional<std::string> prop_pod_balance(sim::Rng& rng, unsigned size) {
  // Balance contracts of the scale-out routers on (possibly) hierarchical
  // target sets. All load feedback is the running assignment count — the
  // balls-into-bins regime the mean-field model predicts.
  const std::size_t k = 2 + rng.below(std::max(2u, 2 * size));
  const std::size_t n = k * (8 + rng.below(32));
  const std::vector<core::RouteTarget> targets(k);

  asu::MachineParams mp;
  mp.num_asus = unsigned(k);
  const asu::TopologySpec topo = gen_topology(rng, mp);

  core::Packet pkt;  // subset 0 throughout
  std::vector<std::size_t> count(k, 0);
  const core::LoadProbe count_probe =
      [&count](std::span<const core::RouteTarget>, std::size_t i) {
        return double(count[i]);
      };

  // (1) SR's per-target floor/ceil cycle bound aggregates to per-rack
  // bounds: each rack's share lies within the sum of its targets' bounds.
  {
    core::SimpleRandomizationRouter sr(rng.split());
    std::vector<std::size_t> rack_count(topo.racks, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = sr.pick(pkt, targets);
      if (idx >= k) return fmt("SR pick %zu out of range k=%zu", idx, k);
      ++rack_count[topo.rack_of_asu(unsigned(idx))];
    }
    for (unsigned r = 0; r < topo.racks; ++r) {
      std::size_t width = 0;  // targets in rack r
      for (std::size_t i = 0; i < k; ++i) {
        width += topo.rack_of_asu(unsigned(i)) == r;
      }
      const std::size_t lo = width * (n / k);
      const std::size_t hi = width * (n / k + (n % k ? 1 : 0));
      if (rack_count[r] < lo || rack_count[r] > hi) {
        return fmt("SR rack %u got %zu picks, bounds [%zu, %zu] "
                   "(k=%zu n=%zu racks=%u width=%zu)",
                   r, rack_count[r], lo, hi, k, n, topo.racks, width);
      }
    }
  }

  // (2) d >= k is exact least-loaded: every pick lands on a target whose
  // probed load equals the global minimum, so counts stay within 1.
  {
    std::fill(count.begin(), count.end(), std::size_t{0});
    core::PowerOfDChoicesRouter pod(rng.split(), unsigned(k), count_probe);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = pod.pick(pkt, targets);
      if (idx >= k) return fmt("pod(k) pick %zu out of range k=%zu", idx, k);
      const auto min_now = *std::min_element(count.begin(), count.end());
      if (count[idx] != min_now) {
        return fmt("pod(d=k) picked load %zu, min was %zu (k=%zu pick %zu)",
                   count[idx], min_now, k, i);
      }
      ++count[idx];
    }
    const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
    if (*hi - *lo > 1) {
      return fmt("pod(d=k) spread %zu after %zu picks (k=%zu)", *hi - *lo,
                 n, k);
    }
  }

  // (3) d = 2 with count feedback: the mean-field gap is
  // log2(log2(k)) + O(1); assert a margin far above it — a failure means
  // the sampler stopped consulting load, not an unlucky seed.
  {
    std::fill(count.begin(), count.end(), std::size_t{0});
    core::PowerOfDChoicesRouter pod(rng.split(), 2, count_probe);
    for (std::size_t i = 0; i < n; ++i) ++count[pod.pick(pkt, targets)];
    const std::size_t max_count = *std::max_element(count.begin(),
                                                    count.end());
    if (max_count > n / k + 16) {
      return fmt("pod(2) max load %zu vs mean %zu (k=%zu n=%zu)",
                 max_count, n / k, k, n);
    }
  }

  // (4) d = 1 never consults load: even a target advertising zero load
  // forever must not absorb every pick.
  if (k >= 2) {
    const core::LoadProbe favor_zero =
        [](std::span<const core::RouteTarget>, std::size_t i) {
          return i == 0 ? 0.0 : 1e9;
        };
    core::PowerOfDChoicesRouter pod(rng.split(), 1, favor_zero);
    std::size_t zero_picks = 0;
    const std::size_t trials = std::max<std::size_t>(n, 64);
    for (std::size_t i = 0; i < trials; ++i) {
      zero_picks += pod.pick(pkt, targets) == 0;
    }
    if (zero_picks == trials) {
      return fmt("pod(1) always picked the advertised-idle target "
                 "(k=%zu trials=%zu)",
                 k, trials);
    }
  }
  return std::nullopt;
}

// ---- migration economy ---------------------------------------------

// Cases, since the process started, whose placer journal priced at least
// one pre-copy move, and at least one stop-copy move.
std::atomic<std::size_t> g_precopy_cases{0};
std::atomic<std::size_t> g_stopcopy_cases{0};

// The budgeted placer's safety contract. One managed DSM-Sort per case:
// a random per-tick move budget, an aggressive control loop (short
// period, low hysteresis) so migrations actually fire, and — half the
// time — a random fault plan (crash windows included) underneath. The
// run must conserve records/checksums/subsets; every journaled placer
// tick must respect the move budget; and the managed run must replay
// bit-identically (plan + execute of concurrent pre-copy transfers is
// part of the digest).
std::optional<std::string> prop_migration_economy(sim::Rng& rng,
                                                  unsigned size) {
  asu::MachineParams mp = gen_machine(rng, size);
  mp.num_hosts = 2;  // migration needs somewhere to go
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  // Static partitioning + a (usually) skewed distribution builds the
  // sustained imbalance the placer reacts to; single-pass so the
  // measured horizon brackets the managed run.
  cfg.sort_router = core::RouterKind::Static;
  cfg.run_merge_pass = false;
  if (rng.below(2) == 0) cfg.key_dist = core::KeyDist::Exponential;

  const core::DsmSortReport base = run_dsm_sort(mp, cfg);
  if (!base.ok()) {
    return fmt("unmanaged baseline failed validation [%s]",
               cfg_str(mp, cfg).c_str());
  }

  core::LoadManagerConfig lm;
  lm.mode = core::LoadManagerMode::Manage;
  lm.period = std::max(base.pass1_seconds, 1e-6) / 32.0;
  lm.promote_hysteresis = 1 + rng.below(2);
  lm.migrate_hysteresis = 1 + rng.below(2);
  lm.cooldown_samples = rng.below(3);
  lm.dwell_samples = 1 + rng.below(4);
  lm.budget_moves_per_tick = 1 + rng.below(3);
  cfg.load_manager = lm;
  if (rng.below(2) == 0) {
    cfg.faults = gen_fault_plan(rng, mp, base.pass1_seconds, size);
  }

  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (rep.records_stored != rep.records_in || !rep.checksum_ok) {
    return fmt("managed run lost records: stored %zu of %zu, checksum %s "
               "(%zu migrations, %zu faults) [%s]",
               rep.records_stored, rep.records_in,
               rep.checksum_ok ? "ok" : "BAD",
               std::size_t(rep.lm_migrations), cfg.faults.size(),
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries under managed "
               "migration [%s]",
               cfg_str(mp, cfg).c_str());
  }

  // Budget accounting: the placer journals every admitted move with the
  // tick timestamp it was planned at. Group by identical time — one
  // group per manager tick — and check the move budget.
  std::map<double, std::size_t> ticks;
  bool precopy = false;
  bool stopcopy = false;
  for (const auto& d : rep.lm_decisions) {
    if (d.bytes < core::kMigrationOverheadBytes) {
      return fmt("placer decision at t=%.6f declares %zu bytes, below the "
                 "%zu-byte migration overhead [%s]",
                 d.time, d.bytes, core::kMigrationOverheadBytes,
                 cfg_str(mp, cfg).c_str());
    }
    ++ticks[d.time];
    precopy |= d.mode == core::MigrationMode::PreCopy;
    stopcopy |= d.mode == core::MigrationMode::StopCopy;
  }
  g_precopy_cases += precopy;
  g_stopcopy_cases += stopcopy;
  for (const auto& [time, moves] : ticks) {
    if (moves > lm.budget_moves_per_tick) {
      return fmt("placer tick at t=%.6f admitted %zu moves over a budget "
                 "of %zu [%s]",
                 time, moves, lm.budget_moves_per_tick,
                 cfg_str(mp, cfg).c_str());
    }
  }
  if (rep.lm_migrations > rep.lm_decisions.size()) {
    return fmt("%zu migrations executed but only %zu placer decisions "
               "journaled [%s]",
               std::size_t(rep.lm_migrations), rep.lm_decisions.size(),
               cfg_str(mp, cfg).c_str());
  }

  // Same managed config (same budgets, same fault plan) replays
  // bit-identically.
  const core::DsmSortReport again = run_dsm_sort(mp, cfg);
  if (again.digest != rep.digest) {
    return fmt("managed run not deterministic: 0x%016llx vs 0x%016llx "
               "(%zu decisions) [%s]",
               static_cast<unsigned long long>(rep.digest),
               static_cast<unsigned long long>(again.digest),
               rep.lm_decisions.size(), cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- config-fuzz -----------------------------------------------------

/// A valid control loop spanning Off/Monitor/Manage, with zero budgets,
/// hysteresis and dwell.
core::LoadManagerConfig fuzz_load_manager(sim::Rng& rng) {
  core::LoadManagerConfig lm;
  lm.mode = pick(rng, {core::LoadManagerMode::Off,
                       core::LoadManagerMode::Monitor,
                       core::LoadManagerMode::Manage});
  lm.period = pick(rng, {1e-4, 5e-4, 0.05});
  lm.promote_hysteresis = rng.below(3);
  lm.migrate_hysteresis = rng.below(3);
  lm.cooldown_samples = rng.below(3);
  lm.dwell_samples = rng.below(3);
  lm.budget_moves_per_tick = rng.below(3);
  return lm;
}

/// Break the machine or the control loop for draws 0-3 of `k`.
void break_shared(sim::Rng& rng, std::size_t k, asu::MachineParams& mp,
                  core::LoadManagerConfig& lm) {
  switch (k) {
    case 0: mp.num_hosts = 0; break;
    case 1: mp.num_asus = 0; break;
    case 2: mp.record_bytes = 0; break;
    case 3:
      lm.mode = core::LoadManagerMode::Manage;
      lm.period = pick(rng, {0.0, -0.01, std::nan("")});
      break;
    default: break;
  }
}

/// The rules the entry points must enforce, restated independently of
/// the validate() code under test.
bool shared_invalid(const asu::MachineParams& mp,
                    const core::LoadManagerConfig& lm) {
  return mp.num_hosts == 0 || mp.num_asus == 0 || mp.record_bytes == 0 ||
         (lm.mode != core::LoadManagerMode::Off && !(lm.period > 0));
}

/// Run one entry point: it must throw std::invalid_argument exactly when
/// the config is `invalid`; otherwise `body`'s own checks decide.
template <typename Body>
std::optional<std::string> at_boundary(bool invalid, const std::string& what,
                                       Body body) {
  std::optional<std::string> err;
  try {
    err = body();
  } catch (const std::invalid_argument& e) {
    if (invalid) return std::nullopt;
    err = std::string("valid config rejected: ") + e.what();
  } catch (const std::exception& e) {
    err = std::string("run failed: ") + e.what();
  }
  if (!err && invalid) err = "invalid config accepted";
  if (err) *err += " [" + what + "]";
  return err;
}

/// DSM-Sort at boundary values (empty and one-record inputs, alpha 3,
/// log2_alpha_beta 0 and 63, one-record packets, fan-in caps), with
/// telemetry, a fuzzed control loop and sometimes faults; half the cases
/// break one field.
std::optional<std::string> fuzz_dsm_case(sim::Rng& rng, unsigned size) {
  asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  cfg.total_records =
      pick(rng, {std::size_t(0), std::size_t(1), cfg.total_records});
  cfg.alpha = pick(rng, {3u, cfg.alpha});
  cfg.log2_alpha_beta = pick(rng, {0u, 63u, cfg.log2_alpha_beta});
  cfg.packet_records =
      pick(rng, {std::size_t(0), std::size_t(1), std::size_t(7)});
  cfg.gamma1 = unsigned(rng.below(4));
  (void)rng.below(4);  // unused draw: later fields keep their values
  cfg.telemetry.histograms = rng.below(2) == 0;
  cfg.telemetry.sampler = rng.below(2) == 0;
  cfg.load_manager = fuzz_load_manager(rng);
  if (rng.below(4) == 0) cfg.faults = gen_fault_plan(rng, mp, 0.01, size);
  if (rng.below(2) == 0) {
    const std::size_t k = rng.below(7);
    break_shared(rng, k, mp, cfg.load_manager);
    if (k == 4) cfg.alpha = 0;
    if (k == 5) cfg.log2_alpha_beta = pick(rng, {64u, 70u});
    if (k == 6) cfg.fair_share_weight = pick(rng, {0.0, -1.0, std::nan("")});
  }
  const bool invalid = shared_invalid(mp, cfg.load_manager) ||
                       cfg.alpha == 0 || cfg.log2_alpha_beta >= 64 ||
                       !(cfg.fair_share_weight > 0);
  const std::string what =
      cfg_str(mp, cfg) +
      fmt(" rec=%zu pkt=%zu w=%g lm=%d period=%g faults=%zu",
          mp.record_bytes, cfg.packet_records, cfg.fair_share_weight,
          int(cfg.load_manager.mode), cfg.load_manager.period,
          cfg.faults.size());
  return at_boundary(invalid, what, [&]() -> std::optional<std::string> {
    const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
    if (rep.ok() && rep.records_in == cfg.total_records &&
        rep.records_stored == rep.records_in &&
        (!cfg.run_merge_pass || rep.records_final == rep.records_in)) {
      return std::nullopt;
    }
    return fmt("records not conserved: in=%zu stored=%zu final=%zu ok=%d",
               rep.records_in, rep.records_stored, rep.records_final,
               int(rep.ok()));
  });
}

/// A small tenancy run (sometimes with no jobs), a fuzzed control loop
/// and sometimes faults; half the cases break one field.
std::optional<std::string> fuzz_tenancy_case(sim::Rng& rng, unsigned size) {
  asu::MachineParams mp;
  tenant::TenancyConfig cfg = gen_tenancy(rng, size, mp);
  cfg.total_jobs = pick(rng, {std::size_t(0), cfg.total_jobs});
  cfg.job_alpha = pick(rng, {1u, cfg.job_alpha});
  cfg.job_log2_alpha_beta = pick(rng, {0u, cfg.job_log2_alpha_beta});
  cfg.load_manager = fuzz_load_manager(rng);
  if (rng.below(4) == 0) cfg.faults = gen_fault_plan(rng, mp, 0.05, size);
  if (rng.below(2) == 0) {
    const std::size_t k = rng.below(12);
    tenant::TenantSpec& ts = cfg.tenants[rng.below(cfg.tenants.size())];
    break_shared(rng, k, mp, cfg.load_manager);
    if (k == 4) cfg.job_alpha = 0;
    if (k == 5) cfg.job_log2_alpha_beta = 64;
    if (k == 6) cfg.max_in_flight = 0;
    if (k == 7) ts.fair_share_weight = pick(rng, {0.0, -1.0});
    if (k == 8) ts.arrival_weight = 0;
    if (k == 9) ts.mix.push_back({.weight = 0});
    if (k == 10) ts.mix.push_back({.records = 0});
    if (k == 11) cfg.offered_rate = 0;  // invalid only when jobs arrive
  }
  bool invalid = shared_invalid(mp, cfg.load_manager) ||
                 cfg.max_in_flight == 0 || cfg.job_alpha == 0 ||
                 cfg.job_log2_alpha_beta >= 64 ||
                 (cfg.total_jobs > 0 && !(cfg.offered_rate > 0));
  for (const auto& ts : cfg.tenants) {
    invalid |= !(ts.fair_share_weight > 0) || !(ts.arrival_weight > 0);
    for (const auto& m : ts.mix) invalid |= !(m.weight > 0) || m.records == 0;
  }
  const std::string what =
      tenancy_str(mp, cfg) +
      fmt(" rec=%zu alpha=%u K=2^%u period=%g faults=%zu", mp.record_bytes,
          cfg.job_alpha, cfg.job_log2_alpha_beta, cfg.load_manager.period,
          cfg.faults.size());
  return at_boundary(invalid, what, [&]() -> std::optional<std::string> {
    const tenant::TenancyReport rep = tenant::run_tenancy(mp, cfg);
    if (!rep.ok() || rep.jobs_completed != cfg.total_jobs) {
      return fmt("jobs lost: %zu of %zu completed", rep.jobs_completed,
                 cfg.total_jobs);
    }
    for (const auto& t : rep.tenants) {
      if (t.records_in != t.records_out) {
        return fmt("tenant %s leaked records: in=%zu out=%zu",
                   t.name.c_str(), t.records_in, t.records_out);
      }
    }
    return std::nullopt;
  });
}

std::optional<std::string> prop_config_fuzz(sim::Rng& rng, unsigned size) {
  // A case still running after a minute of wall time is a hang: SIGALRM
  // then ends the process, which fails the suite like a crash does.
  alarm(60);
  auto err = rng.below(2) == 0 ? fuzz_dsm_case(rng, size)
                               : fuzz_tenancy_case(rng, size);
  alarm(0);
  return err;
}

// ---- host-kernels ----------------------------------------------------

// The streaming stored-run check against the whole-run check it
// replaced. `stored` is one subset's records in key order, as a store
// holds them. It is cut into chunks (some possibly empty), optionally
// corrupted, and fed to core::RunCheck with the chunks arriving in
// shuffled seq order and some chunks split into two same-seq pieces.
// The verdict must equal the whole-run reference over the chunks in seq
// order: sorted by key, core::run_in_subset, and the key sum.
std::optional<std::string> check_run_check(
    sim::Rng& rng, const std::vector<std::uint32_t>& splitters,
    std::uint32_t subset, std::vector<em::KeyRecord> stored) {
  const core::KeyClassifier classify{core::SplitterClassifier(splitters)};
  const std::size_t m = stored.size();
  // Chunk k is stored[cut[k], cut[k + 1]); equal cuts make empty chunks.
  const std::size_t pieces = 1 + rng.below(8);
  std::vector<std::size_t> cut = {0, m};
  for (std::size_t i = 1; i < pieces; ++i) cut.push_back(rng.below(m + 1));
  // Corruption: none, two records swapped inside a chunk, the records
  // on either side of a chunk boundary swapped, one key nudged into the
  // neighbouring subset, or an extra empty chunk.
  const unsigned corrupt = unsigned(rng.below(5));
  if (corrupt == 4) cut.push_back(cut[rng.below(cut.size())]);
  std::sort(cut.begin(), cut.end());
  const std::size_t chunks = cut.size() - 1;
  if (corrupt == 1) {
    const std::size_t k = rng.below(chunks);
    const std::size_t len = cut[k + 1] - cut[k];
    if (len >= 2) {
      const std::size_t i = cut[k] + rng.below(len);
      std::swap(stored[i], stored[cut[k] + rng.below(len)]);
    }
  } else if (corrupt == 2) {
    const std::size_t b = cut[1 + rng.below(chunks)];  // a chunk boundary
    if (b > 0 && b < m) std::swap(stored[b - 1], stored[b]);
  } else if (corrupt == 3 && m > 0) {
    // Subset s holds the keys in (splitters[s - 1], splitters[s]]. The
    // key just above it replaces the last record or the key just below
    // it the first, which leaves the run sorted, or either replaces a
    // random record.
    const bool up = subset < splitters.size() && splitters[subset] != ~0u &&
                    (subset == 0 || rng.below(2) == 0);
    if (up || subset > 0) {
      const std::uint32_t key =
          up ? splitters[subset] + 1 : splitters[subset - 1];
      const std::size_t at =
          rng.below(2) == 0 ? rng.below(m) : (up ? m - 1 : 0);
      stored[at].key = key;
    }
  }

  // Arrivals: a random unfinished chunk sends its next piece; a chunk is
  // sent whole or as two pieces of the same seq, in order.
  std::vector<std::vector<std::span<const em::KeyRecord>>> parts(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::span<const em::KeyRecord> c(stored.data() + cut[k],
                                           cut[k + 1] - cut[k]);
    if (c.size() >= 2 && rng.below(3) == 0) {
      const std::size_t at = 1 + rng.below(c.size() - 1);
      parts[k] = {c.subspan(at), c.first(at)};  // sent from the back
    } else {
      parts[k] = {c};
    }
  }
  core::RunCheck check;
  for (std::size_t left = chunks; left > 0;) {
    std::size_t k = rng.below(chunks);
    while (parts[k].empty()) k = (k + 1) % chunks;
    check.add(std::uint32_t(k), parts[k].back(), &classify, subset);
    parts[k].pop_back();
    if (parts[k].empty()) --left;
  }

  const bool sorted = std::is_sorted(stored.begin(), stored.end());
  std::uint64_t key_sum = 0;
  for (const auto& r : stored) key_sum += r.key;
  const bool in_subset = core::run_in_subset(classify, stored, subset, sorted);
  const core::RunCheck::Verdict v = check.verdict();
  if (v.records != m || v.key_sum != key_sum || v.sorted != sorted ||
      v.in_subset != in_subset) {
    return fmt("RunCheck differs from the whole-run check (%zu records in "
               "%zu chunks, corruption %u: records %zu, sorted %d/%d, "
               "in subset %d/%d) ",
               m, chunks, corrupt, v.records, int(v.sorted), int(sorted),
               int(v.in_subset), int(in_subset));
  }
  return std::nullopt;
}

// DSM-Sort's host-side record kernels against the generic code they
// replaced, on random KeyRecord runs: the radix run formation equals
// std::stable_sort by key record for record (ids included), RunMerger's
// packed-word tournament, filled in random chunk sizes, emits exactly the
// std::function-source LoserTree's sequence, and the variant bucket
// classifier (per key and per batch) equals the type-erased range
// classifier / std::lower_bound splitter search it replaced, and the
// streaming stored-run check equals the whole-run check.
std::optional<std::string> prop_host_kernels(sim::Rng& rng, unsigned size) {
  // Sizes 0, 1, 2, small, either side of sort_by_key's radix cut-over,
  // beta, 2*beta+odd (beta in [64, 4096]), and 128: the tenancy
  // workload's beta, which always gets one subset's keys below.
  const std::size_t beta = std::size_t(64)
                           << rng.below(1 + std::min(size, 12u) / 2);
  const std::size_t sizes[] = {0,
                               1,
                               2,
                               3 + rng.below(60),
                               em::kMinRadixRun - 1,
                               em::kMinRadixRun + 1,
                               beta,
                               2 * beta + 2 * rng.below(8) + 1,
                               128};
  const std::size_t pick = rng.below(std::size(sizes));
  const std::size_t n = sizes[pick];
  const core::KeyDist dist = gen_key_dist(rng);
  core::KeyGenerator gen(dist, n, rng.split());
  std::vector<em::KeyRecord> run(n);
  for (std::size_t i = 0; i < n; ++i) run[i] = {gen.next(), std::uint32_t(i)};

  // Key shape: as generated, all equal, constant high 8/16/24 bits (one
  // subset's keys), a few distinct values spread over every byte, or the
  // top three keys (packed beside RunMerger's exhausted-source word).
  unsigned shape = unsigned(rng.below(7));
  if (pick + 1 == std::size(sizes)) shape = 2 + shape % 3;
  const auto c = std::uint32_t(rng.next());
  for (auto& r : run) {
    switch (shape) {
      case 1: r.key = c; break;
      case 2: r.key = (c & 0xff000000u) | (r.key & 0x00ffffffu); break;
      case 3: r.key = (c & 0xffff0000u) | (r.key & 0x0000ffffu); break;
      case 4: r.key = (c & 0xffffff00u) | (r.key & 0x000000ffu); break;
      case 5: r.key = (r.key % 5) * 0x01010101u; break;
      case 6: r.key = std::uint32_t(-1) - r.key % 3; break;
      default: break;
    }
  }
  const std::string what =
      fmt("n=%zu beta=%zu dist=%s shape=%u", n, beta,
          core::key_dist_name(dist), shape);

  // Run formation, with a scratch vector left over from an unrelated run.
  std::vector<em::KeyRecord> scratch(rng.below(3 * beta), em::KeyRecord{7, 7});
  auto want = run;
  std::stable_sort(want.begin(), want.end());
  auto got = run;
  em::sort_by_key(got, scratch);
  if (got != want) {
    std::size_t i = 0;
    while (i < n && got[i] == want[i]) ++i;
    return fmt("sort_by_key differs from stable_sort at %zu ", i) + what;
  }

  // Merge: scatter the records over k runs (some possibly empty, with
  // equal keys across runs), sort each, and merge with both mergers.
  const std::size_t k = 1 + rng.below(std::min<std::size_t>(4 * size, 64));
  std::vector<std::vector<em::KeyRecord>> runs(k);
  for (const auto& r : run) runs[rng.below(k)].push_back(r);
  for (auto& v : runs) std::stable_sort(v.begin(), v.end());
  std::vector<em::LoserTree<em::KeyRecord>::Source> fn_sources;
  for (const auto& v : runs) {
    fn_sources.push_back([&v, pos = std::size_t(0)]() mutable
                         -> std::optional<em::KeyRecord> {
      if (pos >= v.size()) return std::nullopt;
      return v[pos++];
    });
  }
  em::LoserTree<em::KeyRecord> fn_tree(std::move(fn_sources));
  std::vector<em::KeyRecord> fn_merged;
  while (auto r = fn_tree.next()) fn_merged.push_back(*r);
  const std::vector<std::span<const em::KeyRecord>> spans(runs.begin(),
                                                          runs.end());
  em::RunMerger<em::KeyRecord> merger(spans);
  // Fill chunk: one record, a random size, or more than is left.
  const std::size_t chunk_sizes[] = {1, 1 + rng.below(2 * beta), n + 1};
  const std::size_t chunk = chunk_sizes[rng.below(std::size(chunk_sizes))];
  std::vector<em::KeyRecord> merged;
  while (merger.fill(merged, chunk) > 0) {
  }
  if (merged != fn_merged || !merger.empty()) {
    std::size_t i = 0;
    while (i < merged.size() && i < fn_merged.size() &&
           merged[i] == fn_merged[i]) {
      ++i;
    }
    return fmt("RunMerger differs from std::function merge at %zu "
               "(k=%zu chunk=%zu) ",
               i, k, chunk) +
           what;
  }

  // Classifier: range and sampled splitters (from this run's keys, so
  // skewed or constant keys give duplicate splitters), on every key plus
  // the extremes and each splitter's neighbourhood.
  const unsigned alpha = 1 + unsigned(rng.below(256));
  std::vector<std::uint32_t> sample;
  for (const auto& r : run) sample.push_back(r.key);
  const auto splitters = core::choose_splitters(sample, alpha);
  const em::RangeClassifier<std::uint32_t> range(0, std::uint32_t(-1),
                                                 alpha);
  const std::function<std::uint32_t(const em::KeyRecord&)> old_range =
      [range](const em::KeyRecord& r) { return std::uint32_t(range(r)); };
  const std::function<std::uint32_t(const em::KeyRecord&)> old_sampled =
      [splitters](const em::KeyRecord& r) {
        return std::uint32_t(
            std::lower_bound(splitters.begin(), splitters.end(), r.key) -
            splitters.begin());
      };
  const core::KeyClassifier new_range(range);
  const core::KeyClassifier new_sampled{core::SplitterClassifier(splitters)};
  std::vector<std::uint32_t> probes = {0, std::uint32_t(-1)};
  for (const std::uint32_t sp : splitters) {
    probes.insert(probes.end(), {sp - 1, sp, sp + 1});
  }
  for (const auto& r : run) probes.push_back(r.key);
  std::vector<std::uint32_t> batch_range(probes.size());
  std::vector<std::uint32_t> batch_sampled(probes.size());
  new_range.classify(probes, batch_range);
  new_sampled.classify(probes, batch_sampled);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const em::KeyRecord r{probes[i], 0};
    if (new_range(r) != old_range(r) || new_sampled(r) != old_sampled(r) ||
        batch_range[i] != old_range(r) || batch_sampled[i] != old_sampled(r)) {
      return fmt("classifier differs on key %u (alpha=%u, %zu splitters) ",
                 probes[i], alpha, splitters.size()) +
             what;
    }
  }

  // Subset check: one subset's records (the sampled classifier's subset
  // of a random key), sorted or not, possibly with one record of another
  // subset written over the first, middle, last or a random position.
  if (n > 0) {
    const std::uint32_t subset = new_sampled(run[rng.below(n)]);
    std::vector<em::KeyRecord> members;
    for (const auto& r : run) {
      if (new_sampled(r) == subset) members.push_back(r);
    }
    if (rng.below(2) == 0) std::stable_sort(members.begin(), members.end());
    const auto stray =
        std::find_if(run.begin(), run.end(), [&](const em::KeyRecord& r) {
          return new_sampled(r) != subset;
        });
    if (stray != run.end() && rng.below(2) == 0) {
      const std::size_t m = members.size();
      const std::size_t at[] = {0, m / 2, m - 1, rng.below(m)};
      members[at[rng.below(std::size(at))]] = *stray;
    }
    bool want_in = true;
    for (const auto& r : members) want_in = want_in && new_sampled(r) == subset;
    const bool sorted = std::is_sorted(members.begin(), members.end());
    if (core::run_in_subset(new_sampled, members, subset, sorted) != want_in) {
      return fmt("run_in_subset differs from the per-record check "
                 "(%zu records, sorted=%d, want %d) ",
                 members.size(), int(sorted), int(want_in)) +
             what;
    }
    std::vector<em::KeyRecord> stored;
    for (const auto& r : run) {
      if (new_sampled(r) == subset) stored.push_back(r);
    }
    std::stable_sort(stored.begin(), stored.end());
    if (auto err = check_run_check(rng, splitters, subset, stored)) {
      return *err + what;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Failure> SuiteInfo::run(std::size_t cases,
                                      std::uint64_t seed) const {
  Options opt;
  opt.suite = std::string(name);
  opt.cases = cases;
  opt.seed = seed;
  opt.max_size = max_size;
  return forall(opt, prop);
}

// Whole-simulation suites (every DSM-Sort, tenancy or routed-plan
// run per case) cap their size at 8 to keep a 100-case
// suite interactive; the pure-model suites scale further.
const std::vector<SuiteInfo>& all_suites() {
  static const std::vector<SuiteInfo> kSuites = {
      {"permutation", prop_permutation, 16},
      {"packet-order", prop_packet_order, 8},
      {"conservation", prop_conservation, 12},
      {"sr-balance", prop_sr_balance, 16},
      {"predictor", prop_predictor, 8},
      {"digest", prop_digest, 6},
      {"fault-conservation", prop_fault_conservation, 8},
      {"fault-routing", prop_fault_routing, 8},
      {"lm-switch", prop_lm_switch, 8},
      {"lm-migration", prop_lm_migration, 8},
      {"histogram", prop_histogram, 16},
      {"tenant-conservation", prop_tenant_conservation, 8},
      {"tenant-arrival", prop_tenant_arrival, 8},
      {"topology-conservation", prop_topology_conservation, 8},
      {"pod-balance", prop_pod_balance, 16},
      {"migration-economy", prop_migration_economy, 8},
      {"config-fuzz", prop_config_fuzz, 8},
      {"host-kernels", prop_host_kernels, 16},
  };
  return kSuites;
}

const SuiteInfo& suite(std::string_view name) {
  for (const auto& s : all_suites()) {
    if (s.name == name) return s;
  }
  throw std::out_of_range("no property suite named " + std::string(name));
}

PricedModes migration_economy_priced_modes() {
  return {g_precopy_cases.load(), g_stopcopy_cases.load()};
}

}  // namespace lmas::check
