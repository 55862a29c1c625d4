#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "asu/node.hpp"
#include "core/packet.hpp"
#include "sim/random.hpp"

namespace lmas::core {

/// A candidate destination for a packet: one instance of a replicated
/// functor, pinned to a node whose load the router may inspect.
struct RouteTarget {
  asu::Node* node = nullptr;
};

/// Chooses which instance of a replicated functor consumes a packet.
/// Because sets do not define record order, the system is free to route
/// each packet to any instance (Section 3.3); policies differ in how they
/// use static and dynamic information.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Return the target index in [0, targets.size()) for this packet.
  /// The target set may shrink or grow between calls (replica failure,
  /// removal, re-replication); policies must tolerate any size, including
  /// the degenerate cases: a single target always yields index 0, and an
  /// empty set yields 0 as a sentinel — the caller must check
  /// targets.empty() before dereferencing (there is nowhere to route).
  virtual std::size_t pick(const Packet& p,
                           std::span<const RouteTarget> targets) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Baseline static partitioning. With the total subset count known, each
/// instance owns a contiguous block of subsets — the paper's Figure 10
/// baseline "assigns half of the alpha distribute subsets to one host,
/// and the other half to the second host". Skewed subsets then produce
/// persistent imbalance. Without a subset count it falls back to modulo.
class StaticPartitionRouter final : public RoutingPolicy {
 public:
  explicit StaticPartitionRouter(std::uint32_t total_subsets = 0)
      : total_subsets_(total_subsets) {}

  std::size_t pick(const Packet& p,
                   std::span<const RouteTarget> targets) override {
    const std::size_t k = targets.size();
    if (k == 0) return 0;
    if (total_subsets_ == 0) return p.subset % k;
    const std::size_t idx = std::size_t(p.subset) * k / total_subsets_;
    return idx >= k ? k - 1 : idx;
  }
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  std::uint32_t total_subsets_;
};

/// Oblivious rotation over instances, ignoring subsets.
class RoundRobinRouter final : public RoutingPolicy {
 public:
  std::size_t pick(const Packet&,
                   std::span<const RouteTarget> targets) override {
    if (targets.empty()) return 0;
    return next_++ % targets.size();
  }
  [[nodiscard]] std::string name() const override { return "round-robin"; }

 private:
  std::size_t next_ = 0;
};

/// Rack-locality preference for hierarchical topologies: prefer targets
/// in the same rack as the packet's producer, round-robin among them
/// (per-source-rack cursor, so each rack's producers spread over their
/// local targets evenly); fall back to a global round-robin only when
/// the producer's rack holds no healthy target. On a 2-rack topology
/// this keeps pass-1 run chunks off the oversubscribed spine entirely
/// when every rack has stores — the topology-blind RoundRobinRouter
/// ships (racks-1)/racks of all bytes cross-rack. Deterministic: no RNG,
/// cursors only. The rack callbacks keep the router independent of any
/// concrete TopologySpec wiring (callers bind them to rack_of_host /
/// rack_of_asu).
class RackAffinityRouter final : public RoutingPolicy {
 public:
  using SourceRack = std::function<unsigned(const Packet&)>;
  using TargetRack = std::function<unsigned(const asu::Node*)>;

  RackAffinityRouter(SourceRack source_rack, TargetRack target_rack)
      : source_rack_(std::move(source_rack)),
        target_rack_(std::move(target_rack)) {}

  std::size_t pick(const Packet& p,
                   std::span<const RouteTarget> targets) override {
    if (targets.empty()) return 0;
    const unsigned rack = source_rack_(p);
    local_.clear();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (target_rack_(targets[i].node) == rack) local_.push_back(i);
    }
    if (local_.empty()) return global_next_++ % targets.size();
    if (rack_next_.size() <= rack) rack_next_.resize(rack + 1, 0);
    return local_[rack_next_[rack]++ % local_.size()];
  }
  [[nodiscard]] std::string name() const override { return "rack-affinity"; }

 private:
  SourceRack source_rack_;
  TargetRack target_rack_;
  std::vector<std::size_t> rack_next_;  // per-source-rack cursor
  std::size_t global_next_ = 0;
  std::vector<std::size_t> local_;      // scratch: local target indices
};

/// Simple randomization (SR) in the randomized-cycling style of Vitter &
/// Hutchinson [35]: for every subset, targets are visited in a random
/// cyclic order, reshuffled each cycle. Each subset's records spread
/// evenly over all instances while consecutive packets of a subset avoid
/// hammering one instance — Figure 10's "load-controlled" configuration.
class SimpleRandomizationRouter final : public RoutingPolicy {
 public:
  explicit SimpleRandomizationRouter(sim::Rng rng) : rng_(rng) {}

  std::size_t pick(const Packet& p,
                   std::span<const RouteTarget> targets) override {
    if (targets.empty()) return 0;
    Cycle& c = cycles_[p.subset];
    if (c.order.size() != targets.size()) {
      c.order.resize(targets.size());
      std::iota(c.order.begin(), c.order.end(), std::size_t{0});
      c.pos = c.order.size();  // force shuffle below
    }
    if (c.pos >= c.order.size()) {
      shuffle(c.order);
      c.pos = 0;
    }
    return c.order[c.pos++];
  }
  [[nodiscard]] std::string name() const override { return "sr"; }

 private:
  struct Cycle {
    std::vector<std::size_t> order;
    std::size_t pos = 0;
  };

  void shuffle(std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.below(i)]);
    }
  }

  sim::Rng rng_;
  std::unordered_map<std::uint32_t, Cycle> cycles_;
};

/// The load a router may consult for target index `i`: by default the
/// target node's queued CPU work — exactly the information the load
/// manager is entitled to (declared functor costs produce a CPU backlog
/// per node). Callers routing over synthetic target sets (no asu::Node
/// behind them — e.g. the fig_scale queueing bench) supply their own
/// probe instead.
using LoadProbe = std::function<double(std::span<const RouteTarget>,
                                       std::size_t)>;

[[nodiscard]] inline double cpu_backlog_probe(
    std::span<const RouteTarget> targets, std::size_t i) {
  return targets[i].node->cpu().backlog();
}

/// Dynamic policy: send to the instance whose probed load is least right
/// now (first of ties). The default probe reads the node CPU backlog.
class LeastLoadedRouter final : public RoutingPolicy {
 public:
  explicit LeastLoadedRouter(LoadProbe probe = {})
      : probe_(probe ? std::move(probe) : cpu_backlog_probe) {}

  std::size_t pick(const Packet&,
                   std::span<const RouteTarget> targets) override {
    if (targets.empty()) return 0;
    std::size_t best = 0;
    double best_backlog = probe_(targets, 0);
    for (std::size_t i = 1; i < targets.size(); ++i) {
      const double b = probe_(targets, i);
      if (b < best_backlog) {
        best = i;
        best_backlog = b;
      }
    }
    return best;
  }
  [[nodiscard]] std::string name() const override { return "least-loaded"; }

 private:
  LoadProbe probe_;
};

/// Power-of-d-choices (the supermarket model): sample `d` distinct
/// targets uniformly at random, send to the least-loaded of the sample
/// (first sampled wins ties). d = 1 degenerates to uniform random; d >=
/// the target count degenerates to least-loaded with a fixed scan order.
/// Mean-field theory predicts the fraction of servers with queue >= i
/// drops from rho^i (random) to rho^((d^i - 1)/(d - 1)) — doubly
/// exponential in i — for any d >= 2, at probe cost d instead of D
/// (bench/fig_scale verifies the simulator against that curve).
class PowerOfDChoicesRouter final : public RoutingPolicy {
 public:
  PowerOfDChoicesRouter(sim::Rng rng, unsigned d, LoadProbe probe = {})
      : rng_(rng),
        d_(d > 0 ? d : 1),
        probe_(probe ? std::move(probe) : cpu_backlog_probe) {}

  std::size_t pick(const Packet&,
                   std::span<const RouteTarget> targets) override {
    const std::size_t k = targets.size();
    if (k == 0) return 0;
    if (scratch_.size() != k) {
      scratch_.resize(k);
      std::iota(scratch_.begin(), scratch_.end(), std::size_t{0});
    }
    // Partial Fisher-Yates: draw min(d, k) distinct indices. The scratch
    // permutation persists across picks (only the sampled prefix is
    // re-randomized), keeping the draw count per pick exactly min(d, k).
    const std::size_t n = std::min<std::size_t>(d_, k);
    std::size_t best = 0;
    double best_load = 0;
    for (std::size_t j = 0; j < n; ++j) {
      std::swap(scratch_[j], scratch_[j + rng_.below(k - j)]);
      const std::size_t cand = scratch_[j];
      const double load = probe_(targets, cand);
      if (j == 0 || load < best_load) {
        best = cand;
        best_load = load;
      }
    }
    return best;
  }
  [[nodiscard]] std::string name() const override {
    return "power-of-" + std::to_string(d_);
  }

 private:
  sim::Rng rng_;
  unsigned d_;
  LoadProbe probe_;
  std::vector<std::size_t> scratch_;
};

/// Decorator that lets the load manager hot-swap a stage's routing policy
/// at runtime: packets follow the static `baseline` policy until
/// promote() engages the `dynamic` policy, and demote() falls back again
/// when load evens out (Section 3.3's adaptive reconfiguration — the
/// target set of a set-typed functor admits any per-packet choice, so
/// swapping policies mid-stream is always safe for correctness; only
/// placement balance changes). The switch is O(1) and leaves both
/// policies' internal state (round-robin cursors, SR cycles) intact, so
/// repeated promote/demote cycles stay deterministic.
class SwitchableRouter final : public RoutingPolicy {
 public:
  SwitchableRouter(std::unique_ptr<RoutingPolicy> baseline,
                   std::unique_ptr<RoutingPolicy> dynamic)
      : baseline_(std::move(baseline)), dynamic_(std::move(dynamic)) {}

  std::size_t pick(const Packet& p,
                   std::span<const RouteTarget> targets) override {
    return (dynamic_active_ ? dynamic_ : baseline_)->pick(p, targets);
  }

  void promote() noexcept { dynamic_active_ = true; }
  void demote() noexcept { dynamic_active_ = false; }
  [[nodiscard]] bool dynamic_active() const noexcept {
    return dynamic_active_;
  }

  /// Reports the *currently engaged* policy so instruments and journals
  /// show which regime routed a given packet.
  [[nodiscard]] std::string name() const override {
    return (dynamic_active_ ? dynamic_ : baseline_)->name() + "(switchable)";
  }

 private:
  std::unique_ptr<RoutingPolicy> baseline_;
  std::unique_ptr<RoutingPolicy> dynamic_;
  bool dynamic_active_ = false;
};

/// Decorator that publishes every routing decision of the wrapped policy:
/// a `route.<label>.target.<i>` counter per chosen instance in the
/// engine's registry, and — when tracing — an instant event on the
/// router's track, so a Chrome trace shows exactly when the load manager
/// steered packets away from a node (the mechanism behind Figure 10).
class InstrumentedRouter final : public RoutingPolicy {
 public:
  InstrumentedRouter(std::unique_ptr<RoutingPolicy> inner, sim::Engine& eng,
                     std::string label)
      : inner_(std::move(inner)),
        eng_(&eng),
        label_(std::move(label)),
        track_(eng.tracer().track("router." + label_)) {}

  std::size_t pick(const Packet& p,
                   std::span<const RouteTarget> targets) override {
    const std::size_t idx = inner_->pick(p, targets);
    if (counters_.size() < targets.size()) {
      const std::string base = "route." + label_ + ".target.";
      for (std::size_t i = counters_.size(); i < targets.size(); ++i) {
        counters_.push_back(
            &eng_->metrics().counter(base + std::to_string(i)));
      }
    }
    if (idx < counters_.size()) counters_[idx]->inc();
    if (eng_->tracer().enabled()) {
      eng_->tracer().instant(track_,
                             "s" + std::to_string(p.subset) + "->" +
                                 std::to_string(idx),
                             eng_->now());
    }
    return idx;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<RoutingPolicy> inner_;
  sim::Engine* eng_;
  std::string label_;
  std::uint32_t track_;
  std::vector<lmas::obs::Counter*> counters_;
};

enum class RouterKind {
  Static,
  RoundRobin,
  SimpleRandomization,
  LeastLoaded,
  PowerOfD,
};

/// Everything make_router needs, named. Designated initializers replace
/// the positional-argument tail the old factory had grown:
///
///   make_router({.kind = RouterKind::SimpleRandomization,
///                .rng = stream,
///                .total_subsets = alpha});
///
/// `rng` is deliberately value-initialized rather than seeded: every SR /
/// power-of-d router must get a caller-derived named stream (seeding
/// hygiene — a shared default seed would correlate every uncustomized
/// router; see sim::Rng::stream). Deterministic kinds ignore it.
struct RouterSpec {
  RouterKind kind = RouterKind::Static;
  sim::Rng rng{};

  /// Total distribute-subset count (StaticPartitionRouter's block map).
  std::uint32_t total_subsets = 0;

  /// Load view for the dynamic kinds (LeastLoaded, PowerOfD): maps a
  /// target index to its current load. Defaults to the target node's CPU
  /// backlog; callers with synthetic target sets substitute their own.
  LoadProbe node_of{};

  /// Sample width for PowerOfD.
  unsigned d_choices = 2;

  /// When non-null, wrap in an InstrumentedRouter publishing into this
  /// engine's registry/tracer under `label` (default: the policy's name).
  sim::Engine* instrument = nullptr;
  std::string label{};
};

inline std::unique_ptr<RoutingPolicy> make_router(RouterSpec spec) {
  std::unique_ptr<RoutingPolicy> p;
  switch (spec.kind) {
    case RouterKind::Static:
      p = std::make_unique<StaticPartitionRouter>(spec.total_subsets);
      break;
    case RouterKind::RoundRobin:
      p = std::make_unique<RoundRobinRouter>();
      break;
    case RouterKind::SimpleRandomization:
      p = std::make_unique<SimpleRandomizationRouter>(spec.rng);
      break;
    case RouterKind::LeastLoaded:
      p = std::make_unique<LeastLoadedRouter>(std::move(spec.node_of));
      break;
    case RouterKind::PowerOfD:
      p = std::make_unique<PowerOfDChoicesRouter>(spec.rng, spec.d_choices,
                                                  std::move(spec.node_of));
      break;
  }
  if (p && spec.instrument) {
    if (spec.label.empty()) spec.label = p->name();
    p = std::make_unique<InstrumentedRouter>(std::move(p), *spec.instrument,
                                             std::move(spec.label));
  }
  return p;
}

inline const char* router_kind_name(RouterKind k) {
  switch (k) {
    case RouterKind::Static: return "static";
    case RouterKind::RoundRobin: return "round-robin";
    case RouterKind::SimpleRandomization: return "sr";
    case RouterKind::LeastLoaded: return "least-loaded";
    case RouterKind::PowerOfD: return "power-of-d";
  }
  return "?";
}

}  // namespace lmas::core
