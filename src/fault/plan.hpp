#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace lmas::fault {

/// One scheduled perturbation of the emulated machine. Faults are
/// *windows*: the injector applies the fault at `at` and reverts it at
/// `at + duration`. A crash window models fail-and-recover (Section 3.3's
/// "replica failure ... re-replication" without the re-replication);
/// permanent loss of a stateful replica would need state hand-off, which
/// the model does not yet include — plans therefore always schedule
/// recovery.
struct FaultSpec {
  enum class Kind {
    Slowdown,   ///< CPU service rate divided by `factor` for the window
    Crash,      ///< node leaves routing target sets; pumps pause
    LinkDelay,  ///< all transfers pay extra latency + uniform jitter
  };

  Kind kind = Kind::Slowdown;
  bool on_asu = true;   ///< target tier (ignored for LinkDelay)
  unsigned node = 0;    ///< index within the tier (ignored for LinkDelay)
  double at = 0;        ///< window start, sim seconds
  double duration = 0;  ///< window length, sim seconds (> 0)

  double factor = 2.0;        ///< Slowdown: service-time multiplier (>= 1)
  double extra_latency = 0;   ///< LinkDelay: fixed added seconds
  double jitter = 0;          ///< LinkDelay: uniform jitter amplitude

  [[nodiscard]] double end() const noexcept { return at + duration; }
};

/// A reproducible fault schedule. Senders ride it out under the
/// retry-with-timeout contract of core::StageOutput (kRetryTimeout,
/// kMaxRetries): a packet whose replica crashed while it was in flight
/// re-enters the router over the healthy targets, then parks until
/// recovery. Packets are never dropped.
struct FaultPlan {
  std::vector<FaultSpec> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }

  /// Injector precondition: events sorted by window start.
  void normalize() {
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultSpec& a, const FaultSpec& b) {
                       return a.at < b.at;
                     });
  }

  FaultPlan& slowdown(bool on_asu, unsigned node, double at, double duration,
                      double factor) {
    events.push_back({FaultSpec::Kind::Slowdown, on_asu, node, at, duration,
                      factor, 0, 0});
    return *this;
  }
  FaultPlan& crash(bool on_asu, unsigned node, double at, double duration) {
    events.push_back(
        {FaultSpec::Kind::Crash, on_asu, node, at, duration, 1.0, 0, 0});
    return *this;
  }
  FaultPlan& link_delay(double at, double duration, double extra,
                        double jitter = 0) {
    events.push_back({FaultSpec::Kind::LinkDelay, true, 0, at, duration, 1.0,
                      extra, jitter});
    return *this;
  }

  /// Stable digest word for one plan (folded into the engine digest when
  /// the injector starts, so two runs differing only in their fault plan
  /// can never collide).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    std::uint64_t h = sim::fnv1a64("fault-plan");
    for (const auto& e : events) {
      std::uint64_t s = h ^ (std::uint64_t(e.kind) << 32) ^
                        (std::uint64_t(e.on_asu) << 40) ^ e.node;
      h = sim::splitmix64(s);
      h ^= std::uint64_t(e.at * 1e9) + sim::splitmix64_once(h);
      h ^= std::uint64_t(e.duration * 1e9);
    }
    return h;
  }
};

/// Draw a random — but (seed, size)-deterministic — fault plan for a
/// machine with `num_hosts`/`num_asus` nodes, with every window inside
/// [0, horizon). Guarantees the degraded-mode liveness preconditions:
/// every crash recovers, and crash windows never cover an entire tier at
/// the same instant for the full horizon (windows are strictly shorter
/// than the horizon, so parked work always drains).
[[nodiscard]] FaultPlan generate_fault_plan(sim::Rng& rng, unsigned num_hosts,
                                            unsigned num_asus, double horizon,
                                            unsigned size);

/// Human/JSON-readable one-line description ("slowdown asu3 @0.1+0.2 x4").
[[nodiscard]] std::string describe(const FaultSpec& spec);

}  // namespace lmas::fault
