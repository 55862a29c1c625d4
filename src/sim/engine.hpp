#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/event_heap.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace lmas::sim {

/// Intrusive hook for simulation objects that publish pull-model metrics:
/// the engine's snapshot collector walks registered sources, so hot paths
/// (and constructors — the microbenches build resources per iteration)
/// never touch the registry. Registration is two pointer writes.
/// Objects whose lifetime is shorter than the engine's must deregister;
/// metrics therefore reflect only sources alive at snapshot time.
class MetricsSource {
 public:
  virtual void publish_metrics(obs::MetricsRegistry& registry) = 0;

 protected:
  ~MetricsSource() = default;

 private:
  friend class Engine;
  MetricsSource* prev_ = nullptr;
  MetricsSource* next_ = nullptr;
};

/// Discrete-event engine. Coroutine processes suspend on awaitables that
/// register wake-up events; the engine resumes them in (time, sequence)
/// order, which yields a total causal order over all node activity —
/// the same guarantee the paper's thread + event-queue emulator provides.
///
/// The engine also owns the run's observability state: a MetricsRegistry
/// (so every instrument shares the virtual clock and one snapshot covers
/// the whole emulated machine) and a Tracer that records sim-time spans
/// for Chrome trace-event export. Construction honors the LMAS_TRACE=1
/// environment variable for runtime trace enablement.
class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Install (or remove, with nullptr) a sim-time sampler. The run loop
  /// consults it before committing each event: when the next event lies
  /// at or past a sampling boundary, the clock parks exactly on the
  /// boundary and the sampler reads its probes there. Sampling is NOT a
  /// simulation process — it schedules no events, consumes no sequence
  /// numbers, draws no randomness, and occupies no resources, so the
  /// execution digest is bit-identical with or without a sampler (the
  /// pinned goldens rely on this). Cost when absent: one pointer test
  /// per event. The sampler must outlive every run() it is installed for.
  void set_sampler(obs::Sampler* s) noexcept { sampler_ = s; }
  [[nodiscard]] obs::Sampler* sampler() const noexcept { return sampler_; }

  /// Allocate a trace flow id (causal packet spans). Monotone from 1 per
  /// engine; 0 stays "no flow". Not part of the digest — ids label trace
  /// output only, and are allocated only while tracing is enabled.
  [[nodiscard]] std::uint64_t next_trace_id() noexcept {
    return ++trace_id_seq_;
  }

  /// Schedule a raw coroutine resume `delay` seconds from now.
  void schedule(std::coroutine_handle<> h, SimTime delay) {
    schedule_at(h, now_ + delay);
  }

  void schedule_at(std::coroutine_handle<> h, SimTime t) {
    // Scheduling into the past is a modeling bug (a negative latency or
    // service time somewhere upstream): committing the event "now" would
    // silently reorder causality. Debug builds trap it; release builds
    // still clamp — dropping the event would deadlock the scheduling
    // process — but count the clamp so the drift is observable
    // (clamped_schedules(), `engine.clamped_schedules`).
    assert(t >= now_ && "schedule_at: event time in the past "
                        "(negative-latency modeling bug?)");
    if (t < now_) {
      ++clamped_schedules_;
      t = now_;
    }
    events_.push(Event{t, next_seq_++, h});
  }

  /// Take ownership of a root task and schedule its first resume now.
  /// Finished roots are freed as the engine runs (see reap_completed).
  void spawn(Task<> task) { spawn(std::move(task), std::string()); }

  /// Named spawn: the name shows up in deadlock diagnostics
  /// (unfinished_task_names) and labels the task's resumes in traces.
  void spawn(Task<> task, std::string name);

  /// Awaitable: suspend the current process for `dt` virtual seconds.
  [[nodiscard]] auto sleep(SimTime dt) noexcept {
    struct Awaiter {
      Engine* eng;
      SimTime dt;
      bool await_ready() const noexcept { return dt <= 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng->schedule(h, dt);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: reschedule through the event queue at the current time.
  /// Yields to any already-queued same-time events (fair interleaving).
  [[nodiscard]] auto yield() noexcept {
    struct Awaiter {
      Engine* eng;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng->schedule(h, 0);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Run until the event queue drains, `until` is reached, or a spawned
  /// root task exits with an exception. Returns the number of events
  /// processed by this call.
  ///
  /// If any spawned root task exited with an exception, the first such
  /// exception (in spawn order) is rethrown here once the loop stops.
  /// Root tasks are never awaited, so without this check a throw inside
  /// a spawned process would be stored in its promise and silently
  /// discarded — an invariant violation would look like a clean run.
  ///
  /// The loop stops at the event whose resume killed the root: events
  /// already committed (including the fatal one) are folded into the
  /// digest, but nothing past the failure commits — a violated invariant
  /// must not be buried under millions of post-mortem events. The engine
  /// stays failed (further run() calls process nothing and rethrow) until
  /// reap_completed() removes the failed root.
  std::size_t run(SimTime until = kTimeInfinity);

  /// run() until the queue drains, then require every spawned root task
  /// to have finished: a blocked root means a deadlocked or starved
  /// process, reported as std::logic_error("<what> deadlocked;
  /// unfinished: <names>"). Returns the number of events processed.
  std::size_t run_to_completion(std::string_view what);

  /// Events processed across all run() calls on this engine.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Execution digest: an allocation-free splitmix-chained hash folded
  /// over the committed event stream — (sim time, sequence) of every
  /// processed event, the name of every spawned root task, and every
  /// resource occupancy (resource id, completion time). Two runs with the
  /// same seed and configuration MUST produce identical digests; that
  /// invariant is what the golden-run regression suite pins, so any
  /// silent behavior drift (reordered events, changed timing, different
  /// resource usage) shows up as a digest mismatch rather than only as a
  /// crash. The digest is order-sensitive by construction: folding is a
  /// chained permutation, not a commutative sum.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Fold one word into the execution digest. Components with behavior
  /// the event stream alone cannot see (resources, routers, fault
  /// injectors) fold their own commitments; cost is a few ALU ops.
  void fold(std::uint64_t v) noexcept {
    std::uint64_t s = digest_ ^ v;
    digest_ = splitmix64(s);
  }

  /// Past-time schedule_at calls that were clamped to now (see
  /// schedule_at). Always zero in a correctly modeled run; published
  /// lazily as `engine.clamped_schedules` so clean runs keep their pinned
  /// metrics fingerprints.
  [[nodiscard]] std::uint64_t clamped_schedules() const noexcept {
    return clamped_schedules_;
  }

  /// Number of spawned root tasks that have not completed. Non-zero after
  /// run() drains the queue means blocked (deadlocked or starved) processes.
  [[nodiscard]] std::size_t unfinished_tasks() const noexcept;

  /// Names of blocked root tasks, so diagnostics can name the offender
  /// instead of printing a count. Unnamed tasks report as "<anonymous>".
  [[nodiscard]] std::vector<std::string> unfinished_task_names() const;

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return events_.size();
  }

  /// Drop every completed root task frame, failed ones included. The
  /// engine already frees finished roots by itself: spawn() sweeps them
  /// whenever the root list has doubled since the last sweep, but keeps
  /// a root that exited with an exception, so run() goes on rethrowing
  /// it. Calling this is how a caller acknowledges such a failure: it
  /// clears the root-failure latch when the last failed root goes, so an
  /// engine whose failure was handled can keep running. Either way the
  /// frames' trace-name entries go with them — a later spawn reusing a
  /// freed frame address must not inherit a dead task's name.
  void reap_completed();

  /// Trace-name entries currently held for named roots (diagnostic; the
  /// reap regression pins that these never outlive their frames).
  [[nodiscard]] std::size_t traced_root_names() const noexcept {
    return named_roots_.size();
  }

  /// Link / unlink a pull-model metrics publisher (see MetricsSource).
  /// Allocation-free; sources run in reverse registration order.
  void add_metrics_source(MetricsSource& src) noexcept {
    src.prev_ = nullptr;
    src.next_ = sources_;
    if (sources_) sources_->prev_ = &src;
    sources_ = &src;
  }
  void remove_metrics_source(MetricsSource& src) noexcept {
    if (src.prev_) src.prev_->next_ = src.next_;
    if (src.next_) src.next_->prev_ = src.prev_;
    if (sources_ == &src) sources_ = src.next_;
    src.prev_ = src.next_ = nullptr;
  }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };
  /// Min-order on the unique (time, seq) key; total over live events, so
  /// the heap's pop sequence is the engine's causal order.
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };
  struct Root {
    Task<> task;
    std::string name;
  };

  /// Below this many roots spawn() never sweeps.
  static constexpr std::size_t kSweepFloor = 64;

  std::size_t run_fast(SimTime until);
  std::size_t run_traced(SimTime until);
  void rethrow_root_failure() const;
  /// Free finished roots (and failed ones if `failed_too`) and set the
  /// next spawn-time sweep at twice the roots left.
  void erase_done_roots(bool failed_too);

  MetricsSource* sources_ = nullptr;
  FourAryHeap<Event, EventBefore> events_;
  std::vector<Root> roots_;
  std::size_t sweep_at_ = kSweepFloor;  // roots_.size() that triggers a sweep
  // Handle address -> name, for labeling resumes while tracing.
  std::unordered_map<const void*, std::string> named_roots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  // Latched by a root task's unhandled_exception (via PromiseBase); the
  // run loops poll it so the queue stops at the first failed root.
  bool root_failed_ = false;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  obs::Sampler* sampler_ = nullptr;
  std::uint64_t trace_id_seq_ = 0;

  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::uint32_t engine_track_ = 0;
};

}  // namespace lmas::sim
