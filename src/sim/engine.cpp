#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace lmas::sim {

Engine::Engine() {
  // Publish the event count and every registered MetricsSource only when
  // a snapshot asks; the run loop touches nothing but events_processed_.
  metrics_.add_collector([this] {
    auto& c = metrics_.counter("engine.events");
    c.inc(events_processed_ - c.value());
    // Lazily registered so runs whose traces fit the cap publish no
    // drop counter (the golden harness pins the metrics fingerprint).
    if (tracer_.dropped_events() > 0) {
      auto& d = metrics_.counter("trace.dropped_events");
      d.inc(tracer_.dropped_events() - d.value());
    }
    // Same lazy registration: a correctly modeled run never clamps, so
    // the counter must not perturb the pinned fingerprints.
    if (clamped_schedules_ > 0) {
      auto& cl = metrics_.counter("engine.clamped_schedules");
      cl.inc(clamped_schedules_ - cl.value());
    }
    for (MetricsSource* s = sources_; s != nullptr; s = s->next_) {
      s->publish_metrics(metrics_);
    }
  });
  engine_track_ = tracer_.track("engine");
  if constexpr (obs::kTraceCompiled) {
    if (const char* e = std::getenv("LMAS_TRACE")) {
      if (e[0] == '1') tracer_.enable();
    }
  }
}

void Engine::spawn(Task<> task, std::string name) {
  auto handle = task.handle();
  // Root tasks are never awaited, so their unhandled_exception must flag
  // the engine directly — the run loop stops at the failing event instead
  // of committing (and digesting) everything behind it.
  handle.promise().root_failure_latch = &root_failed_;
  fold(fnv1a64(name));
  if (!name.empty() && tracer_.enabled()) {
    // Only traces consult the handle->name map, and enablement precedes
    // spawning in every traced flow (env at construction, config before
    // the run), so the map stays empty — and unmaintained — otherwise.
    named_roots_[handle.address()] = name;
    tracer_.instant(engine_track_, "spawn " + name, now_);
  }
  roots_.push_back({std::move(task), std::move(name)});
  // Sweep finished roots whenever the list has doubled since the last
  // sweep: memory follows the live roots, not every root ever spawned,
  // at amortized O(1) per spawn. Failed roots stay until reap_completed()
  // acknowledges them, so run() still rethrows.
  if (roots_.size() >= sweep_at_) erase_done_roots(/*failed_too=*/false);
  schedule_at(handle, now_);
}

std::size_t Engine::run(SimTime until) {
  // The traced loop is kept out of line so the common path stays as tight
  // as the uninstrumented kernel (the tier-1 microbenches gate this).
  const std::size_t processed =
      tracer_.enabled() ? run_traced(until) : run_fast(until);
  events_processed_ += processed;
  rethrow_root_failure();
  return processed;
}

void Engine::rethrow_root_failure() const {
  // Spawn order makes the choice deterministic when several roots failed
  // in the same run (their failure order is replay-stable anyway, but the
  // scan must not depend on it).
  for (const auto& r : roots_) {
    if (r.task.valid() && r.task.exception()) {
      std::rethrow_exception(r.task.exception());
    }
  }
}

std::size_t Engine::run_fast(SimTime until) {
  std::size_t processed = 0;
  while (!events_.empty() && !root_failed_) {
    if (events_.top().t > until) break;
    const Event ev = events_.pop_min();
    // Sim-time sampling: park the clock on each period boundary the next
    // event is about to cross, so probes read backlog/state at exact
    // boundary instants. No events are scheduled or consumed — the
    // digest fold below sees the identical (t, seq) stream either way.
    if (sampler_ != nullptr) {
      while (sampler_->due(ev.t)) {
        now_ = sampler_->next_time();
        sampler_->sample(now_);
      }
    }
    now_ = ev.t;
    ++processed;
    fold(std::bit_cast<std::uint64_t>(ev.t) ^ std::rotl(ev.seq, 31));
    // Every awaiter schedules exactly one resume per suspension, so a
    // finished frame has no queued event. The spawn-time sweep relies on
    // that: it frees finished root frames, and if the invariant broke,
    // done() here would read a freed frame.
    if (ev.h && !ev.h.done()) {
      ev.h.resume();
    }
  }
  return processed;
}

std::size_t Engine::run_traced(SimTime until) {
  std::size_t processed = 0;
  while (!events_.empty() && !root_failed_) {
    if (events_.top().t > until) break;
    const Event ev = events_.pop_min();
    if (sampler_ != nullptr) {  // see run_fast: digest-neutral by design
      while (sampler_->due(ev.t)) {
        now_ = sampler_->next_time();
        sampler_->sample(now_);
      }
    }
    now_ = ev.t;
    ++processed;
    fold(std::bit_cast<std::uint64_t>(ev.t) ^ std::rotl(ev.seq, 31));
    if (ev.h && !ev.h.done()) {
      // Bracket the resume of a *named* root so traces show which
      // process the nested resource spans belong to. (Anonymous events
      // would only add noise: one instant per queue pop.)
      const auto it = named_roots_.find(ev.h.address());
      const std::string* name =
          it == named_roots_.end() ? nullptr : &it->second;
      if (name) tracer_.begin(engine_track_, *name, now_);
      ev.h.resume();
      if (name) tracer_.end(engine_track_, *name, now_);
    }
  }
  return processed;
}

std::size_t Engine::run_to_completion(std::string_view what) {
  const std::size_t processed = run();
  if (unfinished_tasks() != 0) {
    std::string who;
    for (const auto& name : unfinished_task_names()) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    throw std::logic_error(std::string(what) + " deadlocked; unfinished: " +
                           who);
  }
  return processed;
}

std::size_t Engine::unfinished_tasks() const noexcept {
  std::size_t n = 0;
  for (const auto& r : roots_) {
    if (r.task.valid() && !r.task.done()) ++n;
  }
  return n;
}

std::vector<std::string> Engine::unfinished_task_names() const {
  std::vector<std::string> out;
  for (const auto& r : roots_) {
    if (r.task.valid() && !r.task.done()) {
      out.push_back(r.name.empty() ? "<anonymous>" : r.name);
    }
  }
  return out;
}

void Engine::erase_done_roots(bool failed_too) {
  std::erase_if(roots_, [this, failed_too](const Root& r) {
    if (!r.task.done() || (!failed_too && r.task.exception())) return false;
    // The frame is about to be freed and its address recycled by a later
    // coroutine allocation; a stale entry here would label the newcomer
    // with the dead task's name in every trace.
    named_roots_.erase(r.task.handle().address());
    return true;
  });
  sweep_at_ = std::max(kSweepFloor, 2 * roots_.size());
}

void Engine::reap_completed() {
  erase_done_roots(/*failed_too=*/true);
  // Reaping a failed root is how a caller acknowledges the failure after
  // run() rethrew it; recompute the latch so the engine resumes only when
  // no unprocessed root exception remains.
  root_failed_ = false;
  for (const auto& r : roots_) {
    if (r.task.valid() && r.task.exception()) root_failed_ = true;
  }
}

}  // namespace lmas::sim
