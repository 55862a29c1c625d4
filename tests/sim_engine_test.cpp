#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace sim = lmas::sim;

namespace {

TEST(Engine, StartsAtTimeZero) {
  sim::Engine eng;
  EXPECT_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pending_events(), 0u);
}

sim::Task<> record_times(sim::Engine& eng, std::vector<double>& out) {
  out.push_back(eng.now());
  co_await eng.sleep(1.5);
  out.push_back(eng.now());
  co_await eng.sleep(2.5);
  out.push_back(eng.now());
}

TEST(Engine, SleepAdvancesVirtualTime) {
  sim::Engine eng;
  std::vector<double> times;
  eng.spawn(record_times(eng, times));
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(times[2], 4.0);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

sim::Task<> appender(sim::Engine& eng, std::string& log, char id,
                     double delay) {
  co_await eng.sleep(delay);
  log.push_back(id);
}

TEST(Engine, EventsFireInTimeOrder) {
  sim::Engine eng;
  std::string log;
  eng.spawn(appender(eng, log, 'c', 3.0));
  eng.spawn(appender(eng, log, 'a', 1.0));
  eng.spawn(appender(eng, log, 'b', 2.0));
  eng.run();
  EXPECT_EQ(log, "abc");
}

TEST(Engine, SameTimeEventsFireInSpawnOrder) {
  sim::Engine eng;
  std::string log;
  for (char id : {'x', 'y', 'z'}) eng.spawn(appender(eng, log, id, 1.0));
  eng.run();
  EXPECT_EQ(log, "xyz");
}

sim::Task<int> forty_two(sim::Engine& eng) {
  co_await eng.sleep(1.0);
  co_return 42;
}

sim::Task<> awaits_child(sim::Engine& eng, int& result) {
  result = co_await forty_two(eng);
}

TEST(Engine, NestedTaskReturnsValue) {
  sim::Engine eng;
  int result = 0;
  eng.spawn(awaits_child(eng, result));
  eng.run();
  EXPECT_EQ(result, 42);
}

sim::Task<int> add_after(sim::Engine& eng, int a, int b, double d) {
  co_await eng.sleep(d);
  co_return a + b;
}

sim::Task<> deep_chain(sim::Engine& eng, int& out) {
  const int x = co_await add_after(eng, 1, 2, 0.5);
  const int y = co_await add_after(eng, x, 10, 0.5);
  out = co_await add_after(eng, y, 100, 0.5);
}

TEST(Engine, DeepNestingAccumulatesTimeAndValues) {
  sim::Engine eng;
  int out = 0;
  eng.spawn(deep_chain(eng, out));
  eng.run();
  EXPECT_EQ(out, 113);
}

TEST(Engine, RunUntilStopsEarly) {
  sim::Engine eng;
  std::string log;
  eng.spawn(appender(eng, log, 'a', 1.0));
  eng.spawn(appender(eng, log, 'b', 10.0));
  eng.run(5.0);
  EXPECT_EQ(log, "a");
  EXPECT_EQ(eng.unfinished_tasks(), 1u);
  eng.run();
  EXPECT_EQ(log, "ab");
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

sim::Task<int> throws_after(sim::Engine& eng) {
  co_await eng.sleep(1.0);
  throw Boom{};
}

sim::Task<> catches_child(sim::Engine& eng, bool& caught) {
  try {
    (void)co_await throws_after(eng);
  } catch (const Boom&) {
    caught = true;
  }
}

TEST(Engine, ChildExceptionPropagatesToAwaiter) {
  sim::Engine eng;
  bool caught = false;
  eng.spawn(catches_child(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

sim::Task<> root_throws(sim::Engine& eng) {
  co_await eng.sleep(1.0);
  throw Boom{};
}

sim::Task<> keeps_running(sim::Engine& eng, int& ticks) {
  for (int i = 0; i < 5; ++i) {
    co_await eng.sleep(1.0);
    ++ticks;
  }
}

TEST(Engine, RootExceptionRethrownByRun) {
  // A spawned root task is never awaited, so its stored exception must be
  // surfaced by run() itself — not silently discarded — and the loop must
  // stop AT the failing event: nothing past a violated invariant may
  // commit. keeps_running was spawned first, so its t=1 tick fires before
  // the bomb; everything later stays queued.
  sim::Engine eng;
  int ticks = 0;
  eng.spawn(keeps_running(eng, ticks));
  eng.spawn(root_throws(eng));
  EXPECT_THROW(eng.run(), Boom);
  EXPECT_EQ(ticks, 1);
  EXPECT_GT(eng.pending_events(), 0u);
}

TEST(Engine, RunStaysFailedUntilFailedRootIsReaped) {
  sim::Engine eng;
  int ticks = 0;
  eng.spawn(keeps_running(eng, ticks));
  eng.spawn(root_throws(eng));
  EXPECT_THROW(eng.run(), Boom);
  // The failure has not been acknowledged: run() commits nothing more and
  // keeps rethrowing rather than quietly resuming a poisoned simulation.
  const auto processed_while_failed = [&] {
    try {
      return eng.run();
    } catch (const Boom&) {
      return std::size_t(0);
    }
  }();
  EXPECT_EQ(processed_while_failed, 0u);
  EXPECT_EQ(ticks, 1);
  // Reaping the failed root acknowledges it; the survivors then finish.
  eng.reap_completed();
  eng.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

sim::Task<> immediate_exit(sim::Engine& eng) { co_await eng.yield(); }

TEST(Engine, ReapErasesTraceNamesWithFrames) {
  // reap_completed frees root frames, whose addresses the coroutine
  // allocator recycles; a surviving named_roots_ entry would label a
  // later (even anonymous) spawn with the dead task's name in traces.
  sim::Engine eng;
  eng.tracer().enable();
  eng.spawn(immediate_exit(eng), "doomed-a");
  eng.spawn(immediate_exit(eng), "doomed-b");
  EXPECT_EQ(eng.traced_root_names(), 2u);
  eng.run();
  eng.reap_completed();
  EXPECT_EQ(eng.traced_root_names(), 0u);
  // A frame allocated after the reap very likely reuses a freed address;
  // either way the map must only ever describe live named roots.
  eng.spawn(immediate_exit(eng));
  eng.run();
  EXPECT_EQ(eng.traced_root_names(), 0u);
}

sim::Task<> leaf(sim::Engine& eng, double dt, int& live) {
  co_await eng.sleep(dt);
  --live;
}

// A root that keeps spawning short-lived roots for as long as it runs.
sim::Task<> spawner(sim::Engine& eng, double period, int& live) {
  for (int i = 0;; ++i) {
    ++live;
    eng.spawn(leaf(eng, period * double(1 + i % 7), live), "leaf");
    co_await eng.sleep(period);
  }
}

TEST(Engine, SlicedRunWithReapsMatchesOneRun) {
  // Running to a horizon in slices, reaping finished roots between
  // slices, must commit exactly what one run(horizon) commits, even
  // while roots spawn new roots mid-run. Tracing on the sliced engine
  // (digest-neutral) makes its held roots countable: traced names live
  // exactly as long as their frames.
  constexpr double kHorizon = 1.0;
  constexpr int kSlices = 8;
  int whole_live = 0, sliced_live = 0;
  sim::Engine whole, sliced;
  sliced.tracer().enable();
  for (const double period : {0.013, 0.007}) {
    whole.spawn(spawner(whole, period, whole_live), "spawner");
    sliced.spawn(spawner(sliced, period, sliced_live), "spawner");
  }

  whole.run(kHorizon);
  for (int k = 1; k <= kSlices; ++k) {
    sliced.run(kHorizon * double(k) / double(kSlices));
    sliced.reap_completed();
  }
  EXPECT_GT(whole.events_processed(), 200u);
  EXPECT_EQ(sliced.events_processed(), whole.events_processed());
  EXPECT_EQ(sliced.digest(), whole.digest());
  EXPECT_EQ(sliced.now(), whole.now());
  // What remains is exactly the live roots: both spawners plus the
  // leaves still asleep at the horizon.
  ASSERT_GT(sliced_live, 0);
  EXPECT_EQ(sliced_live, whole_live);
  EXPECT_EQ(sliced.unfinished_tasks(), std::size_t(sliced_live) + 2);
  EXPECT_EQ(sliced.traced_root_names(), sliced.unfinished_tasks());
  EXPECT_EQ(whole.unfinished_tasks(), sliced.unfinished_tasks());
}

// Spawns `n` leaves, one per `period`, and after every spawn counts the
// times the engine held more named roots than twice the live ones plus
// the sweep floor. Leaf lifetimes vary, so the live count wanders.
sim::Task<> bounded_spawner(sim::Engine& eng, int n, double period,
                            int& live, int& over_bound) {
  for (int i = 0; i < n; ++i) {
    ++live;
    eng.spawn(leaf(eng, period * double(50 + i % 100), live), "leaf");
    const std::size_t live_roots = std::size_t(live) + 1;  // + this spawner
    if (eng.traced_root_names() > 2 * live_roots + 64) ++over_bound;
    co_await eng.sleep(period);
  }
}

TEST(Engine, SpawnReapsFinishedRootsAsItRuns) {
  // Without any reap_completed() call, the roots the engine holds stay
  // within twice the live ones (plus the sweep floor of 64) however many
  // have finished. Trace names live exactly as long as their frames, so
  // with tracing on they count the held roots.
  sim::Engine eng;
  eng.tracer().enable();
  eng.tracer().set_capacity(1024);  // the spans themselves are not needed
  int live = 0;
  int over_bound = 0;
  eng.spawn(bounded_spawner(eng, 100000, 0.001, live, over_bound),
            "spawner");
  eng.run();
  EXPECT_EQ(over_bound, 0);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

sim::Task<> counts_finish(sim::Engine& eng, int& finished) {
  co_await eng.sleep(0.5);
  ++finished;
}

TEST(Engine, FailedRootSurvivesSpawnSweeps) {
  // The spawn-time sweep frees finished roots but keeps a failed one:
  // run() must go on rethrowing through any number of later spawns, and
  // nothing more runs until reap_completed() acknowledges the failure.
  sim::Engine eng;
  int finished = 0;
  eng.spawn(root_throws(eng));  // throws at t = 1
  for (int i = 0; i < 100; ++i) eng.spawn(counts_finish(eng, finished));
  EXPECT_THROW(eng.run(), Boom);
  ASSERT_EQ(finished, 100);  // done roots for the sweeps to free
  for (int i = 0; i < 10000; ++i) eng.spawn(counts_finish(eng, finished));
  const std::uint64_t events = eng.events_processed();
  EXPECT_THROW(eng.run(), Boom);
  EXPECT_EQ(eng.events_processed(), events);
  EXPECT_EQ(finished, 100);
  EXPECT_EQ(eng.unfinished_tasks(), 10000u);
  eng.reap_completed();
  eng.run();
  EXPECT_EQ(finished, 10100);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

// Awaitable that reschedules its coroutine at an absolute (possibly
// past) time — the hostile input for the schedule_at clamp.
struct ScheduleAt {
  sim::Engine& eng;
  double t;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.schedule_at(h, t);
  }
  void await_resume() const noexcept {}
};

sim::Task<> schedules_into_past(sim::Engine& eng, double* resumed_at) {
  co_await eng.sleep(5.0);
  co_await ScheduleAt{eng, 1.0};  // negative-latency modeling bug
  *resumed_at = eng.now();
}

#ifdef NDEBUG
TEST(Engine, PastScheduleClampsToNowAndCounts) {
  // Release builds clamp (dropping the event would strand the process)
  // but must not do so silently: the clamp is counted and published.
  sim::Engine eng;
  double resumed_at = 0;
  eng.spawn(schedules_into_past(eng, &resumed_at));
  EXPECT_EQ(eng.clamped_schedules(), 0u);
  eng.run();
  EXPECT_DOUBLE_EQ(resumed_at, 5.0);
  EXPECT_EQ(eng.clamped_schedules(), 1u);
  (void)eng.metrics().snapshot();  // collectors materialize the counter
  const auto* c = eng.metrics().find_counter("engine.clamped_schedules");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 1u);
}

TEST(Engine, CleanRunsPublishNoClampCounter) {
  sim::Engine eng;
  std::string log;
  eng.spawn(appender(eng, log, 'a', 1.0));
  eng.run();
  EXPECT_EQ(eng.clamped_schedules(), 0u);
  // Lazily registered: the pinned golden fingerprints rely on clean runs
  // never materializing the instrument.
  (void)eng.metrics().snapshot();
  EXPECT_EQ(eng.metrics().find_counter("engine.clamped_schedules"), nullptr);
}
#elif defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST(EngineDeathTest, PastScheduleAssertsInDebugBuilds) {
  sim::Engine eng;
  double resumed_at = 0;
  eng.spawn(schedules_into_past(eng, &resumed_at));
  EXPECT_DEATH(eng.run(), "schedule_at");
}
#endif

sim::Task<> never_wakes(sim::Condition& cv) {
  co_await cv.wait();
}

TEST(Engine, BlockedTaskReportedAsUnfinished) {
  sim::Engine eng;
  sim::Condition cv(eng);
  eng.spawn(never_wakes(cv));
  eng.run();
  EXPECT_EQ(eng.unfinished_tasks(), 1u);
}

TEST(Engine, RunToCompletionNamesBlockedRoots) {
  sim::Engine eng;
  sim::Condition cv(eng);
  std::vector<double> times;
  eng.spawn(never_wakes(cv), "stuck-waiter");
  eng.spawn(record_times(eng, times), "finisher");
  try {
    eng.run_to_completion("test run");
    FAIL() << "a root blocked forever must make run_to_completion throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test run deadlocked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stuck-waiter"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("finisher"), std::string::npos) << msg;
  }
}

TEST(Engine, RunToCompletionReturnsWhenEveryRootFinishes) {
  sim::Engine eng;
  std::vector<double> times;
  eng.spawn(record_times(eng, times), "finisher");
  EXPECT_EQ(eng.run_to_completion("test run"), 3u);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

TEST(Engine, ConditionNotifyWakesWaiters) {
  sim::Engine eng;
  sim::Condition cv(eng);
  std::string log;
  auto waiter = [](sim::Engine&, sim::Condition& c, std::string& l,
                   char id) -> sim::Task<> {
    co_await c.wait();
    l.push_back(id);
  };
  auto notifier = [](sim::Engine& e, sim::Condition& c) -> sim::Task<> {
    co_await e.sleep(2.0);
    c.notify_all();
  };
  eng.spawn(waiter(eng, cv, log, 'a'));
  eng.spawn(waiter(eng, cv, log, 'b'));
  eng.spawn(notifier(eng, cv));
  eng.run();
  EXPECT_EQ(log, "ab");
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

}  // namespace
