/// Microbenchmarks for the discrete-event simulation kernel: raw event
/// throughput bounds how large an emulated machine/workload is practical.
/// (The paper's emulator had the same concern: timing accuracy vs. the
/// cost of maintaining the global event queue.)

#include <benchmark/benchmark.h>

#include <cstdint>

#include "gbench_tee.hpp"

#include "sim/event_heap.hpp"
#include "sim/sim.hpp"

namespace sim = lmas::sim;

namespace {

sim::Task<> sleeper_chain(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(0.001);
}

void BM_EventQueueThroughput(benchmark::State& state) {
  const int tasks = int(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int t = 0; t < tasks; ++t) eng.spawn(sleeper_chain(eng, 100));
    const auto events = eng.run();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * tasks * 100);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(10)->Arg(100)->Arg(1000);

sim::Task<> ping(sim::Engine&, sim::Channel<int>& tx, sim::Channel<int>& rx,
                 int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await tx.send(i);
    (void)co_await rx.recv();
  }
  tx.close();
}

sim::Task<> pong(sim::Engine&, sim::Channel<int>& rx, sim::Channel<int>& tx) {
  while (auto v = co_await rx.recv()) {
    co_await tx.send(*v);
  }
  tx.close();
}

void BM_ChannelPingPong(benchmark::State& state) {
  const int rounds = int(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> a(eng), b(eng);
    eng.spawn(ping(eng, a, b, rounds));
    eng.spawn(pong(eng, a, b));
    eng.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * rounds * 2);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000)->Arg(10000);

sim::Task<> resource_user(sim::Resource& res, int uses) {
  for (int i = 0; i < uses; ++i) co_await res.use(0.0001);
}

void BM_ResourceContention(benchmark::State& state) {
  const int users = int(state.range(0));
  constexpr int kUses = 200;
  for (auto _ : state) {
    sim::Engine eng;
    sim::Resource res(eng, "shared");
    for (int u = 0; u < users; ++u) eng.spawn(resource_user(res, kUses));
    eng.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * users * kUses);
}
BENCHMARK(BM_ResourceContention)->Arg(2)->Arg(16)->Arg(128);

/// The engine's hot path in isolation: steady-state push+pop churn on the
/// four-ary event heap at a fixed pending-event depth. This is the
/// structure every simulated event flows through; items/sec here is the
/// hard ceiling on engine events/sec.
void BM_EventHeapChurn(benchmark::State& state) {
  struct Ev {
    double t;
    std::uint64_t seq;
  };
  struct Before {
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };
  const std::size_t depth = std::size_t(state.range(0));
  sim::Rng rng(7);
  sim::FourAryHeap<Ev, Before> heap;
  heap.reserve(depth);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    heap.push(Ev{rng.uniform(0.0, 1.0), seq++});
  }
  double now = 0;
  for (auto _ : state) {
    const Ev ev = heap.pop_min();
    now = ev.t;
    // Re-arm like a sleeping process does: schedule a bit in the future.
    heap.push(Ev{now + rng.uniform(0.0, 0.01), seq++});
    benchmark::DoNotOptimize(heap);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_EventHeapChurn)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

/// End-to-end engine throughput in events/sec: the number every sweep's
/// events_per_sec artifact field should roughly track. A wide machine of
/// independent sleepers keeps the queue deep without channel or resource
/// overhead dominating.
void BM_EngineEventsPerSec(benchmark::State& state) {
  const int tasks = int(state.range(0));
  constexpr int kHops = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (int t = 0; t < tasks; ++t) eng.spawn(sleeper_chain(eng, kHops));
    events += eng.run();
  }
  state.SetItemsProcessed(std::int64_t(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      double(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineEventsPerSec)->Arg(256)->Arg(4096)->Arg(32768);

void BM_RngThroughput(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_RngThroughput);

}  // namespace

int main(int argc, char** argv) {
  return lmas::benchio::run_with_artifact(argc, argv, "micro_sim");
}
