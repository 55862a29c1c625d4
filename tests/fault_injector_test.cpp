// Fault-injection layer: seeded fault plans, the injector's apply/revert
// windows, and the degraded-mode delivery contract (crashed replicas
// leave the routing target set; in-flight packets retry-with-timeout and
// re-route; recovery re-adds the target). Digest stability per seed is
// asserted at DSM-Sort level.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/core.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;
namespace fault = lmas::fault;

namespace {

asu::MachineParams machine(unsigned hosts, unsigned asus) {
  asu::MachineParams mp;
  mp.num_hosts = hosts;
  mp.num_asus = asus;
  return mp;
}

// ---------- resource rate scale / node health primitives ----------

TEST(FaultPrimitives, RateScaleStretchesServiceTime) {
  sim::Engine eng;
  sim::Resource cpu(eng, "cpu");
  cpu.post(1.0);
  EXPECT_DOUBLE_EQ(cpu.free_at(), 1.0);
  cpu.set_rate_scale(0.5);  // half speed: 1s of work takes 2s
  cpu.post(1.0);
  EXPECT_DOUBLE_EQ(cpu.free_at(), 3.0);
  cpu.set_rate_scale(1.0);
  cpu.post(1.0);
  EXPECT_DOUBLE_EQ(cpu.free_at(), 4.0);
}

TEST(FaultPrimitives, DegradedNodeComputesSlower) {
  sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 1));
  asu::Node& host = cluster.host(0);

  std::vector<double> durations;
  auto probe = [&]() -> sim::Task<> {
    double t0 = eng.now();
    co_await host.compute(0.1);
    durations.push_back(eng.now() - t0);
    host.set_degraded(2.0);
    t0 = eng.now();
    co_await host.compute(0.1);
    durations.push_back(eng.now() - t0);
    host.set_healthy();
    t0 = eng.now();
    co_await host.compute(0.1);
    durations.push_back(eng.now() - t0);
  };
  eng.spawn(probe());
  eng.run();
  ASSERT_EQ(durations.size(), 3u);
  EXPECT_DOUBLE_EQ(durations[0], 0.1);
  EXPECT_DOUBLE_EQ(durations[1], 0.2);  // 2x slowdown
  EXPECT_DOUBLE_EQ(durations[2], 0.1);  // recovery restores full rate
}

TEST(FaultPrimitives, HealthBoardEpochAdvancesOnEveryTransition) {
  sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 2));
  const auto e0 = cluster.health_board().epoch();
  cluster.asu(0).set_crashed();
  EXPECT_GT(cluster.health_board().epoch(), e0);
  const auto e1 = cluster.health_board().epoch();
  cluster.asu(0).set_healthy();
  EXPECT_GT(cluster.health_board().epoch(), e1);
  EXPECT_TRUE(cluster.asu(0).running());
}

TEST(FaultPrimitives, LinkDelayWindowStretchesTransfers) {
  sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 1));
  asu::Network& net = cluster.network();

  std::vector<double> durations;
  auto probe = [&]() -> sim::Task<> {
    double t0 = eng.now();
    co_await net.transfer(cluster.host(0), cluster.asu(0), 4096);
    durations.push_back(eng.now() - t0);
    net.set_link_delay(0.01, 0.0, sim::Rng(1));
    t0 = eng.now();
    co_await net.transfer(cluster.host(0), cluster.asu(0), 4096);
    durations.push_back(eng.now() - t0);
    net.clear_link_delay();
    t0 = eng.now();
    co_await net.transfer(cluster.host(0), cluster.asu(0), 4096);
    durations.push_back(eng.now() - t0);
  };
  eng.spawn(probe());
  eng.run();
  ASSERT_EQ(durations.size(), 3u);
  EXPECT_NEAR(durations[1] - durations[0], 0.01, 1e-9);
  EXPECT_NEAR(durations[2], durations[0], 1e-9);  // float absorption only
}

// ---------- plan generation ----------

TEST(FaultPlan, GeneratedPlansRespectLivenessPreconditions) {
  const double horizon = 2.0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::Rng rng(seed);
    const auto plan = fault::generate_fault_plan(rng, 2, 4, horizon, 6);
    ASSERT_FALSE(plan.empty());
    double prev_at = 0;
    for (const auto& e : plan.events) {
      EXPECT_GE(e.at, prev_at);  // normalized: sorted by window start
      prev_at = e.at;
      EXPECT_LT(e.at, horizon * 0.8);
      EXPECT_GT(e.duration, 0.0);  // every window closes: crashes recover
      EXPECT_LE(e.duration, horizon * 0.4);
      if (e.kind == fault::FaultSpec::Kind::Crash) {
        // Crashes target ASUs only (host pumps hold unsharable state).
        EXPECT_TRUE(e.on_asu);
        EXPECT_LT(e.node, 4u);
      }
      if (e.kind == fault::FaultSpec::Kind::Slowdown) {
        EXPECT_GE(e.factor, 1.5);
      }
    }
  }
}

TEST(FaultPlan, FingerprintDistinguishesPlans) {
  fault::FaultPlan a;
  a.slowdown(true, 0, 0.1, 0.2, 2.0);
  fault::FaultPlan b;
  b.slowdown(true, 1, 0.1, 0.2, 2.0);
  fault::FaultPlan c;
  c.crash(true, 0, 0.1, 0.2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a.fingerprint(), fault::FaultPlan(a).fingerprint());
}

// ---------- injector windows ----------

TEST(FaultInjector, AppliesAndRevertsEveryWindow) {
  sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 2));
  fault::FaultPlan plan;
  plan.slowdown(true, 0, 0.01, 0.02, 4.0)
      .crash(true, 1, 0.02, 0.02)
      .link_delay(0.03, 0.01, 1e-4);

  fault::FaultInjector inj(cluster, plan, sim::Rng(5));
  const std::uint64_t digest_before = eng.digest();
  eng.spawn(inj.run(), "fault-injector");

  std::vector<asu::NodeHealth> seen;
  auto probe = [&]() -> sim::Task<> {
    co_await eng.sleep(0.015);
    seen.push_back(cluster.asu(0).health());  // inside slowdown window
    co_await eng.sleep(0.01);
    seen.push_back(cluster.asu(1).health());  // inside crash window
  };
  eng.spawn(probe());
  eng.run();

  EXPECT_EQ(inj.applied(), 3u);
  EXPECT_EQ(inj.reverted(), 3u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], asu::NodeHealth::Degraded);
  EXPECT_EQ(seen[1], asu::NodeHealth::Crashed);
  // All windows closed: machine back to nominal.
  EXPECT_EQ(cluster.asu(0).health(), asu::NodeHealth::Healthy);
  EXPECT_EQ(cluster.asu(1).health(), asu::NodeHealth::Healthy);
  EXPECT_DOUBLE_EQ(cluster.asu(0).cpu().rate_scale(), 1.0);
  EXPECT_FALSE(cluster.network().link_delay_active());
  // Injected transitions committed to the digest.
  EXPECT_NE(eng.digest(), digest_before);
  EXPECT_EQ(eng.unfinished_tasks(), 0u);
}

TEST(FaultInjector, OverlappingWindowsResolveByDepth) {
  sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 1));
  fault::FaultPlan plan;
  // Two overlapping slowdowns and a crash inside them: the node must be
  // Crashed while the crash window is open, Degraded by the product of
  // the open slowdowns otherwise, and Healthy only at the very end.
  plan.slowdown(true, 0, 0.00, 0.10, 2.0)
      .slowdown(true, 0, 0.02, 0.04, 3.0)
      .crash(true, 0, 0.03, 0.02);

  fault::FaultInjector inj(cluster, plan, sim::Rng(5));
  eng.spawn(inj.run(), "fault-injector");

  struct Sample {
    double at;
    asu::NodeHealth health;
    double scale;
  };
  std::vector<Sample> samples;
  auto probe = [&]() -> sim::Task<> {
    for (const double t : {0.01, 0.025, 0.04, 0.055, 0.08, 0.15}) {
      if (t > eng.now()) co_await eng.sleep(t - eng.now());
      samples.push_back({t, cluster.asu(0).health(),
                         cluster.asu(0).cpu().rate_scale()});
    }
  };
  eng.spawn(probe());
  eng.run();

  ASSERT_EQ(samples.size(), 6u);
  EXPECT_EQ(samples[0].health, asu::NodeHealth::Degraded);  // x2
  EXPECT_DOUBLE_EQ(samples[0].scale, 0.5);
  EXPECT_EQ(samples[1].health, asu::NodeHealth::Degraded);  // x2*x3
  EXPECT_DOUBLE_EQ(samples[1].scale, 1.0 / 6.0);
  EXPECT_EQ(samples[2].health, asu::NodeHealth::Crashed);
  EXPECT_EQ(samples[3].health, asu::NodeHealth::Degraded);  // crash closed
  EXPECT_DOUBLE_EQ(samples[3].scale, 1.0 / 6.0);
  EXPECT_EQ(samples[4].health, asu::NodeHealth::Degraded);  // x2 only
  EXPECT_DOUBLE_EQ(samples[4].scale, 0.5);
  EXPECT_EQ(samples[5].health, asu::NodeHealth::Healthy);
  EXPECT_DOUBLE_EQ(samples[5].scale, 1.0);
}

// ---------- degraded-mode delivery ----------

sim::Task<> consume(asu::Node& node, sim::Channel<core::Packet>& in,
                    std::vector<std::pair<double, core::Packet>>& got,
                    sim::Engine& eng) {
  while (auto p = co_await in.recv()) {
    while (!node.running()) co_await node.health_wait();
    got.emplace_back(eng.now(), std::move(*p));
  }
}

core::Packet make_packet(std::uint32_t subset, std::uint32_t seq,
                         std::size_t records = 4) {
  core::Packet p;
  p.subset = subset;
  p.seq = seq;
  for (std::size_t r = 0; r < records; ++r) {
    p.records.push_back({std::uint32_t(r), std::uint32_t(r)});
  }
  return p;
}

TEST(DegradedDelivery, InFlightPacketRetriesAndReroutesOnCrash) {
  sim::Engine eng;
  auto mp = machine(1, 2);
  mp.link_latency = 0.02;  // wide in-flight window
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 2, 4);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = inboxes.endpoints(nodes),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .window_per_producer = 4,
                      .name = "retry_stage"});

  std::vector<std::pair<double, core::Packet>> got0, got1;
  eng.spawn(consume(cluster.asu(0), inboxes.inbox(0), got0, eng));
  eng.spawn(consume(cluster.asu(1), inboxes.inbox(1), got1, eng));

  auto producer = [&]() -> sim::Task<> {
    // Pin the first hop at asu0, then crash it mid-flight.
    co_await out.emit_to(0, cluster.host(0), make_packet(0, 0));
    out.producer_done();
  };
  auto crasher = [&]() -> sim::Task<> {
    co_await eng.sleep(0.01);  // packet launched, not yet landed
    cluster.asu(0).set_crashed();
    co_await eng.sleep(0.2);
    cluster.asu(0).set_healthy();
  };
  eng.spawn(producer());
  eng.spawn(crasher());
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);
  // The packet re-entered the router and landed on the healthy replica
  // well before asu0's recovery at 0.21.
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_TRUE(got0.empty());
  EXPECT_LT(got1[0].first, 0.2);
  const auto* retries = eng.metrics().find_counter("retry_stage.fault_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value(), 1u);
}

TEST(DegradedDelivery, AllReplicasCrashedParksUntilRecovery) {
  sim::Engine eng;
  auto mp = machine(1, 2);
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 2, 4);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = inboxes.endpoints(nodes),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .window_per_producer = 4,
                      .name = "parked_stage"});

  std::vector<std::pair<double, core::Packet>> got0, got1;
  eng.spawn(consume(cluster.asu(0), inboxes.inbox(0), got0, eng));
  eng.spawn(consume(cluster.asu(1), inboxes.inbox(1), got1, eng));

  cluster.asu(0).set_crashed();
  cluster.asu(1).set_crashed();
  auto producer = [&]() -> sim::Task<> {
    co_await out.emit(cluster.host(0), make_packet(0, 0));
    out.producer_done();
  };
  auto recoverer = [&]() -> sim::Task<> {
    co_await eng.sleep(0.05);
    cluster.asu(1).set_healthy();
    co_await eng.sleep(0.05);
    cluster.asu(0).set_healthy();
  };
  eng.spawn(producer());
  eng.spawn(recoverer());
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);
  // Emission waited for the first recovery, then routed to the (only)
  // healthy replica.
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_TRUE(got0.empty());
  EXPECT_GE(got1[0].first, 0.05);
}

TEST(DegradedDelivery, RecoveryReaddsTargetToRoutingSet) {
  sim::Engine eng;
  auto mp = machine(1, 2);
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 2, 16);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = inboxes.endpoints(nodes),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .window_per_producer = 16,
                      .name = "readd_stage"});

  std::vector<std::pair<double, core::Packet>> got0, got1;
  eng.spawn(consume(cluster.asu(0), inboxes.inbox(0), got0, eng));
  eng.spawn(consume(cluster.asu(1), inboxes.inbox(1), got1, eng));

  auto producer = [&]() -> sim::Task<> {
    for (std::uint32_t i = 0; i < 12; ++i) {
      co_await out.emit(cluster.host(0), make_packet(0, i));
      co_await eng.sleep(0.01);
    }
    out.producer_done();
  };
  auto crasher = [&]() -> sim::Task<> {
    co_await eng.sleep(0.035);
    cluster.asu(0).set_crashed();
    co_await eng.sleep(0.03);
    cluster.asu(0).set_healthy();
  };
  eng.spawn(producer());
  eng.spawn(crasher());
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);
  EXPECT_EQ(got0.size() + got1.size(), 12u);
  EXPECT_FALSE(got0.empty());  // served before the crash AND after recovery
  // asu0 accepted nothing while crashed (the pump-pause convention means
  // anything accepted during the window would carry a later timestamp).
  for (const auto& [t, p] : got0) {
    EXPECT_TRUE(t < 0.035 || t > 0.065) << "accepted at " << t;
  }
  // Packets emitted during the window all went to the healthy replica.
  EXPECT_GE(got1.size(), 3u);
}

// ---------- delivery-contract regressions ----------
// These pin misconfigurations that used to hang or silently drop packets
// (assert-only guards are compiled out in the default NDEBUG build).

TEST(DeliveryContract, ZeroProducersThrowsAtConstruction) {
  // Pre-fix: StageSpec.producers defaulted to 0, window_ became 0, and
  // the first emit_to spun on a zero-slot window forever.
  sim::Engine eng;
  auto mp = machine(1, 2);
  asu::Cluster cluster(eng, mp);
  core::StageInboxes inboxes(eng, 2, 4);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  auto make = [&] {
    return std::make_unique<core::StageOutput>(
        eng, cluster.network(),
        core::StageSpec{.record_bytes = mp.record_bytes,
                        .endpoints = inboxes.endpoints(nodes),
                        .router = std::make_unique<core::RoundRobinRouter>(),
                        .name = "forgot_producers"});  // producers defaulted
  };
  EXPECT_THROW(make(), std::invalid_argument);
}

TEST(DeliveryContract, AllTargetsDownWithoutHealthBoardThrows) {
  // Pre-fix: an assert-only guard; under NDEBUG emit() spun through the
  // health-board wait with nothing to wait on. Now it throws, and the
  // throw surfaces through Engine::run's root-failure check.
  sim::Engine eng;
  auto mp = machine(1, 2);
  asu::Cluster cluster(eng, mp);
  cluster.network().set_health_board(nullptr);  // no recovery signal
  core::StageInboxes inboxes(eng, 2, 4);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = inboxes.endpoints(nodes),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .name = "no_board_stage"});
  cluster.asu(0).set_crashed();
  cluster.asu(1).set_crashed();
  auto producer = [&]() -> sim::Task<> {
    co_await out.emit(cluster.host(0), make_packet(0, 0));
    out.producer_done();
  };
  eng.spawn(producer());
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(DeliveryContract, InboxClosedUnderInFlightPacketThrows) {
  // Pre-fix: deliver() discarded Channel::send's result, so a packet in
  // flight toward an inbox that someone closed directly vanished without
  // a trace — conservation silently broken. Now the failed send throws,
  // and (deliver being a spawned root) Engine::run surfaces it.
  sim::Engine eng;
  auto mp = machine(1, 2);
  mp.link_latency = 0.02;  // wide in-flight window
  asu::Cluster cluster(eng, mp);
  core::StageInboxes inboxes(eng, 2, 4);
  std::vector<asu::Node*> nodes{&cluster.asu(0), &cluster.asu(1)};
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = inboxes.endpoints(nodes),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .name = "closed_under_stage"});
  std::vector<std::pair<double, core::Packet>> got0, got1;
  eng.spawn(consume(cluster.asu(0), inboxes.inbox(0), got0, eng));
  eng.spawn(consume(cluster.asu(1), inboxes.inbox(1), got1, eng));
  auto producer = [&]() -> sim::Task<> {
    co_await out.emit_to(0, cluster.host(0), make_packet(0, 0));
    out.producer_done();
  };
  auto closer = [&]() -> sim::Task<> {
    co_await eng.sleep(0.01);  // packet launched, not yet landed
    inboxes.inbox(0).close();  // wrong: bypasses close_when_drained
    inboxes.inbox(1).close();
  };
  eng.spawn(producer());
  eng.spawn(closer());
  EXPECT_THROW(eng.run(), std::logic_error);
}

// ---------- DSM-Sort integration: digests & conservation ----------

TEST(FaultDsm, FaultedRunIsDeterministicAndDistinct) {
  auto mp = machine(2, 4);
  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 10;
  cfg.log2_alpha_beta = 8;
  cfg.alpha = 16;
  cfg.sort_router = core::RouterKind::SimpleRandomization;
  cfg.seed = 0xfa17;

  const auto base = core::run_dsm_sort(mp, cfg);
  ASSERT_TRUE(base.ok());

  sim::Rng plan_rng(7);
  cfg.faults = fault::generate_fault_plan(plan_rng, mp.num_hosts, mp.num_asus,
                                          base.pass1_seconds, 5);
  const auto faulted1 = core::run_dsm_sort(mp, cfg);
  const auto faulted2 = core::run_dsm_sort(mp, cfg);

  // Conservation survives the plan; the digest moves and then replays.
  EXPECT_TRUE(faulted1.ok());
  EXPECT_EQ(faulted1.records_stored, faulted1.records_in);
  EXPECT_NE(faulted1.digest, base.digest);
  EXPECT_EQ(faulted1.digest, faulted2.digest);
  EXPECT_EQ(faulted1.sim_events, faulted2.sim_events);
  EXPECT_DOUBLE_EQ(faulted1.makespan, faulted2.makespan);
}

TEST(FaultDsm, EmptyPlanLeavesRunBitIdentical) {
  auto mp = machine(1, 2);
  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 10;
  cfg.log2_alpha_beta = 8;
  cfg.alpha = 8;
  cfg.seed = 99;

  const auto a = core::run_dsm_sort(mp, cfg);
  core::DsmSortConfig with_empty = cfg;
  with_empty.faults = fault::FaultPlan{};  // explicit empty plan
  const auto b = core::run_dsm_sort(mp, with_empty);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(lmas::sim::fnv1a64(a.metrics.dump()),
            lmas::sim::fnv1a64(b.metrics.dump()));
}

}  // namespace
