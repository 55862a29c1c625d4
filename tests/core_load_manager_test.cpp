/// Online load management: the SwitchableRouter hot-swap decorator, the
/// LoadManager control loop (hysteresis, cooldown, dwell, projected
/// drain-time migration planning, cross-client arbitration), and the
/// DSM-Sort pass-1 integration (skewed input + Manage mode must act,
/// conserve records, and stay deterministic; Off mode must be
/// digest-identical to no manager).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;

namespace {

core::Packet packet_for_subset(std::uint32_t s) {
  core::Packet p;
  p.subset = s;
  p.records.resize(8);
  return p;
}

// ---------- SwitchableRouter ----------

TEST(SwitchableRouter, SwapsBetweenPoliciesAndBack) {
  // Baseline modulo-static vs round-robin dynamic: their pick sequences
  // differ visibly, and each policy's internal state survives being
  // swapped out (the RR cursor resumes where it left off).
  core::SwitchableRouter r(std::make_unique<core::StaticPartitionRouter>(),
                           std::make_unique<core::RoundRobinRouter>());
  std::vector<core::RouteTarget> targets(3);
  EXPECT_FALSE(r.dynamic_active());
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 5u % 3);
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 5u % 3);  // static: stable
  r.promote();
  EXPECT_TRUE(r.dynamic_active());
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 0u);  // RR from 0
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 1u);
  r.demote();
  EXPECT_EQ(r.pick(packet_for_subset(7), targets), 7u % 3);
  r.promote();
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 2u);  // cursor resumed
}

TEST(SwitchableRouter, NameReportsEngagedPolicy) {
  core::SwitchableRouter r(std::make_unique<core::StaticPartitionRouter>(),
                           std::make_unique<core::RoundRobinRouter>());
  EXPECT_EQ(r.name(), "static(switchable)");
  r.promote();
  EXPECT_EQ(r.name(), "round-robin(switchable)");
}

TEST(SwitchableRouter, InstrumentedWrapAcrossShrinkingAndGrowingTargets) {
  // The production composition: InstrumentedRouter(SwitchableRouter(...)).
  // The target set shrinks (replica failure) and grows back; both
  // regimes must keep picks in range and the per-target route counters
  // must account for every pick.
  sim::Engine eng;
  auto switchable = std::make_unique<core::SwitchableRouter>(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  core::SwitchableRouter* sw = switchable.get();
  core::InstrumentedRouter r(std::move(switchable), eng, "lmtest");

  std::size_t picks = 0;
  for (std::size_t k : {std::size_t(4), std::size_t(2), std::size_t(1),
                        std::size_t(5)}) {
    std::vector<core::RouteTarget> targets(k);
    for (std::uint32_t s = 0; s < 10; ++s) {
      const std::size_t idx = r.pick(packet_for_subset(s), targets);
      EXPECT_LT(idx, k);
      ++picks;
    }
    sw->promote();
    for (std::uint32_t s = 0; s < 10; ++s) {
      const std::size_t idx = r.pick(packet_for_subset(s), targets);
      EXPECT_LT(idx, k);
      ++picks;
    }
    sw->demote();
  }
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (const auto* c = eng.metrics().find_counter(
            "route.lmtest.target." + std::to_string(i))) {
      counted += c->value();
    }
  }
  EXPECT_EQ(counted, picks);
}

// ---------- LoadManager decision loop ----------

/// A hand-built sample shaped like the monitor's: a 0.05 s window and an
/// offered vector per backlog (zero here: the backlog is the load).
core::LoadSample sample_at(double t, std::vector<double> host_backlog) {
  core::LoadSample s;
  s.time = t;
  s.period = 0.05;
  s.host_offered.assign(host_backlog.size(), 0.0);
  s.host_backlog = std::move(host_backlog);
  return s;
}

/// Client `c`'s planned destination for instance `i` (nullptr = none).
asu::Node* target(const core::LoadManager& lm, std::size_t c, std::size_t i) {
  return lm.migration_plan(c, i).to;
}

core::LoadManagerConfig manage_cfg() {
  core::LoadManagerConfig cfg;
  cfg.mode = core::LoadManagerMode::Manage;
  cfg.promote_hysteresis = 2;
  cfg.demote_hysteresis = 2;
  cfg.cooldown_samples = 4;  // outlasts demote_hysteresis: observably gates
  cfg.migrate_hysteresis = 2;
  cfg.dwell_samples = 4;
  return cfg;
}

TEST(LoadManager, PromotesOnlyOnSustainedImbalanceThenDemotes) {
  sim::Engine eng;
  core::LoadManager lm(eng, manage_cfg());
  core::SwitchableRouter router(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  lm.client_router(lm.add_client(""), &router);

  // One hot sample is not enough (hysteresis = 2)...
  lm.on_sample(sample_at(0.1, {1.0, 0.0}));
  EXPECT_FALSE(router.dynamic_active());
  // ...a second consecutive one is.
  lm.on_sample(sample_at(0.2, {1.0, 0.0}));
  EXPECT_TRUE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 1u);

  // Even load from now on. Demote hysteresis (2) is satisfied at sample
  // 0.4, but the promote's cooldown (4) gates the action until the
  // sample where the counter reaches zero.
  lm.on_sample(sample_at(0.3, {0.5, 0.5}));
  lm.on_sample(sample_at(0.4, {0.5, 0.5}));
  lm.on_sample(sample_at(0.5, {0.5, 0.5}));
  EXPECT_TRUE(router.dynamic_active());  // still cooling down
  lm.on_sample(sample_at(0.6, {0.5, 0.5}));
  EXPECT_FALSE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 2u);
  ASSERT_EQ(lm.events().size(), 2u);
}

TEST(LoadManager, TinyBacklogImbalanceIsIgnored) {
  // A drained cluster with one 1ms straggler reads as imbalance 1.0;
  // the actionable-backlog floor must mask it.
  sim::Engine eng;
  core::LoadManager lm(eng, manage_cfg());
  core::SwitchableRouter router(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  lm.client_router(lm.add_client(""), &router);
  for (int i = 0; i < 10; ++i) {
    lm.on_sample(sample_at(0.1 * i, {0.001, 0.0}));
  }
  EXPECT_FALSE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 0u);
}

TEST(LoadManager, PlansMigrationOffOverloadedNodeWithDwell) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);

  core::LoadManager lm(eng, manage_cfg());
  const std::size_t c = lm.add_client("");
  lm.client_instances(c, {h0, h1}, {h0, h1});

  // h0 drowning, h1 idle: load_here / load_there >> kMigrateFactor.
  h0->cpu().post(10.0);
  EXPECT_EQ(target(lm, c, 0), nullptr);
  lm.on_sample(sample_at(0.1, {10.0, 0.0}));
  EXPECT_EQ(target(lm, c, 0), nullptr);  // hysteresis not met
  lm.on_sample(sample_at(0.2, {10.0, 0.0}));
  EXPECT_EQ(target(lm, c, 0), h1);  // planned
  EXPECT_EQ(target(lm, c, 1), nullptr);

  // The plan stays pending (and is not re-issued) until the stage
  // confirms; confirmation flips placement and starts the dwell lockout.
  lm.on_sample(sample_at(0.3, {10.0, 0.0}));
  EXPECT_EQ(target(lm, c, 0), h1);
  lm.migration_performed(c, 0, *h1);
  EXPECT_EQ(lm.migrations(), 1u);
  EXPECT_EQ(target(lm, c, 0), nullptr);

  // Still imbalanced on the nodes, but instance 0 is in dwell and
  // instance 1 has no qualifying move (its node is the idle one) — no
  // ping-pong plan may appear during the dwell window.
  for (int i = 0; i < 3; ++i) {
    lm.on_sample(sample_at(0.4 + 0.1 * i, {10.0, 0.0}));
    EXPECT_EQ(target(lm, c, 0), nullptr);
  }
}

// ---------- Migration economy (budgeted placer) ----------

TEST(LoadManager, BudgetAdmitsMultipleMovesPerTick) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 4;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  std::vector<asu::Node*> hosts;
  for (unsigned h = 0; h < 4; ++h) hosts.push_back(&cluster.host(h));

  auto cfg = manage_cfg();
  cfg.budget_moves_per_tick = 2;
  core::LoadManager lm(eng, cfg);
  const std::size_t c = lm.add_client("");
  lm.client_instances(c, hosts, hosts);

  // Two drowning hosts, two idle ones (the placer reads load off the
  // node CPUs). One gate opening must admit both moves in the same tick
  // — and the virtual rebalance must route them to *different* idle
  // hosts (after the first admission the first destination no longer
  // looks idle).
  hosts[0]->cpu().post(10.0);
  hosts[1]->cpu().post(10.0);
  lm.on_sample(sample_at(0.1, {10.0, 10.0, 0.0, 0.0}));
  EXPECT_EQ(lm.decisions().size(), 0u);  // hysteresis not met
  lm.on_sample(sample_at(0.2, {10.0, 10.0, 0.0, 0.0}));
  ASSERT_EQ(lm.decisions().size(), 2u);
  EXPECT_EQ(lm.decisions()[0].time, lm.decisions()[1].time);
  asu::Node* to0 = target(lm, c, 0);
  asu::Node* to1 = target(lm, c, 1);
  ASSERT_NE(to0, nullptr);
  ASSERT_NE(to1, nullptr);
  EXPECT_NE(to0, to1);
  EXPECT_TRUE(to0 == hosts[2] || to0 == hosts[3]);
  EXPECT_TRUE(to1 == hosts[2] || to1 == hosts[3]);
}

TEST(LoadManager, PricesPreCopyForBulkStateAndStopCopyForLight) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);

  h0->cpu().post(10.0);
  const auto plan_with = [&](core::MigrationDeclaration decl) {
    core::LoadManager lm(eng, manage_cfg());
    const std::size_t c = lm.add_client("");
    lm.client_instances(c, {h0, h1}, {h0, h1}, {std::move(decl), {}});
    lm.on_sample(sample_at(0.1, {10.0, 0.0}));
    lm.on_sample(sample_at(0.2, {10.0, 0.0}));
    EXPECT_EQ(target(lm, c, 0), h1);
    return lm.migration_plan(c, 0);
  };

  // Bulk state on a priced wire: the stop-copy stall (~1s) dwarfs the
  // window, so the placer chooses pre-copy and estimates the stall as
  // overhead + dirty delta only.
  core::MigrationDeclaration bulk;
  bulk.working_set_bytes = [] { return std::size_t(1) << 20; };
  bulk.wire_seconds_per_byte = 1e-6;
  const core::MigrationPlan pre = plan_with(bulk);
  EXPECT_EQ(pre.mode, core::MigrationMode::PreCopy);
  const double stop_stall = double((std::size_t(1) << 20) + 4096) * 1e-6;
  EXPECT_LT(pre.est_stall, stop_stall);
  EXPECT_NEAR(pre.est_stall, (4096.0 + 0.125 * double(1 << 20)) * 1e-6,
              1e-12);
  EXPECT_GT(pre.gain, 0.0);

  // A default declaration (no working set, no wire cost) prices the move
  // at the fixed overhead and stop-copies — the pre-economy behavior.
  const core::MigrationPlan stop = plan_with(core::MigrationDeclaration{});
  EXPECT_EQ(stop.mode, core::MigrationMode::StopCopy);
  EXPECT_EQ(stop.bytes, 4096u);
  EXPECT_EQ(stop.est_stall, 0.0);
}

// ---------- Multi-client arbitration ----------

std::uint64_t counter_value(sim::Engine& eng, const std::string& name) {
  const auto* c = eng.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(LoadManager, OneGateOpeningPlansOneMoveAcrossClients) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 4;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  std::vector<asu::Node*> hosts;
  for (unsigned h = 0; h < 4; ++h) hosts.push_back(&cluster.host(h));

  auto cfg = manage_cfg();
  cfg.budget_moves_per_tick = 1;
  core::LoadManager lm(eng, cfg);
  const std::size_t alice = lm.add_client("alice");
  const std::size_t bob = lm.add_client("bob");
  lm.client_instances(alice, {hosts[0]}, hosts);
  lm.client_instances(bob, {hosts[1]}, hosts);

  // Both clients' instances sit on drowning hosts with idle ones free:
  // each alone has an admissible move, but the tick budget is global.
  hosts[0]->cpu().post(10.0);
  hosts[1]->cpu().post(10.0);
  lm.on_sample(sample_at(0.1, {10.0, 10.0, 0.0, 0.0}));
  lm.on_sample(sample_at(0.2, {10.0, 10.0, 0.0, 0.0}));
  ASSERT_EQ(lm.decisions().size(), 1u);
  asu::Node* to_alice = target(lm, alice, 0);
  asu::Node* to_bob = target(lm, bob, 0);
  ASSERT_NE(to_alice == nullptr, to_bob == nullptr)
      << "exactly one client may hold a plan after one gate opening";
  const std::size_t planned = to_alice != nullptr ? alice : bob;
  asu::Node* to = to_alice != nullptr ? to_alice : to_bob;
  EXPECT_EQ(lm.decisions()[0].client, planned == alice ? "alice" : "bob");

  // A labeled client's confirmation charges its own counter and the
  // aggregate, and nobody else's.
  lm.migration_performed(planned, 0, *to);
  const std::string self = planned == alice ? "alice" : "bob";
  const std::string other = planned == alice ? "bob" : "alice";
  EXPECT_EQ(counter_value(eng, "lm." + self + ".migrations"), 1u);
  EXPECT_EQ(counter_value(eng, "lm." + other + ".migrations"), 0u);
  EXPECT_EQ(counter_value(eng, "lm.migrations"), 1u);
  EXPECT_EQ(lm.migrations(), 1u);

  // An unlabeled client charges only the aggregate counter.
  const std::size_t anon = lm.add_client("");
  lm.client_instances(anon, {hosts[2]}, hosts);
  lm.migration_performed(anon, 0, *hosts[3]);
  EXPECT_EQ(lm.migrations(), 2u);
  EXPECT_EQ(counter_value(eng, "lm." + self + ".migrations"), 1u);
  EXPECT_EQ(counter_value(eng, "lm." + other + ".migrations"), 0u);
  EXPECT_EQ(eng.metrics().find_counter("lm..migrations"), nullptr);
}

TEST(LoadManager, RemovedClientLosesPlanAndGetsNoLaterActions) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 4;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  std::vector<asu::Node*> hosts;
  for (unsigned h = 0; h < 4; ++h) hosts.push_back(&cluster.host(h));

  // Migration: bob's host is the hotter one, so bob is planned first.
  core::LoadManager lm(eng, manage_cfg());
  const std::size_t alice = lm.add_client("alice");
  const std::size_t bob = lm.add_client("bob");
  lm.client_instances(alice, {hosts[0]}, hosts);
  lm.client_instances(bob, {hosts[1]}, hosts);
  hosts[0]->cpu().post(10.0);
  hosts[1]->cpu().post(20.0);
  lm.on_sample(sample_at(0.1, {10.0, 20.0, 0.0, 0.0}));
  lm.on_sample(sample_at(0.2, {10.0, 20.0, 0.0, 0.0}));
  ASSERT_EQ(lm.decisions().size(), 1u);
  EXPECT_EQ(lm.decisions()[0].client, "bob");
  ASSERT_NE(target(lm, bob, 0), nullptr);

  lm.remove_client(bob);
  EXPECT_EQ(target(lm, bob, 0), nullptr);
  // The manager keeps arbitrating for alice once the cooldown lapses,
  // but bob's still-overloaded instance never gets another plan.
  for (int i = 0; i < 8; ++i) {
    lm.on_sample(sample_at(0.3 + 0.1 * i, {10.0, 20.0, 0.0, 0.0}));
    EXPECT_EQ(target(lm, bob, 0), nullptr);
  }
  ASSERT_EQ(lm.decisions().size(), 2u);
  EXPECT_EQ(lm.decisions()[1].client, "alice");
  EXPECT_NE(target(lm, alice, 0), nullptr);

  // Router swaps: a detached client's router stays on its baseline while
  // a live client's router promotes on the same sustained imbalance.
  core::LoadManager swapper(eng, manage_cfg());
  core::SwitchableRouter ra(std::make_unique<core::StaticPartitionRouter>(),
                            std::make_unique<core::RoundRobinRouter>());
  core::SwitchableRouter rb(std::make_unique<core::StaticPartitionRouter>(),
                            std::make_unique<core::RoundRobinRouter>());
  const std::size_t live = swapper.add_client("carol");
  const std::size_t gone = swapper.add_client("dave");
  swapper.client_router(live, &ra);
  swapper.client_router(gone, &rb);
  swapper.remove_client(gone);
  for (int i = 0; i < 6; ++i) {
    swapper.on_sample(sample_at(0.1 * (i + 1), {1.0, 0.0}));
  }
  EXPECT_TRUE(ra.dynamic_active());
  EXPECT_FALSE(rb.dynamic_active());
  EXPECT_EQ(swapper.router_switches(), 1u);
  EXPECT_EQ(counter_value(eng, "lm.dave.router_switches"), 0u);
}

sim::Task<> pressure_work(asu::Cluster& cl) {
  co_await cl.host(0).compute(0.3);
}

TEST(LoadMonitor, PublishesPerNodePressureGauges) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 3;
  asu::Cluster cl(eng, mp);
  core::LoadMonitor mon(cl, 0.05);
  mon.start(4);
  eng.spawn(pressure_work(cl), "work");
  eng.run();
  // One gauge per node, normalized to the sampling window: the global
  // placer (and the admission controller) read cluster pressure straight
  // off the metrics registry.
  for (unsigned h = 0; h < mp.num_hosts; ++h) {
    EXPECT_NE(eng.metrics().find_gauge("pressure.host." + std::to_string(h)),
              nullptr);
  }
  for (unsigned a = 0; a < mp.num_asus; ++a) {
    EXPECT_NE(eng.metrics().find_gauge("pressure.asu." + std::to_string(a)),
              nullptr);
  }
}

// ---------- DSM-Sort integration ----------

asu::MachineParams dsm_machine() {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;
  mp.c = 8;
  return mp;
}

core::DsmSortConfig skewed_cfg() {
  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 14;
  cfg.alpha = 8;
  cfg.log2_alpha_beta = 12;
  cfg.key_dist = core::KeyDist::Exponential;  // static split -> skew
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = 42;
  return cfg;
}

core::LoadManagerConfig dsm_manage_cfg() {
  core::LoadManagerConfig cfg;
  cfg.mode = core::LoadManagerMode::Manage;
  cfg.period = 0.002;
  cfg.promote_hysteresis = 2;
  cfg.cooldown_samples = 2;
  cfg.migrate_hysteresis = 2;
  return cfg;
}

TEST(LoadManagedDsm, ManageModeActsAndConservesRecords) {
  auto cfg = skewed_cfg();
  cfg.load_manager = dsm_manage_cfg();
  const auto rep = core::run_dsm_sort(dsm_machine(), cfg);
  EXPECT_TRUE(rep.ok()) << "conservation/sortedness broken under manager";
  EXPECT_GE(rep.lm_router_switches + rep.lm_migrations, 1u)
      << "skewed static split produced no action";
  EXPECT_EQ(rep.lm_events.size() >= 1, true);
  EXPECT_GT(rep.peak_host_imbalance, 0.0);
}

TEST(LoadManagedDsm, ManageModeIsDeterministicPerSeed) {
  auto cfg = skewed_cfg();
  cfg.load_manager = dsm_manage_cfg();
  const auto a = core::run_dsm_sort(dsm_machine(), cfg);
  const auto b = core::run_dsm_sort(dsm_machine(), cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.lm_migrations, b.lm_migrations);
  EXPECT_EQ(a.lm_router_switches, b.lm_router_switches);
  EXPECT_DOUBLE_EQ(a.pass1_seconds, b.pass1_seconds);
}

TEST(LoadManagedDsm, OffModeIsDigestNeutral) {
  // mode == Off must not construct monitor or manager at all: the run is
  // bit-for-bit the pre-load-manager execution (this is what keeps the
  // six pinned golden digests valid without regoldening).
  auto plain = skewed_cfg();
  auto off = skewed_cfg();
  off.load_manager = dsm_manage_cfg();
  off.load_manager.mode = core::LoadManagerMode::Off;
  const auto a = core::run_dsm_sort(dsm_machine(), plain);
  const auto b = core::run_dsm_sort(dsm_machine(), off);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(b.lm_migrations, 0u);
  EXPECT_EQ(b.lm_router_switches, 0u);
  EXPECT_EQ(b.peak_host_imbalance, 0.0);
}

TEST(LoadManagedDsm, MonitorModeObservesWithoutChangingTimings) {
  auto plain = skewed_cfg();
  auto mon = skewed_cfg();
  mon.load_manager = dsm_manage_cfg();
  mon.load_manager.mode = core::LoadManagerMode::Monitor;
  const auto a = core::run_dsm_sort(dsm_machine(), plain);
  const auto b = core::run_dsm_sort(dsm_machine(), mon);
  // Sampling occupies no resources: identical pass timing, but the
  // monitor reports the imbalance the unmanaged static split creates.
  EXPECT_DOUBLE_EQ(a.pass1_seconds, b.pass1_seconds);
  EXPECT_GT(b.peak_host_imbalance, 0.0);
  EXPECT_GT(b.mean_host_imbalance, 0.0);
  EXPECT_EQ(b.lm_migrations, 0u);
  EXPECT_EQ(b.lm_router_switches, 0u);
}

// ---------- Rack-tier accounting (hierarchical TopologySpec) ----------

TEST(LoadSample, RackLoadAggregatesTheBlockPartition) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;
  auto topo = asu::TopologySpec::flat(mp);
  topo.racks = 2;
  topo.spine = asu::TierSpec{.latency = 0.001, .bandwidth = 1e9,
                             .oversubscription = 2.0};

  core::LoadSample s;
  s.host_backlog = {1.0, 3.0};
  s.asu_backlog = {1.0, 2.0, 3.0, 4.0};
  s.host_offered = {0.0, 0.0};
  s.asu_offered = {0.0, 0.0, 0.0, 0.0};
  // Block partition: host 0 + ASUs {0, 1} in rack 0, the rest in rack 1.
  const auto racks = s.rack_load(topo);
  ASSERT_EQ(racks.size(), 2u);
  EXPECT_DOUBLE_EQ(racks[0], 1.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(racks[1], 3.0 + 3.0 + 4.0);
}

sim::Task<> rack_gauge_work(asu::Cluster& cl) {
  co_await cl.host(0).compute(0.3);
}

TEST(LoadMonitor, RackGaugesExistOnlyOnHierarchicalTopologies) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;

  // Hierarchical: rack gauges appear and carry the sampled load.
  {
    sim::Engine eng;
    auto topo = asu::TopologySpec::flat(mp);
    topo.racks = 2;
    topo.spine = asu::TierSpec{.latency = 0.001, .bandwidth = 1e9,
                               .oversubscription = 2.0};
    asu::Cluster cl(eng, topo);
    core::LoadMonitor mon(cl, 0.05);
    mon.start(4);
    eng.spawn(rack_gauge_work(cl), "work");
    eng.run();
    EXPECT_NE(eng.metrics().find_gauge("rack.load.0"), nullptr);
    EXPECT_NE(eng.metrics().find_gauge("rack.load.1"), nullptr);
    EXPECT_NE(eng.metrics().find_gauge("load.rack_imbalance"), nullptr);
  }

  // Flat: the metric fingerprint must stay exactly pre-topology (the
  // pinned goldens enumerate metric names).
  {
    sim::Engine eng;
    asu::Cluster cl(eng, asu::TopologySpec::flat(mp));
    core::LoadMonitor mon(cl, 0.05);
    mon.start(4);
    eng.spawn(rack_gauge_work(cl), "work");
    eng.run();
    EXPECT_EQ(eng.metrics().find_gauge("rack.load.0"), nullptr);
    EXPECT_EQ(eng.metrics().find_gauge("load.rack_imbalance"), nullptr);
  }
}

}  // namespace
