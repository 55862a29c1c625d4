#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "core/core.hpp"

namespace core = lmas::core;
namespace sim = lmas::sim;
namespace asu = lmas::asu;

namespace {

core::Packet packet_for_subset(std::uint32_t s) {
  core::Packet p;
  p.subset = s;
  p.records.resize(10);
  return p;
}

std::vector<core::RouteTarget> fake_targets(std::vector<asu::Node*> nodes) {
  std::vector<core::RouteTarget> t;
  for (auto* n : nodes) t.push_back({n});
  return t;
}

// ---------- routing policies ----------

TEST(Routing, StaticPartitionIsDeterministicBySubset) {
  core::StaticPartitionRouter modulo;  // no subset count: modulo fallback
  std::vector<core::RouteTarget> targets(4);
  for (std::uint32_t s = 0; s < 16; ++s) {
    const auto p = packet_for_subset(s);
    EXPECT_EQ(modulo.pick(p, targets), s % 4);
    EXPECT_EQ(modulo.pick(p, targets), s % 4);  // stable
  }
  // With the subset count known, instances own contiguous blocks (the
  // paper's "half the subsets to each host").
  core::StaticPartitionRouter block(16);
  for (std::uint32_t s = 0; s < 16; ++s) {
    EXPECT_EQ(block.pick(packet_for_subset(s), targets), s / 4);
  }
}

TEST(Routing, RoundRobinCycles) {
  core::RoundRobinRouter r;
  std::vector<core::RouteTarget> targets(3);
  const auto p = packet_for_subset(0);
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(r.pick(p, targets));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Routing, SimpleRandomizationBalancesEachSubset) {
  core::SimpleRandomizationRouter r{sim::Rng(7)};
  std::vector<core::RouteTarget> targets(4);
  // For each subset, after k*4 picks every target got exactly k packets:
  // randomized cycling preserves the balance of records across hosts.
  for (std::uint32_t s = 0; s < 8; ++s) {
    std::map<std::size_t, int> counts;
    const auto p = packet_for_subset(s);
    for (int i = 0; i < 40; ++i) counts[r.pick(p, targets)]++;
    for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(counts[t], 10);
  }
}

TEST(Routing, SimpleRandomizationCyclesAreShuffled) {
  core::SimpleRandomizationRouter r{sim::Rng(7)};
  std::vector<core::RouteTarget> targets(8);
  const auto p = packet_for_subset(3);
  std::vector<std::size_t> cycle1, cycle2;
  for (int i = 0; i < 8; ++i) cycle1.push_back(r.pick(p, targets));
  for (int i = 0; i < 8; ++i) cycle2.push_back(r.pick(p, targets));
  // Each cycle is a permutation of 0..7.
  auto is_perm = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] != i) return false;
    }
    return true;
  };
  EXPECT_TRUE(is_perm(cycle1));
  EXPECT_TRUE(is_perm(cycle2));
  EXPECT_NE(cycle1, cycle2);  // reshuffled (true for this seed)
}

TEST(Routing, LeastLoadedPicksSmallestBacklog) {
  sim::Engine eng;
  asu::MachineParams mp;
  asu::Node n0(eng, asu::NodeKind::Host, 0, mp);
  asu::Node n1(eng, asu::NodeKind::Host, 1, mp);
  asu::Node n2(eng, asu::NodeKind::Host, 2, mp);
  n0.cpu().post(5.0);
  n1.cpu().post(1.0);
  n2.cpu().post(3.0);
  core::LeastLoadedRouter r;
  auto targets = fake_targets({&n0, &n1, &n2});
  EXPECT_EQ(r.pick(packet_for_subset(0), targets), 1u);
  n1.cpu().post(10.0);
  EXPECT_EQ(r.pick(packet_for_subset(0), targets), 2u);
}

TEST(Routing, FactoryProducesAllKinds) {
  using core::RouterKind;
  for (auto kind : {RouterKind::Static, RouterKind::RoundRobin,
                    RouterKind::SimpleRandomization,
                    RouterKind::LeastLoaded}) {
    auto r = core::make_router(
        {.kind = kind,
         .rng = sim::Rng(7).stream(sim::stream_id("routing-test"))});
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->name(), core::router_kind_name(kind));
  }
  // PowerOfD reports its sample width, not the kind tag.
  auto pod = core::make_router(
      {.kind = RouterKind::PowerOfD,
       .rng = sim::Rng(7).stream(sim::stream_id("routing-test")),
       .d_choices = 3});
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(pod->name(), "power-of-3");
}

// ---------- containers ----------

TEST(Containers, SetScanVisitsEverythingOnce) {
  core::SetContainer<int> set;
  for (int i = 0; i < 10; ++i) set.insert(i);
  std::set<int> seen;
  while (auto v = set.take_any()) seen.insert(*v);
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_TRUE(set.scan_done());
  EXPECT_EQ(set.completed_count(), 10u);
}

TEST(Containers, SetRescanAfterReset) {
  core::SetContainer<int> set;
  set.insert(1);
  set.insert(2);
  while (set.take_any()) {
  }
  EXPECT_TRUE(set.scan_done());
  set.reset_scan();
  EXPECT_EQ(set.pending_count(), 2u);
}

TEST(Containers, SetDestructiveScanReleasesRecords) {
  core::SetContainer<int> set;
  set.insert(1);
  set.insert(2);
  while (set.take_any(/*destructive=*/true)) {
  }
  EXPECT_EQ(set.completed_count(), 0u);
  set.reset_scan();
  EXPECT_EQ(set.pending_count(), 0u);  // gone for good
}

TEST(Containers, SetRandomizedTakeStillCoversAll) {
  core::SetContainer<int> set;
  for (int i = 0; i < 50; ++i) set.insert(i);
  sim::Rng rng(3);
  std::set<int> seen;
  while (auto v = set.take_any(false, &rng)) seen.insert(*v);
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Containers, StreamDeliversInOrder) {
  core::StreamContainer<int> st;
  for (int i = 0; i < 5; ++i) st.push_back(i * 10);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(st.take_next().value(), i * 10);
  EXPECT_FALSE(st.take_next().has_value());
  st.reset_scan();
  EXPECT_EQ(st.take_next().value(), 0);
}

TEST(Containers, StreamDestructiveScan) {
  core::StreamContainer<int> st;
  st.push_back(1);
  st.push_back(2);
  EXPECT_EQ(st.take_next(true).value(), 1);
  EXPECT_EQ(st.size(), 1u);
}

TEST(Containers, ArrayRandomAccess) {
  core::ArrayContainer<int> arr(4);
  arr[2] = 42;
  EXPECT_EQ(arr.at(2), 42);
  EXPECT_THROW((void)arr.at(10), std::out_of_range);
  arr.push_back(7);
  EXPECT_EQ(arr.size(), 5u);
}

// ---------- workload ----------

TEST(Workload, UniformCoversKeySpace) {
  core::KeyGenerator gen(core::KeyDist::Uniform, 100000, sim::Rng(1));
  std::size_t low = 0, high = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto k = gen.next();
    if (k < 0x40000000u) ++low;
    if (k >= 0xC0000000u) ++high;
  }
  EXPECT_NEAR(double(low), 25000.0, 1000.0);
  EXPECT_NEAR(double(high), 25000.0, 1000.0);
}

TEST(Workload, ExponentialSkewsLow) {
  core::KeyGenerator gen(core::KeyDist::Exponential, 100000, sim::Rng(2));
  std::size_t low_quarter = 0;
  for (int i = 0; i < 100000; ++i) {
    if (gen.next() < 0x40000000u) ++low_quarter;
  }
  EXPECT_GT(low_quarter, 80000u);  // heavy concentration at low keys
}

TEST(Workload, HalfUniformHalfExpSwitchesAtMidpoint) {
  const std::size_t n = 50000;
  core::KeyGenerator gen(core::KeyDist::HalfUniformHalfExp, n, sim::Rng(3));
  std::size_t low_first = 0, low_second = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool low = gen.next() < 0x40000000u;
    (i < n / 2 ? low_first : low_second) += low ? 1 : 0;
  }
  EXPECT_NEAR(double(low_first), double(n) / 8, 600.0);  // ~25% of half
  EXPECT_GT(low_second, n / 2 * 8 / 10);                 // skewed half
}

TEST(Workload, SortedAndReverseAreMonotone) {
  const std::size_t n = 1000;
  core::KeyGenerator asc(core::KeyDist::Sorted, n, sim::Rng(4));
  core::KeyGenerator desc(core::KeyDist::ReverseSorted, n, sim::Rng(4));
  std::uint32_t prev_a = 0, prev_d = std::uint32_t(-1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = asc.next();
    const auto d = desc.next();
    EXPECT_GE(a, prev_a);
    EXPECT_LE(d, prev_d);
    prev_a = a;
    prev_d = d;
  }
}

TEST(Workload, DeterministicForSeed) {
  core::KeyGenerator g1(core::KeyDist::Uniform, 100, sim::Rng(9));
  core::KeyGenerator g2(core::KeyDist::Uniform, 100, sim::Rng(9));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g1.next(), g2.next());
}

constexpr core::KeyDist kAllDists[] = {
    core::KeyDist::Uniform, core::KeyDist::Exponential,
    core::KeyDist::HalfUniformHalfExp, core::KeyDist::Sorted,
    core::KeyDist::ReverseSorted};

TEST(Workload, SkipConsumesExactlyTheDrawsOfNext) {
  // Any skip()/next() interleaving yields, at the kept positions, the
  // keys of a plain next() stream: random interleavings at three skip
  // rates, plus a run of skips straddling HalfUniformHalfExp's midpoint.
  const std::size_t n = 2001;
  for (const auto dist : kAllDists) {
    core::KeyGenerator plain(dist, n, sim::Rng(21));
    const auto want = plain.take(n);
    // 0 stands for the midpoint pattern: skip only positions n/2 +- 3.
    for (const std::uint64_t skip_per_mille : {100u, 500u, 990u, 0u}) {
      core::KeyGenerator gen(dist, n, sim::Rng(21));
      sim::Rng pattern(skip_per_mille + 1);
      for (std::size_t i = 0; i < n; ++i) {
        const bool skip = skip_per_mille == 0
                              ? (i >= n / 2 - 3 && i <= n / 2 + 3)
                              : pattern.below(1000) < skip_per_mille;
        if (skip) {
          gen.skip();
        } else {
          ASSERT_EQ(gen.next(), want[i])
              << core::key_dist_name(dist) << " position " << i
              << " skip rate " << skip_per_mille << "/1000";
        }
        EXPECT_EQ(gen.emitted(), i + 1);
      }
    }
  }
}

// ---------- packet / functor cost ----------

TEST(Packet, WireBytesUsesModeledRecordSize) {
  core::Packet p;
  p.records.resize(100);
  EXPECT_EQ(p.wire_bytes(128), 12800u);
  EXPECT_EQ(p.size(), 100u);
}

TEST(FunctorCost, PacketCostCombinesTerms) {
  core::FunctorCost c{1e-6, 5e-6};
  EXPECT_DOUBLE_EQ(c.packet_cost(10), 5e-6 + 10e-6);
}

// ---------- config derivations ----------

TEST(DsmConfig, BetaShrinksAsAlphaGrows) {
  core::DsmSortConfig cfg;
  cfg.log2_alpha_beta = 18;
  cfg.alpha = 1;
  EXPECT_EQ(cfg.beta(), std::size_t(1) << 18);
  cfg.alpha = 256;
  EXPECT_EQ(cfg.beta(), std::size_t(1) << 10);
  // alpha * beta constant:
  for (unsigned a : {1u, 4u, 16u, 64u, 256u}) {
    cfg.alpha = a;
    EXPECT_EQ(std::size_t(a) * cfg.beta(), std::size_t(1) << 18);
  }
}

TEST(DsmConfig, BaselineUsesFullKRuns) {
  core::DsmSortConfig cfg;
  cfg.alpha = 64;
  cfg.distribute_on_asus = false;
  EXPECT_EQ(cfg.host_run_length(), std::size_t(1) << cfg.log2_alpha_beta);
  cfg.distribute_on_asus = true;
  EXPECT_EQ(cfg.host_run_length(), cfg.beta());
}

}  // namespace
