#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "asu/asu.hpp"
#include "sim/sim.hpp"

namespace sim = lmas::sim;
namespace asu = lmas::asu;

namespace {

asu::MachineParams small_params() {
  asu::MachineParams p;
  p.num_hosts = 2;
  p.num_asus = 4;
  return p;
}

/// 2 racks over the small machine: hosts {0},{1}; ASUs {0,1},{2,3}.
/// Numbers chosen so every tier charge is a round figure: a 1000-byte
/// message pays 1.0 s on its rack link, 2.0 s per spine uplink
/// (oversubscription 2 halves the spine's 1000 B/s), 0.5 s rack latency
/// and 0.25 s spine latency. NICs are non-binding.
asu::TopologySpec two_tier() {
  auto p = small_params();
  p.link_bandwidth = 1000.0;
  p.link_latency = 0.5;
  p.host_nic_bandwidth = 1e12;
  p.asu_nic_bandwidth = 1e12;
  auto t = asu::TopologySpec::flat(p);
  t.racks = 2;
  t.spine = {.latency = 0.25, .bandwidth = 1000.0, .oversubscription = 2.0};
  return t;
}

TEST(TopologySpec, FlatAdapterMirrorsMachineParams) {
  auto p = small_params();
  p.link_bandwidth = 123.0;
  p.link_latency = 7e-5;
  const auto t = asu::TopologySpec::flat(p);
  EXPECT_FALSE(t.hierarchical());
  EXPECT_EQ(t.racks, 1u);
  EXPECT_DOUBLE_EQ(t.rack.latency, 7e-5);
  EXPECT_DOUBLE_EQ(t.rack.bandwidth, 123.0);
  EXPECT_DOUBLE_EQ(t.rack.oversubscription, 1.0);
  // Exactly the flat model's charge, bit for bit.
  EXPECT_EQ(t.rack.seconds(4096), p.link_seconds(4096));
  EXPECT_NO_THROW(t.validate());
}

TEST(TopologySpec, ValidateRejectsUnusableShapes) {
  auto t = asu::TopologySpec::flat(small_params());
  t.racks = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = asu::TopologySpec::flat(small_params());
  t.rack.bandwidth = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  // Spine only checked once it is actually traversed (racks > 1).
  t = asu::TopologySpec::flat(small_params());
  t.spine.bandwidth = 0;
  EXPECT_NO_THROW(t.validate());
  t.racks = 2;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = two_tier();
  t.host_speed = {1.0, 1.0, 1.0};  // machine has 2 hosts
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = two_tier();
  t.asu_speed = {1.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = two_tier();
  t.asu_speed = {0.5, 1.0, 1.5, 2.0};
  EXPECT_NO_THROW(t.validate());
}

TEST(TopologySpec, RackBlockPartitionIsBalancedAndExhaustive) {
  auto t = two_tier();
  EXPECT_EQ(t.rack_of_host(0), 0u);
  EXPECT_EQ(t.rack_of_host(1), 1u);
  EXPECT_EQ(t.rack_of_asu(0), 0u);
  EXPECT_EQ(t.rack_of_asu(1), 0u);
  EXPECT_EQ(t.rack_of_asu(2), 1u);
  EXPECT_EQ(t.rack_of_asu(3), 1u);

  // Uneven division: blocks balanced to within one node, monotone, and
  // every rack index stays < racks.
  auto u = asu::TopologySpec::flat(small_params());
  u.machine.num_asus = 10;
  u.racks = 3;
  std::vector<unsigned> count(u.racks, 0);
  unsigned prev = 0;
  for (unsigned a = 0; a < u.machine.num_asus; ++a) {
    const unsigned r = u.rack_of_asu(a);
    ASSERT_LT(r, u.racks);
    ASSERT_GE(r, prev);
    prev = r;
    ++count[r];
  }
  for (unsigned r = 0; r < u.racks; ++r) {
    EXPECT_GE(count[r], 3u);
    EXPECT_LE(count[r], 4u);
  }
}

TEST(TopologySpec, SpeedMultipliersScaleNodeCompute) {
  sim::Engine eng;
  auto t = asu::TopologySpec::flat(small_params());
  t.machine.c = 8.0;
  t.machine.asu_background_load = 0.0;
  t.asu_speed = {1.0, 2.0, 1.0, 1.0};
  t.host_speed = {1.0, 0.5};
  asu::Cluster cluster(eng, t);
  // Base speeds: host 1.0, ASU 1/8. Multipliers scale them per node.
  EXPECT_DOUBLE_EQ(cluster.host(0).speed(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.host(1).speed(), 0.5);
  EXPECT_DOUBLE_EQ(cluster.asu(0).speed(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(cluster.asu(1).speed(), 2.0 / 8.0);

  double fast_done = 0, slow_done = 0;
  auto run = [](asu::Node& n, double& done, sim::Engine& e) -> sim::Task<> {
    co_await n.compute(1.0);
    done = e.now();
  };
  eng.spawn(run(cluster.asu(0), slow_done, eng));
  eng.spawn(run(cluster.asu(1), fast_done, eng));
  eng.run();
  EXPECT_NEAR(slow_done, 8.0, 1e-9);
  EXPECT_NEAR(fast_done, 4.0, 1e-9);
}

TEST(Topology, SameRackTransferPaysRackTierOnly) {
  sim::Engine eng;
  asu::Cluster cluster(eng, two_tier());
  double done = 0;
  auto xfer = [](asu::Cluster& c, double& t, sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.host(0), c.asu(1), 1000);
    t = e.now();
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  // Rack link 1.0 s + rack latency 0.5 s; no spine anywhere.
  EXPECT_NEAR(done, 1.5, 1e-6);
}

TEST(Topology, CrossRackTransferPaysRackPlusSpineAndSummedLatency) {
  sim::Engine eng;
  asu::Cluster cluster(eng, two_tier());
  double done = 0;
  auto xfer = [](asu::Cluster& c, double& t, sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.host(0), c.asu(3), 1000);
    t = e.now();
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  // Rack link 1.0 + source uplink 2.0 + destination uplink 2.0 +
  // latencies 0.5 + 0.25.
  EXPECT_NEAR(done, 5.75, 1e-6);
}

TEST(Topology, CrossRackHostToHostSkipsRackLinkKeepsSpine) {
  sim::Engine eng;
  asu::Cluster cluster(eng, two_tier());
  double done = 0;
  auto xfer = [](asu::Cluster& c, double& t, sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.host(0), c.host(1), 1000);
    t = e.now();
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  // Same-tier pairs have no dedicated rack link (the paper's model), but
  // a cross-rack one still pays both spine uplinks and both latencies.
  EXPECT_NEAR(done, 4.75, 1e-6);
}

TEST(Topology, NodeToSelfTransferIsFree) {
  sim::Engine eng;
  asu::Cluster cluster(eng, two_tier());
  double done = -1;
  auto xfer = [](asu::Cluster& c, double& t, sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.host(0), c.host(0), 1 << 20);
    t = e.now();
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(Topology, SpineUplinksSerializeCrossRackTransfers) {
  sim::Engine eng;
  asu::Cluster cluster(eng, two_tier());
  std::vector<double> done;
  auto xfer = [](asu::Cluster& c, unsigned a, std::vector<double>& out,
                 sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.host(0), c.asu(a), 1000);
    out.push_back(e.now());
  };
  eng.spawn(xfer(cluster, 2, done, eng));
  eng.spawn(xfer(cluster, 3, done, eng));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Distinct rack links (both 1.0 s, concurrent), then both requests
  // meet at rack 0's uplink at t=1: the first holds it [1,3] and rack
  // 1's uplink [3,5], finishing at 5 + 0.75; the second gets the source
  // uplink [3,5], the destination uplink [5,7], finishing at 7 + 0.75.
  EXPECT_NEAR(done[0], 5.75, 1e-6);
  EXPECT_NEAR(done[1], 7.75, 1e-6);
}

TEST(Topology, FlatSpecClusterMatchesMachineParamsClusterExactly) {
  // The TopologySpec::flat adapter must reproduce the pre-topology flat
  // model byte-identically: same resources, same charges, same event
  // sequence — pinned by comparing execution digests of identical
  // workloads built both ways.
  auto workload = [](asu::Cluster& c, sim::Engine& e) {
    auto xfer = [](asu::Cluster& cl, unsigned h, unsigned a,
                   std::size_t bytes) -> sim::Task<> {
      co_await cl.network().transfer(cl.host(h), cl.asu(a), bytes);
      co_await cl.asu(a).compute(1e-3);
      co_await cl.network().transfer(cl.asu(a), cl.host(h), bytes / 2);
    };
    for (unsigned i = 0; i < 8; ++i) {
      e.spawn(xfer(c, i % 2, i % 4, 1000 + 173 * i));
    }
    e.run();
  };
  sim::Engine legacy_eng;
  asu::Cluster legacy(legacy_eng, small_params());
  workload(legacy, legacy_eng);

  sim::Engine topo_eng;
  asu::Cluster flat(topo_eng, asu::TopologySpec::flat(small_params()));
  workload(flat, topo_eng);

  EXPECT_EQ(legacy_eng.digest(), topo_eng.digest());
  EXPECT_GT(legacy_eng.now(), 0.0);
  EXPECT_DOUBLE_EQ(legacy_eng.now(), topo_eng.now());
}

}  // namespace
