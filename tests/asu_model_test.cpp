#include <gtest/gtest.h>

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

TEST(CostModel, CeilLog2) {
  EXPECT_EQ(asu::ceil_log2(1), 0u);
  EXPECT_EQ(asu::ceil_log2(2), 1u);
  EXPECT_EQ(asu::ceil_log2(3), 2u);
  EXPECT_EQ(asu::ceil_log2(4), 2u);
  EXPECT_EQ(asu::ceil_log2(256), 8u);
  EXPECT_EQ(asu::ceil_log2(257), 9u);
  EXPECT_EQ(asu::ceil_log2(std::uint64_t(1) << 40), 40u);
}

TEST(CostModel, WorkDecomposesAsPaperTotalWork) {
  // Total Work = n log(alpha) + n log(beta) + n log(gamma) = n log(alpha
  // beta gamma) in compares: the per-record compare charges of the three
  // stages must sum to log2 of the product (all powers of two here).
  asu::CostModel cm;
  const unsigned alpha = 16;
  const std::uint64_t beta = 1 << 10;
  const unsigned gamma = 64;
  const double compares =
      (cm.distribute_per_record(alpha, true) - cm.handling(true)) +
      (cm.sort_per_record(beta, false) - cm.handling(false)) +
      (cm.merge_per_record(gamma, false) - cm.handling(false));
  EXPECT_NEAR(compares,
              double(asu::ceil_log2(std::uint64_t(alpha) * beta * gamma)) *
                  cm.compare,
              1e-15);
}

TEST(CostModel, AlphaOneDistributeChargesNoCompares) {
  asu::CostModel cm;
  EXPECT_DOUBLE_EQ(cm.distribute_per_record(1, false), cm.host_handling);
  EXPECT_DOUBLE_EQ(cm.distribute_per_record(1, true), cm.asu_handling);
}

TEST(Node, AsuCpuRunsCTimesSlower) {
  sim::Engine eng;
  auto p = small_params();
  p.c = 8.0;
  asu::Node host(eng, asu::NodeKind::Host, 0, p);
  asu::Node unit(eng, asu::NodeKind::Asu, 0, p);
  double host_done = 0, asu_done = 0;
  auto run = [](asu::Node& n, double work, double& done,
                sim::Engine& e) -> sim::Task<> {
    co_await n.compute(work);
    done = e.now();
  };
  eng.spawn(run(host, 1.0, host_done, eng));
  eng.spawn(run(unit, 1.0, asu_done, eng));
  eng.run();
  EXPECT_DOUBLE_EQ(host_done, 1.0);
  EXPECT_DOUBLE_EQ(asu_done, 8.0);
}

TEST(Node, HostHasNoDiskAsuDoes) {
  sim::Engine eng;
  auto p = small_params();
  asu::Node host(eng, asu::NodeKind::Host, 0, p);
  asu::Node unit(eng, asu::NodeKind::Asu, 1, p);
  EXPECT_FALSE(host.has_disk());
  EXPECT_TRUE(unit.has_disk());
  EXPECT_EQ(host.name(), "host0");
  EXPECT_EQ(unit.name(), "asu1");
  EXPECT_EQ(unit.memory_bytes(), p.asu_memory);
  EXPECT_EQ(host.memory_bytes(), p.host_memory);
}

TEST(Disk, SequentialReadChargesTransferTime) {
  sim::Engine eng;
  asu::Disk disk(eng, "d", 100.0);  // 100 bytes/s
  double done = 0;
  auto reader = [](asu::Disk& d, double& t, sim::Engine& e) -> sim::Task<> {
    co_await d.read(250);
    t = e.now();
  };
  eng.spawn(reader(disk, done, eng));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 2.5);
}

TEST(Disk, WriteBehindBlocksOnlyOnPreviousWrite) {
  sim::Engine eng;
  asu::Disk disk(eng, "d", 100.0);
  std::vector<double> ts;
  auto writer = [](asu::Disk& d, std::vector<double>& out,
                   sim::Engine& e) -> sim::Task<> {
    co_await d.write(100);  // returns immediately; disk busy [0,1)
    out.push_back(e.now());
    co_await d.write(100);  // waits for write 1 to finish (t=1)
    out.push_back(e.now());
  };
  eng.spawn(writer(disk, ts, eng));
  eng.run();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[0], 0.0);
  EXPECT_DOUBLE_EQ(ts[1], 1.0);
}

TEST(Disk, ReadStreamPrefetchOverlapsCompute) {
  sim::Engine eng;
  asu::Disk disk(eng, "d", 100.0);  // 1 block of 100B per second
  std::vector<double> block_ready;
  auto consumer = [](asu::Disk& d, std::vector<double>& out,
                     sim::Engine& e) -> sim::Task<> {
    asu::Disk::ReadStream rs(d, 100);
    for (int i = 0; i < 3; ++i) {
      co_await rs.next_block(i == 2);
      out.push_back(e.now());
      co_await e.sleep(2.0);  // compute slower than disk
    }
  };
  eng.spawn(consumer(disk, block_ready, eng));
  eng.run();
  ASSERT_EQ(block_ready.size(), 3u);
  EXPECT_DOUBLE_EQ(block_ready[0], 1.0);  // first block: full transfer wait
  // Subsequent blocks were prefetched during the 2 s compute: no wait.
  EXPECT_DOUBLE_EQ(block_ready[1], 3.0);
  EXPECT_DOUBLE_EQ(block_ready[2], 5.0);
}

TEST(Disk, ReadStreamFastConsumerIsDiskBound) {
  sim::Engine eng;
  asu::Disk disk(eng, "d", 100.0);
  std::vector<double> block_ready;
  auto consumer = [](asu::Disk& d, std::vector<double>& out,
                     sim::Engine& e) -> sim::Task<> {
    asu::Disk::ReadStream rs(d, 100);
    for (int i = 0; i < 3; ++i) {
      co_await rs.next_block(i == 2);
      out.push_back(e.now());  // zero compute: disk-bound
    }
  };
  eng.spawn(consumer(disk, block_ready, eng));
  eng.run();
  ASSERT_EQ(block_ready.size(), 3u);
  EXPECT_DOUBLE_EQ(block_ready[0], 1.0);
  EXPECT_DOUBLE_EQ(block_ready[1], 2.0);
  EXPECT_DOUBLE_EQ(block_ready[2], 3.0);
}

TEST(Cluster, BuildsRequestedTopology) {
  sim::Engine eng;
  auto p = small_params();
  asu::Cluster cluster(eng, p);
  EXPECT_EQ(cluster.num_hosts(), 2u);
  EXPECT_EQ(cluster.num_asus(), 4u);
  EXPECT_FALSE(cluster.host(1).is_asu());
  EXPECT_TRUE(cluster.asu(3).is_asu());
  EXPECT_THROW((void)cluster.host(2), std::out_of_range);
}

TEST(Network, TransferChargesLatencyAndBandwidth) {
  sim::Engine eng;
  auto p = small_params();
  p.link_bandwidth = 1000.0;      // bytes/s
  p.link_latency = 0.5;           // s
  p.host_nic_bandwidth = 1e12;    // non-binding
  p.asu_nic_bandwidth = 1e12;
  asu::Cluster cluster(eng, p);
  double done = 0;
  auto xfer = [](asu::Cluster& c, double& t, sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.asu(0), c.host(0), 2000);
    t = e.now();
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  EXPECT_NEAR(done, 2.0 + 0.5, 1e-6);
}

TEST(Network, DistinctLinksDoNotContend) {
  sim::Engine eng;
  auto p = small_params();
  p.link_bandwidth = 1000.0;
  p.link_latency = 0.0;
  p.host_nic_bandwidth = 1e12;
  p.asu_nic_bandwidth = 1e12;
  asu::Cluster cluster(eng, p);
  std::vector<double> done;
  auto xfer = [](asu::Cluster& c, unsigned a, std::vector<double>& out,
                 sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.asu(a), c.host(0), 1000);
    out.push_back(e.now());
  };
  eng.spawn(xfer(cluster, 0, done, eng));
  eng.spawn(xfer(cluster, 1, done, eng));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);  // parallel links: both finish at t=1
  EXPECT_NEAR(done[1], 1.0, 1e-6);
}

TEST(Network, SharedLinkSerializes) {
  sim::Engine eng;
  auto p = small_params();
  p.link_bandwidth = 1000.0;
  p.link_latency = 0.0;
  p.host_nic_bandwidth = 1e12;
  p.asu_nic_bandwidth = 1e12;
  asu::Cluster cluster(eng, p);
  std::vector<double> done;
  auto xfer = [](asu::Cluster& c, std::vector<double>& out,
                 sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.asu(0), c.host(0), 1000);
    out.push_back(e.now());
  };
  eng.spawn(xfer(cluster, done, eng));
  eng.spawn(xfer(cluster, done, eng));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);  // same link: serialized
}

TEST(Network, HostNicAggregatesAcrossLinks) {
  sim::Engine eng;
  auto p = small_params();
  p.link_bandwidth = 1e12;  // links non-binding
  p.link_latency = 0.0;
  p.host_nic_bandwidth = 1000.0;  // host NIC binds
  p.asu_nic_bandwidth = 1e12;
  asu::Cluster cluster(eng, p);
  std::vector<double> done;
  auto xfer = [](asu::Cluster& c, unsigned a, std::vector<double>& out,
                 sim::Engine& e) -> sim::Task<> {
    co_await c.network().transfer(c.asu(a), c.host(0), 1000);
    out.push_back(e.now());
  };
  eng.spawn(xfer(cluster, 0, done, eng));
  eng.spawn(xfer(cluster, 1, done, eng));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);  // host NIC serializes the two receives
}

}  // namespace
