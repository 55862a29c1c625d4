#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "gis/gis.hpp"

namespace gis = lmas::gis;
using lmas::sim::Rng;

namespace {

std::set<std::uint32_t> brute_force(const std::vector<gis::RTree::Item>& items,
                                    const gis::Rect& q) {
  std::set<std::uint32_t> out;
  for (const auto& it : items) {
    if (it.rect.intersects(q)) out.insert(it.id);
  }
  return out;
}

struct FuzzCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t leaf_capacity;
  std::size_t fanout;
};

// The case's ctest name. The default prints the raw bytes, padding and
// all, so the name changed from build to build.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_leaf" << c.leaf_capacity
      << "_fan" << c.fanout;
}

class RTreeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RTreeFuzz, AlwaysMatchesBruteForce) {
  const auto fc = GetParam();
  Rng rng(fc.seed);

  // A mix of tiny rects, larger rects, degenerate points, and duplicates.
  std::vector<gis::RTree::Item> items;
  for (std::size_t i = 0; i < fc.n; ++i) {
    const float x = float(rng.uniform());
    const float y = float(rng.uniform());
    float w = 0, h = 0;
    switch (rng.below(4)) {
      case 0: break;  // point
      case 1: w = float(rng.uniform()) * 0.001f; h = w; break;
      case 2: w = float(rng.uniform()) * 0.05f;
              h = float(rng.uniform()) * 0.05f; break;
      case 3:  // duplicate of an earlier rect
        if (!items.empty()) {
          auto dup = items[rng.below(items.size())];
          dup.id = std::uint32_t(i);
          items.push_back(dup);
          continue;
        }
        break;
    }
    items.push_back({{x, y, x + w, y + h}, std::uint32_t(i)});
  }

  gis::RTreeParams params;
  params.leaf_capacity = fc.leaf_capacity;
  params.node_fanout = fc.fanout;
  auto tree = gis::RTree::bulk_load(items, params);
  EXPECT_EQ(tree.size(), items.size());

  for (int qi = 0; qi < 25; ++qi) {
    const float e = float(rng.uniform()) * 0.3f;
    const float x = float(rng.uniform()) * (1.0f - e);
    const float y = float(rng.uniform()) * (1.0f - e);
    const gis::Rect q{x, y, x + e, y + e};
    auto got = tree.query(q);
    std::set<std::uint32_t> got_set(got.begin(), got.end());
    ASSERT_EQ(got_set.size(), got.size()) << "duplicate results";
    EXPECT_EQ(got_set, brute_force(items, q))
        << "seed=" << fc.seed << " query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RTreeFuzz,
    ::testing::Values(FuzzCase{1, 100, 4, 2},      // tiny nodes, deep tree
                      FuzzCase{2, 1000, 8, 4},
                      FuzzCase{3, 5000, 64, 16},   // default-ish
                      FuzzCase{4, 333, 7, 3},      // odd capacities
                      FuzzCase{5, 1, 64, 16},      // single item
                      FuzzCase{6, 65, 64, 16},     // just over one leaf
                      FuzzCase{7, 4096, 16, 16}));

TEST(RTreeEdge, AllItemsIdentical) {
  std::vector<gis::RTree::Item> items;
  for (std::uint32_t i = 0; i < 500; ++i) {
    items.push_back({{0.5f, 0.5f, 0.5f, 0.5f}, i});
  }
  auto tree = gis::RTree::bulk_load(items);
  auto hit = tree.query({0.4f, 0.4f, 0.6f, 0.6f});
  EXPECT_EQ(hit.size(), 500u);
  EXPECT_TRUE(tree.query({0.6f, 0.6f, 0.7f, 0.7f}).empty());
}

TEST(RTreeEdge, QueryOutsideBounds) {
  auto tree = gis::RTree::bulk_load(gis::make_random_rects(1000, 9));
  EXPECT_TRUE(tree.query({2.0f, 2.0f, 3.0f, 3.0f}).empty());
  EXPECT_TRUE(tree.query({-1.0f, -1.0f, -0.5f, -0.5f}).empty());
}

TEST(RTreeEdge, WholeSpaceQueryReturnsEverything) {
  const auto items = gis::make_random_rects(2000, 10);
  auto tree = gis::RTree::bulk_load(items);
  auto hit = tree.query({0, 0, 1, 1});
  EXPECT_EQ(hit.size(), 2000u);
}

TEST(WatershedEdge, DegenerateGrids) {
  // 1x1: one cell, one watershed.
  {
    gis::Grid g(1, 1);
    gis::TerraFlowStats st;
    auto colors = gis::watershed_labels(g, &st);
    EXPECT_EQ(st.watersheds, 1u);
    EXPECT_EQ(colors.size(), 1u);
  }
  // 1xN strictly increasing: single watershed draining to cell 0.
  {
    gis::Grid g(1, 16);
    for (std::uint32_t y = 0; y < 16; ++y) g.set(0, y, float(y));
    gis::TerraFlowStats st;
    auto colors = gis::watershed_labels(g, &st);
    EXPECT_EQ(st.watersheds, 1u);
  }
  // Nx1 V-shape: two minima at the ends.
  {
    gis::Grid g(17, 1);
    for (std::uint32_t x = 0; x < 17; ++x) {
      g.set(x, 0, float(std::abs(int(x) - 8)));
    }
    // Minimum is the single center cell (x=8); both slopes drain to it.
    gis::TerraFlowStats st;
    auto colors = gis::watershed_labels(g, &st);
    EXPECT_EQ(st.watersheds, gis::count_local_minima(g));
    EXPECT_EQ(st.watersheds, 1u);
    for (auto c : colors) EXPECT_EQ(c, 0u);
  }
  // 2x2 checkerboard-ish elevations.
  {
    gis::Grid g(2, 2);
    g.set(0, 0, 1.0f);
    g.set(1, 0, 0.0f);
    g.set(0, 1, 0.0f);
    g.set(1, 1, 1.0f);
    gis::TerraFlowStats st;
    auto colors = gis::watershed_labels(g, &st);
    EXPECT_EQ(st.watersheds, gis::count_local_minima(g));
    EXPECT_EQ(colors.size(), 4u);
  }
}

TEST(WatershedEdge, FileBackedScratchWorks) {
  auto g = gis::make_fractal(48, 48, 21);
  gis::TerraFlowOptions opt;
  opt.scratch = lmas::em::temp_file_bte_factory();
  opt.memory_bytes = 32 * 1024;
  gis::TerraFlowStats st;
  auto colors = gis::watershed_labels(g, &st, opt);
  EXPECT_EQ(st.watersheds, gis::count_local_minima(g));
  EXPECT_EQ(colors.size(), g.cells());
}

}  // namespace

// ---------- hybrid replicated layout ----------

namespace {

TEST(HybridLayout, ReplicasAreDistinctAndContiguousBase) {
  auto owners = gis::leaf_replicas(12, 4, gis::RTreeLayout::Hybrid, 2);
  ASSERT_EQ(owners.size(), 12u);
  for (const auto& o : owners) {
    ASSERT_EQ(o.size(), 2u);
    EXPECT_NE(o[0], o[1]);
  }
  // Primary owners follow the partition layout.
  auto single = gis::leaf_placement(12, 4, gis::RTreeLayout::Partition);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(owners[i][0], single[i]);
}

TEST(HybridLayout, SingleOwnerLayoutsHaveOneCandidate) {
  for (auto layout : {gis::RTreeLayout::Partition, gis::RTreeLayout::Stripe}) {
    auto owners = gis::leaf_replicas(10, 4, layout, 3);
    for (const auto& o : owners) EXPECT_EQ(o.size(), 1u);
  }
}

TEST(HybridLayout, ReplicationClampsToAsuCount) {
  auto owners = gis::leaf_replicas(5, 2, gis::RTreeLayout::Hybrid, 8);
  for (const auto& o : owners) EXPECT_EQ(o.size(), 2u);
}

TEST(RTreeSimHybrid, MatchesOracleAndBeatsPartitionUnderHotspot) {
  lmas::asu::MachineParams mp;
  mp.num_hosts = 1;
  mp.num_asus = 8;
  gis::RTreeSimConfig cfg;
  cfg.num_rects = 50000;
  cfg.clients = 16;
  cfg.queries_per_client = 8;
  cfg.query_extent = 0.04f;
  cfg.layout = gis::RTreeLayout::Hybrid;
  cfg.replication = 2;
  const auto hybrid = gis::run_rtree_sim(mp, cfg);
  EXPECT_TRUE(hybrid.results_match_oracle);
  EXPECT_GT(hybrid.total_results, 0u);
  cfg.layout = gis::RTreeLayout::Partition;
  const auto part = gis::run_rtree_sim(mp, cfg);
  // Replica choice lets hot chunks spill to a second ASU: throughput is
  // at least competitive with pure partitioning.
  EXPECT_GE(hybrid.throughput_qps, part.throughput_qps * 0.9);
}

}  // namespace
