#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <vector>

#include "extmem/extmem.hpp"
#include "sim/random.hpp"

namespace em = lmas::em;
using lmas::sim::Rng;

namespace {

em::Stream<em::KeyRecord> make_stream(const std::vector<std::uint32_t>& keys) {
  em::Stream<em::KeyRecord> s(em::make_memory_bte(), 1024);
  std::uint32_t id = 0;
  for (auto k : keys) s.push_back({k, id++});
  s.rewind();
  return s;
}

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = std::uint32_t(rng.next());
  return keys;
}

// ---------- scan ----------

TEST(Scan, ForEachVisitsAll) {
  auto s = make_stream({3, 1, 4, 1, 5});
  std::size_t sum = 0;
  const std::size_t n = em::for_each(s, [&](const em::KeyRecord& r) {
    sum += r.key;
  });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(sum, 14u);
}

TEST(Scan, TransformMapsRecords) {
  auto s = make_stream({1, 2, 3});
  em::Stream<em::KeyRecord> out;
  em::transform(s, out, [](const em::KeyRecord& r) {
    return em::KeyRecord{r.key * 10, r.id};
  });
  out.rewind();
  EXPECT_EQ(out.read()->key, 10u);
  EXPECT_EQ(out.read()->key, 20u);
  EXPECT_EQ(out.read()->key, 30u);
}

TEST(Scan, FilterKeepsMatching) {
  auto s = make_stream({1, 2, 3, 4, 5, 6});
  em::Stream<em::KeyRecord> out;
  const std::size_t kept =
      em::filter(s, out, [](const em::KeyRecord& r) { return r.key % 2 == 0; });
  EXPECT_EQ(kept, 3u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Scan, ReduceFolds) {
  auto s = make_stream({1, 2, 3, 4});
  const auto sum = em::reduce(s, std::uint64_t{0},
                              [](std::uint64_t acc, const em::KeyRecord& r) {
                                return acc + r.key;
                              });
  EXPECT_EQ(sum, 10u);
}

TEST(Scan, IsSortedDetects) {
  auto sorted = make_stream({1, 2, 2, 3});
  EXPECT_TRUE(em::is_sorted(sorted));
  auto unsorted = make_stream({1, 3, 2});
  EXPECT_FALSE(em::is_sorted(unsorted));
  auto empty = make_stream({});
  EXPECT_TRUE(em::is_sorted(empty));
}

// ---------- merge ----------

TEST(Merge, TwoWayMerge) {
  auto a = make_stream({1, 3, 5});
  auto b = make_stream({2, 4, 6});
  em::Stream<em::KeyRecord> out;
  const std::size_t n = em::merge_streams<em::KeyRecord>({&a, &b}, out);
  EXPECT_EQ(n, 6u);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
}

TEST(Merge, StableAcrossSourcesOnTies) {
  auto a = make_stream({5});  // id 0
  auto b = make_stream({5});  // id 0 in its own stream
  // Distinguish by id: rebuild with distinct ids.
  em::Stream<em::KeyRecord> s1, s2;
  s1.push_back({5, 100});
  s2.push_back({5, 200});
  s1.rewind();
  s2.rewind();
  em::Stream<em::KeyRecord> out;
  em::merge_streams<em::KeyRecord>({&s1, &s2}, out);
  out.rewind();
  EXPECT_EQ(out.read()->id, 100u);  // lower source index first
  EXPECT_EQ(out.read()->id, 200u);
}

TEST(Merge, HandlesEmptyAndUnevenInputs) {
  auto a = make_stream({});
  auto b = make_stream({1, 2, 3, 4, 5, 6, 7, 8});
  auto c = make_stream({4});
  em::Stream<em::KeyRecord> out;
  const std::size_t n = em::merge_streams<em::KeyRecord>({&a, &b, &c}, out);
  EXPECT_EQ(n, 9u);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
}

TEST(Merge, RunMergerBreaksTiesTowardLowerSource) {
  const std::vector<em::KeyRecord> a{{5, 100}, {7, 101}};
  const std::vector<em::KeyRecord> b{{5, 200}, {6, 201}, {7, 202}};
  const std::vector<em::KeyRecord> c;
  const std::vector<std::span<const em::KeyRecord>> runs{a, c, b};
  em::RunMerger<em::KeyRecord> merger(runs);
  EXPECT_EQ(merger.remaining(), 5u);
  std::vector<em::KeyRecord> out;
  EXPECT_EQ(merger.fill(out, 99), 5u);
  std::vector<std::uint32_t> ids;
  for (const auto& r : out) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{100, 200, 201, 101, 202}));
  EXPECT_TRUE(merger.empty());
}

// The std::function-source LoserTree's full output over `runs`.
std::vector<em::KeyRecord> loser_tree_merge(
    const std::vector<std::vector<em::KeyRecord>>& runs) {
  std::vector<em::LoserTree<em::KeyRecord>::Source> sources;
  for (const auto& v : runs) {
    sources.push_back([&v, pos = std::size_t(0)]() mutable
                      -> std::optional<em::KeyRecord> {
      if (pos >= v.size()) return std::nullopt;
      return v[pos++];
    });
  }
  em::LoserTree<em::KeyRecord> tree(std::move(sources));
  std::vector<em::KeyRecord> out;
  while (auto r = tree.next()) out.push_back(*r);
  return out;
}

// RunMerger's full output over `runs`, filled `chunk` records at a time
// after a sentinel record that fill() must append after, not overwrite.
std::vector<em::KeyRecord> run_merger_merge(
    const std::vector<std::vector<em::KeyRecord>>& runs, std::size_t chunk) {
  const std::vector<std::span<const em::KeyRecord>> spans(runs.begin(),
                                                          runs.end());
  em::RunMerger<em::KeyRecord> merger(spans);
  std::vector<em::KeyRecord> out{{1, 0xdeadu}};
  while (!merger.empty()) {
    const std::size_t before = merger.remaining();
    const std::size_t got = merger.fill(out, chunk);
    EXPECT_EQ(got, std::min(chunk, before));
    EXPECT_EQ(merger.remaining(), before - got);
  }
  EXPECT_EQ(merger.fill(out, chunk), 0u);
  EXPECT_EQ(out.front(), (em::KeyRecord{1, 0xdeadu}));
  out.erase(out.begin());
  return out;
}

// Records with ids unique across runs, keys drawn by `key`, each run
// sorted stably; every third run (when `with_empty`) is left empty.
template <typename KeyFn>
std::vector<std::vector<em::KeyRecord>> make_runs(std::size_t k, Rng& rng,
                                                  bool with_empty,
                                                  KeyFn key) {
  std::vector<std::vector<em::KeyRecord>> runs(k);
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (with_empty && i % 3 == 1) continue;
    runs[i].resize(rng.below(200));
    for (auto& r : runs[i]) r = {key(rng), id++};
    std::stable_sort(runs[i].begin(), runs[i].end());
  }
  return runs;
}

class RunMergerFanIn : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunMergerFanIn, MatchesLoserTreeRecordForRecord) {
  const std::size_t k = GetParam();
  Rng rng(500 + k);
  const auto uniform = [](Rng& r) { return std::uint32_t(r.next()); };
  const auto few = [](Rng& r) { return std::uint32_t(r.below(4)); };
  const auto all_equal = [](Rng&) { return std::uint32_t(77); };
  const auto top = [](Rng& r) { return std::uint32_t(-1 - r.below(3)); };
  const std::vector<std::vector<std::vector<em::KeyRecord>>> cases = {
      make_runs(k, rng, false, uniform), make_runs(k, rng, true, uniform),
      make_runs(k, rng, true, few),      make_runs(k, rng, false, all_equal),
      make_runs(k, rng, true, top)};
  for (const auto& runs : cases) {
    const auto want = loser_tree_merge(runs);
    for (const std::size_t chunk : {std::size_t(1), std::size_t(13),
                                    want.size() + 1}) {
      EXPECT_EQ(run_merger_merge(runs, chunk), want)
          << "k=" << k << " chunk=" << chunk;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FanIns, RunMergerFanIn,
                         ::testing::Values(1, 2, 3, 17, 64));

TEST(Merge, RunMergerKeysBesideTheExhaustedSentinel) {
  // 0xFFFFFFFF keys pack to words just below the exhausted-source word
  // ~0: they must still be emitted, in source order, after every smaller
  // key, and an all-empty merge emits nothing.
  const std::uint32_t top = 0xFFFFFFFFu;
  const std::vector<std::vector<em::KeyRecord>> runs = {
      {{top, 1}}, {}, {{0, 2}, {top, 3}, {top, 4}}, {{top - 1, 5}}};
  const auto got = run_merger_merge(runs, 2);
  EXPECT_EQ(got, loser_tree_merge(runs));
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.back(), (em::KeyRecord{top, 4}));

  const std::vector<std::vector<em::KeyRecord>> empty(5);
  EXPECT_TRUE(run_merger_merge(empty, 3).empty());
}

class MergeFanIn : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergeFanIn, KWayMergeSortedAndComplete) {
  const std::size_t k = GetParam();
  Rng rng(77);
  std::vector<em::Stream<em::KeyRecord>> streams;
  std::size_t total = 0;
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = rng.below(200);
    std::vector<std::uint32_t> keys(len);
    for (auto& key : keys) key = std::uint32_t(rng.below(10000));
    std::sort(keys.begin(), keys.end());
    em::Stream<em::KeyRecord> s;
    for (auto key : keys) s.push_back({key, id++});
    s.rewind();
    total += len;
    streams.push_back(std::move(s));
  }
  std::vector<em::Stream<em::KeyRecord>*> ptrs;
  for (auto& s : streams) ptrs.push_back(&s);
  em::Stream<em::KeyRecord> out;
  const std::size_t n = em::merge_streams<em::KeyRecord>(ptrs, out);
  EXPECT_EQ(n, total);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
  // Permutation: every id appears exactly once.
  out.rewind();
  std::vector<bool> seen(id, false);
  while (auto r = out.read()) {
    EXPECT_FALSE(seen[r->id]);
    seen[r->id] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), std::ptrdiff_t(id));
}

INSTANTIATE_TEST_SUITE_P(FanIns, MergeFanIn,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64));

// ---------- sort ----------

struct SortCase {
  std::size_t n;
  std::size_t memory_records;  // run length
  std::size_t fan_in;
};

// The case's ctest name. The default prints the raw bytes, padding and
// all, so the name changed from build to build.
void PrintTo(const SortCase& c, std::ostream* os) {
  *os << 'n' << c.n << "_mem" << c.memory_records << "_fan" << c.fan_in;
}

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortsArbitraryInput) {
  const auto cse = GetParam();
  auto keys = random_keys(cse.n, 1000 + cse.n);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::SortOptions opt;
  opt.memory_bytes = cse.memory_records * sizeof(em::KeyRecord);
  opt.max_fan_in = cse.fan_in;
  em::SortStats st;
  em::sort_stream(in, out, opt, std::less<em::KeyRecord>{}, &st);
  EXPECT_EQ(st.items, cse.n);
  EXPECT_EQ(out.size(), cse.n);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
  // Output keys are a permutation of input keys.
  std::sort(keys.begin(), keys.end());
  out.rewind();
  for (auto k : keys) {
    auto r = out.read();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->key, k);
  }
  // Expected run count.
  const std::size_t expect_runs =
      (cse.n + cse.memory_records - 1) / cse.memory_records;
  EXPECT_EQ(st.runs_formed, expect_runs);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortSweep,
    ::testing::Values(SortCase{0, 16, 4}, SortCase{1, 16, 4},
                      SortCase{100, 1000, 4},     // single run
                      SortCase{1000, 100, 64},    // one merge pass
                      SortCase{5000, 50, 4},      // multi-pass merge
                      SortCase{4096, 64, 2},      // binary merges, deep
                      SortCase{10000, 128, 8}));

TEST(Sort, AlreadySortedAndReverse) {
  std::vector<std::uint32_t> asc(2000), desc(2000);
  std::iota(asc.begin(), asc.end(), 0u);
  for (std::size_t i = 0; i < desc.size(); ++i) {
    desc[i] = std::uint32_t(desc.size() - i);
  }
  for (auto* keys : {&asc, &desc}) {
    auto in = make_stream(*keys);
    em::Stream<em::KeyRecord> out;
    em::SortOptions opt;
    opt.memory_bytes = 100 * sizeof(em::KeyRecord);
    em::sort_stream(in, out, opt);
    out.rewind();
    EXPECT_TRUE(em::is_sorted(out));
    EXPECT_EQ(out.size(), keys->size());
  }
}

TEST(Sort, AllEqualKeys) {
  std::vector<std::uint32_t> keys(3000, 42);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::SortOptions opt;
  opt.memory_bytes = 64 * sizeof(em::KeyRecord);
  em::sort_stream(in, out, opt);
  EXPECT_EQ(out.size(), 3000u);
  out.rewind();
  while (auto r = out.read()) EXPECT_EQ(r->key, 42u);
}

TEST(Sort, MultiPassMergeCountsPasses) {
  auto keys = random_keys(10000, 3);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::SortOptions opt;
  opt.memory_bytes = 100 * sizeof(em::KeyRecord);  // 100 runs
  opt.max_fan_in = 4;                              // needs several passes
  em::SortStats st;
  em::sort_stream(in, out, opt, std::less<em::KeyRecord>{}, &st);
  EXPECT_EQ(st.runs_formed, 100u);
  EXPECT_GE(st.merge_passes, 3u);  // ceil(log4(100)) + final
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
}

TEST(Sort, WorksWithFileScratch) {
  auto keys = random_keys(5000, 9);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::SortOptions opt;
  opt.memory_bytes = 200 * sizeof(em::KeyRecord);
  opt.scratch = em::temp_file_bte_factory();
  em::sort_stream(in, out, opt);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
  EXPECT_EQ(out.size(), 5000u);
}

// ---------- distribute ----------

TEST(Distribute, PartitionsByClassifier) {
  auto in = make_stream({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto buckets = em::distribute(
      in, 3, [](const em::KeyRecord& r) { return r.key % 3; });
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0]->size(), 4u);  // 0 3 6 9
  EXPECT_EQ(buckets[1]->size(), 3u);  // 1 4 7
  EXPECT_EQ(buckets[2]->size(), 3u);  // 2 5 8
}

TEST(Distribute, ConservesRecords) {
  auto keys = random_keys(5000, 13);
  auto in = make_stream(keys);
  em::RangeClassifier<std::uint32_t> cls(0, std::uint32_t(-1), 16);
  auto buckets = em::distribute(in, 16, cls);
  std::size_t total = 0;
  for (auto& b : buckets) total += b->size();
  EXPECT_EQ(total, 5000u);
}

TEST(Distribute, RangeClassifierOrdersBuckets) {
  auto keys = random_keys(20000, 21);
  auto in = make_stream(keys);
  em::RangeClassifier<std::uint32_t> cls(0, std::uint32_t(-1), 8);
  auto buckets = em::distribute(in, 8, cls);
  // Max key of bucket i <= min key of bucket i+1 (range partition).
  std::uint32_t prev_max = 0;
  for (auto& b : buckets) {
    std::uint32_t lo = std::uint32_t(-1), hi = 0;
    b->rewind();
    while (auto r = b->read()) {
      lo = std::min(lo, r->key);
      hi = std::max(hi, r->key);
    }
    if (b->size() > 0) {
      EXPECT_GE(lo, prev_max);
      prev_max = hi;
    }
  }
}

TEST(Distribute, RangeClassifierRejectsZeroBuckets) {
  EXPECT_THROW(em::RangeClassifier<std::uint32_t>(0, 100, 0),
               std::invalid_argument);
}

TEST(Distribute, RangeClassifierRejectsEmptyKeyRange) {
  EXPECT_THROW(em::RangeClassifier<std::uint32_t>(7, 7, 4),
               std::invalid_argument);
  EXPECT_THROW(em::RangeClassifier<std::uint32_t>(9, 3, 4),
               std::invalid_argument);
}

TEST(Distribute, UniformKeysBalanceAcrossBuckets) {
  auto keys = random_keys(64000, 31);
  auto in = make_stream(keys);
  em::RangeClassifier<std::uint32_t> cls(0, std::uint32_t(-1), 8);
  auto buckets = em::distribute(in, 8, cls);
  for (auto& b : buckets) {
    EXPECT_NEAR(double(b->size()), 8000.0, 800.0);  // within 10%
  }
}

// ---------- radix run formation ----------

/// sort_by_key against its exact oracle, std::stable_sort by key.
void expect_matches_stable_sort(std::vector<em::KeyRecord> run,
                                std::vector<em::KeyRecord>& scratch) {
  auto want = run;
  std::stable_sort(want.begin(), want.end());
  em::sort_by_key(run, scratch);
  EXPECT_EQ(run, want);
}

TEST(RadixSort, TinyRunsIncludingEmpty) {
  std::vector<em::KeyRecord> scratch;
  expect_matches_stable_sort({}, scratch);
  expect_matches_stable_sort({{3, 0}}, scratch);
  expect_matches_stable_sort({{3, 0}, {1, 1}}, scratch);
  expect_matches_stable_sort({{2, 0}, {1, 1}, {2, 2}, {1, 3}}, scratch);
}

TEST(RadixSort, StableOnDuplicateKeysAtEverySize) {
  std::vector<em::KeyRecord> scratch;
  // Either side of the radix cut-over, and of 256.
  constexpr std::size_t k = em::kMinRadixRun;
  for (std::size_t n : {k - 1, k, k + 1, std::size_t(255), std::size_t(256),
                        std::size_t(257), std::size_t(1000),
                        std::size_t(4097)}) {
    Rng rng(n);
    std::vector<em::KeyRecord> run(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct keys spread over all four bytes.
      run[i] = {std::uint32_t(rng.below(5)) * 0x01010101u, std::uint32_t(i)};
    }
    expect_matches_stable_sort(run, scratch);
  }
}

TEST(RadixSort, SkipsConstantDigitsAndReusesScratch) {
  // Constant high bytes (one subset's keys) and all-equal keys leave
  // an odd number of scatter passes; the result must land in `run`.
  std::vector<em::KeyRecord> scratch(10000, em::KeyRecord{9, 9});
  Rng rng(5);
  std::vector<em::KeyRecord> high(3000), equal(500, em::KeyRecord{77, 0});
  for (std::size_t i = 0; i < high.size(); ++i) {
    high[i] = {0xab120000u | std::uint32_t(rng.below(1u << 16)),
               std::uint32_t(i)};
  }
  for (std::size_t i = 0; i < equal.size(); ++i) equal[i].id = std::uint32_t(i);
  expect_matches_stable_sort(high, scratch);
  expect_matches_stable_sort(equal, scratch);
  expect_matches_stable_sort(high, scratch);
}

TEST(RadixSort, FullRangeKeysAndExtremes) {
  std::vector<em::KeyRecord> scratch;
  auto keys = random_keys(20000, 8);
  keys[0] = 0;
  keys[1] = std::uint32_t(-1);
  keys[2] = std::uint32_t(-1);
  std::vector<em::KeyRecord> run;
  for (std::uint32_t i = 0; i < keys.size(); ++i) run.push_back({keys[i], i});
  expect_matches_stable_sort(run, scratch);
}

// ---------- external priority queue ----------

TEST(ExternalPq, InMemoryOrdering) {
  em::ExternalPq<em::KeyRecord> pq(1024);
  for (std::uint32_t k : {5u, 1u, 9u, 3u, 7u}) pq.push({k, 0});
  std::vector<std::uint32_t> out;
  while (auto r = pq.pop()) out.push_back(r->key);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3, 5, 7, 9}));
  EXPECT_EQ(pq.spill_count(), 0u);
}

TEST(ExternalPq, SpillsAndStillSortsGlobally) {
  em::ExternalPq<em::KeyRecord> pq(64);  // force spills
  auto keys = random_keys(10000, 55);
  for (std::uint32_t i = 0; i < keys.size(); ++i) pq.push({keys[i], i});
  EXPECT_GT(pq.spill_count(), 0u);
  std::sort(keys.begin(), keys.end());
  for (auto k : keys) {
    auto r = pq.pop();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->key, k);
  }
  EXPECT_TRUE(pq.empty());
}

TEST(ExternalPq, InterleavedPushPop) {
  em::ExternalPq<em::KeyRecord> pq(32);
  std::multiset<std::uint32_t> oracle;
  Rng rng(66);
  for (int round = 0; round < 5000; ++round) {
    if (oracle.empty() || rng.below(100) < 60) {
      const auto k = std::uint32_t(rng.below(100000));
      pq.push({k, 0});
      oracle.insert(k);
    } else {
      auto r = pq.pop();
      ASSERT_TRUE(r);
      EXPECT_EQ(r->key, *oracle.begin());
      oracle.erase(oracle.begin());
    }
    EXPECT_EQ(pq.size(), oracle.size());
  }
  while (!oracle.empty()) {
    auto r = pq.pop();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->key, *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_FALSE(pq.pop().has_value());
}

TEST(ExternalPq, PeekMatchesPop) {
  em::ExternalPq<em::KeyRecord> pq(16);
  auto keys = random_keys(500, 77);
  for (std::uint32_t i = 0; i < keys.size(); ++i) pq.push({keys[i], i});
  while (!pq.empty()) {
    auto expect = pq.peek();
    auto got = pq.pop();
    ASSERT_TRUE(expect && got);
    EXPECT_EQ(expect->key, got->key);
  }
}

TEST(ExternalPq, CompactionBoundsRunCount) {
  em::ExternalPq<em::KeyRecord> pq(8);  // spill every 8 pushes
  for (std::uint32_t i = 0; i < 5000; ++i) {
    pq.push({i * 2654435761u, i});  // scrambled keys
  }
  EXPECT_LE(pq.run_count(), 25u);
  // Still sorted.
  std::uint32_t prev = 0;
  bool first = true;
  while (auto r = pq.pop()) {
    if (!first) {
      EXPECT_GE(r->key, prev);
    }
    prev = r->key;
    first = false;
  }
}

}  // namespace

// ---------- distribution sort (Vitter-Hutchinson style, ref [35]) ----------

#include "extmem/distribution_sort.hpp"

namespace {

class DistSortSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistSortSweep, SortsAndConserves) {
  const std::size_t n = GetParam();
  auto keys = random_keys(n, 777 + n);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::DistributionSortOptions opt;
  opt.memory_bytes = 128 * sizeof(em::KeyRecord);  // force recursion
  opt.fan_out = 8;
  em::DistributionSortStats st;
  em::distribution_sort(in, out, opt, em::KeyOf{}, &st);
  EXPECT_EQ(out.size(), n);
  EXPECT_EQ(st.items, n);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
  // Permutation of input keys.
  std::sort(keys.begin(), keys.end());
  out.rewind();
  for (auto k : keys) {
    auto r = out.read();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->key, k);
  }
  if (n > 128) {
    EXPECT_GE(st.recursion_depth, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistSortSweep,
                         ::testing::Values(0, 1, 100, 1000, 20000));

TEST(DistributionSort, AllEqualKeysTerminates) {
  std::vector<std::uint32_t> keys(5000, 99);
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::DistributionSortOptions opt;
  opt.memory_bytes = 64 * sizeof(em::KeyRecord);
  em::distribution_sort(in, out, opt);
  EXPECT_EQ(out.size(), 5000u);
  out.rewind();
  while (auto r = out.read()) EXPECT_EQ(r->key, 99u);
}

TEST(DistributionSort, SkewedKeysStillBalanceViaSampling) {
  // Exponentially skewed keys: sampled splitters keep the recursion
  // shallow where equal-width ranges would degenerate.
  Rng rng(31);
  std::vector<std::uint32_t> keys(30000);
  for (auto& k : keys) {
    k = std::uint32_t(std::min(1.0, rng.exponential(8.0)) * 4294967295.0);
  }
  auto in = make_stream(keys);
  em::Stream<em::KeyRecord> out;
  em::DistributionSortOptions opt;
  opt.memory_bytes = 1024 * sizeof(em::KeyRecord);
  opt.fan_out = 16;
  em::DistributionSortStats st;
  em::distribution_sort(in, out, opt, em::KeyOf{}, &st);
  out.rewind();
  EXPECT_TRUE(em::is_sorted(out));
  EXPECT_LE(st.recursion_depth, 3u);
}

TEST(DistributionSort, AgreesWithMergeSort) {
  auto keys = random_keys(10000, 55);
  auto in1 = make_stream(keys);
  auto in2 = make_stream(keys);
  em::Stream<em::KeyRecord> by_dist, by_merge;
  em::DistributionSortOptions dopt;
  dopt.memory_bytes = 256 * sizeof(em::KeyRecord);
  em::distribution_sort(in1, by_dist, dopt);
  em::SortOptions mopt;
  mopt.memory_bytes = 256 * sizeof(em::KeyRecord);
  em::sort_stream(in2, by_merge, mopt);
  ASSERT_EQ(by_dist.size(), by_merge.size());
  by_dist.rewind();
  by_merge.rewind();
  while (auto a = by_dist.read()) {
    auto b = by_merge.read();
    ASSERT_TRUE(b);
    EXPECT_EQ(a->key, b->key);  // same multiset order by key
  }
}

}  // namespace
