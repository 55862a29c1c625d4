/// Microbenchmarks for the external-memory toolkit kernels (google-
/// benchmark): run formation (std::sort and both paths of the radix
/// kernel, on inputs the branch predictor has not seen), k-way
/// merge across fan-ins (the std::function-source heap and RunMerger's
/// tournament), alpha-way
/// distribution, external priority queue, and raw stream scan. These are
/// the primitives whose per-record costs the CostModel declares; the
/// measured host throughputs justify its constants' order of magnitude.

#include <benchmark/benchmark.h>

#include "gbench_tee.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "extmem/extmem.hpp"
#include "sim/random.hpp"

namespace em = lmas::em;
using lmas::sim::Rng;

namespace {

std::vector<em::KeyRecord> random_records(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<em::KeyRecord> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {std::uint32_t(rng.next()), std::uint32_t(i)};
  }
  return v;
}

void BM_StreamScan(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  em::Stream<em::KeyRecord> s;
  for (const auto& r : random_records(n, 1)) s.push_back(r);
  for (auto _ : state) {
    s.rewind();
    std::uint64_t sum = 0;
    while (auto r = s.read()) sum += r->key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}
BENCHMARK(BM_StreamScan)->Arg(1 << 16)->Arg(1 << 20);

/// Back-to-back n-record inputs, 16 MiB in all (more than one core's
/// L2): the run-formation benches sort each in turn, so no iteration
/// re-sorts an input whose branches the predictor has learned. Sorting
/// one input over and over made a 128-record std::sort read several
/// times faster than it runs on fresh runs.
std::vector<em::KeyRecord> input_pool(std::size_t n) {
  constexpr std::size_t kPoolRecords = (std::size_t(16) << 20) /
                                       sizeof(em::KeyRecord);
  return random_records(std::max(kPoolRecords / n, std::size_t(2)) * n, 2);
}

/// Times `sort(run)` on a fresh copy of each pool input in turn.
template <typename Sort>
void run_formation(benchmark::State& state, Sort sort) {
  const auto n = std::size_t(state.range(0));
  const auto pool = input_pool(n);
  std::vector<em::KeyRecord> run;
  std::size_t off = 0;
  for (auto _ : state) {
    run.assign(pool.begin() + std::ptrdiff_t(off),
               pool.begin() + std::ptrdiff_t(off + n));
    sort(run);
    benchmark::DoNotOptimize(run.data());
    off = off + n == pool.size() ? 0 : off + n;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}

// Three run-formation kernels at the same lengths: std::sort, the generic
// kernel; em::sort_by_key's short-run path (packed words under std::sort);
// and its LSD radix path. The crossover of the last two sets
// em::kMinRadixRun. 128, 4096 and 16384 are run lengths (beta) of the
// benchmark's workloads.
void BM_RunFormation(benchmark::State& state) {
  run_formation(state, [](std::vector<em::KeyRecord>& run) {
    std::sort(run.begin(), run.end());
  });
}
BENCHMARK(BM_RunFormation)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(1 << 10)
    ->Arg(4096)
    ->Arg(1 << 14)
    ->Arg(1 << 18);

// A cut-over above every length given here: always the short-run path.
void BM_RunFormationPacked(benchmark::State& state) {
  std::vector<em::KeyRecord> scratch;
  run_formation(state, [&](std::vector<em::KeyRecord>& run) {
    em::sort_by_key<512>(run, scratch);
  });
}
BENCHMARK(BM_RunFormationPacked)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

// A cut-over of 2: always the radix path.
void BM_RunFormationRadix(benchmark::State& state) {
  std::vector<em::KeyRecord> scratch;
  run_formation(state, [&](std::vector<em::KeyRecord>& run) {
    em::sort_by_key<2>(run, scratch);
  });
}
BENCHMARK(BM_RunFormationRadix)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(1 << 10)
    ->Arg(4096)
    ->Arg(1 << 14)
    ->Arg(1 << 18);

void BM_LoserTreeMerge(benchmark::State& state) {
  const auto k = std::size_t(state.range(0));
  constexpr std::size_t kPerRun = 4096;
  std::vector<std::vector<em::KeyRecord>> runs(k);
  for (std::size_t i = 0; i < k; ++i) {
    runs[i] = random_records(kPerRun, 100 + i);
    std::sort(runs[i].begin(), runs[i].end());
  }
  for (auto _ : state) {
    std::vector<em::LoserTree<em::KeyRecord>::Source> sources;
    for (auto& run : runs) {
      sources.push_back([&run, pos = std::size_t(0)]() mutable
                        -> std::optional<em::KeyRecord> {
        if (pos >= run.size()) return std::nullopt;
        return run[pos++];
      });
    }
    em::LoserTree<em::KeyRecord> tree(std::move(sources));
    std::uint64_t sum = 0;
    while (auto r = tree.next()) sum += r->key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(k * kPerRun));
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// The same merge with em::RunMerger, DSM-Sort's merge: a packed-word
// tournament, one compare per level, filled into one output buffer.
void BM_RunMerger(benchmark::State& state) {
  const auto k = std::size_t(state.range(0));
  constexpr std::size_t kPerRun = 4096;
  std::vector<std::vector<em::KeyRecord>> runs(k);
  for (std::size_t i = 0; i < k; ++i) {
    runs[i] = random_records(kPerRun, 100 + i);
    std::sort(runs[i].begin(), runs[i].end());
  }
  const std::vector<std::span<const em::KeyRecord>> spans(runs.begin(),
                                                          runs.end());
  std::vector<em::KeyRecord> out;
  out.reserve(k * kPerRun);
  for (auto _ : state) {
    em::RunMerger<em::KeyRecord> merger(spans);
    out.clear();
    merger.fill(out, merger.remaining());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(k * kPerRun));
}
BENCHMARK(BM_RunMerger)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_Distribute(benchmark::State& state) {
  const auto alpha = std::size_t(state.range(0));
  constexpr std::size_t kN = 1 << 18;
  const auto data = random_records(kN, 3);
  em::RangeClassifier<std::uint32_t> cls(0, std::uint32_t(-1), alpha);
  for (auto _ : state) {
    em::Stream<em::KeyRecord> in;
    for (const auto& r : data) in.push_back(r);
    in.rewind();
    auto buckets = em::distribute(in, alpha, cls);
    benchmark::DoNotOptimize(buckets.size());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kN));
}
BENCHMARK(BM_Distribute)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ExternalPq(benchmark::State& state) {
  const auto hot = std::size_t(state.range(0));
  constexpr std::size_t kN = 1 << 16;
  const auto data = random_records(kN, 4);
  for (auto _ : state) {
    em::ExternalPq<em::KeyRecord> pq(hot);
    for (const auto& r : data) pq.push(r);
    std::uint64_t sum = 0;
    while (auto r = pq.pop()) sum += r->key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kN));
}
BENCHMARK(BM_ExternalPq)->Arg(1 << 16)->Arg(1 << 12)->Arg(1 << 8);

void BM_ExternalSortFileBacked(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto data = random_records(n, 5);
  for (auto _ : state) {
    em::Stream<em::KeyRecord> in(em::make_temp_file_bte());
    for (const auto& r : data) in.push_back(r);
    em::Stream<em::KeyRecord> out(em::make_temp_file_bte());
    em::SortOptions opt;
    opt.memory_bytes = 64 * 1024;
    opt.scratch = em::temp_file_bte_factory();
    em::sort_stream(in, out, opt);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}
BENCHMARK(BM_ExternalSortFileBacked)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  return lmas::benchio::run_with_artifact(argc, argv, "micro_extmem");
}
