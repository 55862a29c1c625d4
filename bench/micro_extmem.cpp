/// Microbenchmarks for the external-memory toolkit kernels (google-
/// benchmark): run formation (std::sort and the radix kernel), k-way
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

void BM_RunFormation(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto data = random_records(n, 2);
  for (auto _ : state) {
    auto copy = data;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}
// std::sort above, the generic kernel, beside em::sort_by_key, the stable
// radix kernel DSM-Sort runs; 128, 4096 and 16384 are run lengths (beta)
// of the benchmark's workloads.
BENCHMARK(BM_RunFormation)
    ->Arg(128)
    ->Arg(1 << 10)
    ->Arg(4096)
    ->Arg(1 << 14)
    ->Arg(1 << 18);

void BM_RunFormationRadix(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto data = random_records(n, 2);
  std::vector<em::KeyRecord> scratch;
  for (auto _ : state) {
    auto copy = data;
    em::sort_by_key(copy, scratch);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}
BENCHMARK(BM_RunFormationRadix)
    ->Arg(128)
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
