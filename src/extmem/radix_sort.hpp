#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "extmem/record.hpp"

namespace lmas::em {

/// The shortest run sort_by_key sorts by radix. Below it, the fixed cost
/// of four 256-bucket histograms outweighs the per-record saving over a
/// comparison sort. BM_RunFormationPacked and BM_RunFormationRadix in
/// bench/micro_extmem.cpp time both paths on distinct inputs; on a
/// 4-core x86-64 Xeon at -O2 they tie at 32 records, the packed sort is
/// 3x faster at 16, and the radix path is 2x faster at 64 and 4x at 128.
inline constexpr std::size_t kMinRadixRun = 32;

/// Run formation: stable LSD radix sort of `run` on its 32-bit key, one
/// byte per digit. A single counting pass builds all four digit
/// histograms; a digit on which every record falls into one bucket (e.g.
/// the constant top bytes of one subset's keys) is skipped. The scatter
/// passes ping-pong between `run` and `scratch`, which callers reuse
/// across runs so steady-state sorting allocates nothing. Runs shorter
/// than kMinRadixRun records take a comparison sort of packed
/// (key, position) words instead. On return `run` holds the sorted
/// records (possibly in `scratch`'s former buffer); `scratch`'s contents
/// are unspecified.
///
/// Stable at every size, so the exact oracle is std::stable_sort by key.
/// MinRadixRun moves the cut-over; the microbenches set it to time each
/// path alone.
template <std::size_t MinRadixRun = kMinRadixRun, Key32Record T>
void sort_by_key(std::vector<T>& run, std::vector<T>& scratch) {
  const std::size_t n = run.size();
  if (n <= 1) return;
  // Short runs: sort (key, position) pairs packed into one word.
  // Positions make every pair distinct, so the unstable std::sort yields
  // the stable order, with no allocation.
  if (n < MinRadixRun) {
    std::array<std::uint64_t, MinRadixRun> packed;
    for (std::size_t i = 0; i < n; ++i) {
      packed[i] = (std::uint64_t(run[i].key) << 32) | i;
    }
    std::sort(packed.begin(), packed.begin() + std::ptrdiff_t(n));
    scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch[i] = run[std::uint32_t(packed[i])];
    }
    run.swap(scratch);
    return;
  }

  std::array<std::array<std::uint32_t, 256>, 4> count{};
  for (const T& r : run) {
    const std::uint32_t k = r.key;
    ++count[0][k & 0xffu];
    ++count[1][(k >> 8) & 0xffu];
    ++count[2][(k >> 16) & 0xffu];
    ++count[3][k >> 24];
  }

  // Counts become bucket starts. The four prefix sums run interleaved as
  // independent dependency chains.
  std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    s0 += std::exchange(count[0][b], s0);
    s1 += std::exchange(count[1][b], s1);
    s2 += std::exchange(count[2][b], s2);
    s3 += std::exchange(count[3][b], s3);
  }

  scratch.resize(n);
  T* src = run.data();
  T* dst = scratch.data();
  bool in_scratch = false;
  const std::uint32_t first = run.front().key;
  for (unsigned d = 0; d < 4; ++d) {
    const unsigned shift = 8 * d;
    auto& c = count[d];
    // One bucket holds every record (its start is 0, the next bucket's
    // is n): the pass would copy the run unchanged, so skip it.
    const std::uint32_t digit = (first >> shift) & 0xffu;
    if (c[digit] == 0 && (digit == 255 || c[digit + 1] == n)) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const T& r = src[i];
      dst[c[(r.key >> shift) & 0xffu]++] = r;
    }
    std::swap(src, dst);
    in_scratch = !in_scratch;
  }
  if (in_scratch) run.swap(scratch);
}

}  // namespace lmas::em
