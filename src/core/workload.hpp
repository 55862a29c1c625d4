#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace lmas::core {

/// Key distributions used by the evaluation. `HalfUniformHalfExp` is the
/// Figure 10 workload: the first half of the input is uniform, the second
/// half exponential, so a range partition that was balanced early becomes
/// skewed mid-run.
enum class KeyDist {
  Uniform,
  Exponential,
  HalfUniformHalfExp,
  Sorted,
  ReverseSorted,
};

inline const char* key_dist_name(KeyDist d) {
  switch (d) {
    case KeyDist::Uniform: return "uniform";
    case KeyDist::Exponential: return "exponential";
    case KeyDist::HalfUniformHalfExp: return "half-uniform-half-exp";
    case KeyDist::Sorted: return "sorted";
    case KeyDist::ReverseSorted: return "reverse-sorted";
  }
  return "?";
}

/// Streaming generator of 4-byte keys: position-aware so HalfUniformHalfExp
/// can switch distribution at the midpoint of the (per-producer) input.
class KeyGenerator {
 public:
  KeyGenerator(KeyDist dist, std::size_t total, sim::Rng rng)
      : dist_(dist), total_(total), rng_(rng) {}

  [[nodiscard]] std::uint32_t next() {
    const std::size_t i = emitted_++;
    switch (dist_) {
      case KeyDist::Uniform:
        return uniform_key();
      case KeyDist::Exponential:
        return exponential_key();
      case KeyDist::HalfUniformHalfExp:
        return i < total_ / 2 ? uniform_key() : exponential_key();
      case KeyDist::Sorted:
        return scale_index(i);
      case KeyDist::ReverseSorted:
        return scale_index(total_ - 1 - i);
    }
    return 0;
  }

  /// Advance past the next key without computing it: consumes exactly
  /// the random draws next() would, so the keys after a skip are the
  /// keys a plain next() stream would give at those positions. A uniform
  /// key is one draw; an exponential key repeats its draw while the
  /// 53-bit uniform would be 0 (Rng::exponential's rejection), with no
  /// log; sorted keys draw nothing.
  void skip() {
    const std::size_t i = emitted_++;
    switch (dist_) {
      case KeyDist::Uniform:
        rng_.next();
        return;
      case KeyDist::Exponential:
        skip_exponential();
        return;
      case KeyDist::HalfUniformHalfExp:
        if (i < total_ / 2) {
          rng_.next();
        } else {
          skip_exponential();
        }
        return;
      case KeyDist::Sorted:
      case KeyDist::ReverseSorted:
        return;
    }
  }

  [[nodiscard]] std::vector<std::uint32_t> take(std::size_t n) {
    std::vector<std::uint32_t> out(n);
    for (auto& k : out) k = next();
    return out;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }

 private:
  [[nodiscard]] std::uint32_t uniform_key() {
    return std::uint32_t(rng_.next());
  }

  /// Exponential keys concentrated at the low end of the key space:
  /// mean at 1/8 of the range, clipped. Roughly 87% of keys land in the
  /// lowest quarter — a severe skew for a uniform range partition.
  [[nodiscard]] std::uint32_t exponential_key() {
    const double x = std::min(rng_.exponential(8.0), 0.999999);
    return std::uint32_t(x * 4294967296.0);
  }

  void skip_exponential() {
    while ((rng_.next() >> 11) == 0) {
    }
  }

  [[nodiscard]] std::uint32_t scale_index(std::size_t i) const {
    if (total_ <= 1) return 0;
    return std::uint32_t((double(i) / double(total_ - 1)) * 4294967295.0);
  }

  KeyDist dist_;
  std::size_t total_;
  sim::Rng rng_;
  std::size_t emitted_ = 0;
};

/// Append every `stride`-th of `gen`'s next `n` keys (positions 0,
/// stride, 2*stride, ... < n) to `sample`. The keys in between are
/// skip()ped rather than computed; the kept keys equal those of a plain
/// next() stream.
inline void sample_keys(KeyGenerator& gen, std::size_t n, std::size_t stride,
                        std::vector<std::uint32_t>& sample) {
  assert(stride >= 1);
  if (n == 0) return;
  sample.push_back(gen.next());
  for (std::size_t i = stride; i < n; i += stride) {
    for (std::size_t j = 1; j < stride; ++j) gen.skip();
    sample.push_back(gen.next());
  }
}

}  // namespace lmas::core
