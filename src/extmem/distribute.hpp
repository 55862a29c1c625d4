#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "extmem/stream.hpp"

namespace lmas::em {

/// alpha-way distribution: partition the input into `alpha` output streams
/// using `classify(record) -> [0, alpha)`. This is the paper's distribute
/// functor in toolkit form; comparisons per record are ceil(log2 alpha)
/// when the classifier is a splitter binary search.
template <FixedSizeRecord T, typename Classify>
std::vector<std::unique_ptr<Stream<T>>> distribute(
    Stream<T>& in, std::size_t alpha, Classify&& classify,
    const BteFactory& scratch = memory_bte_factory()) {
  std::vector<std::unique_ptr<Stream<T>>> buckets;
  buckets.reserve(alpha);
  for (std::size_t i = 0; i < alpha; ++i) {
    buckets.push_back(std::make_unique<Stream<T>>(scratch()));
  }
  while (auto r = in.read()) {
    const std::size_t b = classify(*r);
    buckets.at(b)->push_back(*r);
  }
  for (auto& b : buckets) b->rewind();
  return buckets;
}

/// Range classifier over keys: bucket i covers one equal-width slice of
/// [lo, hi); binary-search semantics, ceil(log2 alpha) compares per key.
/// Throws std::invalid_argument unless alpha >= 1 and lo < hi.
template <typename Key>
class RangeClassifier {
 public:
  RangeClassifier(Key lo, Key hi, std::size_t alpha)
      : lo_(lo), width_(checked_width(lo, hi, alpha)), alpha_(alpha) {}

  template <typename R>
  std::size_t operator()(const R& r) const {
    const double off = (double(r.key) - double(lo_)) / width_;
    if (off <= 0) return 0;
    const auto b = std::size_t(off);
    return b >= alpha_ ? alpha_ - 1 : b;
  }

 private:
  static double checked_width(Key lo, Key hi, std::size_t alpha) {
    if (alpha == 0) {
      throw std::invalid_argument("RangeClassifier: alpha must be >= 1");
    }
    if (!(lo < hi)) {
      throw std::invalid_argument("RangeClassifier: requires lo < hi");
    }
    return (double(hi) - double(lo)) / double(alpha);
  }

  Key lo_;
  double width_;
  std::size_t alpha_;
};

}  // namespace lmas::em
