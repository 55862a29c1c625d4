#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "extmem/stream.hpp"

namespace lmas::em {

/// Loser-tree (tournament) k-way merge. Comparisons per record are
/// ceil(log2 k) — the `n log(gamma)` term in the paper's work accounting.
/// Ties break toward the lower source index, making the merge stable
/// across sources.
///
/// A source is any callable `() -> std::optional<T>` (nullopt =
/// exhausted). The default erases its type so mixed inputs share one
/// tree; a concrete source such as RunCursor lets the compiler inline the
/// per-record pull.
template <FixedSizeRecord T, typename Less = std::less<T>,
          typename Src = std::function<std::optional<T>()>>
class LoserTree {
 public:
  /// `sources` pull the next record from each input (nullopt = exhausted).
  using Source = Src;

  explicit LoserTree(std::vector<Source> sources, Less less = {})
      : less_(less), k_(sources.size()), sources_(std::move(sources)) {
    assert(k_ >= 1);
    heads_.resize(k_);
    alive_ = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      heads_[i] = sources_[i]();
      if (heads_[i]) ++alive_;
    }
    // k can be small; a simple index heap is clearer than a classic
    // loser array and has identical comparison complexity.
    heap_.reserve(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      if (heads_[i]) heap_.push_back(i);
    }
    for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Pop the globally smallest record and refill from its source.
  std::optional<T> next() {
    if (heap_.empty()) return std::nullopt;
    const std::size_t src = heap_.front();
    T out = *heads_[src];
    heads_[src] = sources_[src]();
    if (!heads_[src]) {
      heap_.front() = heap_.back();
      heap_.pop_back();
      --alive_;
    }
    if (!heap_.empty()) sift_down(0);
    return out;
  }

  [[nodiscard]] std::size_t fan_in() const noexcept { return k_; }

 private:
  [[nodiscard]] bool src_less(std::size_t a, std::size_t b) const {
    if (less_(*heads_[a], *heads_[b])) return true;
    if (less_(*heads_[b], *heads_[a])) return false;
    return a < b;  // stability across sources
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && src_less(heap_[l], heap_[best])) best = l;
      if (r < n && src_less(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  Less less_;
  std::size_t k_;
  std::vector<Source> sources_;
  std::vector<std::optional<T>> heads_;
  std::vector<std::size_t> heap_;  // indices of live sources, min at front
  std::size_t alive_ = 0;
};

/// Merge source over an in-memory sorted run: yields its records in order
/// without type erasure. The run must outlive the cursor.
template <FixedSizeRecord T>
class RunCursor {
 public:
  explicit RunCursor(std::span<const T> run) noexcept
      : pos_(run.data()), end_(run.data() + run.size()) {}

  std::optional<T> operator()() noexcept {
    if (pos_ == end_) return std::nullopt;
    return *pos_++;
  }

 private:
  const T* pos_;
  const T* end_;
};

/// Merge whole streams (each already sorted, cursors at the intended start)
/// into `out`. Returns the number of records written.
template <FixedSizeRecord T, typename Less = std::less<T>>
std::size_t merge_streams(std::vector<Stream<T>*> inputs, Stream<T>& out,
                          Less less = {}) {
  std::vector<typename LoserTree<T, Less>::Source> sources;
  sources.reserve(inputs.size());
  for (Stream<T>* s : inputs) {
    sources.push_back([s]() { return s->read(); });
  }
  LoserTree<T, Less> tree(std::move(sources), less);
  std::size_t n = 0;
  while (auto r = tree.next()) {
    out.push_back(*r);
    ++n;
  }
  return n;
}

}  // namespace lmas::em
