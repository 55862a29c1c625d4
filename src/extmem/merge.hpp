#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "extmem/stream.hpp"

namespace lmas::em {

/// k-way merge over type-erased sources: a binary min-heap of source
/// indices keyed by each source's head record. Popping a record sifts the
/// refilled source down one path, at up to two `src_less` calls per level,
/// so a record costs up to 2*ceil(log2 k) source comparisons (each up to
/// two `Less` calls). The model's `n log(gamma)` merge term is the
/// tournament bound that RunMerger below meets; this heap is the generic
/// merge for streams and the external priority queue. Ties break toward
/// the lower source index, making the merge stable across sources.
template <FixedSizeRecord T, typename Less = std::less<T>>
class LoserTree {
 public:
  /// Pulls the next record from one input (nullopt = exhausted).
  using Source = std::function<std::optional<T>()>;

  explicit LoserTree(std::vector<Source> sources, Less less = {})
      : less_(less), k_(sources.size()), sources_(std::move(sources)) {
    assert(k_ >= 1);
    heads_.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) heads_[i] = sources_[i]();
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
};

/// Tournament-tree (loser-tree) k-way merge of in-memory sorted runs of
/// 32-bit-keyed records. Every node holds a packed `key << 32 | source`
/// word, so one unsigned compare orders by key and sends ties to the
/// lower source: exactly LoserTree's output sequence under
/// `std::less<T>`. Replaying a leaf costs ceil(log2 k) compares, each
/// resolved without a branch. An exhausted run's word is ~0, above every
/// live word (a source index is below 2^32 - 1). The runs must outlive
/// the merger.
template <Key32Record T>
class RunMerger {
 public:
  explicit RunMerger(std::span<const std::span<const T>> runs)
      : k_(runs.size()), tree_(k_), heads_(k_) {
    assert(k_ >= 1 && k_ < kMaxFanIn);
    for (std::size_t i = 0; i < k_; ++i) {
      heads_[i] = {runs[i].data(), runs[i].data() + runs[i].size()};
      remaining_ += runs[i].size();
    }
    // Play the initial tournament bottom-up: leaf i sits at k + i, node j
    // keeps the loser of its children's match and passes the winner up.
    std::vector<std::uint64_t> winner(2 * k_);
    for (std::size_t i = 0; i < k_; ++i) winner[k_ + i] = word(i);
    for (std::size_t j = k_ - 1; j >= 1; --j) {
      tree_[j] = std::max(winner[2 * j], winner[2 * j + 1]);
      winner[j] = std::min(winner[2 * j], winner[2 * j + 1]);
    }
    tree_[0] = winner[1];
  }

  [[nodiscard]] bool empty() const noexcept { return remaining_ == 0; }
  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }

  /// Append up to `n` of the smallest remaining records to `out`, in
  /// merge order. Returns how many were appended.
  std::size_t fill(std::vector<T>& out, std::size_t n) {
    n = std::min(n, remaining_);
    const std::size_t base = out.size();
    out.resize(base + n);
    T* dst = out.data() + base;
    std::uint64_t* tree = tree_.data();
    std::uint64_t win = tree[0];
    for (std::size_t i = 0; i < n; ++i) {
      // Take the winner, then replay its leaf's path to the root: at each
      // node the smaller word plays on and the node keeps the larger. Two
      // selects on one compare compile to conditional moves, where
      // std::min/std::max compiled to a branch.
      const auto src = std::size_t(std::uint32_t(win));
      dst[i] = *heads_[src].pos++;
      win = word(src);
      for (std::size_t j = (k_ + src) >> 1; j > 0; j >>= 1) {
        const std::uint64_t loser = tree[j];
        const bool lt = loser < win;
        const std::uint64_t hi = lt ? win : loser;
        win = lt ? loser : win;
        tree[j] = hi;
      }
    }
    tree[0] = win;
    remaining_ -= n;
    return n;
  }

 private:
  static constexpr std::uint64_t kDone = ~std::uint64_t(0);
  static constexpr std::size_t kMaxFanIn = std::uint32_t(-1);

  struct Head {
    const T* pos;
    const T* end;
  };

  /// Run i's tournament word: its head key and index, or kDone.
  [[nodiscard]] std::uint64_t word(std::size_t i) const noexcept {
    const Head& h = heads_[i];
    return h.pos == h.end ? kDone
                          : std::uint64_t(h.pos->key) << 32 | std::uint64_t(i);
  }

  std::size_t k_;
  std::vector<std::uint64_t> tree_;  // [0] winner, [1, k) match losers
  std::vector<Head> heads_;          // each run's unmerged rest
  std::size_t remaining_ = 0;
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
