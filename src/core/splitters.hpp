#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "extmem/distribute.hpp"
#include "extmem/record.hpp"

namespace lmas::core {

/// Pick alpha-1 splitter keys as quantiles of a key sample, so the alpha
/// distribute buckets carry near-equal record counts even for skewed key
/// distributions. This is how distribution sorts balance *stationary*
/// skew; Figure 10's point is that it cannot fix skew that changes over
/// time, which is what the SR routing of sets handles.
inline std::vector<std::uint32_t> choose_splitters(
    std::vector<std::uint32_t> sample, unsigned alpha) {
  std::vector<std::uint32_t> splitters;
  if (alpha <= 1 || sample.empty()) return splitters;
  std::sort(sample.begin(), sample.end());
  splitters.reserve(alpha - 1);
  for (unsigned i = 1; i < alpha; ++i) {
    const std::size_t idx =
        std::min(sample.size() - 1, i * sample.size() / alpha);
    splitters.push_back(sample[idx]);
  }
  // Duplicate splitters simply leave some buckets empty, which is
  // correct (ordered, conserving).
  return splitters;
}

/// Bucket index by binary search over sorted splitters: ceil(log2 alpha)
/// compares per key — exactly the distribute cost the model declares.
class SplitterClassifier {
 public:
  explicit SplitterClassifier(std::vector<std::uint32_t> splitters)
      : splitters_(std::move(splitters)) {}

  /// Keys equal to a splitter go to the lower bucket. Branchless
  /// lower-bound search: the same index as std::lower_bound over the
  /// (sorted, possibly repeating) splitters, with a conditional move in
  /// place of each data-dependent branch.
  template <typename R>
  [[nodiscard]] std::size_t operator()(const R& r) const {
    std::size_t n = splitters_.size();
    if (n == 0) return 0;
    const std::uint32_t key = r.key;
    const std::uint32_t* base = splitters_.data();
    // Invariant: the answer lies in [base, base + n].
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half] < key ? base + half : base;
      n -= half;
    }
    return std::size_t(base - splitters_.data()) + (*base < key ? 1 : 0);
  }

  [[nodiscard]] unsigned buckets() const noexcept {
    return unsigned(splitters_.size()) + 1;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& splitters() const noexcept {
    return splitters_;
  }

 private:
  std::vector<std::uint32_t> splitters_;
};

/// DSM-Sort's bucket classifier: equal-width key ranges or sampled
/// splitters. The choice is a variant, not a type-erased callable, so both
/// kernels inline into the per-record loop behind one well-predicted
/// branch.
class KeyClassifier {
 public:
  explicit KeyClassifier(em::RangeClassifier<std::uint32_t> range)
      : impl_(range) {}
  explicit KeyClassifier(SplitterClassifier splitters)
      : impl_(std::move(splitters)) {}

  [[nodiscard]] std::uint32_t operator()(const em::KeyRecord& r) const {
    if (const auto* s = std::get_if<SplitterClassifier>(&impl_)) {
      return std::uint32_t((*s)(r));
    }
    return std::uint32_t(
        (*std::get_if<em::RangeClassifier<std::uint32_t>>(&impl_))(r));
  }

  /// Classify a batch: out[i] is the subset of keys[i], with the variant
  /// dispatched once per batch rather than once per key. `out` must hold
  /// at least keys.size() entries.
  void classify(std::span<const std::uint32_t> keys,
                std::span<std::uint32_t> out) const {
    std::visit(
        [&](const auto& c) {
          for (std::size_t i = 0; i < keys.size(); ++i) {
            out[i] = std::uint32_t(c(em::KeyRecord{keys[i], 0}));
          }
        },
        impl_);
  }

 private:
  std::variant<em::RangeClassifier<std::uint32_t>, SplitterClassifier> impl_;
};

/// Whether every record of `run` classifies to `subset`. Both of
/// KeyClassifier's kernels are monotone in the key, so when `sorted` says
/// the caller has checked the run is sorted by key, the first and last
/// records' subsets bound every other record's and two calls decide. An
/// unsorted run falls back to classifying every record.
[[nodiscard]] inline bool run_in_subset(const KeyClassifier& classify,
                                        std::span<const em::KeyRecord> run,
                                        std::uint32_t subset, bool sorted) {
  if (run.empty()) return true;
  if (sorted) {
    return classify(run.front()) == subset && classify(run.back()) == subset;
  }
  for (const auto& r : run) {
    if (classify(r) != subset) return false;
  }
  return true;
}

/// The stored-run check in streaming form: a run's chunks are checked as
/// they land, in any seq order, and only a few words per chunk are kept,
/// never the records. verdict() equals the whole-run check over the
/// chunks concatenated in seq order (sorted by key, run_in_subset, key
/// sum): the run is sorted iff every chunk is and each non-empty chunk
/// starts at or above the last key of the non-empty chunk before it, and
/// it lies in its subset iff every chunk does. DSM-Sort checks each
/// stored run with one, and its pass-2 output with one per subset.
class RunCheck {
 public:
  struct Verdict {
    std::size_t records = 0;
    std::uint64_t key_sum = 0;
    bool sorted = true;
    bool in_subset = true;

    /// Fold in the verdict of another part: counts add, flags AND.
    Verdict& operator+=(const Verdict& o) noexcept {
      records += o.records;
      key_sum += o.key_sum;
      sorted = sorted && o.sorted;
      in_subset = in_subset && o.in_subset;
      return *this;
    }
  };

  /// Check chunk `seq` of the run; a repeated seq appends to that chunk,
  /// as storing it does. A null `classify` skips the subset test.
  void add(std::uint32_t seq, std::span<const em::KeyRecord> records,
           const KeyClassifier* classify, std::uint32_t subset) {
    Chunk& c = chunks_[seq];
    if (records.empty()) return;
    Verdict piece{.records = records.size()};
    std::uint32_t prev = records.front().key;
    for (const auto& r : records) {
      piece.sorted &= r.key >= prev;
      prev = r.key;
      piece.key_sum += r.key;
    }
    if (classify != nullptr && c.part.in_subset) {
      piece.in_subset =
          run_in_subset(*classify, records, subset, piece.sorted);
    }
    if (c.part.records == 0) {
      c.first = records.front().key;
    } else {
      piece.sorted &= c.last <= records.front().key;
    }
    c.last = records.back().key;
    c.part += piece;
  }

  [[nodiscard]] Verdict verdict() const {
    Verdict v;
    const Chunk* prev = nullptr;
    for (const auto& [seq, c] : chunks_) {
      v += c.part;
      if (c.part.records == 0) continue;
      if (prev != nullptr && c.first < prev->last) v.sorted = false;
      prev = &c;
    }
    return v;
  }

 private:
  struct Chunk {
    Verdict part;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };
  std::map<std::uint32_t, Chunk> chunks_;  // seq -> chunk summary
};

}  // namespace lmas::core
