#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.hpp"
#include "core/pipeline.hpp"
#include "extmem/radix_sort.hpp"

namespace lmas::core {

/// A functor (Section 3.1): a passive streaming operator applied to
/// packets of records as a side effect of data access. Its per-record
/// cost and internal state are bounded and *declared*, which is what
/// makes it safe to stack on shared ASUs and lets the load manager
/// predict the effect of any placement.
class Functor {
 public:
  virtual ~Functor() = default;

  /// Declared execution cost, charged to the hosting node per packet.
  [[nodiscard]] virtual FunctorCost cost() const = 0;

  /// Upper bound on internal state. Instances whose state exceeds the
  /// hosting ASU's memory bound are rejected at program build time.
  [[nodiscard]] virtual std::size_t state_bytes() const { return 0; }

  /// Consume one packet, appending zero or more output packets.
  virtual void process(Packet&& in, std::vector<Packet>& out) = 0;

  /// Input exhausted: flush any buffered state.
  virtual void finish(std::vector<Packet>& out) { (void)out; }
};

using FunctorFactory =
    std::function<std::unique_ptr<Functor>(unsigned instance)>;

// ---------------------------------------------------------------------
// A small library of prevalidated functors — the "common, verified
// computation kernels" the model permits on ASUs.
// ---------------------------------------------------------------------

/// Keep records satisfying a predicate (searching/filtering directly at
/// the ASUs is the canonical active-storage win: it cuts interconnect
/// traffic by the filter's selectivity).
class FilterFunctor final : public Functor {
 public:
  using Pred = std::function<bool(const em::KeyRecord&)>;
  FilterFunctor(Pred pred, FunctorCost cost) : pred_(std::move(pred)),
                                               cost_(cost) {}

  [[nodiscard]] FunctorCost cost() const override { return cost_; }

  void process(Packet&& in, std::vector<Packet>& out) override {
    Packet kept;
    kept.subset = in.subset;
    kept.seq = in.seq;
    for (const auto& r : in.records) {
      if (pred_(r)) kept.records.push_back(r);
    }
    if (!kept.records.empty()) out.push_back(std::move(kept));
  }

 private:
  Pred pred_;
  FunctorCost cost_;
};

/// Transform each record (bounded per-record function).
class MapFunctor final : public Functor {
 public:
  using Fn = std::function<em::KeyRecord(const em::KeyRecord&)>;
  MapFunctor(Fn fn, FunctorCost cost) : fn_(std::move(fn)), cost_(cost) {}

  [[nodiscard]] FunctorCost cost() const override { return cost_; }

  void process(Packet&& in, std::vector<Packet>& out) override {
    for (auto& r : in.records) r = fn_(r);
    out.push_back(std::move(in));
  }

 private:
  Fn fn_;
  FunctorCost cost_;
};

/// Per-instance partial histogram over key buckets; emits one summary
/// packet (bucket counts as records: key = bucket, id = count) when the
/// input closes. Commutative and associative, so the system may
/// replicate it freely and combine the partials downstream — the
/// aggregation pattern of the active-storage literature.
class HistogramFunctor final : public Functor {
 public:
  HistogramFunctor(unsigned buckets, FunctorCost cost)
      : counts_(buckets, 0), cost_(cost) {}

  [[nodiscard]] FunctorCost cost() const override { return cost_; }
  [[nodiscard]] std::size_t state_bytes() const override {
    return counts_.size() * sizeof(std::uint64_t);
  }

  void process(Packet&& in, std::vector<Packet>& out) override {
    (void)out;  // fully absorbing until finish()
    const auto buckets = std::uint64_t(counts_.size());
    for (const auto& r : in.records) {
      const auto b = std::size_t((std::uint64_t(r.key) * buckets) >> 32);
      ++counts_[b];
    }
  }

  void finish(std::vector<Packet>& out) override {
    Packet summary;
    summary.subset = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      // Records double as (bucket, count) pairs in the summary packet.
      summary.records.push_back(
          {std::uint32_t(b), std::uint32_t(counts_[b])});
    }
    out.push_back(std::move(summary));
  }

 private:
  std::vector<std::uint64_t> counts_;
  FunctorCost cost_;
};

/// Sum partial histograms into a final one (the host-side combiner).
class CombineHistogramsFunctor final : public Functor {
 public:
  CombineHistogramsFunctor(unsigned buckets, FunctorCost cost)
      : counts_(buckets, 0), cost_(cost) {}

  [[nodiscard]] FunctorCost cost() const override { return cost_; }
  [[nodiscard]] std::size_t state_bytes() const override {
    return counts_.size() * sizeof(std::uint64_t);
  }

  void process(Packet&& in, std::vector<Packet>& out) override {
    (void)out;
    for (const auto& r : in.records) {
      counts_.at(r.key) += r.id;
    }
  }

  void finish(std::vector<Packet>& out) override {
    Packet total;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      total.records.push_back({std::uint32_t(b), std::uint32_t(counts_[b])});
    }
    out.push_back(std::move(total));
  }

 private:
  std::vector<std::uint64_t> counts_;
  FunctorCost cost_;
};

/// Pre-sort batches of records into sorted packets (Figure 4): packets
/// preserve the local order as records move through later phases.
class PacketSortFunctor final : public Functor {
 public:
  explicit PacketSortFunctor(FunctorCost cost) : cost_(cost) {}

  [[nodiscard]] FunctorCost cost() const override { return cost_; }

  void process(Packet&& in, std::vector<Packet>& out) override {
    em::sort_by_key(in.records, scratch_);
    in.sorted = true;
    out.push_back(std::move(in));
  }

 private:
  FunctorCost cost_;
  std::vector<em::KeyRecord> scratch_;
};

}  // namespace lmas::core
