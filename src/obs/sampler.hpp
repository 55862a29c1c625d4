#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace lmas::obs {

/// Samples a Sampler's rings keep per probe (oldest evicted beyond this).
inline constexpr std::size_t kSamplerCapacity = 4096;

/// Bounded ring of samples. Once full, the OLDEST samples are evicted —
/// a long run keeps its most recent window, and `dropped()` says how much
/// history scrolled off. Eviction is purely a function of push count, so
/// serial and parallel sweeps retain identical windows.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(double v) {
    if (data_.size() < capacity_) {
      data_.push_back(v);
    } else {
      data_[head_] = v;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Samples in chronological order (oldest retained first).
  [[nodiscard]] std::vector<double> values() const {
    std::vector<double> out;
    out.reserve(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) {
      out.push_back(data_[(head_ + i) % data_.size()]);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest sample once full
  std::uint64_t dropped_ = 0;
  std::vector<double> data_;
};

/// Sim-time-driven gauge sampler. NOT a simulation process: scheduling a
/// sampling coroutine would add events and sequence numbers to the run
/// and move the execution digest, breaking the pinned goldens. Instead
/// the engine's run loop consults `due()` before committing each event
/// and, when a period boundary has been crossed, parks the virtual clock
/// exactly on the boundary and calls `sample()` — probes read owner state
/// through plain function calls, no events, no RNG, no resource use. The
/// engine pays one pointer test per event when no sampler is installed.
///
/// Probes are registered once (typically right after construction) and
/// read into per-probe bounded rings; `to_json()` emits the whole block
/// in registration order, which is deterministic per configuration.
class Sampler {
 public:
  explicit Sampler(double period_seconds)
      : period_(period_seconds > 0 ? period_seconds : 1.0),
        times_(kSamplerCapacity),
        next_(period_) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void add_probe(std::string name, std::function<double()> probe) {
    names_.push_back(std::move(name));
    probes_.push_back(std::move(probe));
    series_.emplace_back(kSamplerCapacity);
  }

  /// True when sim time `t` has reached the next sampling boundary.
  [[nodiscard]] bool due(double t) const noexcept { return t >= next_; }
  [[nodiscard]] double next_time() const noexcept { return next_; }
  [[nodiscard]] double period() const noexcept { return period_; }

  /// Record one sample at boundary time `t` (the engine passes
  /// next_time(), with the virtual clock parked there so probes that
  /// read clock-relative state, e.g. resource backlog, see the boundary
  /// instant). Advances the boundary by one period.
  void sample(double t) {
    times_.push(t);
    ++samples_;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      series_[i].push(probes_[i]());
    }
    next_ += period_;
  }

  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return samples_;
  }

  /// {"period", "capacity", "samples", "dropped", "times": [...],
  ///  "series": {probe: [...]}} — series in probe registration order.
  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    j["period"] = Json(period_);
    j["capacity"] = Json(kSamplerCapacity);
    j["samples"] = Json(samples_);
    j["dropped"] = Json(times_.dropped());
    j["times"] = Json::array_of(times_.values());
    Json series = Json::object();
    for (std::size_t i = 0; i < names_.size(); ++i) {
      series[names_[i]] = Json::array_of(series_[i].values());
    }
    j["series"] = std::move(series);
    return j;
  }

 private:
  double period_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> probes_;
  std::vector<TimeSeries> series_;
  TimeSeries times_;
  std::uint64_t samples_ = 0;
  double next_;
};

}  // namespace lmas::obs
