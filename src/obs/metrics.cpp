#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace lmas::obs {

namespace {

template <typename T, typename... Args>
T& find_or_create(
    std::unordered_map<std::string, std::unique_ptr<T>>& map,
    std::string_view name, Args&&... args) {
  if (auto it = map.find(std::string(name)); it != map.end()) {
    return *it->second;
  }
  auto [it, inserted] = map.emplace(
      std::string(name), std::make_unique<T>(std::forward<Args>(args)...));
  return *it->second;
}

template <typename T>
const T* find_in(
    const std::unordered_map<std::string, std::unique_ptr<T>>& map,
    std::string_view name) {
  auto it = map.find(std::string(name));
  return it == map.end() ? nullptr : it->second.get();
}

template <typename T>
std::vector<const std::pair<const std::string, std::unique_ptr<T>>*>
sorted_entries(
    const std::unordered_map<std::string, std::unique_ptr<T>>& map) {
  std::vector<const std::pair<const std::string, std::unique_ptr<T>>*> out;
  out.reserve(map.size());
  for (const auto& e : map) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

Json fixed_histogram_json(const Histogram& h) {
  Json j = Json::object();
  j["count"] = Json(h.count());
  j["sum"] = Json(h.sum());
  j["bounds"] = Json::array_of(h.bounds());
  j["buckets"] = Json::array_of(h.bucket_counts());
  return j;
}

}  // namespace

void MetricsRegistry::ensure_name_free(std::string_view name,
                                       const void* self) const {
  const std::string key(name);
  const char* kind = nullptr;
  if (static_cast<const void*>(&counters_) != self &&
      counters_.contains(key)) {
    kind = "counter";
  } else if (static_cast<const void*>(&gauges_) != self &&
             gauges_.contains(key)) {
    kind = "gauge";
  } else if (static_cast<const void*>(&histograms_) != self &&
             histograms_.contains(key)) {
    kind = "histogram";
  } else if (static_cast<const void*>(&latencies_) != self &&
             latencies_.contains(key)) {
    kind = "latency histogram";
  }
  if (kind != nullptr) {
    throw std::invalid_argument(
        "MetricsRegistry: metric name '" + key +
        "' is already registered as a " + kind +
        " — one name maps to one instrument kind (duplicate names would "
        "emit ambiguous snapshot keys)");
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (const Counter* c = find_in(counters_, name)) {
    return const_cast<Counter&>(*c);
  }
  ensure_name_free(name, &counters_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (const Gauge* g = find_in(gauges_, name)) {
    return const_cast<Gauge&>(*g);
  }
  ensure_name_free(name, &gauges_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  if (const Histogram* h = find_in(histograms_, name)) {
    return const_cast<Histogram&>(*h);
  }
  ensure_name_free(name, &histograms_);
  return find_or_create(histograms_, name, std::move(upper_bounds));
}

LatencyHistogram& MetricsRegistry::latency(std::string_view name) {
  if (const LatencyHistogram* h = find_in(latencies_, name)) {
    return const_cast<LatencyHistogram&>(*h);
  }
  ensure_name_free(name, &latencies_);
  return find_or_create(latencies_, name);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_in(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  return find_in(histograms_, name);
}

const LatencyHistogram* MetricsRegistry::find_latency(
    std::string_view name) const {
  return find_in(latencies_, name);
}

std::size_t MetricsRegistry::add_collector(std::function<void()> fn) {
  const std::size_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_collector(std::size_t id) {
  std::erase_if(collectors_,
                [id](const auto& e) { return e.first == id; });
}

Json MetricsRegistry::snapshot() const {
  // Collectors publish owner-side state (and may create instruments), so
  // they must run before the maps are walked.
  for (const auto& [id, fn] : collectors_) fn();
  // Every section walks name-sorted entries, and ensure_name_free keeps a
  // name in one kind only, so each key is new to its section: append()
  // needs no lookup and the snapshot costs O(n log n) in instruments.
  Json out = Json::object();
  Json& counters = out.append("counters", Json::object());
  for (const auto* e : sorted_entries(counters_)) {
    counters.append(e->first, Json(e->second->value()));
  }
  Json& gauges = out.append("gauges", Json::object());
  for (const auto* e : sorted_entries(gauges_)) {
    gauges.append(e->first, Json(e->second->value()));
  }
  // Both histogram kinds share one section, name-sorted across kinds:
  // merge the two sorted lists.
  Json& hists = out.append("histograms", Json::object());
  const auto fixed = sorted_entries(histograms_);
  const auto logged = sorted_entries(latencies_);
  auto f = fixed.begin();
  auto l = logged.begin();
  while (f != fixed.end() || l != logged.end()) {
    if (l == logged.end() || (f != fixed.end() && (*f)->first < (*l)->first)) {
      hists.append((*f)->first, fixed_histogram_json(*(*f)->second));
      ++f;
    } else {
      hists.append((*l)->first, (*l)->second->to_json());
      ++l;
    }
  }
  return out;
}

Json MetricsRegistry::latency_summaries() const {
  Json out = Json::object();
  for (const auto* e : sorted_entries(latencies_)) {
    out.append(e->first, e->second->summary_json());
  }
  return out;
}

}  // namespace lmas::obs
