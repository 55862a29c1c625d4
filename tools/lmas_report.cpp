/// lmas_report — render the telemetry blocks of a BENCH_*.json artifact
/// (schema lmas-bench-v1) as aligned ASCII: latency-quantile tables from
/// `histograms` blocks and per-probe sparklines from `time_series`
/// blocks. Reads artifacts produced with DsmSortConfig::telemetry
/// enabled (fig9_speedup's detailed cell, every fig10_adapt cell).
///
///   lmas_report [quantiles|series|tenants|racks|placer|all] BENCH_file.json
///   lmas_report diff A.json B.json
///
/// Blocks are found at the artifact root (fig9 style) and inside each
/// `results[]` entry (sweep style, labeled by the entry's `cell` or
/// `name` key). `tenants` groups the job-completion histograms of a
/// multi-tenant artifact (fig_tenancy) by tenant label: one row per
/// `dsm.job_seconds.<tenant>` block plus the aggregate. `racks` renders
/// the per-rack balance table of a hierarchical-topology artifact
/// (fig_scale): one row per `rack.queue.<r>` histogram — the
/// distribution of per-ASU mean queue length inside rack r — plus the
/// machine-wide aggregate. `placer` renders the load manager's decision
/// journal of a managed artifact (fig10_adapt, fig_tenancy): one row per
/// planned migration — tick time, client, instance, route, pre-copy vs
/// stop-copy, declared bytes, and the cost model's estimated stall and
/// expected gain.
///
/// `diff` exits 0 when two artifacts are equal once the root fields that
/// depend on the host machine (kMachineFields) are dropped; otherwise it
/// prints the path of the first difference and exits 1. Either way it
/// then prints the skipped fields side by side.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace obs = lmas::obs;

namespace {

struct Block {
  std::string label;      // "" for the artifact root
  const obs::Json* json;  // the histograms or time_series object
};

/// Collect a named block from the root and from every results[] entry.
std::vector<Block> find_blocks(const obs::Json& doc, const char* key) {
  std::vector<Block> out;
  if (const obs::Json* b = doc.find(key); b != nullptr && b->is_object()) {
    out.push_back({"", b});
  }
  if (const obs::Json* results = doc.find("results");
      results != nullptr && results->is_array()) {
    for (const obs::Json& entry : results->items()) {
      const obs::Json* b = entry.find(key);
      if (b == nullptr || !b->is_object()) continue;
      const obs::Json* cell = entry.find("cell");
      if (cell == nullptr) cell = entry.find("name");
      out.push_back({cell != nullptr ? cell->as_string() : "results[]", b});
    }
  }
  return out;
}

void print_quantiles(const Block& blk) {
  if (!blk.label.empty()) std::printf("\n[%s]\n", blk.label.c_str());
  std::size_t w = std::strlen("metric");
  for (const auto& [name, h] : blk.json->members()) {
    w = std::max(w, name.size());
  }
  std::printf("%-*s %10s %12s %12s %12s %12s %12s\n", int(w), "metric",
              "count", "mean(s)", "p50(s)", "p90(s)", "p99(s)", "max(s)");
  for (const auto& [name, h] : blk.json->members()) {
    const auto field = [&h = h](const char* k) {
      const obs::Json* v = h.find(k);
      return v != nullptr ? v->as_double() : 0.0;
    };
    std::printf("%-*s %10lld %12.6f %12.6f %12.6f %12.6f %12.6f\n", int(w),
                name.c_str(), static_cast<long long>(field("count")),
                field("mean"), field("p50"), field("p90"), field("p99"),
                field("max"));
  }
}

/// Per-tenant completion-time table: the `dsm.job_seconds.<tenant>`
/// histograms of one cell grouped by tenant label, the bare
/// `dsm.job_seconds` block as the (all) row. Cells without per-tenant
/// blocks (single-tenant artifacts) print nothing.
bool print_tenant_quantiles(const Block& blk) {
  static const std::string kAggregate = "dsm.job_seconds";
  static const std::string kPrefix = kAggregate + ".";
  std::vector<std::pair<std::string, const obs::Json*>> rows;
  for (const auto& [name, h] : blk.json->members()) {
    if (name.compare(0, kPrefix.size(), kPrefix) == 0) {
      rows.emplace_back(name.substr(kPrefix.size()), &h);
    }
  }
  if (rows.empty()) return false;
  if (const obs::Json* agg = blk.json->find(kAggregate); agg != nullptr) {
    rows.emplace_back("(all)", agg);
  }
  if (!blk.label.empty()) std::printf("\n[%s]\n", blk.label.c_str());
  std::size_t w = std::strlen("tenant");
  for (const auto& [name, h] : rows) w = std::max(w, name.size());
  std::printf("%-*s %10s %12s %12s %12s %12s %12s\n", int(w), "tenant",
              "jobs", "mean(s)", "p50(s)", "p90(s)", "p99(s)", "max(s)");
  for (const auto& [name, h] : rows) {
    const auto field = [h = h](const char* k) {
      const obs::Json* v = h->find(k);
      return v != nullptr ? v->as_double() : 0.0;
    };
    std::printf("%-*s %10lld %12.6f %12.6f %12.6f %12.6f %12.6f\n", int(w),
                name.c_str(), static_cast<long long>(field("count")),
                field("mean"), field("p50"), field("p90"), field("p99"),
                field("max"));
  }
  return true;
}

/// Per-rack balance table: the `rack.queue.<r>` histograms of one cell —
/// each the distribution of per-ASU mean queue length inside rack r —
/// with the bare `rack.queue` block as the (all) row. Flat-topology
/// artifacts carry no such keys and print nothing.
bool print_rack_quantiles(const Block& blk) {
  static const std::string kAggregate = "rack.queue";
  static const std::string kPrefix = kAggregate + ".";
  std::vector<std::pair<std::string, const obs::Json*>> rows;
  for (const auto& [name, h] : blk.json->members()) {
    if (name.compare(0, kPrefix.size(), kPrefix) == 0) {
      rows.emplace_back(name.substr(kPrefix.size()), &h);
    }
  }
  if (rows.empty()) return false;
  // Rack keys are numeric suffixes; order the table by rack id, not by
  // the registry's lexicographic key order ("10" before "2").
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size()) {
      return a.first.size() < b.first.size();
    }
    return a.first < b.first;
  });
  if (const obs::Json* agg = blk.json->find(kAggregate); agg != nullptr) {
    rows.emplace_back("(all)", agg);
  }
  if (!blk.label.empty()) std::printf("\n[%s]\n", blk.label.c_str());
  std::size_t w = std::strlen("rack");
  for (const auto& [name, h] : rows) w = std::max(w, name.size());
  std::printf("%-*s %10s %12s %12s %12s %12s %12s\n", int(w), "rack",
              "asus", "mean(q)", "p50(q)", "p90(q)", "p99(q)", "max(q)");
  for (const auto& [name, h] : rows) {
    const auto field = [h = h](const char* k) {
      const obs::Json* v = h->find(k);
      return v != nullptr ? v->as_double() : 0.0;
    };
    std::printf("%-*s %10lld %12.4f %12.4f %12.4f %12.4f %12.4f\n", int(w),
                name.c_str(), static_cast<long long>(field("count")),
                field("mean"), field("p50"), field("p90"), field("p99"),
                field("max"));
  }
  return true;
}

/// Collect the `placer` decision arrays (find_blocks only surfaces
/// objects; the journal is an array of decision records, so it needs its
/// own finder). A managed artifact carries the block even when no
/// migration was planned — presence is config-driven — so empty arrays
/// are collected too and render as a zero-row table.
std::vector<Block> find_placer_blocks(const obs::Json& doc) {
  std::vector<Block> out;
  if (const obs::Json* b = doc.find("placer"); b != nullptr && b->is_array()) {
    out.push_back({"", b});
  }
  if (const obs::Json* results = doc.find("results");
      results != nullptr && results->is_array()) {
    for (const obs::Json& entry : results->items()) {
      const obs::Json* b = entry.find("placer");
      if (b == nullptr || !b->is_array()) continue;
      const obs::Json* cell = entry.find("cell");
      if (cell == nullptr) cell = entry.find("name");
      out.push_back({cell != nullptr ? cell->as_string() : "results[]", b});
    }
  }
  return out;
}

/// Decision-journal table of one managed cell: what the budgeted placer
/// planned, when, and at what priced cost.
void print_placer(const Block& blk) {
  if (!blk.label.empty()) std::printf("\n[%s]\n", blk.label.c_str());
  if (blk.json->size() == 0) {
    std::printf("(managed, no migrations planned)\n");
    return;
  }
  std::printf("%10s %-12s %8s %-22s %-9s %12s %10s %10s\n", "t(s)",
              "client", "instance", "route", "mode", "bytes", "stall(s)",
              "gain(s)");
  for (const obs::Json& d : blk.json->items()) {
    const auto str = [&d](const char* k) {
      const obs::Json* v = d.find(k);
      return v != nullptr ? v->as_string() : std::string{};
    };
    const auto num = [&d](const char* k) {
      const obs::Json* v = d.find(k);
      return v != nullptr ? v->as_double() : 0.0;
    };
    const std::string route = str("from") + " -> " + str("to");
    const std::string client = str("client");
    std::printf("%10.4f %-12s %8lld %-22s %-9s %12lld %10.5f %10.4f\n",
                num("time"), client.empty() ? "-" : client.c_str(),
                static_cast<long long>(num("instance")), route.c_str(),
                str("mode").c_str(), static_cast<long long>(num("bytes")),
                num("est_stall_seconds"), num("gain_seconds"));
  }
}

/// One probe as a fixed-width sparkline: samples are bucketed into 64
/// columns (mean per column) and scaled to the probe's own max.
void print_series_line(const std::string& name, std::size_t name_w,
                       const std::vector<double>& v) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kCols = 64;
  double lo = 0, hi = 0;
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::string line;
  const std::size_t cols = std::min(kCols, v.size());
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t b0 = c * v.size() / cols;
    const std::size_t b1 = std::max(b0 + 1, (c + 1) * v.size() / cols);
    double acc = 0;
    for (std::size_t i = b0; i < b1; ++i) acc += v[i];
    const double mean = acc / double(b1 - b0);
    const double t = hi > 0 ? mean / hi : 0.0;
    const int r = int(t * (sizeof(kRamp) - 2) + 0.5);
    line.push_back(kRamp[std::clamp(r, 0, int(sizeof(kRamp) - 2))]);
  }
  std::printf("%-*s |%-*s| min %.3f max %.3f\n", int(name_w), name.c_str(),
              int(kCols), line.c_str(), lo, hi);
}

void print_series(const Block& blk) {
  if (!blk.label.empty()) std::printf("\n[%s]\n", blk.label.c_str());
  const obs::Json* times = blk.json->find("times");
  const obs::Json* series = blk.json->find("series");
  const obs::Json* period = blk.json->find("period");
  if (series == nullptr || !series->is_object()) return;
  if (times != nullptr && times->size() > 0 && period != nullptr) {
    std::printf("%zu samples, period %.4fs, t in [%.3f, %.3f]\n",
                times->size(), period->as_double(),
                times->at(std::size_t(0)).as_double(),
                times->at(times->size() - 1).as_double());
  }
  std::size_t w = 0;
  for (const auto& [name, s] : series->members()) w = std::max(w, name.size());
  for (const auto& [name, s] : series->members()) {
    std::vector<double> v;
    v.reserve(s.size());
    for (const obs::Json& x : s.items()) v.push_back(x.as_double());
    if (!v.empty()) print_series_line(name, w, v);
  }
}

/// Root fields of an artifact that measure the host machine and the
/// worker count (LMAS_JOBS), not the simulation: `diff` skips them.
constexpr std::array<std::string_view, 5> kMachineFields = {
    "jobs", "wall_clock_s", "cell_seconds_total", "parallel_speedup",
    "events_per_sec"};

/// The path ("/"-joined keys and indices) of the first place `a` and `b`
/// differ, or nullopt when they are equal.
std::optional<std::string> first_difference(const obs::Json& a,
                                            const obs::Json& b,
                                            const std::string& path,
                                            bool root = false) {
  if (a.type() != b.type()) return path;
  if (a.is_array()) {
    if (a.size() != b.size()) return path;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string at = path + "/" + std::to_string(i);
      if (auto d = first_difference(a.at(i), b.at(i), at)) return d;
    }
    return std::nullopt;
  }
  if (!a.is_object()) {  // a parsed scalar sets only its own field
    if (a.as_bool() == b.as_bool() && a.as_double() == b.as_double() &&
        a.as_string() == b.as_string()) {
      return std::nullopt;
    }
    return path;
  }
  const auto compared = [root](const std::string& key) {
    return !root || std::find(kMachineFields.begin(), kMachineFields.end(),
                              key) == kMachineFields.end();
  };
  for (const auto& [key, value] : a.members()) {
    if (!compared(key)) continue;
    const obs::Json* other = b.find(key);
    if (other == nullptr) return path + "/" + key;
    if (auto d = first_difference(value, *other, path + "/" + key)) return d;
  }
  for (const auto& [key, value] : b.members()) {
    if (compared(key) && a.find(key) == nullptr) return path + "/" + key;
  }
  return std::nullopt;
}

std::optional<obs::Json> load(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "lmas_report: cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  auto doc = obs::Json::parse(ss.str());
  if (!doc.has_value()) {
    std::fprintf(stderr, "lmas_report: %s is not valid JSON\n", path);
  }
  return doc;
}

/// The root fields `diff` skipped, A and B side by side with B's
/// relative delta from A (nan where a field is absent).
void print_machine_fields(const obs::Json& a, const obs::Json& b) {
  const auto value = [](const obs::Json& doc, std::string_view key) {
    const obs::Json* v = doc.find(key);
    return v != nullptr ? v->as_double() : std::nan("");
  };
  std::printf("  %-18s %12s %12s %9s\n", "skipped field", "A", "B", "delta");
  for (const std::string_view key : kMachineFields) {
    const double x = value(a, key);
    const double y = value(b, key);
    std::printf("  %-18.*s %12.6g %12.6g %+8.1f%%\n", int(key.size()),
                key.data(), x, y, (y - x) / x * 100);
  }
}

/// `lmas_report diff A B`: 0 when equal, 1 when they differ, 2 when
/// either file cannot be read.
int diff(const char* path_a, const char* path_b) {
  const auto a = load(path_a);
  const auto b = load(path_b);
  if (!a || !b) return 2;
  const auto d = first_difference(*a, *b, "", /*root=*/true);
  if (d) {
    std::printf("%s and %s differ at %s\n", path_a, path_b,
                d->empty() ? "/" : d->c_str());
  } else {
    std::printf("%s and %s are equal (machine-dependent root fields "
                "ignored)\n", path_a, path_b);
  }
  print_machine_fields(*a, *b);
  return d ? 1 : 0;
}

int usage() {
  std::fprintf(stderr, "usage: lmas_report [quantiles|series|tenants|racks|"
                       "placer|all] BENCH_file.json\n"
                       "       lmas_report diff A.json B.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "diff") == 0) {
    return diff(argv[2], argv[3]);
  }
  std::string mode = "all";
  const char* path = nullptr;
  if (argc == 2) {
    path = argv[1];
  } else if (argc == 3) {
    mode = argv[1];
    path = argv[2];
  } else {
    return usage();
  }
  if (mode != "quantiles" && mode != "series" && mode != "tenants" &&
      mode != "racks" && mode != "placer" && mode != "all") {
    return usage();
  }

  const auto doc = load(path);
  if (!doc.has_value()) return 1;

  if (const obs::Json* name = doc->find("bench"); name != nullptr) {
    std::printf("# %s (%s)\n", name->as_string().c_str(), path);
  }

  bool any = false;
  if (mode == "quantiles" || mode == "all") {
    const auto blocks = find_blocks(*doc, "histograms");
    if (!blocks.empty()) std::printf("\n== latency quantiles ==\n");
    for (const Block& b : blocks) {
      print_quantiles(b);
      any = true;
    }
  }
  if (mode == "tenants" || mode == "all") {
    const auto blocks = find_blocks(*doc, "histograms");
    bool header = false;
    for (const Block& b : blocks) {
      if (!header) {
        bool has = false;
        for (const auto& [name, h] : b.json->members()) {
          has = has || name.rfind("dsm.job_seconds.", 0) == 0;
        }
        if (!has) continue;
        std::printf("\n== per-tenant job completion ==\n");
        header = true;
      }
      any = print_tenant_quantiles(b) || any;
    }
  }
  if (mode == "racks" || mode == "all") {
    const auto blocks = find_blocks(*doc, "histograms");
    bool header = false;
    for (const Block& b : blocks) {
      if (!header) {
        bool has = false;
        for (const auto& [name, h] : b.json->members()) {
          has = has || name.rfind("rack.queue.", 0) == 0;
        }
        if (!has) continue;
        std::printf("\n== per-rack balance ==\n");
        header = true;
      }
      any = print_rack_quantiles(b) || any;
    }
  }
  if (mode == "placer" || mode == "all") {
    const auto blocks = find_placer_blocks(*doc);
    if (!blocks.empty()) std::printf("\n== placer decisions ==\n");
    for (const Block& b : blocks) {
      print_placer(b);
      any = true;
    }
  }
  if (mode == "series" || mode == "all") {
    const auto blocks = find_blocks(*doc, "time_series");
    if (!blocks.empty()) std::printf("\n== time series ==\n");
    for (const Block& b : blocks) {
      print_series(b);
      any = true;
    }
  }
  if (!any) {
    std::printf("# no telemetry blocks in %s (run the bench with "
                "DsmSortConfig::telemetry enabled)\n", path);
  }
  return 0;
}
