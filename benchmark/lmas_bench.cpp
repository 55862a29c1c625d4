/// lmas_bench: the repository benchmark program.
///
///   lmas_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
///              [--out DIR]
///
/// One invocation runs one workload serially in this process. It sets up
/// three times (build the inputs from the seed, then one discarded warm-up
/// repetition) and then repeats the workload until it has done at least the
/// workload's minimum number of repetitions and `--seconds` have passed.
/// A repetition is one call of the public entry point (core::run_dsm_sort or
/// tenant::run_tenancy) plus serializing its report the way a bench artifact
/// does (*_report_to_json + dump). Every repetition must pass the report's
/// own checks and reproduce the first warm-up's execution digest.
///
/// Host times are reported at reference host speed: a fixed set of kernels,
/// timed before every timed repetition, measures how fast the host runs
/// right now (see HostSpeed).
///
/// With --trace 1, every other timed repetition records wall-clock spans,
/// and the run ends with replay probes: each layer's public functions are
/// timed on the workload's own inputs, and multiplied by the counts the
/// run's report and metrics snapshot give (per-layer metrics).
///
/// Prints every metric as `workload metric value unit`, and writes
/// DIR/result_<workload>.json (medians, quartiles, per-repetition values,
/// digests) and, when traced, DIR/trace_<workload>.json (the spans).
/// Exit status: 0 all checks passed, 1 a check failed, 2 bad arguments,
/// 3 the run threw or its output could not be written.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "asu/asu.hpp"
#include "core/core.hpp"
#include "core/splitters.hpp"
#include "extmem/extmem.hpp"
#include "fault/fault.hpp"
#include "obs/report.hpp"
#include "sim/sim.hpp"
#include "tenant/tenant.hpp"

namespace {

namespace asu = lmas::asu;
namespace core = lmas::core;
namespace em = lmas::em;
namespace obs = lmas::obs;
namespace sim = lmas::sim;
namespace tenant = lmas::tenant;

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Statistics, computed as Python's statistics.median and
// statistics.quantiles(values, n=4) compute them, so compare.py and this
// file agree on every quartile.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartile i (1 or 3) by the 'exclusive' method.
double quartile(std::vector<double> v, int i) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const long ld = long(v.size());
  if (ld == 1) return v[0];
  const long m = ld + 1;
  const long j = std::clamp(i * m / 4, 1L, ld - 1);
  const long delta = i * m - j * 4;
  return (v[std::size_t(j - 1)] * double(4 - delta) +
          v[std::size_t(j)] * double(delta)) /
         4.0;
}

// ---------------------------------------------------------------------------
// Host speed. On shared virtual machines the host's speed drifts by 10% or
// more over tens of seconds, with no steal time visible inside the guest,
// so run medians of raw wall time differ by that much between runs. Four
// fixed kernels, timed before every timed repetition, measure the drift:
// integer arithmetic, linear scans over registry-like string keys, a
// dependent random walk over 32 MiB (memory latency), and first touches of
// a fresh 16 MiB buffer (page faults). Host times are reported scaled by
// (kReferenceSeconds / the run's median sample) ^ kHostSensitivity, which
// puts them at the speed of the host the baseline was measured on. The
// kernels are the benchmark's own code, so every commit is measured against
// the same reference. Never change either constant: every recorded host
// time is relative to them.

/// HostSpeed::sample() on the baseline host, rounded.
constexpr double kReferenceSeconds = 0.010;

/// How much more the workloads' repetitions slow down than the kernels do
/// (the simulator is more memory-bound than the kernel mix). Over five
/// ten-seed passes on the baseline host (13 workload runs of ten), 1.5 gave
/// the smallest worst-case spread of run medians: 8%, against 14% at 1 and
/// 27% unscaled.
constexpr double kHostSensitivity = 1.5;

class HostSpeed {
 public:
  HostSpeed() : keys_(30000), walk_(std::size_t(1) << 23) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      keys_[i] = "tenant.j" + std::to_string(i) + ".to_sort.routed.1";
    }
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < walk_.size(); ++i) walk_[i] = i;
    std::uint64_t x = 42;
    for (std::size_t i = walk_.size() - 1; i > 0; --i) {
      x = sim::splitmix64_once(x);
      std::swap(walk_[i], walk_[x % i]);
    }
    // The first two samples of a process run ~50% slow; discard them.
    sample();
    sample();
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times each kernel once; returns the geometric mean of their seconds.
  double sample() {
    std::uint64_t acc = sink_;
    const double alu = timed([&] {
      std::uint64_t x = acc | 1;
      for (int i = 0; i < 10'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x += std::uint64_t(i);
      }
      acc += x;
    });
    const double scan = timed([&] {
      for (std::size_t q = 0; q < 300; ++q) {
        const std::string& key = keys_[(q * 7919 + acc % 7) % keys_.size()];
        acc += std::uint64_t(std::find(keys_.begin(), keys_.end(), key) -
                             keys_.begin());
      }
    });
    const double walk = timed([&] {
      std::uint32_t p = std::uint32_t(acc % walk_.size());
      for (int i = 0; i < 200'000; ++i) p = walk_[p];
      acc += p;
    });
    const double fault = timed([&] {
      std::vector<char> fresh(std::size_t(16) << 20);
      for (std::size_t i = 0; i < fresh.size(); i += 4096) {
        fresh[i] = char(acc + i);
      }
      acc += std::uint64_t(fresh[acc % fresh.size()]);
    });
    sink_ = acc;
    return std::pow(alu * scan * walk * fault, 0.25);
  }

 private:
  template <typename F>
  static double timed(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    return seconds_since(t0);
  }

  std::vector<std::string> keys_;
  std::vector<std::uint32_t> walk_;
  volatile std::uint64_t sink_ = 0;  // keeps the kernels' results live
};

// ---------------------------------------------------------------------------
// Spans: recorded around the benchmark's own calls into the library.

class Spans {
 public:
  void set_recording(bool on) noexcept { recording_ = on; }

  /// Runs `f` (inside a span named `name` while recording) and returns the
  /// wall seconds it took.
  template <typename F>
  double time(const std::string& name, F&& f) {
    const int id = recording_ ? open(name) : -1;
    const Clock::time_point t0 = Clock::now();
    f();
    const double dt = seconds_since(t0);
    if (id >= 0) close(id);
    return dt;
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json arr = obs::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      obs::Json s = obs::Json::object();
      s["id"] = i;
      s["name"] = spans_[i].name;
      s["start_s"] = spans_[i].start;
      s["end_s"] = spans_[i].end;
      s["parent"] = spans_[i].parent;
      arr.push_back(std::move(s));
    }
    return arr;
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int open(const std::string& name) {
    spans_.push_back({name, seconds_since(kProcessStart), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[std::size_t(id)].end = seconds_since(kProcessStart);
    stack_.pop_back();
  }

  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Metrics: every value the invocation reports, in report order.

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  std::vector<double> values;
};

class Metrics {
 public:
  void add(std::string name, std::string unit, std::string better,
           std::vector<double> values) {
    m_.push_back({std::move(name), std::move(unit), std::move(better),
                  std::move(values)});
  }
  void add(std::string name, std::string unit, std::string better,
           double value) {
    add(std::move(name), std::move(unit), std::move(better),
        std::vector<double>{value});
  }

  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return m_; }

 private:
  std::vector<Metric> m_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// One repetition's outcome.
struct Rep {
  double wall_s = 0;  // entry point + report serialization
  double report_json_s = 0;
  std::uint64_t digest = 0;
  double records = 0;  // input records processed
  double events = 0;   // simulator events
  std::size_t ops = 0;  // operations attempted: the sort, or each job
  std::size_t failed_ops = 0;
  std::vector<std::string> failures;
};

/// One producer's key input: the generator a DSM-Sort (or embedded DSM-Sort
/// job) seeded with `seed` draws ASU `asu`'s share from.
struct KeyStream {
  core::KeyDist dist = core::KeyDist::Uniform;
  std::size_t records = 0;
  std::uint64_t seed = 0;
  unsigned asu = 0;
  std::size_t job = 0;
};

/// Everything the per-layer probes take from a workload.
struct LayerView {
  const obs::Json* snapshot = nullptr;  // the last repetition's registry
  asu::MachineParams machine;
  double sim_events = 0;
  std::vector<KeyStream> streams;  // DSM-Sort inputs, grouped by job
  unsigned alpha = 0;
  std::size_t beta = 0;
  std::vector<std::uint32_t> splitters;  // empty: range classifier
  double records_final = 0;              // pass-2 output records
  double lm_switches = 0;
  double lm_migrations = 0;
  double lm_decisions = 0;
  double admission_waits = 0;
  double jobs_submitted = 0;
  std::vector<double> arrivals_s;  // tenant::ArrivalProcess construction
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t min_reps() const = 0;
  /// Builds the inputs: configs, fault plans, splitters, arrivals.
  virtual void build_inputs() = 0;
  /// One repetition; keeps its report for the methods below.
  virtual Rep run(Spans& spans) = 0;
  /// Modelled (simulated-time) metrics of the last repetition.
  virtual void modelled(Metrics& out) const = 0;
  /// Measurements made once per untraced invocation.
  virtual void extra(Metrics&, std::vector<std::string>&) {}
  [[nodiscard]] virtual LayerView layer_view(Spans& spans) = 0;
};

/// DSM-Sort's per-ASU input share (records are dealt evenly, remainder to
/// the lowest ASUs).
std::size_t local_share(std::size_t n, unsigned d, unsigned a) {
  return n / d + (a < n % d ? 1 : 0);
}

/// Records per packet, as DSM-Sort derives it when packet_records == 0:
/// alpha staging buffers must fit in ASU memory.
std::size_t packet_capacity(const asu::MachineParams& mp, unsigned alpha) {
  const std::size_t by_memory =
      mp.asu_memory / (std::size_t(alpha) * mp.record_bytes);
  return std::clamp<std::size_t>(by_memory, 64, 4096);
}

double histogram_quantile(const obs::Json& hists, const char* name,
                          const char* q) {
  const obs::Json* h = hists.find(name);
  const obs::Json* v = h != nullptr ? h->find(q) : nullptr;
  return v != nullptr ? v->as_double() : 0.0;
}

/// Both sort workloads: 2 hosts + 16 ASUs at c = 8, one DSM-Sort per
/// repetition.
class SortWorkload : public Workload {
 public:
  Rep run(Spans& spans) override {
    Rep r;
    report_ = {};
    std::string artifact;
    r.wall_s = spans.time("rep", [&] {
      spans.time("run", [&] { report_ = core::run_dsm_sort(mp_, cfg_); });
      r.report_json_s = spans.time("report_json", [&] {
        artifact = core::dsm_report_to_json(report_).dump();
      });
    });
    const std::size_t n = cfg_.total_records;
    r.digest = report_.digest;
    r.records = double(report_.records_in);
    r.events = double(report_.sim_events);
    r.ops = 1;
    if (!report_.ok()) {
      r.failures.push_back(
          "report checks failed (runs_sorted " +
          std::to_string(report_.runs_sorted_ok) + ", subsets " +
          std::to_string(report_.subsets_ok) + ", checksum " +
          std::to_string(report_.checksum_ok) + ", final_sorted " +
          std::to_string(report_.final_sorted_ok) + ")");
    }
    if (report_.records_in != n || report_.records_stored != n ||
        (cfg_.run_merge_pass && report_.records_final != n)) {
      r.failures.push_back("records not conserved: in " +
                           std::to_string(report_.records_in) + ", stored " +
                           std::to_string(report_.records_stored) +
                           ", final " + std::to_string(report_.records_final) +
                           ", expected " + std::to_string(n));
    }
    r.failed_ops = r.failures.empty() ? 0 : 1;
    return r;
  }

  LayerView layer_view(Spans&) override {
    LayerView v;
    v.snapshot = &report_.metrics;
    v.machine = mp_;
    v.sim_events = double(report_.sim_events);
    for (unsigned a = 0; a < mp_.num_asus; ++a) {
      v.streams.push_back({cfg_.key_dist,
                           local_share(cfg_.total_records, mp_.num_asus, a),
                           cfg_.seed, a, 0});
    }
    v.alpha = cfg_.alpha;
    v.beta = cfg_.beta();
    v.splitters = splitters_;
    v.records_final = double(report_.records_final);
    v.lm_switches = double(report_.lm_router_switches);
    v.lm_migrations = double(report_.lm_migrations);
    v.lm_decisions = double(report_.lm_decisions.size());
    return v;
  }

 protected:
  explicit SortWorkload(std::uint64_t seed) : seed_(seed) {}

  static asu::MachineParams machine(double asu_background_load) {
    asu::MachineParams mp;
    mp.num_hosts = 2;
    mp.num_asus = 16;
    mp.c = 8.0;
    mp.util_bin = 0.05;
    mp.asu_background_load = asu_background_load;
    return mp;
  }

  std::uint64_t seed_;
  asu::MachineParams mp_;
  core::DsmSortConfig cfg_;
  std::vector<std::uint32_t> splitters_;
  core::DsmSortReport report_;
};

/// Figure 10's skewed pass 1 under the severe fault plan, with the load
/// manager acting.
class SortSkewManaged final : public SortWorkload {
 public:
  explicit SortSkewManaged(std::uint64_t seed) : SortWorkload(seed) {}

  std::size_t min_reps() const override { return 14; }

  void build_inputs() override {
    mp_ = machine(/*asu_background_load=*/0.25);
    core::DsmSortConfig cfg;
    cfg.total_records = std::size_t(1) << 23;
    cfg.alpha = 16;
    cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
    cfg.sort_router = core::RouterKind::Static;
    cfg.seed = seed_;
    // The fault windows and the control loop scale with the predicted
    // pass-1 time H, as in fig10_adapt's severe managed cell.
    const double H = core::predict_pass1(mp_, cfg).seconds;
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = H / 64.0;
    cfg.load_manager.promote_hysteresis = 2;
    cfg.load_manager.demote_hysteresis = 4;
    cfg.load_manager.cooldown_samples = 4;
    cfg.load_manager.migrate_hysteresis = 2;
    cfg.load_manager.dwell_samples = 8;
    cfg.load_manager.budget_moves_per_tick = 2;
    cfg.faults.slowdown(/*on_asu=*/false, 0, 0.35 * H, 0.30 * H, 3.0);
    cfg.faults.crash(/*on_asu=*/true, 3, 0.15 * H, 0.05 * H);
    cfg.faults.normalize();
    cfg.telemetry.histograms = true;
    cfg.telemetry.sampler = true;
    cfg.telemetry.sample_period = H / 64.0;
    cfg_ = std::move(cfg);
  }

  void modelled(Metrics& out) const override {
    out.add("sim_makespan_s", "sim_s", "lower", report_.makespan);
    out.add("sim_packet_wait_p50_s", "sim_s", "lower",
            histogram_quantile(report_.histograms,
                               "to_sort.queue_wait_seconds", "p50"));
    out.add("sim_packet_wait_p99_s", "sim_s", "lower",
            histogram_quantile(report_.histograms,
                               "to_sort.queue_wait_seconds", "p99"));
    out.add("sim_host_imbalance", "ratio", "lower",
            report_.mean_host_imbalance);
  }
};

/// Pass 1 + pass 2 with sampled splitters: classify by binary search and
/// exercise the merge side; no load manager, faults or telemetry.
class SortMergeSampled final : public SortWorkload {
 public:
  explicit SortMergeSampled(std::uint64_t seed) : SortWorkload(seed) {}

  std::size_t min_reps() const override { return 10; }

  void build_inputs() override {
    mp_ = machine(/*asu_background_load=*/0.0);
    core::DsmSortConfig cfg;
    cfg.total_records = std::size_t(1) << 22;
    cfg.alpha = 64;
    cfg.key_dist = core::KeyDist::Exponential;
    cfg.splitters = core::DsmSortConfig::Splitters::Sampled;
    cfg.run_merge_pass = true;
    cfg.seed = seed_;
    cfg_ = std::move(cfg);
    // The splitter pre-pass, sampled as DSM-Sort samples it: every
    // (share / 4096)-th key of each ASU's input stream.
    std::vector<std::uint32_t> sample;
    for (unsigned a = 0; a < mp_.num_asus; ++a) {
      const std::size_t n_local =
          local_share(cfg_.total_records, mp_.num_asus, a);
      core::KeyGenerator gen(
          cfg_.key_dist, n_local,
          sim::Rng(cfg_.seed).stream(sim::stream_id("workload", a)));
      const std::size_t stride = std::max<std::size_t>(1, n_local / 4096);
      for (std::size_t i = 0; i < n_local; ++i) {
        const std::uint32_t k = gen.next();
        if (i % stride == 0) sample.push_back(k);
      }
    }
    splitters_ = core::choose_splitters(std::move(sample), cfg_.alpha);
  }

  void modelled(Metrics& out) const override {
    out.add("sim_makespan_s", "sim_s", "lower", report_.makespan);
  }
};

/// Open-loop multi-tenant serving of many small jobs under the cross-job
/// load manager.
class TenancySmallJobs final : public Workload {
 public:
  explicit TenancySmallJobs(std::uint64_t seed) : seed_(seed) {}

  std::size_t min_reps() const override { return 7; }

  void build_inputs() override {
    mp_ = asu::MachineParams{};
    mp_.num_hosts = 2;
    mp_.num_asus = 8;
    mp_.c = 4.0;
    cfg_ = config(balanced_seed(kJobs), kJobs, kOfferedRate);
    arrivals_ = std::make_unique<tenant::ArrivalProcess>(cfg_);
  }

  Rep run(Spans& spans) override {
    Rep r;
    report_ = {};
    std::string artifact;
    r.wall_s = spans.time("rep", [&] {
      spans.time("run", [&] { report_ = tenant::run_tenancy(mp_, cfg_); });
      r.report_json_s = spans.time("report_json", [&] {
        artifact = tenant::tenancy_report_to_json(report_).dump();
      });
    });
    r.digest = report_.digest;
    r.events = double(report_.sim_events);
    r.ops = cfg_.total_jobs;
    if (report_.jobs_submitted != cfg_.total_jobs ||
        report_.jobs_completed != report_.jobs_submitted) {
      r.failures.push_back(
          std::to_string(report_.jobs_completed) + " of " +
          std::to_string(cfg_.total_jobs) + " jobs completed (" +
          std::to_string(report_.jobs_submitted) + " submitted)");
    }
    std::size_t completed = 0;
    for (const tenant::TenantStats& t : report_.tenants) {
      r.records += double(t.records_in);
      completed += t.jobs_completed;
      if (!t.conservation_ok || t.records_in != t.records_out) {
        r.failed_ops += t.jobs_completed;
        r.failures.push_back("tenant " + t.name +
                             " did not conserve records (in " +
                             std::to_string(t.records_in) + ", out " +
                             std::to_string(t.records_out) + ")");
      }
    }
    r.failed_ops += cfg_.total_jobs - std::min(completed, cfg_.total_jobs);
    return r;
  }

  void modelled(Metrics& out) const override {
    out.add("sim_makespan_s", "sim_s", "lower", report_.makespan);
    out.add("sim_job_p50_s", "sim_s", "lower", report_.p50_job_seconds);
    out.add("sim_job_p99_s", "sim_s", "lower", report_.p99_job_seconds);
    out.add("sim_goodput_jobs_per_s", "jobs/sim_s", "higher",
            report_.goodput_jobs_per_sec);
  }

  /// The highest offered rate that meets the latency limit: a 6-step
  /// bisection over [500, 2500] jobs/sim-s with kRateJobs jobs per step.
  void extra(Metrics& out, std::vector<std::string>& failures) override {
    const std::uint64_t seed = balanced_seed(kRateJobs);
    double lo = 500, hi = 2500;
    for (int step = 0; step < 6; ++step) {
      const double mid = 0.5 * (lo + hi);
      const tenant::TenancyConfig cfg = config(seed, kRateJobs, mid);
      const double last_arrival =
          tenant::ArrivalProcess(cfg).events().back().time;
      const tenant::TenancyReport r = tenant::run_tenancy(mp_, cfg);
      if (!r.ok()) {
        failures.push_back("max-rate step at " + fmt(mid) +
                           " jobs/sim-s: report checks failed");
      }
      const bool meets = r.ok() && r.p99_job_seconds <= kP99Limit &&
                         r.makespan - last_arrival <= kBacklogLimit;
      (meets ? lo : hi) = mid;
    }
    out.add("sim_max_rate_jobs_per_s", "jobs/sim_s", "higher", lo);
  }

  LayerView layer_view(Spans& spans) override {
    LayerView v;
    v.snapshot = &report_.metrics;
    v.machine = mp_;
    v.sim_events = double(report_.sim_events);
    std::size_t job = 0;
    for (const tenant::ArrivalEvent& ev : arrivals_->events()) {
      if (ev.kind != tenant::JobKind::DsmSort) continue;
      for (unsigned a = 0; a < mp_.num_asus; ++a) {
        v.streams.push_back({core::KeyDist::HalfUniformHalfExp,
                             local_share(ev.records, mp_.num_asus, a),
                             ev.job_seed, a, job});
      }
      ++job;
    }
    v.alpha = cfg_.job_alpha;
    v.beta = (std::size_t(1) << cfg_.job_log2_alpha_beta) / cfg_.job_alpha;
    v.lm_switches = double(report_.lm_router_switches);
    v.lm_migrations = double(report_.lm_migrations);
    v.lm_decisions = double(report_.lm_decisions.size());
    v.admission_waits = double(report_.admission_waits);
    v.jobs_submitted = double(report_.jobs_submitted);
    for (int i = 0; i < 5; ++i) {
      v.arrivals_s.push_back(spans.time("probe.tenant.arrivals", [&] {
        const tenant::ArrivalProcess ap(cfg_);
        if (ap.events().size() != cfg_.total_jobs) {
          throw std::logic_error("arrival schedule has the wrong length");
        }
      }));
    }
    return v;
  }

 private:
  static constexpr std::size_t kJobs = 1500;
  static constexpr double kOfferedRate = 1500.0;  // jobs per sim second
  static constexpr std::size_t kRateJobs = 1000;
  static constexpr double kP99Limit = 0.020;      // sim seconds
  static constexpr double kBacklogLimit = 0.020;  // makespan - last arrival

  /// The run seed: the first one derived from the benchmark seed whose
  /// schedule gives alice, who submits the DSM-Sort jobs, exactly half of
  /// the jobs (her arrival-weight share). Each DSM-Sort job registers its
  /// own instruments, and the end-of-run snapshot's cost grows faster than
  /// their count, so an unconditioned draw moves host time by ~25% across
  /// seeds. Arrival times, tenant order and every job's keys still vary.
  [[nodiscard]] std::uint64_t balanced_seed(std::size_t jobs) const {
    for (std::uint64_t k = 0; k < 100000; ++k) {
      const std::uint64_t seed =
          sim::Rng(seed_).stream(sim::stream_id("benchmark.tenancy", k)).next();
      const tenant::ArrivalProcess arrivals(config(seed, jobs, kOfferedRate));
      std::size_t sorts = 0;
      for (const tenant::ArrivalEvent& ev : arrivals.events()) {
        sorts += ev.kind == tenant::JobKind::DsmSort;
      }
      if (sorts == jobs / 2) return seed;
    }
    throw std::runtime_error("no arrival schedule with the expected job mix");
  }

  [[nodiscard]] static tenant::TenancyConfig config(std::uint64_t seed,
                                                    std::size_t jobs,
                                                    double rate) {
    tenant::TenancyConfig cfg;
    tenant::TenantSpec alice;
    alice.name = "alice";
    alice.fair_share_weight = 2.0;
    alice.arrival_weight = 2.0;
    alice.mix = {{tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 12},
                 {tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 11}};
    tenant::TenantSpec bob;
    bob.name = "bob";
    bob.mix = {{tenant::JobKind::ActiveScan, 1.0, std::size_t(1) << 13}};
    tenant::TenantSpec carol;
    carol.name = "carol";
    carol.mix = {{tenant::JobKind::RTreeBulkLoad, 1.0, std::size_t(1) << 12}};
    cfg.tenants = {alice, bob, carol};
    cfg.offered_rate = rate;
    cfg.total_jobs = jobs;
    cfg.seed = seed;
    cfg.max_in_flight = 4;
    cfg.job_alpha = 8;
    cfg.job_log2_alpha_beta = 10;
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = 0.55e-3;
    cfg.load_manager.promote_hysteresis = 2;
    cfg.load_manager.demote_hysteresis = 4;
    cfg.load_manager.cooldown_samples = 2;
    cfg.load_manager.migrate_hysteresis = 2;
    cfg.load_manager.dwell_samples = 4;
    return cfg;
  }

  std::uint64_t seed_;
  asu::MachineParams mp_;
  tenant::TenancyConfig cfg_;
  std::unique_ptr<tenant::ArrivalProcess> arrivals_;
  tenant::TenancyReport report_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sort_skew_managed") {
    return std::make_unique<SortSkewManaged>(seed);
  }
  if (name == "sort_merge_sampled") {
    return std::make_unique<SortMergeSampled>(seed);
  }
  if (name == "tenancy_small_jobs") {
    return std::make_unique<TenancySmallJobs>(seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-layer probes: each times one layer's public functions on the
// workload's own inputs and returns nanoseconds per operation.

constexpr std::size_t kProbeOps = std::size_t(1) << 20;
constexpr std::size_t kMergeFanIn = 16;  // sort_merge_sampled's n / 2^18

template <typename F>
double median_of_3(F&& f) {
  return median({f(), f(), f()});
}

/// Nanoseconds per operation, for `ops` operations timed from `t0`.
double ns_per_op(Clock::time_point t0, double ops) {
  return seconds_since(t0) * 1e9 / std::max(ops, 1.0);
}

sim::Task<> sleeper(sim::Engine& eng, std::size_t n, double dt) {
  for (std::size_t i = 0; i < n; ++i) co_await eng.sleep(dt);
}

/// Engine::run over processes that only sleep and resume.
double probe_engine_ns_per_event() {
  return median_of_3([] {
    sim::Engine eng;
    for (int k = 0; k < 64; ++k) {
      eng.spawn(sleeper(eng, kProbeOps / 64, 1e-6 * (k + 1)));
    }
    const Clock::time_point t0 = Clock::now();
    eng.run();
    return ns_per_op(t0, double(eng.events_processed()));
  });
}

sim::Task<> asu_traffic(asu::Cluster& cluster, unsigned a, std::size_t n,
                        std::size_t bytes) {
  asu::Node& node = cluster.asu(a);
  asu::Node& host = cluster.host(a % cluster.num_hosts());
  for (std::size_t i = 0; i < n; ++i) {
    co_await node.compute(1e-6);
    co_await cluster.network().transfer(node, host, bytes);
  }
}

/// Sums the values in one section of a registry snapshot whose names start
/// with `prefix` and end with `suffix`; for histograms, sums their `field`.
double sum_of(const obs::Json& snapshot, const char* section,
              std::string_view prefix, std::string_view suffix,
              const char* field = nullptr) {
  double total = 0;
  if (const obs::Json* sec = snapshot.find(section)) {
    for (const auto& [name, v] : sec->members()) {
      if (!name.starts_with(prefix) || !name.ends_with(suffix)) continue;
      const obs::Json* x = field != nullptr ? v.find(field) : &v;
      if (x != nullptr) total += x->as_double();
    }
  }
  return total;
}

/// Node::compute and Network::transfer on a cluster built from the
/// workload's machine; requests are counted by the resources themselves.
double probe_asu_ns_per_request(const asu::MachineParams& mp) {
  return median_of_3([&] {
    sim::Engine eng;
    asu::Cluster cluster(eng, mp);
    const std::size_t per_asu = kProbeOps / 4 / mp.num_asus;
    for (unsigned a = 0; a < mp.num_asus; ++a) {
      eng.spawn(asu_traffic(cluster, a, per_asu, 64 * mp.record_bytes));
    }
    const Clock::time_point t0 = Clock::now();
    eng.run();
    const double ns = ns_per_op(t0, 1.0);
    return ns / sum_of(eng.metrics().snapshot(), "counters", "", ".requests");
  });
}

/// KeyGenerator::next over every stream: exactly the keys the run draws.
std::vector<std::vector<em::KeyRecord>> generate_keys(
    const std::vector<KeyStream>& streams, double& ns_per_record) {
  std::vector<std::vector<em::KeyRecord>> out(streams.size());
  std::size_t total = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const KeyStream& ks = streams[s];
    core::KeyGenerator gen(
        ks.dist, ks.records,
        sim::Rng(ks.seed).stream(sim::stream_id("workload", ks.asu)));
    out[s].resize(ks.records);
    for (std::size_t i = 0; i < ks.records; ++i) {
      out[s][i] = {gen.next(), std::uint32_t(i)};
    }
    total += ks.records;
  }
  ns_per_record = ns_per_op(t0, double(total));
  return out;
}

/// Classifies every key; returns ns per record and fills `bucket`.
template <typename Classifier>
double classify_keys(const Classifier& cls,
                     const std::vector<std::vector<em::KeyRecord>>& keys,
                     std::vector<std::vector<std::uint32_t>>& bucket) {
  bucket.resize(keys.size());
  std::size_t total = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < keys.size(); ++s) {
    bucket[s].resize(keys[s].size());
    for (std::size_t i = 0; i < keys[s].size(); ++i) {
      bucket[s][i] = std::uint32_t(cls(keys[s][i]));
    }
    total += keys[s].size();
  }
  return ns_per_op(t0, double(total));
}

/// std::sort of beta-record runs, each cut from one job's bucket.
double probe_sort_ns_per_record(
    const LayerView& v, const std::vector<std::vector<em::KeyRecord>>& keys,
    const std::vector<std::vector<std::uint32_t>>& bucket) {
  std::vector<std::vector<em::KeyRecord>> buckets;
  std::vector<std::vector<em::KeyRecord>> runs;
  for (std::size_t s = 0; s < keys.size();) {
    const std::size_t job = v.streams[s].job;
    buckets.assign(v.alpha, {});
    for (; s < keys.size() && v.streams[s].job == job; ++s) {
      for (std::size_t i = 0; i < keys[s].size(); ++i) {
        buckets[bucket[s][i]].push_back(keys[s][i]);
      }
    }
    for (const auto& b : buckets) {
      for (std::size_t off = 0; off < b.size(); off += v.beta) {
        const std::size_t end = std::min(b.size(), off + v.beta);
        runs.emplace_back(b.begin() + long(off), b.begin() + long(end));
      }
    }
  }
  std::size_t total = 0;
  const Clock::time_point t0 = Clock::now();
  for (auto& run : runs) {
    std::sort(run.begin(), run.end());
    total += run.size();
  }
  const double ns = ns_per_op(t0, double(total));
  for (const auto& run : runs) {
    if (!std::is_sorted(run.begin(), run.end())) {
      throw std::logic_error("sort probe produced an unsorted run");
    }
  }
  return ns;
}

/// make_router(RouterSpec) -> pick, with the workload's static baseline.
double probe_route_ns_per_pick(const asu::MachineParams& mp, unsigned alpha) {
  sim::Engine eng;
  asu::Cluster cluster(eng, mp);
  std::vector<core::RouteTarget> targets;
  for (unsigned h = 0; h < mp.num_hosts; ++h) {
    targets.push_back({&cluster.host(h)});
  }
  return median_of_3([&] {
    auto router = core::make_router(
        {.kind = core::RouterKind::Static, .total_subsets = alpha});
    core::Packet p;
    std::size_t out_of_range = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kProbeOps; ++i) {
      p.subset = std::uint32_t(i % alpha);
      out_of_range += router->pick(p, targets) >= targets.size();
    }
    const double ns = ns_per_op(t0, double(kProbeOps));
    if (out_of_range != 0) throw std::logic_error("router picked no target");
    return ns;
  });
}

/// em::LoserTree over kMergeFanIn sorted runs cut from the first keys.
double probe_merge_ns_per_record(
    const std::vector<std::vector<em::KeyRecord>>& keys) {
  std::vector<em::KeyRecord> all;
  for (const auto& k : keys) {
    all.insert(all.end(), k.begin(), k.end());
    if (all.size() >= kProbeOps) break;
  }
  all.resize(std::min(all.size(), kProbeOps));
  std::vector<std::vector<em::KeyRecord>> runs(kMergeFanIn);
  for (std::size_t i = 0; i < all.size(); ++i) {
    runs[i % kMergeFanIn].push_back(all[i]);
  }
  for (auto& r : runs) std::sort(r.begin(), r.end());
  return median_of_3([&] {
    std::vector<em::LoserTree<em::KeyRecord>::Source> sources;
    for (const auto& r : runs) {
      sources.push_back([&r, i = std::size_t(0)]() mutable
                        -> std::optional<em::KeyRecord> {
        if (i == r.size()) return std::nullopt;
        return r[i++];
      });
    }
    std::size_t merged = 0;
    std::uint32_t last = 0;
    const Clock::time_point t0 = Clock::now();
    em::LoserTree<em::KeyRecord> tree(std::move(sources));
    while (const auto rec = tree.next()) {
      if (rec->key < last) throw std::logic_error("merge out of order");
      last = rec->key;
      ++merged;
    }
    const double ns = ns_per_op(t0, double(merged));
    if (merged != all.size()) throw std::logic_error("merge lost records");
    return ns;
  });
}

double probe_histogram_ns_per_observe(std::uint64_t seed) {
  auto rng = sim::Rng(seed).stream(sim::stream_id("benchmark.histogram"));
  std::vector<double> values(kProbeOps);
  for (auto& x : values) x = rng.exponential(1e3);
  return median_of_3([&] {
    obs::LatencyHistogram h;
    const Clock::time_point t0 = Clock::now();
    for (double x : values) h.observe(x);
    const double ns = ns_per_op(t0, double(values.size()));
    if (h.count() != values.size()) throw std::logic_error("lost observes");
    return ns;
  });
}

/// Replays the snapshot's instrument names into a fresh registry.
/// Histogram contents are not replayed: each gets one observation.
void replay_instruments(const obs::Json& snapshot,
                        obs::MetricsRegistry& reg) {
  if (const obs::Json* c = snapshot.find("counters")) {
    for (const auto& [name, v] : c->members()) {
      reg.counter(name).inc(std::uint64_t(v.as_double()));
    }
  }
  if (const obs::Json* g = snapshot.find("gauges")) {
    for (const auto& [name, v] : g->members()) {
      reg.gauge(name).set(v.as_double());
    }
  }
  if (const obs::Json* h = snapshot.find("histograms")) {
    for (const auto& [name, v] : h->members()) {
      if (const obs::Json* bounds = v.find("bounds")) {
        std::vector<double> b;
        for (const obs::Json& x : bounds->items()) b.push_back(x.as_double());
        reg.histogram(name, std::move(b));
      } else if (const obs::Json* p50 = v.find("p50")) {
        reg.latency(name).observe(p50->as_double());
      }
    }
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void probe_layers(Workload& w, Spans& spans, std::uint64_t seed,
                  double wall_s, double traced_wall_s,
                  const std::vector<double>& report_json_s, Metrics& out) {
  const LayerView v = w.layer_view(spans);
  const obs::Json& snap = *v.snapshot;
  const auto counters = [&](std::string_view suffix) {
    return sum_of(snap, "counters", "", suffix);
  };

  // sim
  double ns_event = 0;
  spans.time("probe.sim", [&] { ns_event = probe_engine_ns_per_event(); });
  out.add("sim.events", "count", "lower", v.sim_events);
  out.add("sim.ns_per_event", "ns", "lower", ns_event);

  // asu
  double ns_request = 0;
  spans.time("probe.asu", [&] {
    ns_request = probe_asu_ns_per_request(v.machine);
  });
  const double requests = counters(".requests");
  out.add("asu.requests", "count", "lower", requests);
  out.add("asu.ns_per_request", "ns", "lower", ns_request);
  out.add("asu.host_cpu_busy_sim_s", "sim_s", "lower",
          sum_of(snap, "gauges", "host", ".cpu.busy_seconds"));
  out.add("asu.asu_cpu_busy_sim_s", "sim_s", "lower",
          sum_of(snap, "gauges", "asu", ".cpu.busy_seconds"));
  out.add("asu.link_busy_sim_s", "sim_s", "lower",
          sum_of(snap, "gauges", "link.", ".busy_seconds"));
  out.add("asu.disk_busy_sim_s", "sim_s", "lower",
          sum_of(snap, "gauges", "asu", ".disk.busy_seconds"));

  // core
  double ns_keygen = 0, ns_classify = 0, ns_sort = 0, ns_route = 0;
  std::vector<std::vector<em::KeyRecord>> keys;
  std::vector<std::vector<std::uint32_t>> bucket;
  spans.time("probe.core.keygen", [&] {
    keys = generate_keys(v.streams, ns_keygen);
  });
  spans.time("probe.core.classify", [&] {
    if (v.splitters.empty()) {
      ns_classify = classify_keys(
          em::RangeClassifier<std::uint32_t>(0, std::uint32_t(-1), v.alpha),
          keys, bucket);
    } else {
      ns_classify =
          classify_keys(core::SplitterClassifier(v.splitters), keys, bucket);
    }
  });
  spans.time("probe.core.sort", [&] {
    ns_sort = probe_sort_ns_per_record(v, keys, bucket);
  });
  spans.time("probe.core.route", [&] {
    ns_route = probe_route_ns_per_pick(v.machine, v.alpha);
  });
  double key_records = 0;
  for (const auto& k : keys) key_records += double(k.size());
  const double to_sort_packets = counters("to_sort.packets");
  const double packets = to_sort_packets + counters("to_store.packets");
  const double packet_records =
      counters("to_sort.records") + counters("to_store.records");
  out.add("core.keygen_ns_per_record", "ns", "lower", ns_keygen);
  out.add("core.classify_ns_per_record", "ns", "lower", ns_classify);
  out.add("core.sort_ns_per_record", "ns", "lower", ns_sort);
  out.add("core.packets", "count", "lower", packets);
  out.add("core.route_ns_per_pick", "ns", "lower", ns_route);
  out.add("core.packet_fill", "ratio", "higher",
          ratio(packet_records,
                packets * double(packet_capacity(v.machine, v.alpha))));
  out.add("core.sort_wait_sum_sim_s", "sim_s", "lower",
          sum_of(snap, "histograms", "", "to_sort.queue_wait_seconds", "sum"));

  // extmem
  double ns_merge = 0;
  spans.time("probe.extmem.merge", [&] {
    ns_merge = probe_merge_ns_per_record(keys);
  });
  out.add("extmem.merge_ns_per_record", "ns", "lower", ns_merge);
  keys = {};
  bucket = {};

  // lm
  out.add("lm.router_switches", "count", "lower", v.lm_switches);
  out.add("lm.migrations", "count", "lower", v.lm_migrations);
  out.add("lm.placer_decisions", "count", "lower", v.lm_decisions);
  out.add("lm.migration_yield", "ratio", "higher",
          ratio(v.lm_migrations, v.lm_decisions));

  // fault
  out.add("fault.events", "count", "lower",
          sum_of(snap, "counters", "fault.", "") +
              counters(".fault_retries"));

  // tenant
  out.add("tenant.admission_waits", "count", "lower", v.admission_waits);
  out.add("tenant.admission_wait_frac", "ratio", "lower",
          ratio(v.admission_waits, v.jobs_submitted));
  out.add("tenant.arrivals_s", "s", "lower",
          v.arrivals_s.empty() ? std::vector<double>{0.0} : v.arrivals_s);

  // obs
  obs::MetricsRegistry replay;
  replay_instruments(snap, replay);
  std::vector<double> snapshot_s;
  for (int i = 0; i < 3; ++i) {
    snapshot_s.push_back(spans.time("probe.obs.snapshot", [&] {
      if (replay.snapshot().size() != 3) {
        throw std::logic_error("snapshot lost a section");
      }
    }));
  }
  double ns_observe = 0;
  spans.time("probe.obs.histogram", [&] {
    ns_observe = probe_histogram_ns_per_observe(seed);
  });
  const double observes = sum_of(snap, "histograms", "", "", "count");
  out.add("obs.instruments", "count", "lower", double(replay.size()));
  out.add("obs.snapshot_s", "s", "lower", snapshot_s);
  out.add("obs.report_json_s", "s", "lower", report_json_s);
  out.add("obs.histogram_ns_per_observe", "ns", "lower", ns_observe);

  // Estimated host seconds per layer: count x replayed cost per operation.
  const double sim_est = v.sim_events * ns_event * 1e-9;
  const double asu_est = requests * ns_request * 1e-9;
  const double core_est =
      (key_records * (ns_keygen + ns_classify + ns_sort) +
       to_sort_packets * ns_route) *
      1e-9;
  const double extmem_est = v.records_final * ns_merge * 1e-9;
  const double obs_est = median(snapshot_s) + median(report_json_s) +
                         observes * ns_observe * 1e-9;
  out.add("sim.est_s", "s", "lower", sim_est);
  out.add("asu.est_s", "s", "lower", asu_est);
  out.add("core.est_s", "s", "lower", core_est);
  out.add("extmem.est_s", "s", "lower", extmem_est);
  out.add("obs.est_s", "s", "lower", obs_est);
  out.add("trace.attributed_frac", "ratio", "higher",
          ratio(sim_est + asu_est + core_est + extmem_est + obs_est, wall_s));
  out.add("trace.overhead_frac", "ratio", "lower",
          ratio(traced_wall_s, wall_s) - 1.0);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = "benchmark/out";
};

constexpr std::size_t kSetups = 3;
constexpr std::size_t kMaxReps = 500;

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto res = std::from_chars(value.data(), end, a.seed);
      if (res.ec != std::errc{} || res.ptr != end) {
        return std::nullopt;
      }
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (make_workload(a.workload, a.seed) == nullptr) return std::nullopt;
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  return bool(f.flush());
}

int run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  Spans spans;
  spans.set_recording(a.trace);

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> digests;
  std::optional<std::uint64_t> reference;
  const auto check = [&](Rep& r, const std::string& what) {
    if (!reference) {
      reference = r.digest;
    } else if (r.digest != *reference) {
      r.failures.push_back("digest " + obs::digest_to_string(r.digest) +
                           " differs from the first warm-up's " +
                           obs::digest_to_string(*reference));
      r.failed_ops = r.ops;
    }
    digests.push_back(obs::digest_to_string(r.digest));
    attempted += r.ops;
    failed += r.failed_ops;
    for (const std::string& f : r.failures) failures.push_back(what + ": " + f);
  };

  // Set-up: inputs plus one discarded warm-up repetition, several times.
  // The first is timed from process start.
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = i == 0 ? kProcessStart : Clock::now();
    spans.time("setup", [&] {
      spans.time("inputs", [&] { w->build_inputs(); });
      Rep warm = w->run(spans);
      check(warm, "warm-up " + std::to_string(i));
    });
    setup_s.push_back(seconds_since(t0));
  }
  // Every repetition reaches the same peak, so the warm-ups have set it;
  // the host-speed kernels' buffers come after.
  const double rss_mb = peak_rss_mb();

  // Timed repetitions, each after one host-speed sample. Traced, every
  // other one records spans; the rest give the untraced median the tracing
  // overhead is measured against.
  HostSpeed host;
  std::vector<double> host_samples;
  std::vector<Rep> plain, traced;
  const Clock::time_point t_measure = Clock::now();
  for (std::size_t i = 0; i < kMaxReps; ++i) {
    host_samples.push_back(host.sample());
    const bool record = a.trace && i % 2 == 1;
    spans.set_recording(record);
    Rep r = w->run(spans);
    check(r, "rep " + std::to_string(i));
    (record ? traced : plain).push_back(std::move(r));
    if (i + 1 >= w->min_reps() && seconds_since(t_measure) >= a.seconds) break;
  }
  spans.set_recording(a.trace);

  const double scale =
      std::pow(kReferenceSeconds / median(host_samples), kHostSensitivity);
  std::vector<double> raw_wall, wall, records_per_s, events_per_s;
  for (const Rep& r : plain) {
    raw_wall.push_back(r.wall_s);
    wall.push_back(r.wall_s * scale);
    records_per_s.push_back(r.records / wall.back());
    events_per_s.push_back(r.events / wall.back());
  }
  for (double& s : setup_s) s *= scale;

  Metrics m;
  m.add("wall_s", "s", "lower", wall);
  m.add("setup_s", "s", "lower", setup_s);
  m.add("records_per_s", "records/s", "higher", records_per_s);
  m.add("events_per_s", "events/s", "higher", events_per_s);
  m.add("peak_rss_mb", "MB", "lower", rss_mb);
  m.add("raw_wall_s", "s", "lower", raw_wall);
  m.add("host_sample_s", "s", "lower", host_samples);
  w->modelled(m);
  if (a.trace) {
    std::vector<double> traced_wall, report_json;
    for (const Rep& r : traced) {
      traced_wall.push_back(r.wall_s);
      report_json.push_back(r.report_json_s);
    }
    probe_layers(*w, spans, a.seed, median(raw_wall), median(traced_wall),
                 report_json, m);
  } else {
    w->extra(m, failures);
  }
  const bool correct = failures.empty() && failed == 0;
  m.add("error_rate", "ratio", "lower",
        double(failed) / double(std::max<std::size_t>(attempted, 1)));

  obs::Json result = obs::Json::object();
  result["workload"] = a.workload;
  result["seed"] = double(a.seed);
  result["trace"] = a.trace;
  result["seconds"] = a.seconds;
  result["reps"] = plain.size() + traced.size();
  result["machine"] = obs::Json::object();
  result["machine"]["nproc"] = std::thread::hardware_concurrency();
  result["machine"]["compiler"] = std::string("g++ ") + __VERSION__;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["failures"] = obs::Json::array();
  for (const std::string& f : failures) result["failures"].push_back(f);
  result["digest"] = obs::digest_to_string(reference.value_or(0));
  result["digests"] = obs::Json::array();
  for (const std::string& d : digests) result["digests"].push_back(d);
  obs::Json& metrics = result["metrics"] = obs::Json::object();
  for (const Metric& x : m.all()) {
    obs::Json j = obs::Json::object();
    j["value"] = median(x.values);
    j["unit"] = x.unit;
    j["better"] = x.better;
    j["n"] = x.values.size();
    j["q1"] = quartile(x.values, 1);
    j["q3"] = quartile(x.values, 3);
    j["values"] = obs::Json::array_of(x.values);
    metrics[x.name] = std::move(j);
    std::printf("%s %s %s %s\n", a.workload.c_str(), x.name.c_str(),
                fmt(median(x.values)).c_str(), x.unit.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("# %s FAILED %s\n", a.workload.c_str(), f.c_str());
  }

  const std::filesystem::path dir(a.out_dir);
  std::filesystem::create_directories(dir);
  bool written = write_file(dir / ("result_" + a.workload + ".json"),
                            result.dump(1));
  if (a.trace) {
    obs::Json trace = obs::Json::object();
    trace["workload"] = a.workload;
    trace["spans"] = spans.to_json();
    written &= write_file(dir / ("trace_" + a.workload + ".json"),
                          trace.dump(1));
  }
  if (!written) {
    std::fprintf(stderr, "lmas_bench: cannot write results under %s\n",
                 a.out_dir.c_str());
    return 3;
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Every workload runs serially, without the sim-time tracer.
  setenv("LMAS_JOBS", "1", 1);
  setenv("LMAS_SHARDS", "1", 1);
  unsetenv("LMAS_TRACE");
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: lmas_bench --workload "
                 "{sort_skew_managed|sort_merge_sampled|tenancy_small_jobs} "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmas_bench: %s: %s\n", args->workload.c_str(),
                 e.what());
    return 3;
  }
}
