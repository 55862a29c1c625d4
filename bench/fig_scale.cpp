/// fig_scale — hierarchical scale-out: simulated load balance at D ∈
/// {64, 256, 1024} ASUs on the serial coroutine engine, beside the
/// analytic mean-field model.
///
/// Each cell is an open queueing system on a hierarchical TopologySpec
/// (racks of ASUs under an oversubscribed spine): H hosts emit Poisson
/// task arrivals, a load-board node routes every task to one of D ASUs
/// with a real core::RoutingPolicy, ASUs serve exp(μ) and report
/// completions back to the board. The board's per-ASU in-system counts
/// are the LoadProbe the dynamic routers read — exactly the paper's
/// load-manager arrangement, with the probe one network latency stale.
/// Four policies per machine size:
///
///   sr    SimpleRandomizationRouter — the paper's randomized cycling
///   rnd   PowerOfDChoicesRouter(d=1) — pure random, the d=1 mean-field
///   pod2  PowerOfDChoicesRouter(d=2) — two choices
///   ll    LeastLoadedRouter — full-information JSQ, the d→D limit
///
/// The analytic column is the supermarket-model stationary tail: the
/// fraction of servers with queue ≥ i is ρ^((d^i − 1)/(d − 1)) — ρ^i at
/// d = 1, doubly exponential for d ≥ 2 (Mitzenmacher's power of two
/// choices). Every cell prints simulated vs. model tails with relative
/// error; `sr` is the interesting deviation — randomized cycling spaces
/// arrivals more evenly than Poisson splitting, so it lands BELOW its
/// d=1 bound.
///
/// The run also checks the accepted shape at every D and folds it into
/// `ok` and the exit code: sr and pod2 sit below rnd at q>=2, ll below
/// pod2, and rnd's q>=1 tail is within 5% of its mean-field value.
///
/// Cells are a SweepSpec evaluated LMAS_JOBS-wide; the artifact
/// BENCH_fig_scale.json is bit-identical serial vs. parallel. Each
/// result entry carries per-rack balance histograms ("rack.queue.<r>":
/// the distribution of per-ASU mean queue length inside rack r) that
/// lmas_report renders as a per-rack quantile table.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "asu/topology.hpp"
#include "bench_json.hpp"
#include "core/routing.hpp"
#include "obs/latency.hpp"
#include "obs/report.hpp"
#include "sim/random.hpp"
#include "sim/engine.hpp"

namespace asu = lmas::asu;
namespace core = lmas::core;
namespace obs = lmas::obs;
namespace sim = lmas::sim;
namespace benchio = lmas::benchio;

namespace {

// ---------------------------------------------------------------------------
// Cell grid

enum class Policy { Sr, Rnd, Pod2, Ll };

struct Cell {
  const char* key = "";
  Policy policy = Policy::Sr;
  unsigned asus = 64;
  bool hetero = false;  ///< alternating 0.6/1.4 ASU speeds (Σ speed = D)
};

constexpr double kRho = 0.8;            // offered load per unit capacity
constexpr double kServiceMean = 0.010;  // seconds, exp(μ) with μ = 100/s
constexpr double kMu = 1.0 / kServiceMean;
constexpr double kHorizon = 3.0;        // simulated seconds per cell
constexpr double kWarmup = 1.2;         // probes start here
constexpr double kProbePeriod = 0.020;  // queue-length sampling interval
constexpr std::size_t kTailMax = 8;     // tail depth i = 1..kTailMax
constexpr unsigned kAsuGrid[] = {64, 256, 1024};

const char* policy_key(Policy p) {
  switch (p) {
    case Policy::Sr: return "sr";
    case Policy::Rnd: return "rnd";
    case Policy::Pod2: return "pod2";
    case Policy::Ll: return "ll";
  }
  return "?";
}

/// Effective mean-field choice count d; the ll limit is d = D.
unsigned policy_d(Policy p, unsigned asus) {
  switch (p) {
    case Policy::Sr: return 1;
    case Policy::Rnd: return 1;
    case Policy::Pod2: return 2;
    case Policy::Ll: return asus;
  }
  return 1;
}

/// The machine under test: D ASUs fed by H = D/16 hosts, D/32 racks of
/// leaves under a 4x-oversubscribed spine. Latencies are small against
/// the 10ms service mean so the board's load view is nearly fresh.
asu::TopologySpec make_topology(const Cell& cell) {
  asu::MachineParams mp;
  mp.num_hosts = std::max(2u, cell.asus / 16);
  mp.num_asus = cell.asus;
  mp.link_latency = 0.0002;   // rack tier: 200us
  mp.link_bandwidth = 1e9;

  asu::TopologySpec topo = asu::TopologySpec::flat(mp);
  topo.racks = std::max(1u, cell.asus / 32);
  topo.spine =
      asu::TierSpec{.latency = 0.0008, .bandwidth = 1e9, .oversubscription = 4.0};
  if (cell.hetero) {
    topo.asu_speed.resize(cell.asus);
    for (unsigned a = 0; a < cell.asus; ++a) {
      topo.asu_speed[a] = (a % 2 == 0) ? 0.6 : 1.4;
    }
  }
  topo.validate();
  return topo;
}

// ---------------------------------------------------------------------------
// Coroutine model
//
// One process per task lifecycle (host -> board -> ASU queue -> report
// back to the board), one arrival generator per host and one queue probe
// per ASU. Hosts and ASUs draw from their own named random streams, so a
// node's draws never depend on how other nodes interleave.

struct AsuState {
  std::uint64_t queue = 0;   // tasks in queue incl. the one in service
  std::uint64_t served = 0;
  double speed = 1.0;        // service-rate multiplier
  double free_at = 0;        // FIFO server: when the last queued task ends
  sim::Rng rng;
  std::uint64_t probes = 0;
  double queue_sum = 0;                       // Σ sampled queue lengths
  std::vector<std::uint64_t> queue_tally;     // [min(q, kCap)] counts
  static constexpr std::size_t kCap = 64;
  AsuState() : queue_tally(kCap + 1, 0) {}
};

struct CellResult {
  Cell cell;
  unsigned hosts = 0, racks = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t routed = 0;
  std::uint64_t served = 0;
  std::uint64_t samples = 0;
  bool counts_ok = true;  // board counts never went negative / leaked
  std::vector<double> sim_tail;    // P(q >= i), i = 0..kTailMax
  std::vector<double> model_tail;  // mean-field prediction, same index
  std::vector<double> asu_mean_queue;      // per ASU
  std::vector<std::uint64_t> asu_served;   // per ASU
  std::vector<unsigned> asu_rack;          // per ASU
};

/// State shared by one cell's processes. The board's per-ASU in-system
/// counts are incremented when a task is routed and decremented when its
/// completion report arrives, so the load view is one path latency stale.
struct Model {
  std::unique_ptr<core::RoutingPolicy> policy;
  std::vector<core::RouteTarget> targets;  // synthetic, nodeless
  core::Packet pkt;                        // subset 0 throughout
  std::vector<std::int64_t> counts;
  std::vector<AsuState> asus;
  std::vector<double> host_delay;  // host -> board
  std::vector<double> asu_delay;   // board <-> ASU
  double host_rate = 0;
  CellResult& res;
  sim::Engine eng;  // last: its task frames die before the state above

  explicit Model(CellResult& r) : res(r) {}
};

sim::Task<> task_life(Model& m, unsigned h) {
  co_await m.eng.sleep(m.host_delay[h]);
  const std::size_t a = m.policy->pick(m.pkt, m.targets);
  ++m.counts[a];
  ++m.res.routed;
  co_await m.eng.sleep(m.asu_delay[a]);
  AsuState& st = m.asus[a];
  ++st.queue;
  st.free_at = std::max(st.free_at, m.eng.now()) +
               st.rng.exponential(kMu * st.speed);
  co_await m.eng.sleep(st.free_at - m.eng.now());
  --st.queue;
  ++st.served;
  co_await m.eng.sleep(m.asu_delay[a]);
  if (--m.counts[a] < 0) m.res.counts_ok = false;
  ++m.res.served;
}

sim::Task<> host_arrivals(Model& m, unsigned h, sim::Rng rng) {
  co_await m.eng.sleep(1e-6 * double(h + 1));
  for (;;) {
    m.eng.spawn(task_life(m, h));
    co_await m.eng.sleep(rng.exponential(m.host_rate));
  }
}

sim::Task<> asu_probe(Model& m, unsigned a) {
  co_await m.eng.sleep(kWarmup);
  AsuState& st = m.asus[a];
  for (;;) {
    ++st.probes;
    st.queue_sum += double(st.queue);
    ++st.queue_tally[std::min<std::uint64_t>(st.queue, AsuState::kCap)];
    co_await m.eng.sleep(kProbePeriod);
  }
}

/// Supermarket-model stationary tail: P(queue >= i) = ρ^((d^i − 1)/(d − 1)).
/// The exponent is built iteratively (e_i = d·e_{i−1} + 1) and capped so
/// the d = D limit underflows cleanly to 0 instead of overflowing.
std::vector<double> mean_field_tail(double rho, unsigned d) {
  std::vector<double> tail(kTailMax + 1, 0.0);
  const double log_rho = std::log(rho);
  double exponent = 0;  // e_0
  for (std::size_t i = 0; i <= kTailMax; ++i) {
    tail[i] = std::exp(exponent * log_rho);
    exponent = std::min(1e9, exponent * double(d) + 1.0);
  }
  return tail;
}

CellResult run_cell(const Cell& cell) {
  const asu::TopologySpec topo = make_topology(cell);
  const unsigned H = topo.machine.num_hosts;
  const unsigned D = topo.machine.num_asus;

  CellResult res;
  res.cell = cell;
  res.hosts = H;
  res.racks = topo.racks;

  Model m(res);
  m.counts.assign(D, 0);
  const core::LoadProbe board_probe =
      [&m](std::span<const core::RouteTarget>, std::size_t i) {
        return double(m.counts[i]);
      };
  sim::Rng router_rng(sim::fnv1a64(cell.key) ^ (std::uint64_t(D) << 32));
  switch (cell.policy) {
    case Policy::Sr:
      m.policy = std::make_unique<core::SimpleRandomizationRouter>(router_rng);
      break;
    case Policy::Rnd:
      m.policy = std::make_unique<core::PowerOfDChoicesRouter>(router_rng, 1,
                                                               board_probe);
      break;
    case Policy::Pod2:
      m.policy = std::make_unique<core::PowerOfDChoicesRouter>(router_rng, 2,
                                                               board_probe);
      break;
    case Policy::Ll:
      m.policy = std::make_unique<core::LeastLoadedRouter>(board_probe);
      break;
  }
  m.targets.resize(D);

  const sim::Rng streams(0x5ca1ab1eu ^ sim::fnv1a64(cell.key));
  const unsigned board_rack = 0;
  m.asus.resize(D);
  double capacity = 0;  // Σ speed · μ
  for (unsigned a = 0; a < D; ++a) {
    m.asus[a].speed = topo.asu_multiplier(a);
    m.asus[a].rng = streams.stream(sim::stream_id("asu", a));
    m.asu_delay.push_back(topo.path_latency(board_rack, topo.rack_of_asu(a)));
    capacity += m.asus[a].speed * kMu;
  }
  m.host_rate = kRho * capacity / double(H);
  for (unsigned h = 0; h < H; ++h) {
    m.host_delay.push_back(topo.path_latency(topo.rack_of_host(h), board_rack));
    m.eng.spawn(host_arrivals(m, h, streams.stream(sim::stream_id("host", h))));
  }
  for (unsigned a = 0; a < D; ++a) m.eng.spawn(asu_probe(m, a));

  // The engine frees finished task frames as it spawns new ones, so its
  // root list stays as short as the in-flight task count.
  m.eng.run(kHorizon);
  res.events = m.eng.events_processed();
  res.digest = m.eng.digest();
  const std::vector<std::int64_t>& counts = m.counts;
  const std::vector<AsuState>& asus = m.asus;

  // In-system tasks at the horizon must reconcile with the board's view.
  std::int64_t outstanding = 0;
  for (std::int64_t c : counts) {
    if (c < 0) res.counts_ok = false;
    outstanding += c;
  }
  if (std::uint64_t(std::max<std::int64_t>(outstanding, 0)) + res.served !=
      res.routed) {
    res.counts_ok = false;
  }

  // Aggregate the sampled queue-length tail across ASUs.
  std::vector<std::uint64_t> tally(AsuState::kCap + 1, 0);
  for (const AsuState& st : asus) {
    res.samples += st.probes;
    for (std::size_t j = 0; j < tally.size(); ++j) {
      tally[j] += st.queue_tally[j];
    }
  }
  res.sim_tail.assign(kTailMax + 1, 0.0);
  std::uint64_t at_least = res.samples;
  for (std::size_t i = 0; i <= kTailMax; ++i) {
    res.sim_tail[i] =
        res.samples ? double(at_least) / double(res.samples) : 0.0;
    if (i < tally.size()) at_least -= tally[i];
  }
  res.model_tail = mean_field_tail(kRho, policy_d(cell.policy, D));

  res.asu_mean_queue.resize(D);
  res.asu_served.resize(D);
  res.asu_rack.resize(D);
  for (unsigned a = 0; a < D; ++a) {
    res.asu_mean_queue[a] =
        asus[a].probes ? asus[a].queue_sum / double(asus[a].probes) : 0.0;
    res.asu_served[a] = asus[a].served;
    res.asu_rack[a] = topo.rack_of_asu(a);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Reporting

/// Relative error of the simulated tail against the model, or -1 where
/// the prediction is below the resolvable floor (e.g. the d = D limit's
/// ρ^(D+1) ≈ 0) or the cell is heterogeneous (the model assumes a
/// homogeneous μ).
double rel_err(const CellResult& r, std::size_t i) {
  constexpr double kFloor = 1e-4;
  if (r.cell.hetero || i >= r.model_tail.size()) return -1.0;
  if (r.model_tail[i] < kFloor) return -1.0;
  return std::abs(r.sim_tail[i] - r.model_tail[i]) / r.model_tail[i];
}

std::string cell_name(const CellResult& r) {
  return std::string(policy_key(r.cell.policy)) + "_d" +
         std::to_string(r.cell.asus) + (r.cell.hetero ? "_hetero" : "");
}

/// Service balance: max/mean served per ASU, speed-normalized so the
/// heterogeneous cell is judged against its capacity shares.
double served_max_over_mean(const CellResult& r) {
  double norm_mean = 0, norm_max = 0;
  for (unsigned a = 0; a < r.cell.asus; ++a) {
    const double speed = r.cell.hetero ? (a % 2 == 0 ? 0.6 : 1.4) : 1.0;
    const double norm = double(r.asu_served[a]) / speed;
    norm_mean += norm;
    norm_max = std::max(norm_max, norm);
  }
  norm_mean /= double(r.cell.asus);
  return norm_mean > 0 ? norm_max / norm_mean : 0.0;
}

obs::Json cell_entry(const CellResult& r) {
  obs::Json entry;
  entry["name"] = cell_name(r);
  entry["router"] = policy_key(r.cell.policy);
  entry["asus"] = double(r.cell.asus);
  entry["hosts"] = double(r.hosts);
  entry["racks"] = double(r.racks);
  entry["hetero"] = r.cell.hetero;
  entry["rho"] = kRho;
  entry["events"] = double(r.events);
  entry["tasks_routed"] = double(r.routed);
  entry["tasks_served"] = double(r.served);
  entry["queue_samples"] = double(r.samples);
  entry["counts_ok"] = r.counts_ok;
  entry["digest"] = obs::digest_to_string(r.digest);

  obs::Json sim_tail = obs::Json::array();
  for (double v : r.sim_tail) sim_tail.push_back(v);
  entry["queue_tail"] = std::move(sim_tail);

  obs::Json mf;
  mf["d"] = double(policy_d(r.cell.policy, r.cell.asus));
  mf["valid"] = !r.cell.hetero;
  obs::Json model = obs::Json::array();
  obs::Json err = obs::Json::array();
  for (std::size_t i = 0; i <= kTailMax; ++i) {
    model.push_back(r.model_tail[i]);
    err.push_back(rel_err(r, i));
  }
  mf["tail"] = std::move(model);
  mf["rel_err"] = std::move(err);
  entry["mean_field"] = std::move(mf);

  // Per-rack balance: the distribution of per-ASU mean queue length
  // inside each rack, plus the machine-wide aggregate. lmas_report
  // groups these keys into the per-rack quantile table.
  obs::Json hists;
  obs::LatencyHistogram agg;
  std::vector<obs::LatencyHistogram> per_rack(r.racks);
  for (unsigned a = 0; a < r.cell.asus; ++a) {
    agg.observe(r.asu_mean_queue[a]);
    per_rack[r.asu_rack[a]].observe(r.asu_mean_queue[a]);
  }
  hists["rack.queue"] = agg.summary_json();
  for (unsigned k = 0; k < r.racks; ++k) {
    hists["rack.queue." + std::to_string(k)] = per_rack[k].summary_json();
  }
  entry["histograms"] = std::move(hists);
  entry["served_max_over_mean"] = served_max_over_mean(r);
  return entry;
}

/// EXPERIMENTS' accepted shape at every machine size, on the homogeneous
/// cells (the hetero cell is exempt: the model assumes one μ). Prints
/// each violation; returns true when there are none.
bool shape_holds(const std::vector<CellResult>& results) {
  bool ok = true;
  for (unsigned d : kAsuGrid) {
    const CellResult* by_policy[4] = {};
    for (const CellResult& r : results) {
      if (!r.cell.hetero && r.cell.asus == d) {
        by_policy[int(r.cell.policy)] = &r;
      }
    }
    const auto require = [&](bool cond, const char* what) {
      if (!cond) std::printf("# shape FAILED at D=%u: %s\n", d, what);
      ok &= cond;
    };
    if (std::find(std::begin(by_policy), std::end(by_policy), nullptr) !=
        std::end(by_policy)) {
      require(false, "missing a router cell");
      continue;
    }
    const auto q2 = [&](Policy p) { return by_policy[int(p)]->sim_tail[2]; };
    require(q2(Policy::Sr) < q2(Policy::Rnd), "sr P(q>=2) not below rnd's");
    require(q2(Policy::Pod2) < q2(Policy::Rnd),
            "pod2 P(q>=2) not below rnd's");
    require(q2(Policy::Ll) < q2(Policy::Pod2), "ll P(q>=2) not below pod2's");
    const double err = rel_err(*by_policy[int(Policy::Rnd)], 1);
    require(err >= 0 && err <= 0.05, "rnd rel_err at i=1 above 5%");
  }
  return ok;
}

}  // namespace

int main() {
  std::vector<Cell> cells;
  for (unsigned d : kAsuGrid) {
    for (Policy p : {Policy::Sr, Policy::Rnd, Policy::Pod2, Policy::Ll}) {
      cells.push_back({policy_key(p), p, d, false});
    }
  }
  cells.push_back({"pod2", Policy::Pod2, 256, true});  // heterogeneous leg

  obs::BenchReport report("fig_scale");
  report.params()["rho"] = kRho;
  report.params()["service_mean_s"] = kServiceMean;
  report.params()["horizon_s"] = kHorizon;
  report.params()["warmup_s"] = kWarmup;
  report.params()["probe_period_s"] = kProbePeriod;
  report.params()["asu_grid"] = "64,256,1024";
  report.params()["routers"] = "sr,rnd,pod2,ll";
  report.results() = obs::Json::array();

  std::printf("# fig_scale: queue-tail balance at scale, %zu cells "
              "(D x {sr, rnd, pod2, ll} + hetero)\n", cells.size());
  std::printf("# P(q>=i) simulated vs mean-field rho^((d^i-1)/(d-1)), "
              "rho=%.2f\n", kRho);

  benchio::SweepSpec<Cell, CellResult> sweep;
  sweep.report_name = "fig_scale";
  sweep.cells = cells;
  sweep.run_fn = run_cell;
  benchio::SweepStats stats;
  const std::vector<CellResult> results = benchio::run_sweep(sweep, &stats);

  std::printf("\n%-14s %5s %5s %5s %6s  %-22s %-22s %-22s %9s\n", "cell", "D",
              "H", "racks", "d", "q>=1 sim/model(err)", "q>=2 sim/model(err)",
              "q>=3 sim/model(err)", "max/mean");
  bool all_ok = true;
  double total_events = 0;
  std::uint64_t folded = 0;
  for (const CellResult& r : results) {
    all_ok &= r.counts_ok;
    total_events += double(r.events);
    folded = sim::splitmix64_once(folded ^ r.digest);

    const std::string name = cell_name(r);
    char col[3][32];
    for (std::size_t i = 1; i <= 3; ++i) {
      const double e = rel_err(r, i);
      if (e >= 0) {
        std::snprintf(col[i - 1], sizeof col[i - 1], "%.3f/%.3f(%4.1f%%)",
                      r.sim_tail[i], r.model_tail[i], 100.0 * e);
      } else {
        std::snprintf(col[i - 1], sizeof col[i - 1], "%.3f/%s", r.sim_tail[i],
                      r.cell.hetero ? "n/a" : "~0");
      }
    }
    std::printf("%-14s %5u %5u %5u %6u  %-22s %-22s %-22s %9.3f\n",
                name.c_str(), r.cell.asus, r.hosts, r.racks,
                policy_d(r.cell.policy, r.cell.asus), col[0], col[1], col[2],
                served_max_over_mean(r));
    report.results().push_back(cell_entry(r));
  }
  report.add_digest(folded);

  std::printf("\n# sr sits below its d=1 bound (cycling beats Poisson "
              "splitting); pod2 tracks the doubly-exponential curve;\n"
              "# ll approaches the d=D limit (q>=2 is rare at rho=%.2f).\n",
              kRho);
  benchio::stamp_sweep(report, stats, total_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs, %.0f events\n",
              stats.cells, stats.jobs, stats.wall_clock_s, total_events);
  std::printf("# validation: %s\n",
              all_ok ? "all cells conserve tasks" : "FAILURES");
  const bool shape_ok = shape_holds(results);
  std::printf("# shape: %s\n", shape_ok ? "accepted at every D" : "FAILURES");
  all_ok &= shape_ok;
  return benchio::finish(report, all_ok);
}
