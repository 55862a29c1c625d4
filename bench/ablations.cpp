/// Ablations A, C, D, G and H — the configuration and placement sweeps
/// behind the paper's case for load management (speed ratio c, the merge
/// split gamma1, K = alpha*beta, shared ASUs, splitters vs routing).
///
/// Each ablation's body runs twice: first it only names its cells, so a
/// (machine, config) pair that several ablations read is one cell; after
/// all cells have run as one SweepSpec across LMAS_JOBS threads, it
/// prints its table from the results and checks its EXPERIMENTS.md claim
/// as a gate. Output and artifact are bit-identical at any job count.
///
/// Writes BENCH_ablations.json: one row per cell (its knobs, the
/// ablations that read it, pass timings, records sorted per host, ok,
/// digest) and a "gates" object. Exits 0 iff every run validates and
/// every gate holds.

#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "obs/report.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace obs = lmas::obs;
namespace benchio = lmas::benchio;

namespace {

using Splitters = core::DsmSortConfig::Splitters;
constexpr std::array<unsigned, 5> kAlphas{1, 4, 16, 64, 256};
constexpr std::size_t kRecords = 1 << 22;

/// The knobs a cell sets, which are also its sharing key. The passive
/// baseline runs no functor on the ASUs and classifies into one bucket,
/// so c, asu_background_load and alpha do not enter it: its key omits
/// them, and every ablation's baseline on one machine size is one cell.
obs::Json knobs(const asu::MachineParams& mp, const core::DsmSortConfig& cfg) {
  obs::Json k = obs::Json::object();
  k["hosts"] = mp.num_hosts;
  k["asus"] = mp.num_asus;
  k["records"] = double(cfg.total_records);
  k["log2_alpha_beta"] = cfg.log2_alpha_beta;
  k["distribute_on_asus"] = cfg.distribute_on_asus;
  if (cfg.distribute_on_asus) {
    k["c"] = mp.c;
    k["asu_background_load"] = mp.asu_background_load;
    k["alpha"] = cfg.alpha;
  }
  k["key_dist"] = core::key_dist_name(cfg.key_dist);
  k["splitters"] = cfg.splitters == Splitters::Range ? "range" : "sampled";
  k["router"] = core::router_kind_name(cfg.sort_router);
  if (cfg.run_merge_pass) k["gamma1"] = cfg.gamma1;
  return k;
}

struct Cell {
  std::string label;  ///< the ablations that read it, e.g. "A+D+G"
  asu::MachineParams mp;
  core::DsmSortConfig cfg;
};

/// The cells, each distinct (machine, config) pair once, and their
/// results once the sweep has run. Before that, cell() hands back a
/// placeholder report and print() is silent.
struct Sweep {
  std::vector<Cell> cells;
  std::map<std::string, std::size_t> index;  ///< knobs dump -> cell
  std::vector<core::DsmSortReport> runs;
  const char* ablation = "";
  core::DsmSortReport placeholder;

  const core::DsmSortReport& cell(const asu::MachineParams& mp,
                                  const core::DsmSortConfig& cfg) {
    if (!runs.empty()) return runs[index.at(knobs(mp, cfg).dump())];
    const auto [it, fresh] =
        index.try_emplace(knobs(mp, cfg).dump(), cells.size());
    if (fresh) {
      cells.push_back({ablation, mp, cfg});
    } else if (!cells[it->second].label.ends_with(ablation)) {
      cells[it->second].label += std::string("+") + ablation;
    }
    placeholder.records_sorted_per_host.assign(mp.num_hosts, 0);
    return placeholder;
  }

  template <class... Args>
  void print(const char* format, Args... args) const {
    if (!runs.empty()) std::printf(format, args...);
  }
};

asu::MachineParams machine(unsigned hosts, unsigned asus, double c = 8.0,
                           double background = 0.0) {
  asu::MachineParams mp;
  mp.num_hosts = hosts;
  mp.num_asus = asus;
  mp.c = c;
  mp.asu_background_load = background;
  return mp;
}

core::DsmSortConfig config(std::size_t records, unsigned alpha) {
  core::DsmSortConfig cfg;
  cfg.total_records = records;
  cfg.alpha = alpha;
  return cfg;  // seed 42 by default, as in every figure bench
}

/// Pass-1 times of the passive baseline, fixed alpha=256 and adaptive
/// (predictor-chosen alpha*) on one machine: a row of Ablations A and G.
struct Trio {
  double base, fixed, adapt;
  unsigned star;
};
Trio trio(Sweep& s, const asu::MachineParams& mp) {
  auto cfg = config(kRecords, 256);
  cfg.distribute_on_asus = false;
  Trio t{};
  t.base = s.cell(mp, cfg).pass1_seconds;
  cfg.distribute_on_asus = true;
  t.fixed = s.cell(mp, cfg).pass1_seconds;
  t.star = cfg.alpha = core::choose_alpha(mp, cfg, kAlphas);
  t.adapt = s.cell(mp, cfg).pass1_seconds;
  return t;
}

/// Ablation A — the ASU clock at 1/4 or 1/8 of the host. Faster ASUs
/// shift every crossover left and raise the plateau. Claim: at every D
/// the alpha=256 speedup at c=4 is at least the one at c=8, alpha=256
/// first beats the baseline at a smaller D at c=4, and adaptive is at
/// least alpha=256 everywhere.
bool ablation_a(Sweep& s) {
  constexpr std::array<unsigned, 5> kAsus{2, 4, 8, 16, 32};
  s.print("# Ablation A: speed ratio c in {4, 8}, alpha=256 and "
          "adaptive, H=1, n=%zu\n", kRecords);
  s.print("%-6s %-4s %10s %8s %10s %s\n", "c", "D", "baseline", "a=256",
          "adaptive", "(alpha*)");
  bool holds = true;
  std::array<double, kAsus.size()> fixed_c4{};
  // The index of the first D where alpha=256 beats the baseline, per c.
  std::array<std::size_t, 2> first_win{kAsus.size(), kAsus.size()};
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const double c = ci == 0 ? 4.0 : 8.0;
    for (std::size_t di = 0; di < kAsus.size(); ++di) {
      const Trio t = trio(s, machine(1, kAsus[di], c));
      const double fixed = t.base / t.fixed;
      if (ci == 0) fixed_c4[di] = fixed;
      if (fixed > 1.0 && first_win[ci] == kAsus.size()) first_win[ci] = di;
      holds &= fixed <= fixed_c4[di] && t.adapt <= t.fixed;
      s.print("%-6.0f %-4u %9.3fs %8.2f %10.2f  (a=%u)\n", c, kAsus[di],
              t.base, fixed, t.base / t.adapt, t.star);
    }
  }
  return holds && first_win[0] < first_win[1];
}

/// Ablation C — gamma1 = 1 ships every stored run to the hosts (full
/// fan-in there); gamma1 = all pre-merges each subset's local runs at its
/// ASU. Pre-merging on few, slow ASUs adds c-scaled work to the
/// bottleneck; with many ASUs the per-unit share shrinks and the host's
/// fan-in drops. Claim: gamma1=1 wins on total time at D=4, all-local at
/// D=16 and D=64, and every cell's final output is sorted.
bool ablation_c(Sweep& s) {
  auto cfg = config(std::size_t(1) << 21, 8);
  cfg.log2_alpha_beta = 12;  // short runs: a deep pass-2 merge tree
  cfg.run_merge_pass = true;
  s.print("# Ablation C: ASU-side pre-merge fan-in gamma1 across machine "
          "shapes (H=1, n=%zu, alpha=%u, K=2^%u)\n", cfg.total_records,
          cfg.alpha, cfg.log2_alpha_beta);
  s.print("%-5s %-10s %10s %10s %10s %8s\n", "D", "gamma1", "pass1(s)",
          "pass2(s)", "total(s)", "sorted");
  bool holds = true;
  for (const unsigned d : {4u, 16u, 64u}) {
    double one = 0, local = 0;
    for (const unsigned g1 : {1u, 4u, 0u}) {  // 0 = merge all local runs
      cfg.gamma1 = g1;
      const core::DsmSortReport& r = s.cell(machine(1, d), cfg);
      holds &= r.final_sorted_ok;
      if (g1 == 1) one = r.makespan;
      if (g1 == 0) local = r.makespan;
      s.print("%-5u %-10s %9.3fs %9.3fs %9.3fs %8s\n", d,
              g1 == 0 ? "all-local" : std::to_string(g1).c_str(),
              r.pass1_seconds, r.pass2_seconds, r.makespan,
              r.final_sorted_ok ? "yes" : "NO");
    }
    holds &= (local < one) == (d != 4);
  }
  s.print("# with few slow ASUs the host should keep the merge; the "
          "pre-merge pays off as D grows\n");
  return holds;
}

/// Ablation D — K fixes how much sorting pass 1 achieves (pass-2 fan-in
/// is n/K): larger K means more compares per record in pass 1 and a
/// cheaper pass 2. Claim: the alpha=64 offload pays at every K, and less
/// at K=2^20 than at K=2^16.
bool ablation_d(Sweep& s) {
  s.print("# Ablation D: sweep of K = alpha*beta at alpha=64 (1 host, 16 "
          "ASUs, n=2^22)\n");
  s.print("%-8s %-10s %10s %10s %10s\n", "log2K", "beta", "passive(s)",
          "active(s)", "speedup");
  bool holds = true;
  double at_k16 = 0;
  for (const unsigned log2k : {12u, 14u, 16u, 18u, 20u}) {
    auto cfg = config(kRecords, 64);
    cfg.log2_alpha_beta = log2k;
    cfg.distribute_on_asus = false;
    const double passive = s.cell(machine(1, 16), cfg).pass1_seconds;
    cfg.distribute_on_asus = true;
    const double active = s.cell(machine(1, 16), cfg).pass1_seconds;
    const double speedup = passive / active;
    holds &= speedup > 1.0;
    if (log2k == 16) at_k16 = speedup;
    if (log2k == 20) holds &= speedup < at_k16;
    s.print("%-8u %-10zu %9.3fs %9.3fs %9.2fx\n", log2k, cfg.beta(), passive,
            active, speedup);
  }
  s.print("# smaller K: less pass-1 work but a larger pass-2 merge; the "
          "alpha offload matters more as K grows\n");
  return holds;
}

/// Ablation G — shared ASUs (the paper's stated future work): competing
/// applications take a fraction of every ASU's CPU. Claim: fixed
/// alpha=256 falls below the baseline at 75% load, while adaptive
/// re-chooses alpha from the predictor, is never slower than fixed, and
/// sheds work back to the host (alpha* never rises with the load).
bool ablation_g(Sweep& s) {
  s.print("# Ablation G: ASU background load (competing tenants), H=1, "
          "D=16, c=8, n=%zu\n", kRecords);
  s.print("%-10s %10s %10s %12s %12s %s\n", "bg load", "baseline", "a=256",
          "adaptive", "degradation", "(alpha*)");
  bool holds = true;
  unsigned last_star = kAlphas.back();
  for (const double bg : {0.0, 0.25, 0.5, 0.75}) {
    const Trio t = trio(s, machine(1, 16, 8.0, bg));
    holds &= t.adapt <= t.fixed && t.star <= last_star;
    if (bg == 0.75) holds &= t.base / t.fixed < 1.0;
    last_star = t.star;
    s.print("%-10.2f %9.3fs %9.2fx %11.2fx %11.1f%%  (a=%u)\n", bg, t.base,
            t.base / t.fixed, t.base / t.adapt,
            100.0 * (t.fixed / t.adapt - 1.0), t.star);
  }
  s.print("# 'degradation' = how much slower the fixed alpha=256 "
          "configuration is than adaptive\n");
  return holds;
}

/// Ablation H — quantile (sampled) splitters balance stationary skew at
/// distribution time; SR routing balances any skew, including the
/// Figure 10 time-varying workload. Claim: under exponential keys and
/// static routing, range splitters leave the hosts over 50% imbalanced
/// and sampled splitters under 1%; on the half/half workload with
/// sampled splitters, SR finishes pass 1 before static.
bool ablation_h(Sweep& s) {
  s.print("# Ablation H: splitter choice x routing under skew (2 hosts, 16 "
          "ASUs, n=2^22, alpha=16)\n");
  s.print("%-24s %-10s %-9s %10s %11s\n", "workload", "splitters",
          "routing", "pass1(s)", "imbalance");
  std::vector<double> pass1, imbalance;
  for (const auto dist :
       {core::KeyDist::Exponential, core::KeyDist::HalfUniformHalfExp}) {
    for (const auto spl : {Splitters::Range, Splitters::Sampled}) {
      for (const auto router : {core::RouterKind::Static,
                                core::RouterKind::SimpleRandomization}) {
        auto cfg = config(kRecords, 16);
        cfg.key_dist = dist;
        cfg.splitters = spl;
        cfg.sort_router = router;
        const core::DsmSortReport& r = s.cell(machine(2, 16), cfg);
        const double a = double(r.records_sorted_per_host[0]);
        const double b = double(r.records_sorted_per_host[1]);
        pass1.push_back(r.pass1_seconds);
        imbalance.push_back(std::abs(a - b) / (a + b));
        s.print("%-24s %-10s %-9s %9.3fs %10.1f%%\n",
                core::key_dist_name(dist),
                spl == Splitters::Range ? "range" : "sampled",
                core::router_kind_name(router), r.pass1_seconds,
                100.0 * imbalance.back());
      }
    }
  }
  s.print("# sampled splitters fix stationary exponential skew under static "
          "routing,\n# but only SR also fixes the time-varying half/half "
          "workload\n");
  // Indexed [workload][splitters][router], each in the order above.
  return imbalance[0] > 0.5 && imbalance[2] < 0.01 && pass1[7] < pass1[6];
}

}  // namespace

int main() {
  const std::array<std::pair<const char*, bool (*)(Sweep&)>, 5> ablations{{
      {"A", ablation_a},
      {"C", ablation_c},
      {"D", ablation_d},
      {"G", ablation_g},
      {"H", ablation_h},
  }};
  Sweep s;
  for (const auto& [name, body] : ablations) {
    s.ablation = name;
    body(s);
  }

  benchio::SweepSpec<Cell, core::DsmSortReport> sweep;
  sweep.report_name = "ablations";
  sweep.cells = s.cells;
  sweep.run_fn = [](const Cell& c) { return core::run_dsm_sort(c.mp, c.cfg); };
  benchio::SweepStats stats;
  s.runs = benchio::run_sweep(sweep, &stats);

  obs::BenchReport report("ablations");
  report.results() = obs::Json::array();
  bool all_ok = true;
  double sim_events = 0;
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const core::DsmSortReport& r = s.runs[i];
    all_ok &= r.ok();
    sim_events += double(r.sim_events);
    obs::Json row = knobs(s.cells[i].mp, s.cells[i].cfg);
    row["label"] = s.cells[i].label;
    row["pass1_seconds"] = r.pass1_seconds;
    row["pass2_seconds"] = r.pass2_seconds;
    row["makespan"] = r.makespan;
    row["records_sorted_per_host"] =
        obs::Json::array_of(r.records_sorted_per_host);
    row["ok"] = r.ok();
    row["digest"] = obs::digest_to_string(r.digest);
    report.results().push_back(std::move(row));
  }

  obs::Json& gates = report.root()["gates"];
  gates = obs::Json::object();
  for (const auto& [name, body] : ablations) {
    const bool holds = body(s);
    std::printf("# gate %s: %s\n\n", name, holds ? "holds" : "FAILS");
    gates[name] = holds;
    all_ok &= holds;
  }

  benchio::stamp_sweep(report, stats, sim_events);
  std::printf("# sweep: %zu cells on %u job(s), wall %.2fs\n", stats.cells,
              stats.jobs, stats.wall_clock_s);
  std::printf("# validation: %s\n", all_ok ? "all runs ok" : "FAILURES");
  return benchio::finish(report, all_ok);
}
