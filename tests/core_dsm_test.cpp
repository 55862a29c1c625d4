#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "asu/asu.hpp"
#include "core/core.hpp"
#include "fault/injector.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;

namespace {

asu::MachineParams machine(unsigned hosts, unsigned asus, double c = 8.0) {
  asu::MachineParams mp;
  mp.num_hosts = hosts;
  mp.num_asus = asus;
  mp.c = c;
  return mp;
}

core::DsmSortConfig small_config(std::size_t n = 1 << 16) {
  core::DsmSortConfig cfg;
  cfg.total_records = n;
  cfg.alpha = 16;
  cfg.log2_alpha_beta = 14;  // beta = 1024: several runs even at small n
  cfg.seed = 7;
  return cfg;
}

TEST(DsmSort, Pass1ProducesSortedRunsAndConservesRecords) {
  auto rep = core::run_dsm_sort(machine(1, 4), small_config());
  EXPECT_TRUE(rep.runs_sorted_ok);
  EXPECT_TRUE(rep.subsets_ok);
  EXPECT_TRUE(rep.checksum_ok);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.records_in, std::size_t(1) << 16);
  EXPECT_EQ(rep.records_stored, rep.records_in);
  EXPECT_GT(rep.runs_stored, 0u);
  EXPECT_GT(rep.pass1_seconds, 0.0);
}

TEST(DsmSort, PassiveBaselineAlsoCorrect) {
  auto cfg = small_config();
  cfg.distribute_on_asus = false;
  auto rep = core::run_dsm_sort(machine(1, 4), cfg);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.records_stored, cfg.total_records);
  // Baseline forms full-K runs (except possibly the last); each run is
  // striped across the ASUs, so stored stripe count <= runs * D.
  EXPECT_LE(rep.runs_stored,
            ((cfg.total_records >> cfg.log2_alpha_beta) + 1) * 4);
}

TEST(DsmSort, FullTwoPassSortIsGloballySorted) {
  auto cfg = small_config();
  cfg.run_merge_pass = true;
  auto rep = core::run_dsm_sort(machine(2, 4), cfg);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.final_sorted_ok);
  EXPECT_EQ(rep.records_final, cfg.total_records);
  EXPECT_GT(rep.pass2_seconds, 0.0);
  EXPECT_NEAR(rep.makespan, rep.pass1_seconds + rep.pass2_seconds, 1e-9);
}

struct DsmCase {
  unsigned hosts;
  unsigned asus;
  unsigned alpha;
  core::KeyDist dist;
  bool merge;
};

// The case's ctest name. The default prints the raw bytes, padding and
// all, so the name changed from build to build.
void PrintTo(const DsmCase& c, std::ostream* os) {
  *os << 'h' << c.hosts << "_d" << c.asus << "_a" << c.alpha << '_'
      << core::key_dist_name(c.dist) << (c.merge ? "_merge" : "");
}

class DsmSweep : public ::testing::TestWithParam<DsmCase> {};

TEST_P(DsmSweep, EndToEndInvariantsHold) {
  const auto& pc = GetParam();
  auto cfg = small_config(1 << 15);
  cfg.alpha = pc.alpha;
  cfg.key_dist = pc.dist;
  cfg.run_merge_pass = pc.merge;
  auto rep = core::run_dsm_sort(machine(pc.hosts, pc.asus), cfg);
  EXPECT_TRUE(rep.ok()) << "alpha=" << pc.alpha;
  EXPECT_EQ(rep.records_stored, cfg.total_records);
  if (pc.merge) {
    EXPECT_EQ(rep.records_final, cfg.total_records);
  }
  // All sort work happened on hosts.
  const auto sorted_total =
      std::accumulate(rep.records_sorted_per_host.begin(),
                      rep.records_sorted_per_host.end(), std::size_t{0});
  EXPECT_EQ(sorted_total, cfg.total_records);
  // Utilizations are sane.
  for (const auto& u : rep.hosts) {
    EXPECT_GE(u.mean, 0.0);
    EXPECT_LE(u.mean, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DsmSweep,
    ::testing::Values(
        DsmCase{1, 2, 1, core::KeyDist::Uniform, false},
        DsmCase{1, 2, 256, core::KeyDist::Uniform, false},
        DsmCase{1, 8, 16, core::KeyDist::Uniform, true},
        DsmCase{2, 4, 4, core::KeyDist::Exponential, true},
        DsmCase{2, 16, 64, core::KeyDist::HalfUniformHalfExp, false},
        DsmCase{4, 8, 16, core::KeyDist::Uniform, true},
        DsmCase{1, 3, 16, core::KeyDist::Sorted, true},
        DsmCase{2, 5, 16, core::KeyDist::ReverseSorted, true}));

TEST(DsmSort, OddRecordCountsAndTinyInputs) {
  for (std::size_t n : {std::size_t(1), std::size_t(17), std::size_t(4097)}) {
    auto cfg = small_config(n);
    cfg.run_merge_pass = true;
    auto rep = core::run_dsm_sort(machine(1, 3), cfg);
    EXPECT_TRUE(rep.ok()) << "n=" << n;
    EXPECT_EQ(rep.records_stored, n);
    EXPECT_EQ(rep.records_final, n);
  }
}

// ---------- the validation boundary ----------
//
// Unchecked, each of these configs reaches an integer division by zero
// (or an undefined shift) deep inside the run, so both entry points must
// reject it with std::invalid_argument before anything is built.

TEST(DsmSortValidation, ZeroAlphaThrowsAtEntry) {
  auto cfg = small_config();
  cfg.alpha = 0;
  EXPECT_THROW(core::run_dsm_sort(machine(1, 4), cfg), std::invalid_argument);
  lmas::sim::Engine eng;
  asu::Cluster cluster(eng, machine(1, 4));
  EXPECT_THROW(core::DsmSortJob(eng, cluster, cfg), std::invalid_argument);
}

TEST(DsmSortValidation, Log2AlphaBetaOf64ThrowsAtEntry) {
  auto cfg = small_config();
  cfg.log2_alpha_beta = 64;
  EXPECT_THROW(core::run_dsm_sort(machine(1, 4), cfg), std::invalid_argument);
}

TEST(DsmSortValidation, MachineWithoutHostsThrowsAtEntry) {
  EXPECT_THROW(core::run_dsm_sort(machine(0, 4), small_config()),
               std::invalid_argument);
}

TEST(DsmSortValidation, MachineWithoutAsusThrowsAtEntry) {
  EXPECT_THROW(core::run_dsm_sort(machine(1, 0), small_config()),
               std::invalid_argument);
}

TEST(DsmSortValidation, ZeroRecordBytesThrowsAtEntry) {
  auto mp = machine(1, 4);
  mp.record_bytes = 0;
  EXPECT_THROW(core::run_dsm_sort(mp, small_config()), std::invalid_argument);
}

// An embedded job runs on its owner's engine: the fault injector, the
// tracer and the sampler are the owner's, so a job that carries one must
// be refused by name rather than run unfaulted, untraced or unsampled.
// (`load_manager` stays allowed: HierarchicalFaultedManagedJobsArePinned
// builds its jobs with it.)
TEST(DsmSortJob, RejectsTheOwnersFieldsByName) {
  auto faulted = small_config();
  faulted.faults.slowdown(/*on_asu=*/false, 0, 0.0, 0.1, 2.0);
  auto traced = small_config();
  traced.trace_file = "job_trace.json";
  auto sampled = small_config();
  sampled.telemetry.sampler = true;
  const struct {
    core::DsmSortConfig cfg;
    const char* field;
    const char* owner;
  } cases[] = {{faulted, "faults", "TenancyConfig"},
               {traced, "trace_file", "TenancyConfig"},
               {sampled, "telemetry.sampler", "ClusterRun"}};
  for (const auto& c : cases) {
    lmas::sim::Engine eng;
    asu::Cluster cluster(eng, machine(1, 4));
    std::string what;
    try {
      core::DsmSortJob job(eng, cluster, c.cfg);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    EXPECT_NE(what.find(c.field), std::string::npos) << what;
    EXPECT_NE(what.find(c.owner), std::string::npos) << what;
  }
}

TEST(DsmSort, DeterministicAcrossRuns) {
  auto cfg = small_config();
  auto r1 = core::run_dsm_sort(machine(1, 4), cfg);
  auto r2 = core::run_dsm_sort(machine(1, 4), cfg);
  EXPECT_DOUBLE_EQ(r1.pass1_seconds, r2.pass1_seconds);
  EXPECT_EQ(r1.runs_stored, r2.runs_stored);
  EXPECT_EQ(r1.records_sorted_per_host, r2.records_sorted_per_host);
}

// ---------- the paper's qualitative performance claims ----------

TEST(DsmSortShape, HighAlphaLosesWithFewAsus) {
  // Figure 9, left edge: with 2 slow ASUs, alpha=256 shifts too much work
  // onto the bottlenecked ASUs and runs slower than the passive baseline.
  auto cfg = small_config(1 << 17);
  cfg.log2_alpha_beta = 18;
  cfg.alpha = 256;
  auto active = core::run_dsm_sort(machine(1, 2), cfg);
  cfg.distribute_on_asus = false;
  auto passive = core::run_dsm_sort(machine(1, 2), cfg);
  EXPECT_TRUE(active.ok());
  EXPECT_TRUE(passive.ok());
  EXPECT_GT(active.pass1_seconds, passive.pass1_seconds);
}

TEST(DsmSortShape, HighAlphaWinsWithManyAsus) {
  // Figure 9, right edge: with 16 ASUs the host saturates; alpha=256
  // offloads comparisons and beats the baseline. N must dwarf K and the
  // ASU staging budget for the pipeline to reach steady state.
  auto cfg = small_config(1 << 22);
  cfg.log2_alpha_beta = 18;
  cfg.alpha = 256;
  auto active = core::run_dsm_sort(machine(1, 16), cfg);
  cfg.distribute_on_asus = false;
  auto passive = core::run_dsm_sort(machine(1, 16), cfg);
  EXPECT_TRUE(active.ok());
  EXPECT_TRUE(passive.ok());
  EXPECT_LT(active.pass1_seconds, passive.pass1_seconds);
  const double speedup = passive.pass1_seconds / active.pass1_seconds;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 2.0);
}

TEST(DsmSortShape, SrRoutingBalancesSkewAcrossHosts) {
  // Figure 10: half-uniform/half-exponential input. Static subset
  // partitioning leaves one host underused; SR keeps both busy and
  // finishes sooner.
  auto cfg = small_config(1 << 17);
  cfg.alpha = 16;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.sort_router = core::RouterKind::Static;
  auto stat = core::run_dsm_sort(machine(2, 8), cfg);
  cfg.sort_router = core::RouterKind::SimpleRandomization;
  auto sr = core::run_dsm_sort(machine(2, 8), cfg);
  ASSERT_TRUE(stat.ok());
  ASSERT_TRUE(sr.ok());

  auto imbalance = [](const core::DsmSortReport& r) {
    const double a = double(r.records_sorted_per_host[0]);
    const double b = double(r.records_sorted_per_host[1]);
    return std::abs(a - b) / (a + b);
  };
  EXPECT_GT(imbalance(stat), 0.15);  // skew hits one host
  EXPECT_LT(imbalance(sr), 0.05);    // SR splits every subset evenly
  EXPECT_LT(sr.pass1_seconds, stat.pass1_seconds);
}

TEST(DsmSortShape, UtilizationSeriesShowsIdleHostUnderStaticSkew) {
  auto cfg = small_config(1 << 17);
  cfg.alpha = 16;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.sort_router = core::RouterKind::Static;
  auto rep = core::run_dsm_sort(machine(2, 8), cfg);
  ASSERT_TRUE(rep.ok());
  // Mean utilizations differ notably between the two hosts.
  EXPECT_GT(std::abs(rep.hosts[0].mean - rep.hosts[1].mean), 0.1);
}

// ---------- predictor / adaptive configuration ----------

TEST(Adaptive, PredictorTracksSimulatedPass1Time) {
  // Needs N >> K and N/D >> the ASU staging budget so pipeline ramps are
  // second-order, as in the paper's experiments.
  auto cfg = small_config(1 << 21);
  cfg.log2_alpha_beta = 18;
  for (unsigned alpha : {1u, 16u, 256u}) {
    cfg.alpha = alpha;
    const auto mp = machine(1, 8);
    const auto pred = core::predict_pass1(mp, cfg);
    const auto rep = core::run_dsm_sort(mp, cfg);
    EXPECT_TRUE(rep.ok());
    EXPECT_NEAR(pred.seconds, rep.pass1_seconds, 0.35 * rep.pass1_seconds)
        << "alpha=" << alpha << " bottleneck=" << pred.bottleneck;
  }
}

TEST(Adaptive, ChoosesSmallAlphaForFewAsusLargeForMany) {
  const unsigned candidates[] = {1, 4, 16, 64, 256};
  auto cfg = small_config(1 << 20);
  cfg.log2_alpha_beta = 18;
  const unsigned few = core::choose_alpha(machine(1, 2), cfg, candidates);
  const unsigned many = core::choose_alpha(machine(1, 64), cfg, candidates);
  EXPECT_LE(few, 4u);
  EXPECT_EQ(many, 256u);
}

TEST(Adaptive, AdaptiveNeverWorseThanFixedChoices) {
  const unsigned candidates[] = {1, 4, 16, 64, 256};
  auto cfg = small_config(1 << 20);
  cfg.log2_alpha_beta = 18;
  for (unsigned d : {2u, 8u, 32u}) {
    const auto mp = machine(1, d);
    const unsigned star = core::choose_alpha(mp, cfg, candidates);
    auto best_cfg = cfg;
    best_cfg.alpha = star;
    const double t_star = core::predict_pass1(mp, best_cfg).seconds;
    for (unsigned a : candidates) {
      auto c = cfg;
      c.alpha = a;
      EXPECT_LE(t_star, core::predict_pass1(mp, c).seconds + 1e-12);
    }
  }
}

TEST(Adaptive, SpeedupPredictionMatchesHandAnalysis) {
  // At D -> infinity the active pass-1 is host-bound at
  // handling + log2(beta) compares vs. baseline handling + log2(K):
  // the asymptotic speedup for alpha=256, K=2^18 is about 1.6-1.7.
  auto cfg = small_config(1 << 20);
  cfg.log2_alpha_beta = 18;
  cfg.alpha = 256;
  const double s = core::predict_speedup(machine(1, 512), cfg);
  EXPECT_GT(s, 1.4);
  EXPECT_LT(s, 1.9);
}

}  // namespace

namespace {

TEST(DsmSort, BitIdenticalReplayAcrossProcessRuns) {
  // Full determinism: every timing, count and utilization bin must be
  // byte-identical between two executions of the same seeded config —
  // the property that makes the figure benches reproducible.
  auto cfg = small_config(1 << 16);
  cfg.run_merge_pass = true;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.sort_router = core::RouterKind::SimpleRandomization;
  const auto a = core::run_dsm_sort(machine(2, 6), cfg);
  const auto b = core::run_dsm_sort(machine(2, 6), cfg);
  EXPECT_EQ(a.pass1_seconds, b.pass1_seconds);
  EXPECT_EQ(a.pass2_seconds, b.pass2_seconds);
  EXPECT_EQ(a.runs_stored, b.runs_stored);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t h = 0; h < a.hosts.size(); ++h) {
    EXPECT_EQ(a.hosts[h].series, b.hosts[h].series);
  }
}

TEST(DsmSort, TelemetryIsDigestNeutralAndFillsReportBlocks) {
  // The telemetry pipeline's core contract: histograms + sampler observe
  // the run without perturbing it — same digest, same timings, same
  // event count as the telemetry-free execution.
  auto cfg = small_config(1 << 16);
  cfg.sort_router = core::RouterKind::SimpleRandomization;
  cfg.load_manager.mode = core::LoadManagerMode::Manage;
  const auto off = core::run_dsm_sort(machine(2, 6), cfg);

  cfg.telemetry.histograms = true;
  cfg.telemetry.sampler = true;
  cfg.telemetry.sample_period = 0;  // derive from the utilization bin
  const auto on = core::run_dsm_sort(machine(2, 6), cfg);

  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.sim_events, off.sim_events);
  EXPECT_EQ(on.pass1_seconds, off.pass1_seconds);
  EXPECT_EQ(on.makespan, off.makespan);

  // Off: the report blocks stay null and absent from the artifact.
  EXPECT_TRUE(off.histograms.is_null());
  EXPECT_TRUE(off.time_series.is_null());
  const auto off_json = core::dsm_report_to_json(off);
  EXPECT_FALSE(off_json.contains("histograms"));
  EXPECT_FALSE(off_json.contains("time_series"));

  // On: per-stage + job-level quantile summaries with sane contents.
  ASSERT_TRUE(on.histograms.is_object());
  for (const char* name :
       {"sort.packet_seconds", "store.packet_seconds", "dsm.job_seconds",
        "to_sort.delivery_seconds", "to_sort.queue_wait_seconds"}) {
    const lmas::obs::Json* h = on.histograms.find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->at("count").as_int(), 0) << name;
    EXPECT_GE(h->at("p99").as_double(), h->at("p50").as_double()) << name;
    EXPECT_GE(h->at("max").as_double(), h->at("p99").as_double()) << name;
  }
  const lmas::obs::Json* job = on.histograms.find("dsm.job_seconds");
  EXPECT_DOUBLE_EQ(job->at("max").as_double(), on.makespan);

  // On: a host-load series sampled on the derived period.
  ASSERT_TRUE(on.time_series.is_object());
  EXPECT_GT(on.time_series.at("samples").as_int(), 0);
  const lmas::obs::Json& series = on.time_series.at("series");
  ASSERT_NE(series.find("host.load.0"), nullptr);
  EXPECT_EQ(series.at("host.load.0").size(),
            on.time_series.at("times").size());
  const auto on_json = core::dsm_report_to_json(on);
  EXPECT_TRUE(on_json.contains("histograms"));
  EXPECT_TRUE(on_json.contains("time_series"));
}

TEST(DsmSort, SeedChangesDataButNotCorrectness) {
  auto cfg = small_config(1 << 15);
  const auto a = core::run_dsm_sort(machine(1, 4), cfg);
  cfg.seed = 12345;
  const auto b = core::run_dsm_sort(machine(1, 4), cfg);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_NE(a.pass1_seconds, b.pass1_seconds);  // different keys, new timing
}

// Two racks (host0 + asu0..3 | host1 + asu4..7) over a 2:1
// oversubscribed spine.
asu::TopologySpec two_racks(const asu::MachineParams& mp) {
  auto topo = asu::TopologySpec::flat(mp);
  topo.racks = 2;
  topo.spine = asu::TierSpec{.latency = 0.001, .bandwidth = 1e9,
                             .oversubscription = 2.0};
  return topo;
}

// Differential oracle for the embedded path on a hierarchical machine:
// two labeled DsmSortJobs share one engine, one cross-job LoadManager and
// one fault timeline (a sort host, then a store ASU, crash while packets
// are in flight to them, so deliveries retry and park). The digest and
// the metrics fingerprint were computed before the load-manager,
// fault-retry and rack-affinity options became constants.
TEST(DsmSort, HierarchicalFaultedManagedJobsArePinned) {
  const auto mp = machine(2, 8);
  lmas::sim::Engine eng;
  asu::Cluster cluster(eng, two_racks(mp));
  lmas::fault::FaultPlan plan;
  plan.crash(/*on_asu=*/false, /*node=*/1, /*at=*/0.015, /*duration=*/0.004);
  plan.crash(/*on_asu=*/true, /*node=*/5, /*at=*/0.028, /*duration=*/0.01);
  plan.slowdown(/*on_asu=*/false, /*node=*/0, /*at=*/0.002,
                /*duration=*/0.02, /*factor=*/3.0);
  lmas::fault::FaultInjector injector(
      cluster, plan,
      lmas::sim::Rng(7).stream(lmas::sim::stream_id("faults")));
  eng.spawn(injector.run(), "fault-injector");

  core::LoadManagerConfig lm;
  lm.mode = core::LoadManagerMode::Manage;
  lm.period = 0.001;
  core::LoadMonitor monitor(cluster, lm.period);
  core::LoadManager manager(eng, lm);
  monitor.set_observer(
      [&manager](const core::LoadSample& s) { manager.on_sample(s); });
  monitor.start();

  std::vector<std::unique_ptr<core::DsmSortJob>> jobs;
  for (const char* label : {"a", "b"}) {
    auto cfg = small_config(1 << 15);
    cfg.key_dist = core::KeyDist::Exponential;
    cfg.label = label;
    cfg.load_manager = lm;
    jobs.push_back(std::make_unique<core::DsmSortJob>(eng, cluster, cfg));
    jobs.back()->attach_manager(manager, label);
    eng.spawn(jobs.back()->body(), std::string(label) + ".job");
  }
  eng.run();
  for (const auto& job : jobs) {
    ASSERT_TRUE(job->finished());
    EXPECT_TRUE(job->report().ok());
  }
  const auto metrics = eng.metrics().snapshot();
  // The run exercises every path the oracle guards: in-flight retries
  // after a crash (`*.fault_retries` registers at the first retry),
  // router swaps and at least one migration.
  EXPECT_NE(metrics.dump().find(".fault_retries"), std::string::npos);
  EXPECT_GT(manager.router_switches(), 0u);
  EXPECT_GT(manager.migrations(), 0u);
  EXPECT_EQ(eng.digest(), 0xe52ba4273c9cfc0eULL);
  EXPECT_EQ(lmas::sim::fnv1a64(metrics.dump()), 0xbe85da9bab9cd9f7ULL);
}

// Regression: run-storage placement used to be topology-blind — every
// sort host scattered its runs round-robin over ALL ASUs, so on a
// hierarchical spec roughly (racks-1)/racks of the stored bytes crossed
// the oversubscribed spine for no reason. Now each sort host stores its
// runs on the ASUs of its own rack: per rack, the records its ASUs store
// are exactly the records its host sorted.
TEST(DsmSort, RackAffinityStoreKeepsRunsInTheirRack) {
  const auto mp = machine(2, 8);
  const auto topo = two_racks(mp);
  lmas::sim::Engine eng;
  asu::Cluster cluster(eng, topo);
  core::DsmSortJob job(eng, cluster, small_config());
  eng.spawn(job.body(), "rack-affinity-job");
  eng.run();
  ASSERT_TRUE(job.finished());
  ASSERT_TRUE(job.report().ok());
  const auto& sorted = job.report().records_sorted_per_host;
  std::vector<std::uint64_t> stored(topo.racks, 0);
  for (unsigned a = 0; a < mp.num_asus; ++a) {
    const auto* c = eng.metrics().find_counter(
        "functor.store" + std::to_string(a) + ".records");
    ASSERT_NE(c, nullptr) << a;
    stored[topo.rack_of_asu(a)] += c->value();
  }
  for (unsigned h = 0; h < mp.num_hosts; ++h) {
    EXPECT_GT(sorted[h], 0u) << h;
    EXPECT_EQ(stored[topo.rack_of_host(h)], sorted[h]) << "host " << h;
  }
}

}  // namespace
