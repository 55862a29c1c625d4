// Golden-run regression (ctest label: tier1).
//
// The pinned file lives at tests/golden/golden_runs.json (override with
// LMAS_GOLDEN_FILE). When an intentional behavior change moves a digest,
// regenerate with `make regolden` and commit the new file alongside the
// change. See EXPERIMENTS.md, "Reproducing a run".
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "check/golden.hpp"

namespace check = lmas::check;

namespace {

// The conformance contract: same seed + same config => identical digest.
// Every pinned case is executed twice in-process; any divergence means
// hidden nondeterminism (iteration order, uninitialized state, wall-clock
// leakage) entered the engine.
TEST(Golden, DigestIsDeterministicAcrossReruns) {
  for (const auto& c : check::golden_cases()) {
    const check::GoldenResult a = check::run_golden_case(c);
    const check::GoldenResult b = check::run_golden_case(c);
    EXPECT_EQ(a, b) << c.name << ": rerun diverged";
    EXPECT_TRUE(a.ok) << c.name << ": run failed validation";
  }
}

// The telemetry pipeline's acceptance gate: every pinned case must
// execute bit-identically with histograms + sampler + spans enabled —
// same digest, same timings, same event count. Histograms observe from
// existing control flow, the sampler rides the run loop without
// scheduling events, and span ids are only allocated while tracing.
// The metrics fingerprint is the one field that legitimately grows:
// opting in registers latency instruments, and the snapshot dumps the
// whole registry. That is exactly why telemetry defaults OFF — the
// pinned fingerprints cover the default configuration.
TEST(Golden, ExecutionUnmovedByTelemetry) {
  for (const auto& c : check::golden_cases()) {
    const check::GoldenResult off = check::run_golden_case(c);
    check::GoldenCase with = c;
    with.config.telemetry.histograms = true;
    with.config.telemetry.sampler = true;
    const check::GoldenResult on = check::run_golden_case(with);
    EXPECT_EQ(on.digest, off.digest) << c.name;
    EXPECT_EQ(on.pass1_seconds, off.pass1_seconds) << c.name;
    EXPECT_EQ(on.sim_events, off.sim_events) << c.name;
    EXPECT_EQ(on.records_in, off.records_in) << c.name;
    EXPECT_TRUE(on.ok) << c.name;
    EXPECT_NE(on.metrics_fingerprint, off.metrics_fingerprint)
        << c.name << ": opting in should register latency instruments";
  }
}

TEST(Golden, FreshRunsMatchPinnedFile) {
  const std::string path = check::default_golden_path();
  const auto pinned = check::load_goldens(path);
  ASSERT_TRUE(pinned.has_value())
      << "cannot load " << path << " (regenerate with: make regolden)";
  std::vector<check::GoldenResult> fresh;
  for (const auto& c : check::golden_cases()) {
    fresh.push_back(check::run_golden_case(c));
  }
  const auto mismatches = check::compare_goldens(*pinned, fresh);
  for (const auto& m : mismatches) {
    ADD_FAILURE() << m.name << ": " << m.detail
                  << "\n  (intentional change? run: make regolden)";
  }
}

TEST(Golden, FileRoundTripsThroughJson) {
  std::vector<check::GoldenResult> results;
  check::GoldenResult r;
  r.name = "case-a";
  r.digest = 0xdeadbeefcafef00dULL;
  r.metrics_fingerprint = 0x0123456789abcdefULL;
  r.pass1_seconds = 1.25;
  r.records_in = 16384;
  r.sim_events = 987654321;
  r.ok = true;
  results.push_back(r);

  const std::string path = ::testing::TempDir() + "golden_roundtrip.json";
  ASSERT_TRUE(check::write_goldens(path, results));
  const auto back = check::load_goldens(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back->front(), results.front());
  EXPECT_TRUE(check::compare_goldens(results, *back).empty());
}

TEST(Golden, CompareFlagsMissingAndExtraCases) {
  check::GoldenResult a;
  a.name = "only-pinned";
  check::GoldenResult b;
  b.name = "only-fresh";
  const auto mism = check::compare_goldens({a}, {b});
  ASSERT_EQ(mism.size(), 2u);
  EXPECT_EQ(mism[0].name, "only-pinned");
  EXPECT_EQ(mism[1].name, "only-fresh");
}

TEST(Golden, LoadRejectsWrongSchema) {
  const std::string path = ::testing::TempDir() + "golden_bad_schema.json";
  {
    std::ofstream f(path, std::ios::trunc);
    f << R"({"schema": "something-else", "runs": []})" << "\n";
  }
  EXPECT_FALSE(check::load_goldens(path).has_value());
  EXPECT_FALSE(check::load_goldens(path + ".does-not-exist").has_value());
}

}  // namespace
