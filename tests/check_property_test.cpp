// Property/metamorphic conformance suites (ctest label: property).
//
// Each suite runs 100 seeded cases through the forall() harness; on
// failure the assertion message carries the shrunk counterexample plus a
// copy-pasteable repro command (LMAS_CHECK_SEED=... lmas_check property).
#include <gtest/gtest.h>

#include <cstdio>

#include "check/suites.hpp"

namespace check = lmas::check;

namespace {

constexpr std::size_t kCases = 100;
constexpr std::uint64_t kSeed = 0;

TEST(Property, SortedOutputIsPermutationOfInput) {
  const auto f = check::suite("permutation").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, PacketPartialOrderSurvivesEveryRouter) {
  const auto f = check::suite("packet-order").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, RecordsAndChecksumsAreConserved) {
  const auto f = check::suite("conservation").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, SrRoutingStaysWithinImbalanceBound) {
  const auto f = check::suite("sr-balance").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, PredictorTracksEmulatedPass1Time) {
  const auto f = check::suite("predictor").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, DigestsAreStableAcrossReruns) {
  const auto f = check::suite("digest").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, ConservationHoldsUnderEveryFaultPlan) {
  const auto f = check::suite("fault-conservation").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, NoPacketIsLostToACrashedReplica) {
  const auto f = check::suite("fault-routing").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, RouterHotSwapPreservesPacketOrder) {
  const auto f = check::suite("lm-switch").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, MigrationConservesPacketMultiset) {
  const auto f = check::suite("lm-migration").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, HistogramQuantilesWithinBoundAndMergeOrderFree) {
  const auto f = check::suite("histogram").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, TenantServingConservesRecordsAndJobs) {
  const auto f = check::suite("tenant-conservation").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, TenantArrivalsAreSeedDeterministic) {
  const auto f = check::suite("tenant-arrival").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, TopologyChoiceNeverChangesConservation) {
  const auto f = check::suite("topology-conservation").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, PodBalanceContractsHold) {
  const auto f = check::suite("pod-balance").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, InvalidConfigsAreRejectedAtEntryValidOnesComplete) {
  const auto f = check::suite("config-fuzz").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

TEST(Property, MigrationEconomyHoldsAndPricesBothModes) {
  const auto f = check::suite("migration-economy").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
  // With the pre-copy threshold fixed, the generated cases must still
  // reach both sides of it.
  const check::PricedModes modes = check::migration_economy_priced_modes();
  std::printf("migration-economy: %zu cases priced pre-copy, %zu stop-copy\n",
              modes.precopy, modes.stopcopy);
  EXPECT_GT(modes.precopy, 0u);
  EXPECT_GT(modes.stopcopy, 0u);
}

TEST(Property, HostKernelsMatchTheCodeTheyReplaced) {
  const auto f = check::suite("host-kernels").run(kCases, kSeed);
  ASSERT_FALSE(f.has_value()) << f->describe();
}

// The registry the lmas_check driver iterates must cover every suite above.
TEST(Property, RegistryListsAllSuites) {
  ASSERT_EQ(check::all_suites().size(), 18u);
  for (const auto& s : check::all_suites()) {
    EXPECT_NE(s.prop, nullptr) << s.name;
    EXPECT_GE(s.default_cases, 100u) << s.name;
  }
}

}  // namespace
