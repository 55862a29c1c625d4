#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/property.hpp"

namespace lmas::check {

/// The conformance property suites. Each runs `cases` seeded cases through
/// the forall() harness and returns the shrunk counterexample on failure.
///
/// The suites encode the model's load-management contracts (Sections 3
/// and 4 of the paper) as machine-checkable invariants:
///
///  - permutation:  sorted output is an exact multiset permutation of the
///                  input (external mergesort layer).
///  - packet_order: the set contract — routing is free to scatter packets
///                  across replicated instances, but records within a
///                  packet stay together and per-(producer, subset)
///                  sequence numbers arrive in order at every instance,
///                  under every RoutingPolicy.
///  - conservation: DSM-Sort neither loses nor invents records: counts and
///                  key checksums are conserved through distribute, sort
///                  and merge, for every machine shape / αβγ split /
///                  workload / router sampled.
///  - sr_balance:   SR routing's imbalance bound — randomized cycling
///                  sends each subset's packets to every instance either
///                  floor(n_s/k) or ceil(n_s/k) times.
///  - predictor:    the declared-cost model's predict_pass1 stays within a
///                  declared multiplicative tolerance of the emulated
///                  pass-1 time in the uniform-key regime it models.
///  - digest:       same seed + same config reproduce bit-identical
///                  execution digests and metric fingerprints; a different
///                  seed produces a different digest.
///  - fault-conservation: DSM-Sort under every generated FaultPlan (ASU
///                  slowdowns, crash/recover windows, link delays) still
///                  conserves records and checksums, keeps runs sorted,
///                  moves the digest, and replays deterministically.
///  - fault-routing: the degraded-mode delivery contract at the routing
///                  layer — no packet is lost to a crashed replica
///                  (retry-with-timeout re-routes it), packets stay
///                  intact, SR balance survives crash-free perturbation,
///                  and faulted runs replay bit-identically.
///  - lm-switch:    router hot-swap neutrality — promoting/demoting a
///                  SwitchableRouter at random instants mid-run preserves
///                  the full set contract (per-(producer, subset) seq
///                  order at every instance, packet integrity, no loss)
///                  and replays bit-identically.
///  - lm-migration: functor migration conservation — re-pinning instances
///                  to random nodes at random instants may let packets
///                  overtake (the ordering half of the contract is
///                  deliberately forfeit), but the delivered
///                  (producer, subset, seq) multiset must equal the
///                  emitted one, records stay intact within packets, and
///                  the run replays bit-identically.
///  - histogram:    the telemetry pipeline's accuracy contract — a
///                  LatencyHistogram's streamed nearest-rank quantiles
///                  stay within the documented per-bucket relative error
///                  of exact sorted-sample quantiles, and merging shard
///                  histograms is order- and grouping-independent.
///  - tenant-conservation: multi-tenant serving loses no work — every
///                  admitted job completes and each tenant's record
///                  counts are conserved end to end, under concurrent
///                  mixed-shape jobs, admission waits, fair-share
///                  charging, and cross-job load management (migration
///                  included).
///  - tenant-arrival: the seeded open-arrival determinism contract —
///                  same config reproduces the identical schedule,
///                  fingerprint, and execution digest; every arrival is
///                  well-formed against its tenant's mix; a different
///                  seed moves the fingerprint.
///  - topology-conservation: placement-freedom of the set contract — the
///                  same DSM-Sort conserves records, checksums, subset
///                  boundaries and run-sortedness whether it runs on the
///                  flat machine or a random hierarchical TopologySpec
///                  (racks, oversubscribed spine, heterogeneous speeds).
///  - pod-balance:  balance contracts of the scale-out routers on
///                  (possibly hierarchical) target sets: SR's floor/ceil
///                  cycle bound aggregated per rack, power-of-d with a
///                  full sample is exact least-loaded (spread ≤ 1),
///                  power-of-two stays within a generous margin of the
///                  mean-field log-log gap, and power-of-one ignores
///                  advertised load entirely.
///  - migration-economy: the budgeted placer's safety contract — a
///                  managed DSM-Sort with a random per-tick move budget
///                  (and, half the time, a random fault plan with crash
///                  windows underneath) still conserves records,
///                  checksums and subset boundaries; every journaled
///                  placer tick admits at most the budgeted moves; each
///                  decision's declared bytes cover at least the
///                  migration overhead; and the managed run replays
///                  bit-identically.
///  - config-fuzz:  the validation boundary — random, often invalid
///                  DsmSortConfig × MachineParams × LoadManagerConfig
///                  values and small TenancyConfigs are rejected with
///                  std::invalid_argument at entry exactly when a
///                  validation rule says so; every accepted run
///                  completes with ok() and conserves its records. A
///                  crash, a hang or any other exception fails it.
///  - host-kernels: differential check of DSM-Sort's host-side record
///                  kernels against the generic code they replaced —
///                  em::sort_by_key equals std::stable_sort by key
///                  (ids included); em::RunMerger, filled in chunks of
///                  1, a random size or more than is left, emits the
///                  std::function-source LoserTree's exact sequence over
///                  fan-ins 1..64 with empty runs; core::KeyClassifier
///                  (per key and per batch) equals the type-erased range
///                  classifier and the std::lower_bound splitter search;
///                  core::run_in_subset equals the per-record subset
///                  check on sorted, unsorted and corrupted runs;
///                  core::RunCheck, fed a run's random chunks (some
///                  empty, some split into same-seq pieces) in shuffled
///                  seq order, gives the whole-run check's count, key
///                  sum, order and subset verdicts, also with two
///                  records swapped inside a chunk or across a chunk
///                  boundary and with a key nudged into the neighbouring
///                  subset. Inputs
///                  cover every KeyDist, run sizes 0..2β+odd, all-equal
///                  keys, keys with constant high bytes and keys at the
///                  top of the key space.

/// One registered suite: its name (the `--suite` key and report label),
/// its property, and the size the seeded cases ramp up to.
struct SuiteInfo {
  std::string_view name;
  std::optional<std::string> (*prop)(sim::Rng& rng, unsigned size);
  unsigned max_size;
  std::size_t default_cases = 100;

  /// Run `cases` seeded cases; the shrunk counterexample on failure.
  [[nodiscard]] std::optional<Failure> run(std::size_t cases,
                                           std::uint64_t seed) const;
};

/// Registry for the lmas_check driver and the gtest property binaries.
[[nodiscard]] const std::vector<SuiteInfo>& all_suites();

/// The registered suite named `name` (std::out_of_range if none).
[[nodiscard]] const SuiteInfo& suite(std::string_view name);

/// How many migration-economy cases run in this process journaled at
/// least one pre-copy move, and at least one stop-copy move.
struct PricedModes {
  std::size_t precopy = 0;
  std::size_t stopcopy = 0;
};
[[nodiscard]] PricedModes migration_economy_priced_modes();

}  // namespace lmas::check
