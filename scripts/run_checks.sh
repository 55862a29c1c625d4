#!/usr/bin/env bash
# One-shot pre-commit gate: build (warnings are errors, LMAS_WERROR=ON)
# + tier-1 tests, then the same tier-1
# suite under ASan/UBSan (separate build tree; sanitizer runs are slower,
# so the long-running property label is left to `ctest -L property`) —
# plus a reduced-case pass of the fault property suites under the
# sanitizers, since degraded-mode delivery (crash/retry/park) is exactly
# where lifetime bugs would hide.
#
# plus a ThreadSanitizer pass over par::Executor, the only place in the
# tree where threads share state (the simulator itself starts no threads;
# the executor runs whole sweep cells side by side).
#
# Usage: scripts/run_checks.sh [build-dir] [sanitizer-build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SAN_BUILD="${2:-build-san}"
TSAN_BUILD="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== [1/7] configure + build, warnings as errors (${BUILD})"
cmake -S . -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLMAS_WERROR=ON
cmake --build "${BUILD}" -j "${JOBS}"

echo "== [2/7] tier-1 tests"
ctest --test-dir "${BUILD}" -L tier1 --output-on-failure

echo "== [3/7] configure + build with sanitizers (${SAN_BUILD})"
cmake -S . -B "${SAN_BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLMAS_SANITIZE=address,undefined
cmake --build "${SAN_BUILD}" -j "${JOBS}"

echo "== [4/7] tier-1 tests under ASan/UBSan"
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "${SAN_BUILD}" -L tier1 --output-on-failure

echo "== [5/7] fault + load-manager property suites under ASan/UBSan (reduced cases)"
# Degraded-mode delivery (crash/retry/park) and mid-run reconfiguration
# (router hot-swap, functor migration re-pinning live endpoints) are the
# two places lifetime bugs would hide; the tenant suites add concurrent
# jobs sharing one engine (embedded DsmSortJob frames, cross-job manager
# clients attaching and detaching mid-run). topology-conservation runs
# the same embedded jobs on hierarchical TopologySpecs (spine resources,
# per-node speeds), covering the rack/spine charging paths.
# migration-economy drives the move-budgeted placer, pricing both
# pre-copy and stop-copy moves, with concurrent pre-copy transfers under
# crash schedules — background bulk transfers racing instance migration
# is a fresh lifetime surface. config-fuzz feeds
# random, often invalid configs through both entry points; a missed
# validation rule there is UB (an oversized shift, a division by zero)
# that only the sanitizers report reliably. host-kernels runs the radix
# sort's ping-pong scatter and RunMerger's raw-pointer run heads (read one
# past a run's end and the sentinel word is never formed), where an
# off-by-one is an out-of-bounds access rather than a wrong answer.
for suite in fault-conservation fault-routing lm-switch lm-migration \
             tenant-conservation tenant-arrival topology-conservation \
             migration-economy config-fuzz host-kernels; do
  UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=1" \
    "${SAN_BUILD}/tools/lmas_check" property --suite "${suite}" --cases 20
done

echo "== [6/7] build executor tests under TSan (${TSAN_BUILD})"
cmake -S . -B "${TSAN_BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLMAS_SANITIZE=thread
cmake --build "${TSAN_BUILD}" -j "${JOBS}" --target par_tests

echo "== [7/7] executor tests under TSan (LMAS_JOBS stressed)"
# Run the whole par suite at several jobs counts: the golden digest test
# inside exercises real engine workloads across the pool.
for j in 2 8; do
  TSAN_OPTIONS="halt_on_error=1" LMAS_JOBS="${j}" \
    "${TSAN_BUILD}/tests/par_tests"
done

echo "== all checks passed"
