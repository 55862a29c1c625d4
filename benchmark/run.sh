#!/usr/bin/env bash
# Builds lmas_bench and runs workloads, each in its own process.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
#
# Without --workload it runs all three workloads. Defaults: seed 42, 20
# seconds of timed repetitions per workload (run_seconds in BENCHMARK.json),
# untraced. It prints every metric as `workload metric value unit`, then
# one JSON result line per workload; the last line of output is the last
# workload's result line. It writes benchmark/out/summary.json. It exits
# non-zero if the build fails, a workload fails to run, or any correctness
# check fails.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$bench_dir")"
build_dir="$bench_dir/build"
out_dir="$bench_dir/out"
all_workloads=(sort_skew_managed sort_merge_sampled tenancy_small_jobs)

die() {
  echo "run.sh: $*" >&2
  exit 2
}

workloads=()
seed=42
seconds=20
trace=0
while (($#)); do
  case "$1" in
    --workload)
      (($# >= 2)) || die "--workload needs a value"
      workloads+=("$2")
      shift 2
      ;;
    --seed)
      [[ "${2:-}" =~ ^[0-9]+$ ]] || die "--seed needs a whole number"
      seed="$2"
      shift 2
      ;;
    --seconds)
      [[ "${2:-}" =~ ^[0-9]+([.][0-9]+)?$ ]] || die "--seconds needs a number"
      seconds="$2"
      shift 2
      ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"
        shift 2
      else
        trace=1
        shift
      fi
      ;;
    -h | --help)
      sed -n '2,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) die "unknown argument '$1'" ;;
  esac
done
((${#workloads[@]})) || workloads=("${all_workloads[@]}")
for w in "${workloads[@]}"; do
  [[ " ${all_workloads[*]} " == *" $w "* ]] || die "unknown workload '$w'"
done

if [[ ! -f "$repo_dir/src/CMakeLists.txt" ]]; then
  echo "run.sh: no src/ beside benchmark/; run it from a full checkout" >&2
  exit 1
fi

# Build (a no-op when up to date). Compiler temporaries stay in the build
# directory.
mkdir -p "$build_dir/tmp" "$out_dir"
export TMPDIR="$build_dir/tmp"
jobs="$(nproc 2>/dev/null || echo 2)"
((jobs <= 4)) || jobs=4
build() {
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    local generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$bench_dir" -B "$build_dir" ${generator[@]+"${generator[@]}"} \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo || return 1
  fi
  cmake --build "$build_dir" --target lmas_bench -j "$jobs"
}
if ! build >"$out_dir/build.log" 2>&1; then
  tail -n 30 "$out_dir/build.log" >&2
  echo "run.sh: build failed; see benchmark/out/build.log" >&2
  exit 1
fi

status=0
results=()
for w in "${workloads[@]}"; do
  result="$out_dir/result_$w.json"
  rm -f "$result"
  "$build_dir/lmas_bench" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --out "$out_dir" || status=1
  if [[ ! -f "$result" ]]; then
    echo "run.sh: $w wrote no result" >&2
    exit 1
  fi
  results+=("$result")
done

PYTHONDONTWRITEBYTECODE=1 python3 "$bench_dir/summarize.py" \
  --trace "$trace" --summary "$out_dir/summary.json" "${results[@]}" ||
  status=1
exit "$status"
