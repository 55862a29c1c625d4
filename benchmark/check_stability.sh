#!/usr/bin/env bash
# Checks that the benchmark is stable: runs the untraced benchmark twice at
# one seed and once at the held-out seed, then requires that the two
# same-seed sets agree within every bound with bit-identical digests and
# modelled metrics (compare.py --same-commit), and that the held-out seed
# gives different digests.
#
#   benchmark/check_stability.sh [--seed N] [--seconds S]
#
# Leaves benchmark/out/stability_{a,b,heldout}.{json,log}.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out_dir="$bench_dir/out"
seed=42
heldout=7
seconds=20
while (($#)); do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    *) echo "check_stability.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ "$seed" == "$heldout" ]]; then
  echo "check_stability.sh: --seed must differ from the held-out seed $heldout" >&2
  exit 2
fi

run_set() {  # name seed
  bash "$bench_dir/run.sh" --seed "$2" --seconds "$seconds" >"$out_dir/stability_$1.log"
  cp "$out_dir/summary.json" "$out_dir/stability_$1.json"
}
mkdir -p "$out_dir"
run_set a "$seed"
run_set b "$seed"
run_set heldout "$heldout"

status=0
python3 "$bench_dir/compare.py" --same-commit \
  "$out_dir/stability_a.json" "$out_dir/stability_b.json" || status=1
python3 - "$out_dir/stability_a.json" "$out_dir/stability_heldout.json" <<'EOF' || status=1
import json, sys
a, h = (json.load(open(p))["workloads"] for p in sys.argv[1:])
same = [w for w in a if a[w]["digest"] == h.get(w, {}).get("digest")]
for w in a:
    print(f"# {w}: seed {a[w]['seed']:g} digest {a[w]['digest']}, "
          f"held-out seed {h[w]['seed']:g} digest {h[w]['digest']}")
print("# held-out seed digests:", "SAME as " + ", ".join(same) if same else "all differ")
sys.exit(1 if same else 0)
EOF
exit "$status"
