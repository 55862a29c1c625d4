#!/usr/bin/env python3
"""Compare two benchmark summaries (out/summary.json) metric by metric.

    compare.py [--same-commit] A.json B.json

A is the base (the parent commit), B the candidate. Each end-to-end metric
BENCHMARK.json lists, and each modelled metric (name starting sim_) both
summaries hold, gets one verdict per workload:

  improved    B better than A by more than the bound
  regressed   B worse than A by more than the bound
  unchanged   B within the bound of A
  unresolved  a side's spread, the distance between its quartiles as a
              share of its median, exceeds the bound; the pair is still
              improved when every B value is better than every A value

The bound and direction come from BENCHMARK.json. Modelled metrics it does
not list are deterministic per seed and take MODELLED_BOUND.

With --same-commit (two runs of one commit at one seed) every verdict must
be unchanged, and every digest and modelled value identical.

Exits 1 when a verdict is regressed or unresolved, when B failed a
correctness check, or when a --same-commit condition fails; else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODELLED_BOUND = 0.01


def spread(values):
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == mb:
        worse = 0.0
    else:
        worse = sign * (mb - ma) / abs(ma) if ma else float("inf")
    if max(spread(a), spread(b)) > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--same-commit", action="store_true")
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args()

    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    base = json.loads(pathlib.Path(args.base).read_text())["workloads"]
    cand = json.loads(pathlib.Path(args.candidate).read_text())["workloads"]

    bad = []
    print(f"{'workload':<20} {'metric':<26} {'A':>12} {'B':>12} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(cand)):
        if workload not in base or workload not in cand:
            print(f"{workload:<20} only in one summary")
            bad.append(f"{workload}: missing from one summary")
            continue
        a, b = base[workload], cand[workload]
        if not b["correct"]:
            bad.append(f"{workload}: B failed correctness checks")
        if args.same_commit and a["digest"] != b["digest"]:
            bad.append(f"{workload}: digest {a['digest']} != {b['digest']}")
        for name, mb in b["metrics"].items():
            ma = a["metrics"].get(name)
            modelled = name.startswith("sim_")
            if ma is None or not (name in spec or modelled):
                continue
            better = spec[name]["better"] if name in spec else mb["better"]
            bound = spec[name]["bound"] if name in spec else MODELLED_BOUND
            v, worse = verdict(ma["values"], mb["values"], better, bound)
            s = max(spread(ma["values"]), spread(mb["values"]))
            print(f"{workload:<20} {name:<26} {ma['value']:>12.6g} "
                  f"{mb['value']:>12.6g} {worse:>+8.2%} {s:>7.2%} "
                  f"{bound:>6.0%}  {v}")
            if v in ("regressed", "unresolved"):
                bad.append(f"{workload} {name}: {v}")
            elif args.same_commit and v != "unchanged":
                bad.append(f"{workload} {name}: {v} between runs of one commit")
            if args.same_commit and modelled and ma["values"] != mb["values"]:
                bad.append(f"{workload} {name}: modelled value differs")

    for line in bad:
        print(f"# {line}")
    print(f"# {'FAIL' if bad else 'OK'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
