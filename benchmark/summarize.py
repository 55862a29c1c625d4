#!/usr/bin/env python3
"""Merge lmas_bench result files into one summary and print result lines.

    summarize.py --trace 0|1 --summary OUT.json result_<workload>.json...

For each result file it prints one JSON line with the keys correct,
attempted, failed and metrics. The metrics are the ones BENCHMARK.json
lists: its end_to_end metrics when untraced, its per_layer metrics when
traced. Exits 1 if a result failed a correctness check or lacks a listed
metric.
"""

import argparse
import json
import pathlib
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    summary = {"trace": args.trace == "1", "workloads": {}}
    lines = []
    for path in args.results:
        result = json.loads(pathlib.Path(path).read_text())
        workload = result["workload"]
        summary["workloads"][workload] = result
        metrics = {}
        for m in listed:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                print(f"summarize.py: {workload} has no metric {m['name']} "
                      f"in {m['unit']}", file=sys.stderr)
                return 1
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        lines.append({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics})

    pathlib.Path(args.summary).write_text(json.dumps(summary, indent=1) + "\n")
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
