"""Compare two sets of benchmark runs, metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds records appended by ``run.py --out``.  For every
workload and end-to-end metric present in both, it prints the two
medians, the change as a share of the parent's median, and whether that
stays within the metric's bound in BENCHMARK.json.  It exits 1 when a
metric regresses past its bound.

Results taken on different core counts are never compared: the script
refuses with exit code 2 when the records' ``cpu_count`` differ, within
a file or between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sides = {"parent": _load(args.parent), "change": _load(args.change)}
    cores = {rec["provenance"]["cpu_count"] for recs in sides.values() for rec in recs}
    if len(cores) != 1:
        print(f"REFUSED: runs were taken on different core counts {sorted(cores)}; "
              "results from different core counts are never compared", file=sys.stderr)
        return 2
    for key in ("numpy", "python", "blas"):
        seen = {json.dumps(rec["provenance"][key]) for recs in sides.values() for rec in recs}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}", file=sys.stderr)

    def medians(recs: list[dict]) -> dict:
        values: dict[tuple, list[float]] = {}
        for rec in recs:
            if rec["provenance"]["trace"]:
                continue
            for name, metric in rec["result"]["metrics"].items():
                key = (rec["provenance"]["workload"], name)
                values.setdefault(key, []).append(metric["value"])
        return {key: (statistics.median(v), len(v)) for key, v in values.items()}

    parent, change = medians(sides["parent"]), medians(sides["change"])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print(f"cpu_count {cores.pop()}")
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        (p, n_p), (c, n_c) = parent[key], change[key]
        metric = metrics[name]
        worse = (p - c) / p if metric["better"] == "higher" else (c - p) / p
        verdict = "ok" if worse <= metric["bound"] else "REGRESSED"
        regressed |= verdict != "ok"
        print(f"{workload:16s} {name:14s} {p:12.4f} ({n_p}) -> {c:12.4f} ({n_c}) "
              f"worse by {worse:+.3f} (bound {metric['bound']}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
