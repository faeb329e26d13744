"""Run-to-run spread of the end-to-end metrics over seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload alerts --seeds 1-10 [--out runs.jsonl]

Runs ``run.py`` once per seed (timed, ``--trace 0``) and prints, for
each metric, the median of the runs and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound in BENCHMARK.json.  A metric
is steady when its spread stays well inside its bound: a later commit
is judged against that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="also append every run's record here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- not below a third of the bound"
        print(f"{name:16s} median {med:12.4f} spread {spread:7.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
