"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload alerts --seed 1 --seconds 20 --trace 0

``--trace 0`` is a timed run and reports the end-to-end metrics;
``--trace 1`` is a separate traced run that wraps the public call at
each layer boundary in the benchmark's own spans and reports the
per-layer metrics.  Every output is checked for correctness in the same
run; failures are counted in ``failed`` and make ``correct`` false.
The last line of standard output is the result object; the lines
before it are a human-readable table and the run's provenance.
``--out FILE`` also appends the full record (provenance included) to a
JSON-lines file that ``compare.py`` reads.

The program is imported from ``src/`` of the checkout the command runs
in; without it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("alerts", "season", "season_degraded", "train")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Make the checkout's ``src/`` importable, here and in spawned children."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program to benchmark: {SRC}/repro is missing "
            "(run from the root of a full checkout)"
        )
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def _cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat.

    Stolen ticks are time the hypervisor ran something else while this
    machine's CPUs wanted to run; on a shared box they are what makes a
    run slow, so every record carries its share.
    """
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def _stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The workloads join their own processes; anything still alive here
    (a run that raised midway) is terminated.  Spawning a process also
    starts multiprocessing's resource tracker, which would otherwise
    outlive the run by a moment while it cleans up: it is stopped last,
    once no child holds its pipe, and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np
    from repro.nn.threads import blas_backend_info, cpu_count

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": cpu_count(),
        "numpy": np.__version__,
        "blas": blas_backend_info(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _import_program()
    import common

    # Everything the run writes (inputs, model, temp files of the
    # program and its workers) lives under the checkout and is removed
    # at the end.
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.mkdir(os.environ["TMPDIR"])
    tempfile.tempdir = None
    started = time.monotonic()
    ticks = _cpu_ticks()
    try:
        if args.workload == "alerts":
            import alerts as workload
        elif args.workload == "train":
            import train as workload
        else:
            import batch as workload
        outcome = workload.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        # Layers a workload does not exercise did no work: they read 0.
        values = {name: outcome.layers.get(name, 0.0) for name in common.LAYER_UNITS}
        units = common.LAYER_UNITS
    else:
        values = dict(outcome.e2e)
        units = common.E2E_UNITS
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    prov = provenance(args)
    prov["wall_s"] = round(time.monotonic() - started, 3)
    total, stolen = (b - a for a, b in zip(ticks, _cpu_ticks()))
    prov["steal_frac"] = round(stolen / total, 4) if total else 0.0
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# failed_frac {outcome.failed / max(outcome.attempted, 1):.6f} "
          f"({outcome.failed} of {outcome.attempted})")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6f} {metric['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
