"""Sustained-load benchmark of the serving daemon — latency vs offered QPS.

Drives an in-process :class:`~repro.serve.ServingDaemon` with a
deterministic open-loop arrival schedule
(:class:`~repro.runtime.faults.BurstSchedule`) at increasing offered
rates and reports, per tier:

* ``p50_ms`` / ``p99_ms`` — served-request latency percentiles;
* ``goodput_rps`` — scored 200s per second of offered traffic;
* ``shed_rate`` — fraction of requests refused by admission control
  (a loaded daemon must shed predictably, not grow its queue).

The daemon scores in process, so there is one QPS curve.

The highest tier deliberately offers more than the scorer can absorb,
so the committed numbers pin both capacity *and* overload behaviour.
Results are written next to the other tracked benchmarks in
``BENCH_throughput.json`` (sections ``serve_smoke`` / ``serve_full``).

Acceptance-scale run::

    PYTHONPATH=src python benchmarks/bench_serve_load.py

CI smoke with the regression gate::

    PYTHONPATH=src python benchmarks/bench_serve_load.py --smoke --check --no-write
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro.core import SupernovaPipeline
from repro.nn import blas_backend_info, blas_env_settings, cpu_count
from repro.runtime import BurstSchedule
from repro.serve import DaemonConfig, FluxPrior, InferenceEngine, ServingDaemon

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_throughput.json")

#: Metrics tracked by the regression guard (rates: higher = better).
TRACKED_METRICS = ("sustained_goodput_rps",)


def _build_engine(input_size: int, units: int, seed: int = 0) -> InferenceEngine:
    pipeline = SupernovaPipeline(
        input_size=input_size, units=units, epochs_used=1, seed=seed
    )
    pipeline.cnn.eval()
    pipeline.classifier.eval()
    return InferenceEngine(pipeline, prior=FluxPrior.neutral())


def _request_body(engine: InferenceEngine, stamp: int, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    visits = engine._n_used_visits
    pairs = rng.normal(0.0, 30.0, size=(visits, 2, stamp, stamp)).astype(np.float32)
    mjd = 57000.0 + np.arange(visits) * 0.01
    return json.dumps(
        {"pairs": pairs.tolist(), "mjd": mjd.tolist(), "deadline_ms": 10000}
    ).encode()


def _post(port: int, body: bytes) -> int:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/classify",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as exc:
        with exc:
            exc.read()
            return exc.code
    except (urllib.error.URLError, OSError):
        return -1


def run_tier(
    engine: InferenceEngine, qps: float, duration_s: float, daemon_config: DaemonConfig,
    body: bytes,
) -> dict:
    """Offer ``qps`` for ``duration_s`` against a fresh daemon; measure."""
    schedule = BurstSchedule(qps, duration_s)
    offsets = schedule.offsets()
    daemon = ServingDaemon(engine, daemon_config)
    daemon.start()
    statuses: list[int | None] = [None] * len(offsets)
    latencies: list[float | None] = [None] * len(offsets)
    try:
        start = time.monotonic()

        def fire(k: int, offset: float) -> None:
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            statuses[k] = _post(daemon.port, body)
            latencies[k] = time.monotonic() - sent

        threads = [
            threading.Thread(target=fire, args=(k, offset), daemon=True)
            for k, offset in enumerate(offsets)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        elapsed = time.monotonic() - start
    finally:
        daemon.drain(reason="bench-tier")
        daemon.wait()

    ok = sum(1 for status in statuses if status == 200)
    shed = sum(1 for status in statuses if status == 429)
    timeout = sum(1 for status in statuses if status == 504)
    errors = len(offsets) - ok - shed - timeout
    served_ms = sorted(
        latency * 1000.0
        for status, latency in zip(statuses, latencies)
        if status == 200 and latency is not None
    )
    percentile = (
        lambda q: round(float(np.percentile(served_ms, q)), 2) if served_ms else None
    )
    return {
        "offered_qps": qps,
        "duration_s": duration_s,
        "sent": len(offsets),
        "ok": ok,
        "shed": shed,
        "timeout": timeout,
        "errors": errors,
        "p50_ms": percentile(50),
        "p99_ms": percentile(99),
        "goodput_rps": round(ok / elapsed, 2),
        "shed_rate": round(shed / len(offsets), 4),
    }


def run_benchmark(smoke: bool) -> dict:
    if smoke:
        config = {
            "input_size": 36, "units": 8, "stamp": 40,
            "tiers_qps": [20.0, 60.0], "duration_s": 1.0,
            "queue_depth": 32, "batch_max_size": 16, "batch_deadline_ms": 10.0,
        }
    else:
        config = {
            "input_size": 36, "units": 8, "stamp": 40,
            "tiers_qps": [50.0, 120.0, 250.0], "duration_s": 3.0,
            "queue_depth": 64, "batch_max_size": 32, "batch_deadline_ms": 10.0,
        }
    engine = _build_engine(config["input_size"], config["units"])
    body = _request_body(engine, config["stamp"])
    # Warm BLAS / allocator so tier 1 is not paying first-touch costs.
    doc = json.loads(body)
    engine.classify_arrays(
        np.asarray(doc["pairs"], dtype=np.float32)[None],
        np.asarray(doc["mjd"], dtype=np.float32)[None],
    )

    daemon_config = DaemonConfig(
        queue_depth=config["queue_depth"],
        batch_max_size=config["batch_max_size"],
        batch_deadline_ms=config["batch_deadline_ms"],
        request_deadline_ms=10000.0,
    )
    tiers = []
    for qps in config["tiers_qps"]:
        tier = run_tier(engine, qps, config["duration_s"], daemon_config, body)
        tiers.append(tier)
        print(
            f"qps {qps:6.0f}: "
            f"goodput {tier['goodput_rps']:7.2f} rps  "
            f"p50 {tier['p50_ms']} ms  p99 {tier['p99_ms']} ms  "
            f"shed {tier['shed_rate']:.1%}  timeout {tier['timeout']}"
        )
        if tier["errors"]:
            print(f"  WARNING: {tier['errors']} untyped transport errors")

    # Capacity = best goodput across tiers; the top tier may be past the
    # knee where shedding dominates, so take the max rather than the last.
    metrics = {"sustained_goodput_rps": max(tier["goodput_rps"] for tier in tiers)}
    return {
        "config": config,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": cpu_count(),
            "blas": blas_backend_info(),
            "blas_env": blas_env_settings(),
        },
        "tiers": tiers,
        "metrics": metrics,
    }


def check_regression(section: dict, baseline_section: dict, tolerance: float) -> list[str]:
    """Names of metrics that regressed more than ``tolerance`` vs baseline."""
    failures = []
    base_metrics = baseline_section.get("metrics", {})
    for name in TRACKED_METRICS:
        base = base_metrics.get(name)
        current = section["metrics"].get(name)
        if base is None or current is None:
            continue
        floor = base * (1.0 - tolerance)
        status = "OK" if current >= floor else "REGRESSION"
        print(
            f"  {name}: {current:.2f} vs baseline {base:.2f} "
            f"(floor {floor:.2f}) {status}"
        )
        if current < floor:
            failures.append(name)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tiers for CI (a few seconds of traffic)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on a goodput regression vs the committed baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.50, metavar="FRAC",
        help="allowed fractional goodput drop before --check fails "
        "(default 0.50 — thread-scheduling noise on shared runners is large)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_BASELINE, metavar="PATH",
        help="benchmark JSON to read the baseline from and write results to",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="measure (and --check) without updating the JSON",
    )
    args = parser.parse_args(argv)

    mode = "serve_smoke" if args.smoke else "serve_full"
    print(f"mode: {mode} (numpy {np.__version__})")
    section = run_benchmark(args.smoke)

    document: dict = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            document = json.load(handle)

    failures: list[str] = []
    if args.check:
        baseline_section = document.get(mode)
        if baseline_section is None:
            print(f"no committed '{mode}' baseline in {args.out}; nothing to check")
        else:
            print(f"regression check vs {args.out} (tolerance {args.tolerance:.0%}):")
            failures = check_regression(section, baseline_section, args.tolerance)

    if not args.no_write and not failures:
        document[mode] = section
        tmp = args.out + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, args.out)
        print(f"wrote {args.out} [{mode}]")

    if failures:
        print(f"FAIL: regression in {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
