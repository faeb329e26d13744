"""Pieces shared by the workloads: metric units, results, memory,
correctness helpers and the engine's layer spans."""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

#: Units of the end-to-end metrics (``--trace 0``); BENCHMARK.json
#: carries the same names with their bounds.
E2E_UNITS = {
    "samples_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics (``--trace 1``).
LAYER_UNITS = {
    "loadgen.late_p99_ms": "ms",
    "http.wire.p50_ms": "ms",
    "http.wire.fixed_p50_ms": "ms",
    "http.parse.p50_ms": "ms",
    "daemon.queue.p50_ms": "ms",
    "daemon.batch_size.mean": "count",
    "serve.classify.ms_per_sample": "ms",
    "serve.classify.self_frac": "fraction",
    "serve.repair.ms_per_sample": "ms",
    "serve.repair.frac": "fraction",
    "serve.degraded_frac": "fraction",
    "serve.repaired_visits_frac": "fraction",
    "serve.rejected_visits_frac": "fraction",
    "serve.cnn.ms_per_visit": "ms",
    "serve.cnn.frac": "fraction",
    "serve.features.ms_per_sample": "ms",
    "pool.dispatch.ms_per_sample": "ms",
    "pool.compute_frac": "fraction",
    "pool.overhead.ms_per_dispatch": "ms",
    "pool.respawns": "count",
    "encode.us_per_sample": "us",
    "setup.model_load_s": "s",
    "setup.pool_start_s": "s",
    "setup.dataset_load_s": "s",
    "train.forward.ms_per_step": "ms",
    "train.backward.ms_per_step": "ms",
    "train.optim.ms_per_step": "ms",
    "train.augment.ms_per_step": "ms",
    "trace.overhead_frac": "fraction",
    "unattributed_frac": "fraction",
}

BANDS = "grizy"


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            if len(self.notes) < 20:
                self.notes.append(why)


def run_in_child(target, *args) -> None:
    """Run ``target(*args)`` in a spawned process and wait for it."""
    proc = multiprocessing.get_context("spawn").Process(target=target, args=args)
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"{target.__name__} failed (exit {proc.exitcode})")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from its status file."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Largest probability difference accepted between the daemon's answer
#: and the in-process reference.  The daemon scores micro-batches whose
#: size depends on arrival timing, and the last bit of a float32 GEMM
#: depends on the batch shape: across batch sizes 1-32 the served
#: probability moved by up to 3.5e-6 on the seeds tried, so agreement is
#: required to 5 decimals rather than 6.
ALERT_TOLERANCE = 1e-5


def same_to_6_decimals(served: float, reference: float) -> bool:
    """The pool-parity convention: equal after rounding to 6 decimals."""
    return round(served, 6) == round(reference, 6)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def load_reference(work: str) -> list[tuple[float, bool, str]]:
    """Reference ``(probability, degraded, usable bands)`` of every sample,
    as written by :func:`inputs.prepare`."""
    import inputs

    with np.load(os.path.join(work, inputs.REFERENCE)) as ref:
        return [
            (float(p), bool(d), str(b))
            for p, d, b in zip(ref["probability"], ref["degraded"], ref["bands"])
        ]


def wrap_engine(log, engine) -> None:
    """Span the in-process engine's layer boundaries, under the names of
    the program's own spans at those boundaries."""
    import repro.serve.engine as engine_module

    def classify_attrs(args, kwargs, results) -> dict:
        return {
            "start": kwargs.get("start_index", 0),
            "n": len(results),
            "degraded": sum(r.degraded for r in results),
            "repaired": sum(d.repaired for r in results for d in r.diagnostics),
            "rejected": sum(d.rejected for r in results for d in r.diagnostics),
        }

    log.wrap(engine, "classify_arrays", "serve.classify", attrs=classify_attrs)
    # The engine looks the repair and feature functions up in its own
    # module, so that is where they are wrapped.
    log.wrap(engine_module, "diagnose_and_repair_batch", "serve.repair")
    log.wrap(engine.pipeline.cnn, "fused_forward", "serve.cnn",
             attrs=lambda a, k, r: {"n": len(r)})
    log.wrap(engine_module, "masked_features_from_arrays", "serve.features")
    log.wrap(engine.pipeline.classifier, "predict_proba", "serve.features")


def engine_layers(log) -> dict:
    """Per-layer metrics of the spans :func:`wrap_engine` recorded."""
    classify = log.named("serve.classify")
    n = sum(s[3]["n"] for s in classify)
    visits = n * len(BANDS)
    t_classify = log.total("serve.classify")
    t_repair = log.total("serve.repair")
    t_cnn = log.total("serve.cnn")
    t_features = log.total("serve.features")
    return {
        "serve.classify.ms_per_sample": t_classify / n * 1e3,
        "serve.classify.self_frac": (t_classify - t_repair - t_cnn - t_features) / t_classify,
        "serve.repair.ms_per_sample": t_repair / n * 1e3,
        "serve.repair.frac": t_repair / t_classify,
        "serve.degraded_frac": sum(s[3]["degraded"] for s in classify) / n,
        "serve.repaired_visits_frac": sum(s[3]["repaired"] for s in classify) / visits,
        "serve.rejected_visits_frac": sum(s[3]["rejected"] for s in classify) / visits,
        "serve.cnn.ms_per_visit": t_cnn / sum(s[3]["n"] for s in log.named("serve.cnn")) * 1e3,
        "serve.cnn.frac": t_cnn / t_classify,
        "serve.features.ms_per_sample": t_features / n * 1e3,
    }
