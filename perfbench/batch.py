"""``season`` and ``season_degraded``: bulk scoring of an archive.

``season`` is the ``repro classify --mp`` path: a clean archive loaded
with ``load_dataset`` and streamed through a 2-worker
:class:`~repro.serve.pool.ScoringPool`, every result encoded with
``PredictionResult.to_json``.  ``season_degraded`` is the default
``repro classify`` path: in-process ``InferenceEngine.stream`` over an
archive in which every sample carries one injected corruption.

Both stream the archive pass after pass until ``--seconds`` have gone,
and report samples with a correct result per second of wall time.
"""

from __future__ import annotations

import os
import time

import numpy as np

import common
import inputs
from spans import SpanLog, covered_s, median, percentile

BATCH_SIZE = 64
POOL_WORKERS = 2
#: Archive sizes: one chunk per pass (``BATCH_SIZE * POOL_WORKERS`` for
#: the pool, one batch in process).  Runs stream whole passes, so every
#: result chunk, and every measured latency, covers the same samples.
SEASON_SAMPLES = BATCH_SIZE * POOL_WORKERS
DEGRADED_SAMPLES = BATCH_SIZE
#: Set-up (model load or pool start, dataset load, first correct
#: result) is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> common.Outcome:
    model_dir = os.path.join(work, inputs.MODEL_DIR)
    archive = os.path.join(work, inputs.ARCHIVE)
    if name == "season":
        common.run_in_child(inputs.prepare, name, work, seed, SEASON_SAMPLES, BATCH_SIZE)
        return _season(seconds, trace, model_dir, archive, common.load_reference(work))
    common.run_in_child(inputs.prepare, name, work, seed, DEGRADED_SAMPLES, BATCH_SIZE)
    masked = np.load(os.path.join(work, inputs.MASKED_BAND))
    return _season_degraded(seconds, trace, model_dir, archive, masked)


def _season(seconds: float, trace: bool, model_dir: str, archive: str,
            reference: list) -> common.Outcome:
    from repro.datasets import load_dataset
    from repro.serve.engine import InferenceEngine, PredictionResult
    from repro.serve.pool import PoolConfig, ScoringPool

    out = common.Outcome()
    log = None
    # The workers load the model inside pool start; this parent-side
    # load of the same directory is what setup.model_load_s reports.
    _, model_load_s = common.timed(InferenceEngine.from_directory, model_dir)
    setups, pool_starts, loads = [], [], []
    pool = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.close()
            start = time.perf_counter()
            pool = ScoringPool(model_source=model_dir, config=PoolConfig(workers=POOL_WORKERS))
            _, pool_s = common.timed(pool.start)
            dataset, load_s = common.timed(load_dataset, archive)
            first = next(iter(pool.stream(dataset, batch_size=BATCH_SIZE)))
            setups.append(time.perf_counter() - start)
            pool_starts.append(pool_s)
            loads.append(load_s)
            _check_clean(out, first, reference)

        if trace:
            log = SpanLog()
            _wrap_pool(log, pool)
            log.wrap(PredictionResult, "to_json", "encode")
        counted, wall, window, gaps = _stream(
            out, lambda: pool.stream(dataset, batch_size=BATCH_SIZE),
            seconds, BATCH_SIZE * POOL_WORKERS, lambda r: _check_clean(out, r, reference))
        rss = common.self_peak_rss_mb() + sum(common.vm_hwm_mb(pid) for pid in pool.pids())
    finally:
        if log is not None:
            log.restore()
        if pool is not None:
            pool.close()
    out.e2e = _e2e(counted, wall, gaps, setups, rss)
    if log is not None:
        out.layers = {
            **_pool_layers(log, wall),
            **_stream_layers(log, window),
            "setup.model_load_s": model_load_s,
            "setup.pool_start_s": median(pool_starts),
            "setup.dataset_load_s": median(loads),
        }
    return out


def _season_degraded(seconds: float, trace: bool, model_dir: str, archive: str,
                     masked: np.ndarray) -> common.Outcome:
    from repro.datasets import load_dataset
    from repro.serve.engine import InferenceEngine, PredictionResult

    out = common.Outcome()
    setups, model_loads, loads = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        engine, model_s = common.timed(InferenceEngine.from_directory, model_dir)
        dataset, load_s = common.timed(load_dataset, archive)
        first = next(iter(engine.stream(dataset, batch_size=BATCH_SIZE)))
        setups.append(time.perf_counter() - start)
        model_loads.append(model_s)
        loads.append(load_s)
        _check_degraded(out, first, masked)

    log = None
    if trace:
        log = SpanLog()
        common.wrap_engine(log, engine)
        log.wrap(PredictionResult, "to_json", "encode")
    try:
        counted, wall, window, gaps = _stream(
            out, lambda: engine.stream(dataset, batch_size=BATCH_SIZE),
            seconds, BATCH_SIZE, lambda r: _check_degraded(out, r, masked))
    finally:
        if log is not None:
            log.restore()
    out.e2e = _e2e(counted, wall, gaps, setups, common.self_peak_rss_mb())
    if log is not None:
        out.layers = {
            **common.engine_layers(log),
            **_stream_layers(log, window),
            "setup.model_load_s": median(model_loads),
            "setup.dataset_load_s": median(loads),
        }
    return out


def _stream(out: common.Outcome, make_stream, seconds: float, chunk: int, check):
    """Stream whole passes until ``seconds`` are spent; encode and check
    every result.

    Returns the results counted correct, the wall seconds, the time
    window and the gap before each result chunk (``chunk`` samples, as
    the stream produces them), which is the latency a consumer of the
    stream sees.
    """
    counted = 0
    start = time.monotonic()
    deadline = start + seconds
    arrivals = [start]
    while time.monotonic() < deadline:
        for result in make_stream():
            if result.index % chunk == 0:
                arrivals.append(time.monotonic())
            result.to_json()
            if check(result):
                counted += 1
    end = time.monotonic()
    return counted, end - start, (start, end), np.diff(arrivals)


def _e2e(counted: int, wall: float, gaps: np.ndarray, setups: list[float],
         rss_mb: float) -> dict:
    return {
        "samples_per_s": counted / wall,
        "p50_ms": percentile(gaps * 1e3, 50),
        "p90_ms": percentile(gaps * 1e3, 90),
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
    }


def _check_clean(out: common.Outcome, result, reference: list) -> bool:
    """A clean sample must be served undegraded with all five bands and
    match the shard-matched in-process reference."""
    out.attempted += 1
    problems = []
    if result.error is not None:
        problems.append(f"failed placeholder: {result.error}")
    if result.degraded or "".join(result.usable_bands) != common.BANDS:
        problems.append(f"clean sample served degraded ({result.usable_bands})")
    ref = reference[result.index]
    if not (
        common.same_to_6_decimals(result.probability, ref[0])
        and result.degraded == ref[1]
        and "".join(result.usable_bands) == ref[2]
    ):
        problems.append(f"p={result.probability} differs from reference {ref[0]}")
    out.fail(bool(problems), f"sample {result.index}: {'; '.join(problems)}")
    return not problems


def _check_degraded(out: common.Outcome, result, masked: np.ndarray) -> bool:
    """Every sample carries damage: it must come back degraded, masking
    exactly the dropped band (and nothing for repairable damage)."""
    out.attempted += 1
    band = int(masked[result.index])
    expected = "".join(b for i, b in enumerate(common.BANDS) if i != band)
    ok = (
        result.error is None
        and result.degraded
        and "".join(result.usable_bands) == expected
    )
    out.fail(not ok, f"sample {result.index}: degraded={result.degraded} "
                     f"bands={result.usable_bands}, expected {expected}")
    return ok


def _wrap_pool(log: SpanLog, pool) -> None:
    """Span each pool dispatch, with the workers' busy time and respawns
    over it from ``ScoringPool.stats()`` taken just outside the span."""

    def snapshot():
        stats = pool.stats()
        return [w["busy_s"] for w in stats["per_worker"]], stats["respawns"]

    log.wrap(pool, "classify_arrays", "pool.classify", before=snapshot, after=snapshot,
             attrs=lambda a, k, r, pre, post: {
                 "n": len(r),
                 "busy": [b - a for a, b in zip(pre[0], post[0])],
                 "respawns": post[1] - pre[1],
             })


def _pool_layers(log: SpanLog, wall: float) -> dict:
    dispatch = log.named("pool.classify")
    busy = sum(sum(s[3]["busy"]) for s in dispatch)
    return {
        "pool.dispatch.ms_per_sample":
            log.total("pool.classify") / sum(s[3]["n"] for s in dispatch) * 1e3,
        "pool.compute_frac": busy / (POOL_WORKERS * wall),
        "pool.overhead.ms_per_dispatch": float(np.mean(
            [(s[2] - s[1]) - max(s[3]["busy"]) for s in dispatch])) * 1e3,
        "pool.respawns": float(sum(s[3]["respawns"] for s in dispatch)),
    }


def _stream_layers(log: SpanLog, window: tuple[float, float]) -> dict:
    """Encode cost, tracing overhead and the share of wall time that no
    top-level layer span (scoring call or encode) covers."""
    wall = window[1] - window[0]
    top = [(s[1], s[2]) for s in log.spans
           if s[0] in ("pool.classify", "serve.classify", "encode")]
    return {
        "encode.us_per_sample": log.total("encode") / len(log.named("encode")) * 1e6,
        "trace.overhead_frac": log.overhead_s() / wall,
        "unattributed_frac": 1.0 - covered_s(top, *window) / wall,
    }
