"""``alerts``: live single-sample scoring through the serving daemon.

An in-process :class:`~repro.serve.daemon.ServingDaemon` with the
default :class:`~repro.serve.daemon.DaemonConfig` serves a spawned
client process (:mod:`loadgen`) that sends pre-encoded JSON
``/classify`` bodies over 2 persistent HTTP/1.1 connections.  The first
phase offers a fixed rate (open loop, latency timed from each request's
due time); the second saturates, each connection sending as soon as it
is free, and gives the end-to-end throughput and latencies.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import common
import inputs
import loadgen
from spans import SpanLog, median, percentile

#: Offered rate of the fixed-rate phase: about half the saturated
#: goodput of this workload at the commit that defined the benchmark
#: (2-core box, see README.md).  A constant, so every later commit is
#: offered the same load.
FIXED_RATE_RPS = 10.0
CONNECTIONS = 2
#: Distinct request bodies; requests cycle through them.
N_BODIES = 32
#: Share of ``--seconds`` spent in the fixed-rate phase; the rest
#: saturates, and gives the end-to-end metrics.
FIXED_SHARE = 0.35
#: Set-up (model load, daemon start, first correct response) is
#: repeated this many times per run and its median reported.
SETUP_REPEATS = 11


def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> common.Outcome:
    from repro.serve.daemon import DaemonConfig, ServingDaemon
    from repro.serve.engine import InferenceEngine

    out = common.Outcome()
    common.run_in_child(inputs.prepare, name, work, seed, N_BODIES)
    model_dir = os.path.join(work, inputs.MODEL_DIR)
    ref_prob = [p for p, _, _ in common.load_reference(work)]

    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    client = ctx.Process(target=loadgen.serve_commands,
                         args=(child, os.path.join(work, inputs.ALERT_SAMPLES)))
    client.start()
    child.close()
    daemon = log = None
    try:
        if parent.recv()[0] != "ready":
            raise RuntimeError("load generator failed to start")
        setups, loads = [], []
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.drain(reason="bench-setup")
                daemon.wait()
            start = time.perf_counter()
            engine, load_s = common.timed(InferenceEngine.from_directory, model_dir)
            daemon = ServingDaemon(engine, DaemonConfig())
            daemon.start()
            parent.send(("probe", daemon.port))
            status, payload = parent.recv()
            setups.append(time.perf_counter() - start)
            loads.append(load_s)
            _check(out, loadgen.make_record("probe", 0, 0.0, 0.0, 0.0, status, payload, None),
                   ref_prob)

        if trace:
            log = SpanLog()
            _wrap_daemon(log, daemon)
            common.wrap_engine(log, engine)
        plan = {
            "connections": CONNECTIONS,
            "rate_rps": FIXED_RATE_RPS,
            "fixed_s": FIXED_SHARE * seconds,
            "saturate_s": (1.0 - FIXED_SHARE) * seconds,
        }
        parent.send(("run", daemon.port, plan))
        records = parent.recv()
    finally:
        if log is not None:
            log.restore()
        if daemon is not None:
            daemon.drain(reason="bench-done")
            daemon.wait()
        if client.is_alive():
            try:
                parent.send(("stop",))
            except OSError:
                pass
        client.join(timeout=30)
        if client.is_alive():
            client.terminate()
            client.join()
        parent.close()

    ok = [rec for rec in records if _check(out, rec, ref_prob)]
    ok_ids = {id(r) for r in ok}
    # A failed request misses every latency limit: it counts as answered
    # no earlier than the daemon's request deadline.
    deadline_s = DaemonConfig().request_deadline_ms / 1e3

    def latency_ms(phase: str) -> list[float]:
        return [
            (r.done - r.due if id(r) in ok_ids else max(r.done - r.due, deadline_s)) * 1e3
            for r in records if r.phase == phase
        ]

    fixed_ms, sat_ms = latency_ms("fixed"), latency_ms("saturate")
    sat = [r for r in ok if r.phase == "saturate"]
    sat_start = min(r.sent for r in records if r.phase == "saturate")
    sat_wall = max(r.done for r in sat) - sat_start
    # The end-to-end latencies are those of the saturating phase (due
    # when sent).  A fixed-rate request reaches an idle daemon, so every
    # hop waits for a thread to wake: while the host stole 1-5% of the
    # CPU, its p90 spread over runs was 0.27, against 0.09 for the
    # saturating phase (README.md).  It is printed as a note.
    out.e2e = {
        "samples_per_s": len(sat) / sat_wall,
        "p50_ms": percentile(sat_ms, 50),
        "p90_ms": percentile(sat_ms, 90),
        "setup_s": median(setups),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    out.notes.append(
        f"fixed phase: {len(fixed_ms)} sent at {FIXED_RATE_RPS} rps, latency from due "
        f"time p50 {percentile(fixed_ms, 50):.2f} ms, p90 {percentile(fixed_ms, 90):.2f} ms; "
        f"saturating phase: {len(sat)} ok in {sat_wall:.2f}s"
    )
    if log is not None:
        out.layers = {
            **common.engine_layers(log),
            **_request_layers(log, records, ok),
            "setup.model_load_s": median(loads),
        }
    return out


def _check(out: common.Outcome, rec: loadgen.Record, ref_prob: list[float]) -> bool:
    """A clean alert must get a 200 with its reference probability,
    undegraded, with all five bands usable."""
    out.attempted += 1
    good = (
        rec.status == 200
        and rec.error is None
        and abs(rec.probability - ref_prob[rec.body]) <= common.ALERT_TOLERANCE
        and rec.degraded is False
        and rec.usable_bands == common.BANDS
    )
    out.fail(not good, f"{rec.phase} request (body {rec.body}): status {rec.status}, "
                       f"error {rec.error}, probability {rec.probability} "
                       f"vs {ref_prob[rec.body]:.6f}")
    return good


def _wrap_daemon(log: SpanLog, daemon) -> None:
    """Span the daemon's request handling and its body decode, the only
    boundary between the wire and admission."""
    log.wrap(daemon, "handle_classify", "daemon.handle",
             attrs=lambda a, k, r: {"thread": threading.get_ident(),
                                    "request_id": r[1].get("request_id")})
    log.wrap(daemon, "_parse_sample", "http.parse",
             attrs=lambda a, k, r: {"thread": threading.get_ident()})


def _request_layers(log: SpanLog, records: list, ok: list) -> dict:
    """Split each correct request's client-observed latency (send to last
    byte) into wire, decode, queue and scoring.

    The client and the daemon both time on the system-wide monotonic
    clock.  ``http.wire`` is the client latency outside
    ``handle_classify`` (socket transfer, the body read, the response
    write); ``http.parse`` the body decode; ``daemon.queue`` the gap from
    the end of the decode to the start of the ``classify_arrays`` call
    that scored the request (admission, batch formation, engine lock);
    the scoring call is ``serve.classify``.  What is left inside
    ``handle_classify`` (building and handing over the response) is
    unattributed.

    The medians are taken over the saturating phase, where both
    keep-alive connections stay busy; ``http.wire.fixed_p50_ms`` is the
    wire time of the fixed-rate phase, whose connections idle between
    requests.
    """
    handles = {s[3]["request_id"]: s for s in log.named("daemon.handle")}
    parses: dict[int, list] = {}
    for s in log.named("http.parse"):
        parses.setdefault(s[3]["thread"], []).append(s)
    scored_by: dict[int, tuple] = {}
    for s in log.named("serve.classify"):
        for index in range(s[3]["start"], s[3]["start"] + s[3]["n"]):
            scored_by[index] = s
    parts = {phase: {"wire": [], "parse": [], "queue": []} for phase in ("fixed", "saturate")}
    client_s = unattributed_s = 0.0
    for rec in ok:
        _, h0, h1, attrs, _ = handles[rec.request_id]
        p = next(s for s in parses[attrs["thread"]] if s[1] >= h0 and s[2] <= h1)
        c = scored_by[int(rec.request_id.rsplit("/r", 1)[1])]
        latency = rec.done - rec.sent
        phase = parts[rec.phase]
        phase["wire"].append(latency - (h1 - h0))
        phase["parse"].append(p[2] - p[1])
        phase["queue"].append(c[1] - p[2])
        client_s += latency
        unattributed_s += (h1 - h0) - (p[2] - p[1]) - (c[1] - p[2]) - (c[2] - c[1])
    classify = log.named("serve.classify")
    window = min(r.sent for r in records), max(r.done for r in records)
    sat = parts["saturate"]
    return {
        "loadgen.late_p99_ms": percentile(
            [(r.sent - r.due) * 1e3 for r in records if r.phase == "fixed"], 99),
        "http.wire.p50_ms": median(sat["wire"]) * 1e3,
        "http.wire.fixed_p50_ms": median(parts["fixed"]["wire"]) * 1e3,
        "http.parse.p50_ms": median(sat["parse"]) * 1e3,
        "daemon.queue.p50_ms": median(sat["queue"]) * 1e3,
        "daemon.batch_size.mean": sum(s[3]["n"] for s in classify) / len(classify),
        "trace.overhead_frac": log.overhead_s() / (window[1] - window[0]),
        "unattributed_frac": unattributed_s / client_s,
    }
