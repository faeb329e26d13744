"""The span table: the process-wide per-name (calls, total_s) tally that
every ``repro.obs.trace.span`` adds to, traced or not, and the session
``perf`` metrics source and pool stats fed from it."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import trace as trace_mod
from repro.obs.report import prometheus_report
from repro.serve import PoolConfig, ScoringPool

from .helpers import make_serve_engine, make_serve_sample

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def no_leaked_session():
    assert obs.active() is None
    assert trace_mod.tracer() is None
    yield
    if obs.active() is not None:
        obs.stop()
    trace_mod.uninstall()


def _delta(before, name):
    calls, total = trace_mod.span_table().get(name, (0, 0.0))
    base_calls, base_total = before.get(name, (0, 0.0))
    return calls - base_calls, total - base_total


class TestSpanTable:
    def test_untraced_and_traced_spans_accumulate(self, tmp_path):
        before = trace_mod.span_table()
        durations = []
        for _ in range(3):
            with trace_mod.span("table.stage") as scope:
                time.sleep(0.001)
            durations.append(scope.duration_s)
        trace_mod.record("table.stage", 0.25)

        session = obs.start(tmp_path, run_id="t", trace="always")
        try:
            with session.tracer.start_trace("t/r0"):
                with trace_mod.span("table.stage") as traced:
                    time.sleep(0.001)
                trace_mod.record("table.stage", 0.5)
        finally:
            obs.stop()
        assert isinstance(traced, trace_mod.Span)
        durations += [0.25, traced.duration_s, 0.5]

        calls, total = _delta(before, "table.stage")
        assert calls == 6
        assert total == pytest.approx(sum(durations))
        assert all(d >= 0.001 for d in durations[:3])

    def test_concurrent_threads_sum_exactly(self):
        threads, per_thread = 8, 500
        durations = [[] for _ in range(threads)]
        before = trace_mod.span_table()
        barrier = threading.Barrier(threads)

        def work(k):
            barrier.wait()
            for _ in range(per_thread):
                with trace_mod.span("table.concurrent") as scope:
                    pass
                durations[k].append(scope.duration_s)

        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: expose lost updates
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        calls, total = _delta(before, "table.concurrent")
        assert calls == threads * per_thread
        assert total == pytest.approx(sum(map(sum, durations)), rel=1e-9)

    def test_timers_since_reports_only_new_spans(self):
        with trace_mod.span("table.old"):
            pass
        baseline = trace_mod.span_table()
        for _ in range(2):
            with trace_mod.span("table.new"):
                pass
        timers = trace_mod.timers_since(baseline)
        assert "table.old" not in timers
        entry = timers["table.new"]
        assert entry["calls"] == 2
        assert entry["mean_s"] == pytest.approx(entry["total_s"] / 2)


class TestSessionPerfSource:
    def test_reports_only_time_after_start(self, tmp_path):
        with trace_mod.span("session.before"):
            pass
        with trace_mod.span("session.both"):
            time.sleep(0.01)
        obs.start(tmp_path)
        with trace_mod.span("session.both"):
            pass
        snapshot = obs.stop()
        timers = snapshot["sources"]["perf"]["timers"]
        assert "session.before" not in timers
        assert timers["session.both"]["calls"] == 1
        assert timers["session.both"]["total_s"] < 0.01

    def test_real_classify_renders_prometheus_series(self, tmp_path):
        engine = make_serve_engine(seed=0)
        pairs, mjd = make_serve_sample(engine)
        obs.start(tmp_path, command="unit-test")
        try:
            engine.classify_arrays(pairs[None], mjd[None])
        finally:
            obs.stop()
        text = prometheus_report(tmp_path)
        assert 'perf_timer_calls_total{name="serve_cnn"} 1' in text
        assert 'perf_timer_calls_total{name="serve_repair"} 1' in text
        assert 'perf_timer_seconds_total{name="nn_conv2d"}' in text


class TestPoolStatsShareTheClock:
    def test_scatter_gather_totals_equal_span_deltas(self):
        engine = make_serve_engine(seed=0)
        rng = np.random.default_rng(5)
        v, s = engine._n_used_visits, 40
        pairs = rng.normal(0.0, 30.0, size=(4, v, 2, s, s)).astype(np.float32)
        mjd = np.tile((57000.0 + np.arange(v) * 0.01).astype(np.float32), (4, 1))
        with ScoringPool(engine=engine, config=PoolConfig(workers=2)) as pool:
            pool.classify_arrays(pairs, mjd)  # warm
            stats_before = pool.stats()
            table_before = trace_mod.span_table()
            pool.classify_arrays(pairs, mjd)
            stats_after = pool.stats()
        for stage in ("scatter", "gather"):
            calls, total = _delta(table_before, f"pool.{stage}")
            key = f"{stage}_s_total"
            assert calls == 1
            assert total > 0.0
            assert stats_after[key] - stats_before[key] == pytest.approx(
                total, abs=2e-6
            )
