"""Request tracing: spans over the event log.

A *span* is one timed stage of a request (``http.read``,
``admission.queue_wait``, ``daemon.score``, ...) recorded as a
``trace.span`` event in the session's schema-versioned event log.  Spans
carry ``trace_id`` / ``span_id`` / ``parent_id`` and form a tree per
request; trace ids derive deterministically from the request id
(``<run_id>/r<index>``) so a request can be correlated across re-runs.

Design mirrors :mod:`repro.obs.log`:

- a process-wide plus thread-local *span-context stack* supplies the
  ambient parent for nested spans, exactly like the event-context stack;
- :func:`span` is also the repo's only timing primitive: every span that
  ends, traced or not, adds its duration to a process-wide per-name
  *span table* (:func:`span_table`).  With no live trace, :func:`span`
  returns a bare timing scope that exposes ``duration_s`` and records
  nothing else — about a microsecond per scope, so the table is always
  on and has no switch;
- sampling is decided once per trace: ``always``, deterministic
  ``rate:F`` (hash of the request id), or ``slow:MS`` (buffer the span
  tree, emit only if the root exceeds the threshold — the slow-request
  capture).

Spans never cross a process boundary.  ``repro serve`` scores in
process, so its traces cover every stage; a :class:`ScoringPool`
worker's ``worker.compute`` scope is an untraced timing whose duration
is reported back as that worker's ``busy_s``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MODES",
    "SPAN_EVENT",
    "SLOW_EVENT",
    "TraceConfig",
    "Span",
    "Tracer",
    "derive_trace_id",
    "derive_span_id",
    "install",
    "uninstall",
    "tracer",
    "current_span",
    "span",
    "record",
    "span_table",
    "timers_since",
    "load_spans",
    "validate_spans",
    "stage_table",
    "build_trees",
    "render_waterfall",
    "critical_paths",
]

SPAN_EVENT = "trace.span"
SLOW_EVENT = "trace.slow_request"
MODES = ("always", "rate", "slow")

# Fields every span record must carry (validated by ``validate_spans``
# and, for schema-v2 event lines, by ``repro.obs.schema``).
SPAN_FIELDS: Dict[str, type | tuple] = {
    "trace_id": str,
    "span_id": str,
    "name": str,
    "duration_s": (int, float),
}


def derive_trace_id(request_id: str) -> str:
    """Deterministic 16-hex trace id for a ``<run_id>/r<index>`` request id."""
    return hashlib.sha256(request_id.encode("utf-8")).hexdigest()[:16]


def derive_span_id(trace_id: str, seed: str) -> str:
    """Deterministic span id from the trace id and a per-trace seed."""
    return hashlib.sha256(f"{trace_id}/{seed}".encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceConfig:
    """Sampling policy for a tracer.

    mode
        ``always`` samples every trace; ``rate`` samples the
        deterministic fraction ``rate`` of request ids; ``slow`` buffers
        every trace and emits only those whose root span exceeds
        ``slow_threshold_s`` (the slow-request capture).
    slow_threshold_s
        In ``always``/``rate`` mode a root over this threshold emits an
        additional ``trace.slow_request`` event at warning level.
    """

    mode: str = "always"
    rate: float = 1.0
    slow_threshold_s: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"trace mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ValueError(f"trace rate must be in [0, 1], got {self.rate!r}")
        if not float(self.slow_threshold_s) > 0.0:
            raise ValueError(
                f"slow threshold must be positive, got {self.slow_threshold_s!r}"
            )

    @classmethod
    def parse(cls, spec: str) -> "TraceConfig":
        """Parse a CLI spec: ``always`` | ``rate:0.1`` | ``slow:250`` (ms)."""
        spec = spec.strip().lower()
        if spec == "always":
            return cls(mode="always")
        if spec.startswith("rate:"):
            return cls(mode="rate", rate=float(spec[len("rate:"):]))
        if spec.startswith("slow:"):
            ms = float(spec[len("slow:"):])
            return cls(mode="slow", slow_threshold_s=ms / 1000.0)
        raise ValueError(
            f"bad trace spec {spec!r}: expected always | rate:FRACTION | slow:MS"
        )


# ----------------------------------------------------------------------
# Ambient span-context stack (process-wide + thread-local, mirroring the
# event-context stack in repro.obs.log)
# ----------------------------------------------------------------------
_PROCESS_STACK: List["Span"] = []
_PROCESS_LOCK = threading.Lock()
_THREAD = threading.local()


def _thread_stack() -> List["Span"]:
    stack = getattr(_THREAD, "stack", None)
    if stack is None:
        stack = _THREAD.stack = []
    return stack


def current_span() -> Optional["Span"]:
    """The innermost ambient span: thread-local first, then process-wide."""
    stack = getattr(_THREAD, "stack", None)
    if stack:
        return stack[-1]
    if _PROCESS_STACK:
        return _PROCESS_STACK[-1]
    return None


class _TraceState:
    """Per-trace bookkeeping: span-id counter and the slow-mode buffer."""

    __slots__ = ("trace_id", "request_id", "buffer", "counter", "lock")

    def __init__(self, trace_id: str, request_id: str, buffered: bool) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.buffer: Optional[List[dict]] = [] if buffered else None
        self.counter = 0
        self.lock = threading.Lock()

    def next_seed(self) -> str:
        with self.lock:
            self.counter += 1
            return str(self.counter)


class Span:
    """One timed stage.  Context-manager entry pushes it on the ambient
    stack (``scope="thread"`` by default, ``"process"`` for run-level
    roots); exit pops and ends it.  ``end()`` is idempotent."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "request_id",
        "attrs",
        "start_ts",
        "duration_s",
        "_t0",
        "_tracer",
        "_state",
        "_scope",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        state: _TraceState,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        request_id: Optional[str],
        attrs: Optional[dict] = None,
        scope: str = "thread",
        t_offset_s: float = 0.0,
    ) -> None:
        if scope not in ("thread", "process"):
            raise ValueError(f"span scope must be 'thread' or 'process', got {scope!r}")
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_ts = round(time.time() - t_offset_s, 6)
        self.duration_s: Optional[float] = None
        self._t0 = time.perf_counter() - t_offset_s
        self._tracer = tracer
        self._state = state
        self._scope = scope
        self._ended = False

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def end(self, **fields: Any) -> None:
        if self._ended:
            return
        self._ended = True
        if fields:
            self.attrs.update(fields)
        self.duration_s = round(time.perf_counter() - self._t0, 6)
        _tally(self.name, self.duration_s)
        self._tracer._finish(self)

    def to_record(self) -> dict:
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.request_id is not None:
            record["request_id"] = self.request_id
        record.update(self.attrs)
        return record

    def __enter__(self) -> "Span":
        if self._scope == "process":
            with _PROCESS_LOCK:
                _PROCESS_STACK.append(self)
        else:
            _thread_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._scope == "process":
            with _PROCESS_LOCK:
                if self in _PROCESS_STACK:
                    _PROCESS_STACK.remove(self)
        else:
            stack = _thread_stack()
            if self in stack:
                stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id})"


class _Timing:
    """An untraced span: times its region into the span table only.

    :func:`span` returns one whenever no trace is live on this thread or
    process.  It carries no ids, writes no event and never becomes an
    ambient parent; ``duration_s`` is set when it ends."""

    __slots__ = ("name", "duration_s", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.duration_s: Optional[float] = None
        self._t0 = time.perf_counter()

    def end(self, **fields: Any) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
            _tally(self.name, self.duration_s)

    def __enter__(self) -> "_Timing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class Tracer:
    """Sinks spans into the session's event log and per-stage latency
    histograms in the session's metrics registry."""

    def __init__(self, session, config: Optional[TraceConfig] = None) -> None:
        self._session = session
        self.config = config or TraceConfig()
        self._live: Dict[str, _TraceState] = {}
        self._lock = threading.Lock()

    def child(self, parent: Span, name: str, attrs: Optional[dict] = None) -> Span:
        return Span(
            self,
            parent._state,
            name,
            parent.trace_id,
            derive_span_id(parent.trace_id, parent._state.next_seed()),
            parent.span_id,
            parent.request_id,
            attrs,
        )

    def record(
        self,
        name: str,
        duration_s: float,
        parent: Optional[Span],
        end_offset_s: float = 0.0,
        **attrs: Any,
    ) -> None:
        """Record an already-measured stage as a completed child span.

        The stage ended ``end_offset_s`` seconds ago (default: now)."""
        _tally(name, duration_s)
        if not isinstance(parent, Span):
            return
        child = self.child(parent, name, attrs)
        child.start_ts = round(time.time() - end_offset_s - duration_s, 6)
        child._ended = True
        child.duration_s = round(float(duration_s), 6)
        self._finish(child)

    # -- sampling ------------------------------------------------------
    def sample(self, request_id: str) -> bool:
        mode = self.config.mode
        if mode in ("always", "slow"):
            return True
        # Deterministic per-request-id fraction: the same request id is
        # sampled (or not) identically across processes and re-runs.
        digest = int(derive_trace_id(request_id), 16)
        return digest / float(1 << 64) < self.config.rate

    # -- trace lifecycle ----------------------------------------------
    def start_trace(
        self,
        request_id: str,
        name: str = "request",
        scope: str = "thread",
        t_offset_s: float = 0.0,
        **attrs: Any,
    ) -> Optional[Span]:
        """Root span for one request, or ``None`` if not sampled."""
        if not self.sample(request_id):
            return None
        trace_id = derive_trace_id(request_id)
        state = _TraceState(trace_id, request_id, buffered=self.config.mode == "slow")
        with self._lock:
            self._live[trace_id] = state
        return Span(
            self,
            state,
            name,
            trace_id,
            derive_span_id(trace_id, "root"),
            None,
            request_id,
            attrs,
            scope=scope,
            t_offset_s=t_offset_s,
        )

    # -- internals -----------------------------------------------------
    def _finish(self, span_obj: Span) -> None:
        state = span_obj._state
        record_dict = span_obj.to_record()
        if state.buffer is not None:
            with state.lock:
                state.buffer.append(record_dict)
            if span_obj.is_root:
                self._close_slow_trace(state, span_obj)
            return
        self._emit_record(record_dict)
        if span_obj.is_root:
            with self._lock:
                self._live.pop(span_obj.trace_id, None)
            duration = span_obj.duration_s or 0.0
            if duration >= self.config.slow_threshold_s:
                self._emit_slow(span_obj)

    def _close_slow_trace(self, state: _TraceState, root: Span) -> None:
        with self._lock:
            self._live.pop(state.trace_id, None)
        duration = root.duration_s or 0.0
        with state.lock:
            buffered, state.buffer = state.buffer, None
        if duration < self.config.slow_threshold_s:
            return  # fast request: drop the tree (slow-only capture)
        for record_dict in buffered or ():
            self._emit_record(record_dict)
        self._emit_slow(root)

    def _emit_slow(self, root: Span) -> None:
        self._session.emit(
            SLOW_EVENT,
            level="warning",
            message=f"request exceeded {self.config.slow_threshold_s * 1000:.0f}ms",
            trace_id=root.trace_id,
            request_id=root.request_id,
            duration_s=root.duration_s,
            threshold_s=self.config.slow_threshold_s,
        )

    def _emit_record(self, record_dict: dict) -> None:
        self._session.emit(SPAN_EVENT, **record_dict)
        duration = record_dict.get("duration_s")
        name = record_dict.get("name")
        if isinstance(duration, (int, float)) and isinstance(name, str):
            try:
                self._session.metrics.histogram(f"trace.{name}_s").observe(duration)
            except ValueError:
                pass  # span name not a valid metric name: skip the histogram


# ----------------------------------------------------------------------
# Module-level tracer: one reference read on the disabled path
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def install(t: Tracer) -> None:
    global _TRACER
    _TRACER = t


def uninstall() -> None:
    global _TRACER
    _TRACER = None


def tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, parent: Optional[Span] = None, **attrs: Any):
    """An ambient child span, or an untraced timing scope when tracing is
    off or no trace is live on this thread/process.  Either way its
    duration lands in the span table when it ends."""
    t = _TRACER
    if t is None:
        return _Timing(name)
    if parent is None:
        parent = current_span()
    if not isinstance(parent, Span):
        return _Timing(name)
    return t.child(parent, name, attrs or None)


def record(
    name: str, duration_s: float, parent: Optional[Span] = None, **attrs: Any
) -> None:
    """Record an already-measured stage: into the span table always, and
    as a completed child span when a trace is live."""
    t = _TRACER
    if t is None:
        _tally(name, duration_s)
        return
    if parent is None:
        parent = current_span()
    t.record(name, duration_s, parent, **attrs)


# ----------------------------------------------------------------------
# Span table: per-name (calls, total_s) of every span ended in-process
# ----------------------------------------------------------------------
_TABLE: Dict[str, List[float]] = {}
_TABLE_LOCK = threading.Lock()


def _tally(name: str, duration_s: float) -> None:
    with _TABLE_LOCK:
        entry = _TABLE.get(name)
        if entry is None:
            _TABLE[name] = [1, duration_s]
        else:
            entry[0] += 1
            entry[1] += duration_s


def span_table() -> Dict[str, Tuple[int, float]]:
    """Snapshot of the span table: ``name -> (calls, total_s)``.

    Every span that ends in this process adds to it — traced or not,
    :func:`record` stages included.  It is never reset: consumers diff
    two snapshots (:func:`timers_since`).  Concurrent spans add up, so a
    total is occupancy, not wall clock.
    """
    with _TABLE_LOCK:
        return {name: (int(calls), total) for name, (calls, total) in _TABLE.items()}


def timers_since(baseline: Dict[str, Tuple[int, float]]) -> Dict[str, dict]:
    """``{name: {"calls", "total_s", "mean_s"}}`` of the spans that ended
    since ``baseline``, a :func:`span_table` snapshot; sorted by name."""
    timers = {}
    for name, (calls, total) in sorted(span_table().items()):
        base_calls, base_total = baseline.get(name, (0, 0.0))
        if calls > base_calls:
            delta = total - base_total
            timers[name] = {
                "calls": calls - base_calls,
                "total_s": delta,
                "mean_s": delta / (calls - base_calls),
            }
    return timers


# ----------------------------------------------------------------------
# Analysis: loading, validation, per-stage stats, waterfall, critical path
# (backs the ``repro trace DIR`` CLI and the report)
# ----------------------------------------------------------------------
def load_spans(directory: str) -> List[dict]:
    """All ``trace.span`` records in a telemetry directory's event log,
    de-duplicated on ``(trace_id, span_id)``."""
    from .log import EVENTS_FILE, read_events

    spans: List[dict] = []
    seen = set()
    events_path = os.path.join(directory, EVENTS_FILE)
    if os.path.exists(events_path):
        for event in read_events(events_path):
            if event.get("event") != SPAN_EVENT:
                continue
            key = (event.get("trace_id"), event.get("span_id"))
            if key not in seen:
                seen.add(key)
                spans.append(event)
    return spans


def validate_spans(spans: Iterable[dict]) -> List[str]:
    """Structural violations in span records; empty means valid."""
    errors: List[str] = []
    ids = set()
    records = list(spans)
    for i, record_dict in enumerate(records):
        where = f"span {i}"
        for field, expected in SPAN_FIELDS.items():
            value = record_dict.get(field)
            if value is None:
                errors.append(f"{where}: missing field {field!r}")
            elif not isinstance(value, expected) or isinstance(value, bool):
                errors.append(
                    f"{where}: field {field!r} has type "
                    f"{type(value).__name__}, expected {expected}"
                )
        duration = record_dict.get("duration_s")
        if isinstance(duration, (int, float)) and duration < 0:
            errors.append(f"{where}: negative duration {duration!r}")
        parent = record_dict.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            errors.append(f"{where}: field 'parent_id' must be a string")
        key = (record_dict.get("trace_id"), record_dict.get("span_id"))
        if None not in key:
            if key in ids:
                errors.append(f"{where}: duplicate span id {key[1]!r} in trace {key[0]!r}")
            ids.add(key)
    return errors


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def stage_table(spans: Iterable[dict]) -> List[dict]:
    """Aggregated per-stage latency rows: count, p50/p99 ms, total s."""
    by_name: Dict[str, List[float]] = {}
    for record_dict in spans:
        name = record_dict.get("name")
        duration = record_dict.get("duration_s")
        if isinstance(name, str) and isinstance(duration, (int, float)):
            by_name.setdefault(name, []).append(float(duration))
    rows = []
    for name, durations in sorted(by_name.items()):
        durations.sort()
        rows.append(
            {
                "stage": name,
                "count": len(durations),
                "p50_ms": round(_percentile(durations, 0.50) * 1000.0, 3),
                "p99_ms": round(_percentile(durations, 0.99) * 1000.0, 3),
                "total_s": round(sum(durations), 6),
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def build_trees(spans: Iterable[dict]) -> List[dict]:
    """Group spans into per-trace trees.

    Returns one dict per trace: ``{"trace_id", "request_id", "root",
    "spans", "children"}`` where ``children`` maps span_id -> list of
    child records.  Traces without a root (e.g. slow-mode discards with
    a straggling child span) are skipped.
    """
    by_trace: Dict[str, List[dict]] = {}
    for record_dict in spans:
        trace_id = record_dict.get("trace_id")
        if isinstance(trace_id, str):
            by_trace.setdefault(trace_id, []).append(record_dict)
    trees = []
    for trace_id, members in by_trace.items():
        roots = [m for m in members if m.get("parent_id") is None]
        if not roots:
            continue
        root = roots[0]
        children: Dict[str, List[dict]] = {}
        for member in members:
            parent = member.get("parent_id")
            if isinstance(parent, str):
                children.setdefault(parent, []).append(member)
        for sibling_list in children.values():
            sibling_list.sort(key=lambda m: m.get("start_ts") or 0.0)
        request_id = root.get("request_id")
        trees.append(
            {
                "trace_id": trace_id,
                "request_id": request_id,
                "root": root,
                "spans": members,
                "children": children,
            }
        )
    trees.sort(key=lambda t: -(t["root"].get("duration_s") or 0.0))
    return trees


def render_waterfall(tree: dict, width: int = 40) -> List[str]:
    """Text waterfall for one trace: offset, duration and a scaled bar."""
    root = tree["root"]
    t0 = root.get("start_ts") or 0.0
    total = max(root.get("duration_s") or 0.0, 1e-9)
    lines = [
        f"waterfall: {tree.get('request_id') or tree['trace_id']}  "
        f"({total * 1000.0:.1f}ms, trace {tree['trace_id']})"
    ]

    def _bar(offset_s: float, duration_s: float) -> str:
        start = int(max(0.0, min(1.0, offset_s / total)) * width)
        length = max(1, int(min(1.0, duration_s / total) * width))
        length = min(length, width - start) or 1
        return " " * start + "#" * length

    def _walk(record_dict: dict, depth: int) -> None:
        offset = max(0.0, (record_dict.get("start_ts") or t0) - t0)
        duration = record_dict.get("duration_s") or 0.0
        name = "  " * depth + str(record_dict.get("name"))
        lines.append(
            f"  {name:<30} {offset * 1000.0:>8.1f}ms {duration * 1000.0:>8.1f}ms "
            f"|{_bar(offset, duration):<{width}}|"
        )
        for child in tree["children"].get(record_dict.get("span_id"), ()):
            _walk(child, depth + 1)

    _walk(root, 0)
    return lines


def critical_paths(trees: Iterable[dict]) -> List[dict]:
    """Dominant stage chain per trace, aggregated across traces.

    For each trace, descend from the root into the longest-duration
    child at every level; the resulting chain is that request's critical
    path.  Returns one row per distinct path with its frequency, mean
    leaf duration, and mean fraction of end-to-end latency.
    """
    aggregate: Dict[tuple, List[Tuple[float, float]]] = {}
    for tree in trees:
        node = tree["root"]
        total = max(node.get("duration_s") or 0.0, 1e-9)
        path = [str(node.get("name"))]
        while True:
            kids = tree["children"].get(node.get("span_id"), ())
            if not kids:
                break
            node = max(kids, key=lambda m: m.get("duration_s") or 0.0)
            path.append(str(node.get("name")))
        leaf = node.get("duration_s") or 0.0
        aggregate.setdefault(tuple(path), []).append((leaf, leaf / total))
    rows = []
    for path, samples in aggregate.items():
        rows.append(
            {
                "path": " > ".join(path),
                "count": len(samples),
                "mean_leaf_ms": round(
                    sum(s[0] for s in samples) / len(samples) * 1000.0, 3
                ),
                "mean_fraction": round(
                    sum(s[1] for s in samples) / len(samples), 4
                ),
            }
        )
    rows.sort(key=lambda r: -r["count"])
    return rows
