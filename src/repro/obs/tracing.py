"""Request tracing and per-stage latency attribution.

A :class:`Trace` is one request's collection of timed spans.  The span
taxonomy (DESIGN.md §15) names where a request can spend time:

=====================  =============================================
stage                  measured where
=====================  =============================================
``http.decode``        front end — JSON parse + graph reconstruction
``queue.wait``         engine — submit → popped by a shard thread
``cache.lookup``       engine — fingerprints + prediction-cache probe
``engine.wait``        engine caller — submit → futures resolved
``model.forward``      engine shard thread — one joint forward pass
``degraded.fallback``  engine — breaker-open / failure fallback fill
``feedback.flush``     feedback log — one chunk written to disk
=====================  =============================================

A trace records only the spans measured on the request's own thread,
so they tile the request's wall clock and their sum approximates the
end-to-end latency (the acceptance gate holds them within 10%).  Stages
timed on a shard thread (``queue.wait``, ``model.forward``) have no
current trace there and feed only the histogram.

Every span also feeds the ``repro_stage_seconds{stage=...}`` histogram,
so aggregate attribution exists even for untraced traffic; traces add
the per-request view.  Propagation: ``X-Request-Id``/``X-Trace-Id``
HTTP headers in and out of the front end.

The slow-request log: with ``REPRO_SLOW_MS`` set, every front-end
request is traced and any request slower than the threshold emits one
JSON line on the ``repro.obs.slow`` logger with its span breakdown.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import os
import uuid
from collections import deque

from repro.obs import clock, metrics

__all__ = [
    "Span",
    "Trace",
    "clear_recent",
    "current",
    "finish",
    "maybe_log_slow",
    "maybe_trace",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "observe_stage",
    "pop",
    "push",
    "recent_traces",
    "sample_every",
    "slow_threshold_s",
    "span",
    "trace_request",
]

_SLOW_LOGGER = logging.getLogger("repro.obs.slow")

STAGE_SECONDS = metrics.histogram(
    "repro_stage_seconds",
    "Per-stage latency attribution (span taxonomy, DESIGN.md §15)",
    labelnames=("stage",),
)


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_request_id() -> str:
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed stage inside a trace."""

    __slots__ = ("span_id", "name", "seconds")

    def __init__(self, name: str, seconds: float):
        self.span_id = new_span_id()
        self.name = name
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span {self.name} {self.seconds * 1000:.3f}ms>"


class Trace:
    """One request's spans and wall-clock window."""

    __slots__ = ("trace_id", "request_id", "spans", "started", "finished")

    def __init__(self, trace_id: str | None = None, request_id: str | None = None):
        self.trace_id = trace_id or new_trace_id()
        self.request_id = request_id or new_request_id()
        self.spans: list[Span] = []
        self.started = clock.monotonic()
        self.finished: float | None = None

    def record(self, name: str, seconds: float) -> None:
        self.spans.append(Span(name, seconds))

    def total_seconds(self) -> float:
        end = self.finished if self.finished is not None else clock.monotonic()
        return end - self.started

    def top_level_seconds(self) -> float:
        """Sum of the spans (all measured on the request's own thread)."""
        return sum(s.seconds for s in self.spans)

    def breakdown(self) -> dict[str, float]:
        """Per-stage summed seconds."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "total_ms": round(self.total_seconds() * 1000.0, 3),
            "stages_ms": {
                name: round(seconds * 1000.0, 3)
                for name, seconds in sorted(self.breakdown().items())
            },
        }


_CURRENT: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)
#: recently finished traces, oldest first — tests and the
#: observability-overhead gate read these; bounded so an armed sampler
#: can't grow memory
_RECENT: deque[Trace] = deque(maxlen=64)


def current() -> Trace | None:
    return _CURRENT.get()


def finish(trace: Trace) -> Trace:
    trace.finished = clock.monotonic()
    _RECENT.append(trace)
    return trace


def recent_traces(n: int = 16) -> list[Trace]:
    return list(_RECENT)[-n:]


def clear_recent() -> None:
    _RECENT.clear()


def push(trace: Trace | None):
    """Make ``trace`` current; returns a token for :func:`pop` (None-safe).

    For call sites that cannot wrap the request in a ``with`` block (the
    stdlib HTTP handler methods).  ``push(None)`` returns ``None`` and
    changes nothing.
    """
    if trace is None:
        return None
    return _CURRENT.set(trace)


def pop(token) -> None:
    """Undo a :func:`push` (no-op for a ``None`` token)."""
    if token is not None:
        _CURRENT.reset(token)


@contextlib.contextmanager
def trace_request(trace_id: str | None = None, request_id: str | None = None):
    """Run the block under a fresh trace, finished on exit.

    Yields ``None`` (and records nothing) when observability is off.
    """
    if not metrics.enabled():
        yield None
        return
    trace = Trace(trace_id, request_id)
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
        finish(trace)


def observe_stage(name: str, seconds: float) -> None:
    """Record one stage duration: histogram always, current trace if any."""
    if not metrics.enabled():
        return
    STAGE_SECONDS.labels(name).observe(seconds)
    trace = _CURRENT.get()
    if trace is not None:
        trace.record(name, seconds)


@contextlib.contextmanager
def span(name: str):
    """Time the block as one stage (no-op when observability is off)."""
    if not metrics.enabled():
        yield None
        return
    started = clock.monotonic()
    try:
        yield None
    finally:
        observe_stage(name, clock.monotonic() - started)


# -- sampling + slow-request log ---------------------------------------


def slow_threshold_s() -> float | None:
    """``REPRO_SLOW_MS`` as seconds, or None when the log is unarmed."""
    raw = os.environ.get("REPRO_SLOW_MS", "").strip()
    if not raw:
        return None
    try:
        ms = float(raw)
    except ValueError:
        return None
    return ms / 1000.0 if ms >= 0 else None


def sample_every() -> int:
    """``REPRO_TRACE_SAMPLE`` — trace every Nth request (0 = off)."""
    raw = os.environ.get("REPRO_TRACE_SAMPLE", "").strip()
    if not raw:
        return 0
    try:
        every = int(raw)
    except ValueError:
        return 0
    return every if every > 0 else 0


def maybe_trace(
    header_trace_id: str | None = None,
    request_id: str | None = None,
    seq: int = 0,
) -> Trace | None:
    """The front-end sampling decision for one request.

    Trace when the client sent an ``X-Trace-Id`` (their id is adopted so
    client and server logs join), when the slow-request log is armed
    (every request is a candidate offender), or when ``seq`` lands on
    the ``REPRO_TRACE_SAMPLE`` stride.
    """
    if not metrics.enabled():
        return None
    if header_trace_id:
        return Trace(header_trace_id, request_id)
    if slow_threshold_s() is not None:
        return Trace(None, request_id)
    every = sample_every()
    if every > 0 and seq % every == 0:
        return Trace(None, request_id)
    return None


def maybe_log_slow(
    trace: Trace | None,
    route: str = "",
    status: int = 0,
    logger: logging.Logger = _SLOW_LOGGER,
) -> str | None:
    """Emit one JSON line when the finished trace breaches the threshold.

    Returns the line (or None), so tests and callers can assert on it.
    """
    threshold = slow_threshold_s()
    if trace is None or threshold is None:
        return None
    total = trace.total_seconds()
    if total < threshold:
        return None
    doc = trace.to_dict()
    doc["event"] = "slow_request"
    doc["route"] = route
    doc["status"] = status
    doc["threshold_ms"] = round(threshold * 1000.0, 3)
    line = json.dumps(doc, sort_keys=True)
    logger.warning("%s", line)
    return line
