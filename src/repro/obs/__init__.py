"""Observability for the serving stack (DESIGN.md §15).

Stdlib-only by design: :mod:`repro.obs` sits *below* ``repro.serve``
and ``repro.feedback`` in the import graph so any layer — the engine's
shard threads, the feedback flusher — can instrument itself without
creating an import cycle.

* :mod:`repro.obs.clock` — the one duration clock (``time.monotonic``);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with per-thread
  shards, Prometheus-text exposition, the ``REPRO_OBS`` on/off gate;
* :mod:`repro.obs.tracing` — trace/span ids, the per-stage span
  taxonomy, the ``REPRO_SLOW_MS`` slow log;
* :mod:`repro.obs.export` — scrape-time samples from components that
  keep their own counters (engine stats, caches, breaker, feedback).
"""

from __future__ import annotations

from repro.obs import clock, export, metrics, tracing
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    log_buckets,
    render,
    set_enabled,
)
from repro.obs.tracing import (
    Span,
    Trace,
    current,
    maybe_log_slow,
    maybe_trace,
    observe_stage,
    recent_traces,
    span,
    trace_request,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Trace",
    "clock",
    "counter",
    "current",
    "enabled",
    "export",
    "gauge",
    "histogram",
    "log_buckets",
    "maybe_log_slow",
    "maybe_trace",
    "metrics",
    "observe_stage",
    "recent_traces",
    "render",
    "set_enabled",
    "span",
    "trace_request",
    "tracing",
]
