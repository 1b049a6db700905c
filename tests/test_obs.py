"""Observability layer tests (DESIGN.md §15).

Covers the PR-9 stack bottom-up: the metrics registry (bucket math
pinned to Prometheus ``le`` semantics, per-thread shard merging, the
``REPRO_OBS`` gate), the exposition encoder against a minimal
Prometheus-text parser, tracing (span taxonomy, sampling and the
slow-request log), and the engine's span wiring. The HTTP front end's
``/metrics``, ``X-Request-Id`` echo, and the span-breakdown-sums-to-e2e
acceptance gate are pinned in ``tests/test_http_contract.py``.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time

import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.model import CostGNN, GNNConfig
from repro.obs import clock, export, metrics, tracing
from repro.serve import (
    CircuitBreaker,
    DegradedFallback,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
)


def synthetic_graphs(n_graphs: int, seed: int = 0) -> list[JointGraph]:
    """Small random typed DAGs shaped like joint graphs."""
    rng = np.random.default_rng(seed)
    types = list(enc.NODE_TYPES)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(8, 20))
        graph = JointGraph()
        for _ in range(n):
            gtype = types[int(rng.integers(len(types)))]
            graph.add_node(gtype, rng.random(enc.FEATURE_DIMS[gtype]))
        for node in range(1, n):
            graph.add_edge(int(rng.integers(node)), node)
        graph.root_id = n - 1
        graphs.append(graph)
    return graphs


def _make_model(seed: int = 1) -> CostGNN:
    model = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=seed))
    model.eval()
    return model


# ======================================================================
# a minimal Prometheus text-format 0.0.4 parser — the exposition
# contract the front end's /metrics must satisfy
# ======================================================================

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (-?(?:[0-9.eE+-]+|Inf|NaN))$"
)
_LABEL_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\]|\\.)*)\"")


def parse_prometheus(text: str):
    """``(samples, types)``: every non-comment line must parse.

    ``samples`` maps sample name (including ``_bucket``/``_sum``/
    ``_count`` suffixes) to ``[(labels_dict, value)]``; ``types`` maps
    family name to its declared type.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    types: dict[str, str] = {}
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            assert len(line.split(" ", 3)) >= 4, f"bad HELP line: {line!r}"
            continue
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(" ", 3)
            assert mtype in ("counter", "gauge", "histogram"), line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = mtype
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, label_str, value = match.groups()
        labels = dict(_LABEL_RE.findall(label_str)) if label_str else {}
        samples.setdefault(name, []).append((labels, float(value)))
    return samples, types


def assert_histograms_coherent(samples: dict, types: dict) -> None:
    """Cumulative buckets, ``+Inf`` present, ``_count`` == +Inf count."""
    for family, mtype in types.items():
        if mtype != "histogram":
            continue
        buckets = samples.get(f"{family}_bucket", [])
        series: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels["le"]
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            series.setdefault(key, []).append((float(le), value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(f"{family}_count", [])
        }
        for key, rows in series.items():
            rows.sort(key=lambda r: r[0])
            assert math.isinf(rows[-1][0]), f"{family}{key}: no +Inf bucket"
            values = [v for _, v in rows]
            assert values == sorted(values), f"{family}{key}: not cumulative"
            assert counts[key] == values[-1], f"{family}{key}: count != +Inf"


# ======================================================================
class TestClockSeam:
    def test_one_duration_clock_everywhere(self):
        # busy_seconds (engine) and deadlines (resilience) historically
        # used different clocks; both must now sit on the obs seam
        from repro.feedback import collector
        from repro.serve import engine, resilience

        for module in (engine, resilience):
            assert module.clock is clock, module.__name__
        assert collector.tracing.clock is clock
        assert clock.monotonic is time.monotonic

    def test_now_is_monotonic(self):
        a = clock.now()
        b = clock.now()
        assert b >= a


# ======================================================================
class TestBucketMath:
    def test_log_buckets_pinned(self):
        assert metrics.log_buckets(0.0001, 1.0, per_decade=1) == (
            0.0001,
            0.001,
            0.01,
            0.1,
            1.0,
        )
        buckets = metrics.log_buckets(0.001, 1.0, per_decade=3)
        assert len(buckets) == 10
        # geometric: ~constant ratio between adjacent (rounded) bounds
        ratios = [buckets[i + 1] / buckets[i] for i in range(len(buckets) - 1)]
        assert all(abs(r / ratios[0] - 1.0) < 1e-3 for r in ratios)
        assert buckets[3] == 0.01 and buckets[6] == 0.1  # decades exact

    def test_default_latency_buckets_span_100us_to_10s(self):
        bounds = metrics.DEFAULT_LATENCY_BUCKETS
        assert bounds[0] == 0.0001
        assert bounds[-1] == 10.0
        assert list(bounds) == sorted(bounds)

    def test_le_semantics_value_on_bound_lands_in_bucket(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("t_seconds", "t", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0):
            hist.observe(value)
        cumulative, total, count = hist.labels().snapshot()
        # le=0.01 holds 0.005 and exactly-0.01; le=0.1 adds 0.05 + 0.1...
        assert cumulative == [2.0, 4.0, 6.0, 7.0]  # ..., le=1.0, +Inf
        assert count == 7.0
        assert abs(total - 6.665) < 1e-9

    def test_per_thread_shards_merge_on_read(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("t_total", "t")
        hist = registry.histogram("th_seconds", "t", buckets=(1.0,))

        def work():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.labels().value == 4000.0
        cumulative, total, count = hist.labels().snapshot()
        assert count == 4000.0 and cumulative[0] == 4000.0


# ======================================================================
class TestRegistry:
    def test_get_or_create_returns_same_family_and_child(self):
        registry = metrics.MetricsRegistry()
        a = registry.counter("x_total", "x", labelnames=("route",))
        b = registry.counter("x_total", "x", labelnames=("route",))
        assert a is b
        assert a.labels("predict") is b.labels("predict")
        assert a.labels("predict") is not a.labels("advise")

    def test_kind_and_label_mismatches_refused(self):
        registry = metrics.MetricsRegistry()
        registry.counter("y_total", "y", labelnames=("route",))
        with pytest.raises(ValueError):
            registry.gauge("y_total", "y", labelnames=("route",))
        with pytest.raises(ValueError):
            registry.counter("y_total", "y", labelnames=("other",))

    def test_disabled_mutations_are_dropped(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("z_total", "z")
        hist = registry.histogram("z_seconds", "z", buckets=(1.0,))
        previous = metrics.set_enabled(False)
        try:
            counter.inc()
            hist.observe(0.5)
        finally:
            metrics.set_enabled(previous)
        assert counter.labels().value == 0.0
        assert hist.labels().snapshot()[2] == 0.0
        counter.inc()
        assert counter.labels().value == 1.0

    def test_render_parses_and_escapes(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("e_total", 'has "quotes" \\ and\nnewline')
        counter.inc(3)
        gauge = registry.gauge("e_gauge", "g", labelnames=("path",))
        gauge.labels('va"lue').set(2.5)
        registry.histogram("e_seconds", "h", buckets=(0.1, 1.0)).observe(0.2)
        samples, types = parse_prometheus(registry.render())
        assert types == {
            "e_gauge": "gauge",
            "e_seconds": "histogram",
            "e_total": "counter",
        }
        assert samples["e_total"] == [({}, 3.0)]
        assert samples["e_gauge"][0][0]["path"] == 'va\\"lue'
        assert_histograms_coherent(samples, types)

    def test_render_appends_extra_samples(self):
        registry = metrics.MetricsRegistry()
        text = registry.render(
            extra=[
                export.sample("ext_total", 7, {"kind": "a"}, "counter", "ext"),
                export.sample("ext_total", 8, {"kind": "b"}, "counter"),
            ]
        )
        samples, types = parse_prometheus(text)
        assert types["ext_total"] == "counter"
        assert sorted(v for _, v in samples["ext_total"]) == [7.0, 8.0]


# ======================================================================
class TestTracing:
    def test_span_records_to_current_trace_and_histogram(self):
        with tracing.trace_request() as trace:
            with tracing.span("model.forward"):
                pass
            tracing.observe_stage("queue.wait", 0.25)
        assert trace.finished is not None
        assert set(trace.breakdown()) == {"model.forward", "queue.wait"}
        assert trace.breakdown()["queue.wait"] == 0.25

    def test_trace_request_disabled_yields_none(self):
        previous = metrics.set_enabled(False)
        try:
            with tracing.trace_request() as trace:
                tracing.observe_stage("model.forward", 1.0)
            assert trace is None
            assert tracing.maybe_trace("client-id", "rid", 0) is None
        finally:
            metrics.set_enabled(previous)

    def test_maybe_trace_decision_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_MS", raising=False)
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        # untraced by default
        assert tracing.maybe_trace(None, "rid", seq=1) is None
        # a client-sent trace id is always adopted
        trace = tracing.maybe_trace("client-tid", "rid", seq=1)
        assert trace is not None and trace.trace_id == "client-tid"
        # the armed slow log traces everything
        monkeypatch.setenv("REPRO_SLOW_MS", "50")
        assert tracing.maybe_trace(None, "rid", seq=1) is not None
        monkeypatch.delenv("REPRO_SLOW_MS")
        # stride sampling
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "10")
        assert tracing.maybe_trace(None, "rid", seq=10) is not None
        assert tracing.maybe_trace(None, "rid", seq=11) is None

    def test_slow_threshold_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_MS", "250")
        assert tracing.slow_threshold_s() == 0.25
        monkeypatch.setenv("REPRO_SLOW_MS", "not-a-number")
        assert tracing.slow_threshold_s() is None
        monkeypatch.delenv("REPRO_SLOW_MS")
        assert tracing.slow_threshold_s() is None

    def test_slow_log_line_is_structured_json(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_MS", "0")
        with tracing.trace_request(request_id="rid-slow") as trace:
            tracing.observe_stage("model.forward", 0.125)
        logger = logging.getLogger("test.obs.slow")
        line = tracing.maybe_log_slow(
            trace, route="/predict", status=200, logger=logger
        )
        assert line is not None
        doc = json.loads(line)
        assert doc["event"] == "slow_request"
        assert doc["route"] == "/predict"
        assert doc["status"] == 200
        assert doc["request_id"] == "rid-slow"
        assert doc["stages_ms"]["model.forward"] == 125.0
        assert doc["total_ms"] >= 0

    def test_under_threshold_requests_stay_quiet(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_MS", "60000")
        with tracing.trace_request() as trace:
            pass
        assert tracing.maybe_log_slow(trace, route="/x", status=200) is None


# ======================================================================
class TestEngineInstrumentation:
    def test_resilient_path_records_span_taxonomy(self):
        engine = ShardedEngine(
            _make_model(),
            shards=1,
            max_batch_size=16,
            request_cache=PreparedRequestCache(),
            prediction_cache=PredictionCache(),
        )
        graphs = synthetic_graphs(4, seed=3)
        forward = tracing.STAGE_SECONDS.labels("model.forward")
        wait = tracing.STAGE_SECONDS.labels("queue.wait")
        forward_before = forward.snapshot()[2]
        wait_before = wait.snapshot()[2]
        with engine:
            with tracing.trace_request() as trace:
                outcome = engine.score_resilient(graphs)
        assert all(s == "ok" for s in outcome.statuses)
        stages = trace.breakdown()
        # caller-thread spans land on the trace...
        assert "cache.lookup" in stages and "engine.wait" in stages
        assert trace.top_level_seconds() <= trace.total_seconds() + 1e-6
        # ...while shard-thread stages feed the aggregate histograms
        assert forward.snapshot()[2] > forward_before
        assert wait.snapshot()[2] > wait_before

    def test_degraded_fallback_span_recorded(self):
        breaker = CircuitBreaker(min_samples=1, max_error_rate=0.01)
        fallback = DegradedFallback(min_fit=10_000)
        engine = ShardedEngine(
            _make_model(),
            shards=1,
            max_batch_size=16,
            # fallback observations ride the prediction-cache fill path
            prediction_cache=PredictionCache(),
            breaker=breaker,
            fallback=fallback,
        )
        graphs = synthetic_graphs(4, seed=4)
        with engine:
            engine.score_resilient(graphs)  # healthy: seeds the fallback
            breaker.record_failure()  # trips (min_samples=1)
            assert breaker.state == "open"
            with tracing.trace_request() as trace:
                # fresh graphs: cache misses, so the open breaker routes
                # them through the degraded tier
                outcome = engine.score_resilient(synthetic_graphs(4, seed=44))
        assert outcome.degraded
        assert "degraded.fallback" in trace.breakdown()

    def test_breaker_probes_surface_in_describe(self):
        breaker = CircuitBreaker(
            min_samples=1, max_error_rate=0.01, cooldown_s=0.0
        )
        breaker.record_failure()
        assert breaker.state in ("open", "half_open")
        assert breaker.allow()  # the half-open probe
        doc = breaker.describe()
        assert doc["probes"] == 1
        assert doc["trips"] == 1


# ======================================================================
class TestExportSamples:
    def test_engine_scrape_has_cache_tiers_and_breaker(self):
        engine = ShardedEngine(
            _make_model(),
            shards=1,
            max_batch_size=16,
            request_cache=PreparedRequestCache(),
            prediction_cache=PredictionCache(),
            breaker=CircuitBreaker(),
            fallback=DegradedFallback(),
        )
        graphs = synthetic_graphs(4, seed=5)
        with engine:
            engine.score_resilient(graphs)
            engine.score_resilient(graphs)  # repeat: prediction hits
            text = metrics.render(export.serving_samples(engine=engine))
        samples, types = parse_prometheus(text)
        assert_histograms_coherent(samples, types)
        events = samples["repro_cache_events_total"]
        tiers = {(lab["cache"], lab["tier"], lab["event"]) for lab, _ in events}
        for tier in ("payload", "prepared", "topology"):
            assert ("request", tier, "hits") in tiers
            assert ("request", tier, "misses") in tiers
        assert ("prediction", "prediction", "hits") in tiers
        hits = {
            (lab["cache"], lab["tier"]): val
            for lab, val in events
            if lab["event"] == "hits"
        }
        assert hits[("prediction", "prediction")] >= len(graphs)
        states = {
            lab["state"]: val for lab, val in samples["repro_breaker_state"]
        }
        assert states["closed"] == 1.0
        assert states["open"] == 0.0
        assert samples["repro_engine_requests_total"][0][1] > 0

    def test_prediction_invalidations_exported(self):
        cache = PredictionCache()
        cache.put_many(["fp-a"], [1.0], cache.token())
        cache.invalidate()
        text = metrics.render(
            export.serving_samples(
                engine=type(
                    "E",
                    (),
                    {
                        "describe": lambda self: {
                            "stats": {},
                            "prediction_cache": cache.stats(),
                        }
                    },
                )()
            )
        )
        samples, _ = parse_prometheus(text)
        assert samples["repro_cache_invalidations_total"][0][1] == 1.0
