"""Observability layer tests (DESIGN.md §15).

Covers the PR-9 stack bottom-up: the metrics registry (bucket math
pinned to Prometheus ``le`` semantics, per-thread shard merging, the
``REPRO_OBS`` gate), the exposition encoder against a minimal
Prometheus-text parser, tracing (span taxonomy, nested exclusion,
sampling and the slow-request log), and engine/worker/router span
wiring — including the pin that a trace survives the router→worker
frame round-trip through one-shot graph resend *and* retry-on-peer.
The HTTP front end's ``/metrics``, ``X-Request-Id`` echo, and the
span-breakdown-sums-to-e2e acceptance gate are pinned over both scoring
backends in ``tests/test_http_contract.py``.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
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
    ModelRegistry,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    WorkerRouter,
)
from repro.serve.worker import ServingWorker, WorkerConfig

SPAWN = multiprocessing.get_context("spawn")


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
        from repro.serve import engine, resilience, router, worker

        for module in (engine, resilience, router, worker):
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

    def test_nested_spans_excluded_from_top_level_sum(self):
        with tracing.trace_request() as trace:
            tracing.observe_stage("wire.roundtrip", 1.0)
            tracing.observe_stage("worker.engine", 0.9, nested=True)
        assert trace.top_level_seconds() == 1.0
        assert trace.breakdown()["worker.engine"] == 0.9

    def test_wire_roundtrip_preserves_ids(self):
        trace = tracing.Trace("tid-1", "rid-1")
        wire = tracing.to_wire(trace)
        assert wire == {"trace_id": "tid-1", "request_id": "rid-1"}
        back = tracing.from_wire(wire)
        assert back.trace_id == "tid-1" and back.request_id == "rid-1"
        assert tracing.to_wire(None) is None
        assert tracing.from_wire(None) is None

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


# ======================================================================
# cross-process propagation: worker frames, resend, retry-on-peer
# ======================================================================
@pytest.fixture(scope="module")
def mp_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-registry")
    model = _make_model()
    ModelRegistry(root).publish("mp", model)
    return str(root), model


@pytest.fixture(scope="module")
def router(mp_setup):
    root, _ = mp_setup
    with WorkerRouter(root, "mp", workers=2, heartbeat_interval_s=0.25) as r:
        yield r


class TestWorkerFrameTrace:
    @pytest.fixture(scope="class")
    def worker(self, mp_setup):
        root, _ = mp_setup
        w = ServingWorker(
            WorkerConfig(
                worker_id=0,
                registry_root=root,
                model_name="mp",
                model_version=1,
            )
        )
        yield w
        w.engine.close()

    def test_traced_frame_echoes_trace_id_and_stages(self, worker):
        graphs = synthetic_graphs(2, seed=7)
        response = worker.handle(
            {
                "op": "score",
                "id": 1,
                "items": [(f"fp-t{i}", g) for i, g in enumerate(graphs)],
                "trace": {"trace_id": "tid-frame", "request_id": "rid-frame"},
            }
        )
        assert response["ok"]
        assert response["trace_id"] == "tid-frame"
        stages = response["stages"]
        assert stages["worker.engine"] > 0
        # the worker-local trace captured the engine-internal stages too
        assert "engine.wait" in stages

    def test_untraced_frame_has_no_trace_keys(self, worker):
        # backward compatibility: the trace field is optional, and its
        # absence must leave the response shape exactly as before
        graphs = synthetic_graphs(1, seed=8)
        response = worker.handle(
            {"op": "score", "id": 2, "items": [("fp-u0", graphs[0])]}
        )
        assert response["ok"]
        assert "trace_id" not in response
        assert "stages" not in response


class TestRouterTrace:
    def test_trace_survives_frame_roundtrip(self, router):
        graphs = synthetic_graphs(6, seed=9)
        with tracing.trace_request() as trace:
            outcome = router.score_resilient(graphs)
        assert all(s == "ok" for s in outcome.statuses)
        stages = trace.breakdown()
        assert "router.dispatch" in stages
        assert "wire.roundtrip" in stages
        # the worker's breakdown rode back on the reply frame, nested
        assert "worker.engine" in stages
        nested = [s for s in trace.spans if s.nested]
        assert any(s.name == "worker.engine" for s in nested)
        # the worker echoed the router's trace id — same trace end to end
        assert trace.tags["worker.trace_id"] == trace.trace_id
        assert "worker.epoch" in trace.tags

    def test_one_shot_resend_reuses_original_trace_id(self, router, mp_setup):
        """The unknown-fingerprint resend is a second frame for the same
        request; it must carry the *original* trace context, not mint a
        new one."""
        _, model = mp_setup
        graphs = synthetic_graphs(4, seed=10)
        fps = router.request_cache.fingerprints(graphs)
        for handle in router._handles:
            handle.mark_known(fps)  # a lie: the workers never saw these
        before = router.stats.unknown_resends
        with tracing.trace_request(trace_id="tid-resend") as trace:
            values = router.score(graphs)
        assert router.stats.unknown_resends > before
        assert np.isfinite(values).all()
        # both the first reply and the resend reply echoed the same id
        assert trace.tags["worker.trace_id"] == "tid-resend"
        # two worker.engine recordings: the original frame + the resend
        engine_spans = [s for s in trace.spans if s.name == "worker.engine"]
        assert len(engine_spans) >= 2

    def test_retry_on_peer_keeps_the_trace(self, mp_setup):
        root, _ = mp_setup
        with WorkerRouter(
            root, "mp", workers=2, heartbeat_interval_s=0.2
        ) as own:
            graphs = synthetic_graphs(8, seed=11)
            own.score(graphs)  # warm
            victim = own._handles[0]
            send_group = own._send_group

            def crash_then_send(handle, *args):
                # the crash frame precedes the score frame on the same
                # socket, so the worker dies with the score in flight;
                # crashing it before routing raced the router seeing the
                # EOF and routing around the dead worker (no retry)
                if handle is victim:
                    handle.client.request({"op": "crash"})
                return send_group(handle, *args)

            own._send_group = crash_then_send
            before = own.stats.retries
            with tracing.trace_request(trace_id="tid-retry") as trace:
                outcome = own.score_resilient(graphs)
            assert all(s == "ok" for s in outcome.statuses)
            assert own.stats.retries > before
            # the retry frame reused the original trace context
            assert trace.tags["worker.trace_id"] == "tid-retry"
            assert "wire.roundtrip" in trace.breakdown()

    def test_affinity_vs_spill_decisions_counted(self, router):
        graphs = synthetic_graphs(4, seed=12)
        before = router.stats.affinity + router.stats.spills
        router.score(graphs)
        assert router.stats.affinity + router.stats.spills > before
        text = metrics.render(
            export.router_samples(router, include_workers=False)
        )
        samples, _ = parse_prometheus(text)
        decisions = {
            lab["decision"]: val
            for lab, val in samples["repro_router_decisions_total"]
        }
        assert set(decisions) == {"affinity", "spill"}
        assert decisions["affinity"] == router.stats.affinity
