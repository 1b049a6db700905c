"""Resilience-layer tests: fault injection, breaker, degraded fallback,
deadlines, backpressure, crash recovery, and structured HTTP errors.

Every fault here is scripted through ``repro.faults`` with
probability 1.0 or capped fire counts, so each test is deterministic:
the same failures fire in the same order on every run (DESIGN.md §12).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import numpy as np
import pytest

from repro import faults
from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import (
    DeadlineExceeded,
    EngineClosed,
    EngineOverloaded,
    ServingError,
)
from repro.faults import FaultInjector, InjectedFault, WorkerCrash, injected
from repro.feedback import FeedbackLog, FeedbackRecord, graph_fingerprint
from repro.model import CostGNN, GNNConfig
from repro.serve import (
    AdvisorService,
    CircuitBreaker,
    DegradedFallback,
    HealthMonitor,
    ModelRegistry,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    graph_to_json,
    make_server,
)
from repro.serve.resilience import (
    deadline_from_ms,
    deadline_remaining,
    graph_feature_vector,
)


@pytest.fixture(autouse=True)
def no_leaked_faults():
    """A test that dies mid-fault must not poison its neighbours."""
    yield
    faults.uninstall()


def synthetic_graphs(n_graphs: int, seed: int = 0) -> list[JointGraph]:
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


@pytest.fixture(scope="module")
def model() -> CostGNN:
    return CostGNN(GNNConfig(hidden_dim=8, dtype="float64"))


def make_engine(model, **kwargs) -> ShardedEngine:
    defaults = dict(
        shards=2,
        max_batch_size=16,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
        breaker=CircuitBreaker(min_samples=4, cooldown_s=0.1),
        fallback=DegradedFallback(min_fit=4),
        supervise_interval_s=0.01,
    )
    defaults.update(kwargs)
    return ShardedEngine(model, **defaults)


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def hold_worker(engine: ShardedEngine, seed: int) -> threading.Thread:
    """Park the engine's only worker inside a forward.

    Call under an installed ``forward:delay`` fault: a background call
    scores one graph, and once the worker has popped it, whatever is
    queued next waits for the delay to end.
    """
    requests = engine.stats.requests
    holder = threading.Thread(
        target=engine.score_resilient, args=(synthetic_graphs(1, seed=seed),)
    )
    holder.start()
    assert wait_until(
        lambda: engine.stats.requests > requests and not engine.describe()["queued"]
    )
    return holder


def force_open(breaker: CircuitBreaker) -> None:
    """Record failures until the windowed error rate trips the breaker
    (prior warm-up successes dilute the window, so a fixed count won't do)."""
    for _ in range(200):
        if breaker.state == "open":
            return
        breaker.record_failure()
    raise AssertionError("breaker refused to trip after 200 failures")


# ======================================================================
class TestFaultSpec:
    def test_parse_rejects_garbage(self):
        with pytest.raises(ServingError):
            FaultInjector("nowhere:error:1.0")  # unknown site
        with pytest.raises(ServingError):
            FaultInjector("forward:explode:1.0")  # unknown kind
        with pytest.raises(ServingError):
            FaultInjector("forward:error:1.5")  # probability out of range
        with pytest.raises(ServingError):
            FaultInjector("forward:error")  # missing probability
        with pytest.raises(ServingError):
            FaultInjector("seed=abc;forward:error:1.0")

    def test_spec_seed_and_kinds(self):
        injector = FaultInjector(
            "seed=42;forward:error:1.0:1;feedback.flush:delay:1.0:0.001"
        )
        assert injector.seed == 42
        with pytest.raises(InjectedFault):
            injector.fire("forward")
        injector.fire("forward")  # capped at one fire
        before = time.perf_counter()
        injector.fire("feedback.flush")  # delay, not an exception
        assert time.perf_counter() - before >= 0.001
        injector.fire("decode")  # no rule -> inert
        assert injector.counts() == {"forward": 1, "feedback.flush": 1}

    def test_crash_is_not_an_exception(self):
        injector = FaultInjector("shard.worker:crash:1.0:1")
        with pytest.raises(WorkerCrash):
            injector.fire("shard.worker")
        assert not issubclass(WorkerCrash, Exception)  # sails through nets

    def test_streams_are_deterministic_and_independent(self):
        def decisions(injector, site, n=200):
            out = []
            for _ in range(n):
                try:
                    injector.fire(site)
                    out.append("ok")
                except (InjectedFault, WorkerCrash) as exc:
                    out.append(type(exc).__name__)
            return out

        for spec, sites in (
            ("forward:error:0.3;decode:error:0.2", ("forward", "decode")),
            # crash, error and delay rules: a chaos run replays
            (
                "shard.worker:crash:0.3;forward:error:0.2;forward:delay:0.5:0.001",
                ("forward", "shard.worker"),
            ),
        ):
            a, b = FaultInjector(spec, seed=5), FaultInjector(spec, seed=5)
            for site in sites:
                assert decisions(a, site) == decisions(b, site)
            assert a.counts() == b.counts()
            # a different seed is a different storm
            c = FaultInjector(spec, seed=6)
            assert decisions(c, sites[0]) != decisions(b, sites[0])

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9;decode:error:1.0:1")
        injector = faults.install_from_env()
        assert injector is not None and injector.seed == 9
        with pytest.raises(InjectedFault):
            faults.fire("decode")
        faults.uninstall()
        assert faults.current() is None
        faults.fire("decode")  # uninstalled -> inert
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert faults.install_from_env() is None

    def test_injected_context_manager(self):
        with injected("forward:error:1.0"):
            assert faults.current() is not None
            with pytest.raises(InjectedFault):
                faults.fire("forward")
        assert faults.current() is None


# ======================================================================
class TestCircuitBreaker:
    def test_error_rate_trips_and_half_open_recovers(self):
        breaker = CircuitBreaker(min_samples=4, cooldown_s=0.05)
        assert breaker.state == "closed" and breaker.allow()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1
        assert wait_until(lambda: breaker.state == "half_open", timeout=1.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe per cooldown
        breaker.record_success(0.001)
        assert breaker.state == "closed"
        # the window was cleared: old failures cannot instantly re-trip
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_s=0.05)
        breaker.record_failure()
        breaker.record_failure()
        assert wait_until(lambda: breaker.state == "half_open", timeout=1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_latency_trips(self):
        breaker = CircuitBreaker(min_samples=4, max_latency_s=0.010)
        for _ in range(4):
            breaker.record_success(0.002)
        assert breaker.state == "closed"
        for _ in range(4):
            breaker.record_success(0.200)
        assert breaker.state == "open"
        assert breaker.describe()["trips"] == 1

    def test_below_min_samples_never_trips(self):
        breaker = CircuitBreaker(min_samples=16)
        for _ in range(15):
            breaker.record_failure()
        assert breaker.state == "closed"


# ======================================================================
class TestDegradedFallback:
    def test_empty_reservoir_raises(self):
        fallback = DegradedFallback()
        with pytest.raises(ServingError):
            fallback.predict_many(synthetic_graphs(1))

    def test_median_below_min_fit_then_gbm(self):
        fallback = DegradedFallback(min_fit=8)
        graphs = synthetic_graphs(4, seed=1)
        fallback.observe_many(graphs, [1.0, 2.0, 3.0, 4.0])
        values = fallback.predict_many(synthetic_graphs(2, seed=2))
        assert values == [2.5, 2.5]  # observed median, twice
        assert not fallback.describe()["fitted"]

        more = synthetic_graphs(16, seed=3)
        fallback.observe_many(more, [float(i) for i in range(16)])
        fitted = fallback.predict_many(synthetic_graphs(3, seed=4))
        assert fallback.describe()["fitted"]
        assert len(fitted) == 3 and all(np.isfinite(v) for v in fitted)
        assert fallback.served == 5

    def test_feature_vector_shape_is_stable(self):
        for graph in synthetic_graphs(3, seed=5):
            vec = graph_feature_vector(graph)
            assert vec.shape == (len(enc.NODE_TYPES) + 6,)
            assert np.isfinite(vec).all()


# ======================================================================
class TestHealthMonitor:
    def test_lifecycle_states(self):
        health = HealthMonitor()
        assert health.state() == "starting"
        assert health.http_status() == 503
        health.mark_ready()
        assert health.state() == "ready"
        assert health.http_status() == 200
        health.mark_draining()
        assert health.state() == "draining"
        assert health.http_status() == 503

    def test_open_breaker_means_degraded(self):
        breaker = CircuitBreaker(min_samples=2)
        health = HealthMonitor(breaker=breaker)
        health.mark_ready()
        breaker.record_failure()
        breaker.record_failure()
        assert health.state() == "degraded"
        assert health.http_status() == 200  # still answering, say so

    def test_restart_grace_window(self):
        health = HealthMonitor(restart_grace_s=0.05)
        health.mark_ready()
        health.note_restart()
        assert health.state() == "degraded"
        assert health.restarts == 1
        assert wait_until(lambda: health.state() == "ready", timeout=1.0)


# ======================================================================
class TestDeadlinesAndBackpressure:
    def test_deadline_helpers(self):
        deadline = deadline_from_ms(50.0)
        assert deadline > time.monotonic()
        assert 0.0 < deadline_remaining(deadline, 99.0) <= 0.05
        assert deadline_remaining(None, 99.0) == 99.0

    def test_expired_deadline_sheds_before_scoring(self, model):
        engine = make_engine(model)
        with engine:
            outcome = engine.score_resilient(
                synthetic_graphs(3, seed=10), deadline=time.monotonic() - 1.0
            )
        assert outcome.statuses == ["shed_deadline"] * 3
        assert all(isinstance(e, DeadlineExceeded) for e in outcome.errors)

    def test_deadline_expiring_in_queue_is_shed(self, model):
        # a busy worker holds the request on the queue past its
        # deadline; the worker must shed it instead of forwarding
        engine = make_engine(model, shards=1)
        with engine, injected("forward:delay:1.0:0.3"):
            holder = hold_worker(engine, seed=10)
            outcome = engine.score_resilient(
                synthetic_graphs(1, seed=11), deadline=time.monotonic() + 0.05
            )
            assert outcome.statuses == ["shed_deadline"]
            # the caller's wait expires first; the worker pops the
            # request once the held forward ends and ticks the counter
            assert wait_until(lambda: engine.stats.shed_deadline >= 1)
            holder.join(timeout=30)
        assert engine.stats.predictions == 1  # the shed one never ran

    def test_queue_cap_rejects_with_overload(self, model):
        engine = make_engine(model, shards=1, max_queue=2)
        with engine, injected("forward:delay:1.0:0.3"):
            holder = hold_worker(engine, seed=12)
            filler = threading.Thread(
                target=engine.score_resilient, args=(synthetic_graphs(2, seed=13),)
            )
            filler.start()
            assert wait_until(lambda: engine.describe()["queued"] == 2)
            # the queue is at its cap: the whole call is shed, at once
            outcome = engine.score_resilient(synthetic_graphs(1, seed=14))
            for thread in (holder, filler):
                thread.join(timeout=30)
        assert outcome.statuses == ["shed_overload"]
        assert isinstance(outcome.errors[0], EngineOverloaded)
        assert engine.stats.shed_overload == 1

    def test_shed_requests_are_never_cached(self, model):
        engine = make_engine(model)
        graphs = synthetic_graphs(2, seed=14)
        with engine:
            engine.score_resilient(graphs, deadline=time.monotonic() - 1.0)
            # the shed attempt must not have poisoned the cache with None
            outcome = engine.score_resilient(graphs)
        assert outcome.statuses == ["ok", "ok"]
        assert all(v is not None for v in outcome.values)


# ======================================================================
class TestDedupResilience:
    def test_erroring_leader_always_resolves_inflight(self, model):
        engine = make_engine(model, breaker=None, fallback=None)
        # joint forward, per-request isolation, then the leader's retry
        # (joint + isolation again): four fires fail every attempt
        with engine, injected("forward:error:1.0:4"):
            outcome = engine.score_resilient(synthetic_graphs(1, seed=20))
        assert outcome.statuses == ["error"]
        assert isinstance(outcome.errors[0], InjectedFault)
        assert engine._inflight == {}  # nothing left to wedge a follower

    def test_follower_retries_when_leader_fails(self, model):
        engine = make_engine(model, breaker=None, fallback=None)
        graph = synthetic_graphs(1, seed=21)[0]
        fp = graph_fingerprint(graph)
        key = (engine.model_version, fp, "", 0.0)
        poisoned: Future = Future()
        engine._inflight[key] = poisoned
        results: list = []
        with engine:
            thread = threading.Thread(
                target=lambda: results.append(
                    engine.score_resilient([graph])
                )
            )
            thread.start()
            # the "leader" (this test) fails; the follower must not
            # inherit the failure, let alone hang on it — it retries
            time.sleep(0.05)
            poisoned.set_exception(RuntimeError("leader died"))
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "follower hung on a failed leader"
        assert results and results[0].statuses == ["ok"]

    def test_transient_fault_is_retried_transparently(self, model):
        engine = make_engine(model, breaker=None, fallback=None)
        # the joint forward and the isolation retry fail; the engine's
        # single transparent retry then succeeds
        with engine, injected("forward:error:1.0:2"):
            outcome = engine.score_resilient(synthetic_graphs(1, seed=22))
        assert outcome.statuses == ["ok"]


# ======================================================================
class TestCrashRecovery:
    def test_supervisor_revives_crashed_shard(self, model):
        engine = make_engine(model)
        engine.health = HealthMonitor(restart_grace_s=30.0)
        engine.health.mark_ready()
        with engine, injected("shard.worker:crash:1.0:1"):
            outcome = engine.score_resilient(synthetic_graphs(1, seed=30))
            assert outcome.statuses == ["ok"]  # retried on a live shard
            assert wait_until(lambda: engine.restarts >= 1)
            assert wait_until(lambda: engine.health.restarts >= 1)
            assert engine.health.state() == "degraded"  # inside the grace
            # the revived shard serves again: keep scoring fresh graphs
            after = engine.score_resilient(synthetic_graphs(4, seed=31))
            assert after.statuses == ["ok"] * 4
        assert engine.describe()["restarts"] >= 1

    def test_breaker_open_serves_degraded_not_stale_cache(self, model):
        """After a model swap with the breaker open, the old version's
        cached predictions must never be served as fresh answers."""
        engine = make_engine(
            model, breaker=CircuitBreaker(min_samples=2, cooldown_s=60.0)
        )
        graphs = synthetic_graphs(6, seed=32)
        with engine:
            warm = engine.score_resilient(graphs)  # caches + feeds fallback
            assert warm.statuses == ["ok"] * 6
            force_open(engine.breaker)
            assert engine.breaker.state == "open"
            swapped = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=9))
            engine.swap_model(swapped)
            outcome = engine.score_resilient(graphs)
        # every answer is flagged degraded — not one silently replays the
        # previous epoch's cache under an "ok" status
        assert outcome.statuses == ["degraded"] * 6
        assert outcome.degraded
        assert all(v is not None for v in outcome.values)

    def test_degraded_values_are_not_cached(self, model):
        engine = make_engine(
            model, breaker=CircuitBreaker(min_samples=2, cooldown_s=60.0)
        )
        graphs = synthetic_graphs(4, seed=33)
        with engine:
            engine.score_resilient(synthetic_graphs(8, seed=34))  # reservoir
            force_open(engine.breaker)
            degraded = engine.score_resilient(graphs)
            assert degraded.statuses == ["degraded"] * 4
            keys = [
                (engine.model_version, graph_fingerprint(g), "", 0.0) for g in graphs
            ]
            cached = engine.prediction_cache.get_many(keys)
        assert cached == [None] * 4

    def test_close_is_clean_with_supervisor(self, model):
        engine = make_engine(model)
        assert engine.score_resilient(synthetic_graphs(2, seed=35)).statuses == [
            "ok"
        ] * 2
        engine.close()
        refused = engine.score_resilient(synthetic_graphs(1, seed=36))
        assert refused.statuses == ["shed_overload"]
        assert isinstance(refused.errors[0], EngineClosed)


# ======================================================================
class TestRegistryRecovery:
    def test_corrupt_sidecar_falls_back_to_previous(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        v1 = registry.publish("m", model)
        v2 = registry.publish("m", model)
        v2.path.with_suffix(".json").write_text("{not json")
        fresh = ModelRegistry(tmp_path)
        loaded, serving = fresh.load_serving("m")
        assert serving.ref == v1.ref
        assert loaded.config == model.config
        assert "m@v2" in fresh.quarantined
        assert "sidecar" in fresh.quarantined["m@v2"]
        assert fresh.describe()["quarantined"] == fresh.quarantined

    def test_truncated_archive_is_quarantined(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        v1 = registry.publish("m", model)
        v2 = registry.publish("m", model)
        v2.path.write_bytes(v2.path.read_bytes()[:64])  # torn write
        fresh = ModelRegistry(tmp_path)
        _, serving = fresh.load_serving("m")
        assert serving.ref == v1.ref
        assert "load failed" in fresh.quarantined["m@v2"]

    def test_promoted_canary_is_preferred(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        promoted = registry.publish(
            "m", model, metrics={"canary": {"promoted": True}}
        )
        registry.publish("m", model, metrics={"retrained_from": "m@v1"})
        refs = [v.ref for v in registry.serving_candidates("m")]
        assert refs == ["m@v2", "m@v1", "m@v3"]
        _, serving = registry.load_serving("m")
        assert serving.ref == promoted.ref

    def test_corrupt_promoted_falls_back_to_newest_intact(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        promoted = registry.publish(
            "m", model, metrics={"canary": {"promoted": True}}
        )
        promoted.path.write_bytes(b"garbage")
        fresh = ModelRegistry(tmp_path)
        _, serving = fresh.load_serving("m")
        assert serving.ref == "m@v1"

    def test_every_version_corrupt_raises(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        for version in (registry.publish("m", model), registry.publish("m", model)):
            version.path.write_bytes(b"garbage")
        fresh = ModelRegistry(tmp_path)
        with pytest.raises(ServingError, match="quarantined"):
            fresh.load_serving("m")
        with pytest.raises(ServingError, match="no published versions"):
            fresh.load_serving("nope")

    def test_injected_load_fault_quarantines_and_recovers(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        v2 = registry.publish("m", model)
        # a fresh registry has an empty live-model cache, so the load
        # path actually hits disk (and the fault site) for each candidate
        fresh = ModelRegistry(tmp_path)
        with injected("registry.load:error:1.0:1"):
            _, serving = fresh.load_serving("m")
        # the newest candidate hit the injected fault and was skipped
        assert serving.ref == "m@v1"
        assert v2.ref in fresh.quarantined


# ======================================================================
class TestFeedbackFlushRecovery:
    @staticmethod
    def _records(n, start=0):
        return [
            FeedbackRecord(predicted=float(i), observed=float(i) + 0.5)
            for i in range(start, start + n)
        ]

    def test_transient_write_failures_retry_with_backoff(self, tmp_path):
        log = FeedbackLog(tmp_path, chunk_records=4, flush_age_s=0.02)
        log.backoff_cap_s = 0.1
        try:
            with injected("feedback.flush:error:1.0:2"):
                for record in self._records(4):
                    log.append(record)
                assert wait_until(lambda: log.flushed_chunks >= 1)
            stats = log.stats()
            assert stats["write_errors"] == 2
            assert stats["poison_records"] == 0
            assert len(log.replay()) == 4  # nothing lost
        finally:
            log.close()

    def test_poison_chunk_is_quarantined_not_blocking(self, tmp_path):
        log = FeedbackLog(tmp_path, chunk_records=4, flush_age_s=0.02)
        log.backoff_cap_s = 0.05
        log.poison_after = 2
        try:
            with injected("feedback.flush:error:1.0"):  # never succeeds
                for record in self._records(4):
                    log.append(record)
                assert wait_until(lambda: log.poison_records >= 4)
            # the poison head is gone; the queue behind it flushes fine
            for record in self._records(4, start=10):
                log.append(record)
            assert wait_until(lambda: log.flushed_chunks >= 1)
            stats = log.stats()
            assert stats["quarantined_chunks"] == 1
            assert stats["poison_records"] == 4
            replayed = log.replay()
            assert [r.predicted for r in replayed] == [10.0, 11.0, 12.0, 13.0]
            # full accounting: every append is on disk, pending, or
            # explicitly quarantined — never silently dropped
            assert stats["appended"] == len(replayed) + stats["poison_records"]
        finally:
            log.close()


# ======================================================================
class TestHTTPResilience:
    @pytest.fixture()
    def server(self, model):
        engine = make_engine(model)
        service = AdvisorService(engine, catalog=None, estimator=None)
        server = make_server(service)
        server.serve_in_background()
        yield server
        faults.uninstall()  # before drain: close must not hit faults
        server.drain()

    @staticmethod
    def _post(url, payload, headers=None):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    @staticmethod
    def _error_body(err: urllib.error.HTTPError) -> dict:
        return json.loads(err.read())

    def test_bad_request_has_structured_body(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(f"{server.url}/predict", {"graphs": []})
        assert err.value.code == 400
        body = self._error_body(err.value)
        assert body["error"]["code"] == "bad_request"
        assert body["error"]["message"]

    def test_internal_faults_do_not_leak_details(self, server):
        graphs = [graph_to_json(g) for g in synthetic_graphs(1, seed=40)]
        with injected("decode:error:1.0"):
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(f"{server.url}/predict", {"graphs": graphs})
        assert err.value.code == 500
        body = self._error_body(err.value)
        assert body["error"]["code"] == "internal"
        assert body["error"]["message"] == "internal server error"
        assert "injected" not in json.dumps(body)  # internals stay inside

    def test_deadline_header_maps_to_504(self, server):
        graphs = [graph_to_json(g) for g in synthetic_graphs(1, seed=41)]
        with injected("decode:delay:1.0:0.05"):
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(
                    f"{server.url}/predict",
                    {"graphs": graphs},
                    headers={"X-Deadline-Ms": "10"},
                )
        assert err.value.code == 504
        assert self._error_body(err.value)["error"]["code"] == "deadline_exceeded"
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(
                f"{server.url}/predict",
                {"graphs": graphs},
                headers={"X-Deadline-Ms": "-5"},
            )
        assert err.value.code == 400

    def test_healthz_is_a_state_machine(self, server):
        with urllib.request.urlopen(f"{server.url}/healthz", timeout=30) as r:
            health = json.loads(r.read())
        assert health["status"] == "ready"
        # an open breaker flips /healthz to degraded but keeps it 200:
        # the service still answers, just at reduced fidelity
        breaker = server.engine.breaker
        for _ in range(4):
            breaker.record_failure()
        with urllib.request.urlopen(f"{server.url}/healthz", timeout=30) as r:
            assert json.loads(r.read())["status"] == "degraded"
        # draining answers 503 + Retry-After so balancers stop routing
        server.health.mark_draining()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/healthz", timeout=30)
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "1"
        assert self._error_body(err.value)["status"] == "draining"

    def test_stats_surface_resilience_sections(self, server):
        with urllib.request.urlopen(f"{server.url}/stats", timeout=30) as r:
            stats = json.loads(r.read())
        assert stats["health"]["state"] in ("ready", "degraded")
        engine = stats["engine"]
        assert "breaker" in engine and "fallback" in engine
        assert "shed_overload" in engine["stats"]
        assert "shed_deadline" in engine["stats"]

    def test_overload_is_503_with_retry_after(self, model):
        engine = make_engine(model, shards=1, max_queue=2, breaker=None, fallback=None)
        service = AdvisorService(engine, catalog=None, estimator=None)
        server = make_server(service)
        server.serve_in_background()
        try:
            graphs = [graph_to_json(g) for g in synthetic_graphs(1, seed=42)]
            with injected("forward:delay:1.0:0.3"):
                # the worker is busy and the queue is at its cap
                holder = hold_worker(engine, seed=43)
                filler = threading.Thread(
                    target=engine.score_resilient,
                    args=(synthetic_graphs(2, seed=44),),
                )
                filler.start()
                assert wait_until(lambda: engine.describe()["queued"] == 2)
                with pytest.raises(urllib.error.HTTPError) as err:
                    self._post(f"{server.url}/predict", {"graphs": graphs})
                for thread in (holder, filler):
                    thread.join(timeout=30)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
            assert self._error_body(err.value)["error"]["code"] == "overloaded"
        finally:
            server.drain()

    def test_degraded_predictions_are_flagged(self, model):
        engine = make_engine(
            model, breaker=CircuitBreaker(min_samples=2, cooldown_s=60.0)
        )
        service = AdvisorService(engine, catalog=None, estimator=None)
        server = make_server(service)
        server.serve_in_background()
        try:
            warm = synthetic_graphs(8, seed=44)
            self._post(
                f"{server.url}/predict",
                {"graphs": [graph_to_json(g) for g in warm]},
            )
            force_open(engine.breaker)
            fresh = [graph_to_json(g) for g in synthetic_graphs(2, seed=45)]
            response = self._post(f"{server.url}/predict", {"graphs": fresh})
            assert response["degraded"] is True
            assert all(r is not None for r in response["runtimes"])
        finally:
            server.drain()
