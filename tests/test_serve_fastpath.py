"""Serving fast-path tests: sharded engine + fingerprint-keyed caches.

Covers DESIGN.md §11: the multi-worker engine's equivalence with serial
prediction (identical predictions and stats totals, including a
mid-stream model swap), one hash per graph and no graph pinned after a
call, the request cache tiers (prepared reuse, topology rehydration,
payload decode skip), the version-keyed prediction cache (exact
hit/cold equality, atomic invalidation on canary promotion under live
load), and the lock-free ``/stats`` snapshot surface.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import threading
import urllib.error
import urllib.request
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import EngineClosed
from repro.feedback import FeedbackLog, graph_fingerprint
from repro.model import CostGNN, GNNConfig, predict_runtimes
from repro.model.prepared import prepare_graph
from repro.serve import (
    AdvisorService,
    DegradedFallback,
    ModelRegistry,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    graph_to_json,
    make_server,
    payload_fingerprint,
    query_to_json,
)
from repro.stats import ActualCardinalityEstimator, StatisticsCatalog

from tests.test_resilience import wait_until
from tests.test_serving import load_script, make_udf_query, synthetic_graphs


def fingerprints(graphs: list[JointGraph]) -> list[str]:
    return [graph_fingerprint(g) for g in graphs]


def clone_graph(graph: JointGraph) -> JointGraph:
    """A deep, content-equal copy — a fresh object like a decoded request."""
    return JointGraph(
        node_types=list(graph.node_types),
        features=[f.copy() for f in graph.features],
        edges=list(graph.edges),
        root_id=graph.root_id,
    )


@pytest.fixture(scope="module")
def model() -> CostGNN:
    # float64: engine-vs-serial comparisons stay bit-tight regardless of
    # batch composition
    return CostGNN(GNNConfig(hidden_dim=8, dtype="float64"))


@pytest.fixture(scope="module")
def other_model() -> CostGNN:
    return CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=17))


# ======================================================================
class TestGraphFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = synthetic_graphs(1, seed=1)[0]
        b = clone_graph(a)
        assert a is not b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitivity(self):
        base = synthetic_graphs(1, seed=2)[0]
        fp = graph_fingerprint(base)

        feat = clone_graph(base)
        feat.features[0] = feat.features[0] + 1e-9
        assert graph_fingerprint(feat) != fp

        edge = clone_graph(base)
        edge.edges = edge.edges[:-1]
        assert graph_fingerprint(edge) != fp

        root = clone_graph(base)
        root.root_id = 0
        assert graph_fingerprint(root) != fp


# ======================================================================
class TestPreparedRequestCache:
    def test_prepared_hits_across_distinct_objects(self, model):
        cache = PreparedRequestCache()
        graphs = synthetic_graphs(6, seed=4)
        cache.prepared_many(graphs, fingerprints(graphs))
        assert cache.stats()["prepared_misses"] == 6
        clones = [clone_graph(g) for g in graphs]
        prepared = cache.prepared_many(clones, fingerprints(clones))
        stats = cache.stats()
        assert stats["prepared_hits"] == 6
        assert stats["prepared_misses"] == 6
        # the cached topology is the real one
        for graph, cached in zip(graphs, prepared):
            reference = prepare_graph(graph)
            np.testing.assert_array_equal(cached.levels, reference.levels)
            np.testing.assert_array_equal(cached.type_code, reference.type_code)

    def test_duplicate_misses_prepare_once(self):
        cache = PreparedRequestCache()
        graph = synthetic_graphs(1, seed=5)[0]
        twins = [graph, clone_graph(graph), clone_graph(graph)]
        prepared = cache.prepared_many(twins, fingerprints(twins))
        assert cache.stats()["prepared_misses"] == 3  # all missed...
        assert prepared[0] is prepared[1] is prepared[2]  # ...one prepare

    def test_topology_tier_rehydrates_template_variants_exactly(self, model):
        # a known template at a new "selectivity": same shape, different
        # feature values — prepared via the topology skeleton, and the
        # predictions must be exactly the full-preparation predictions
        cache = PreparedRequestCache()
        base = synthetic_graphs(5, seed=21)
        cache.prepared_many(base, fingerprints(base))
        rng = np.random.default_rng(99)
        variants = []
        for g in base:
            variants.append(
                JointGraph(
                    node_types=list(g.node_types),
                    features=[rng.random(len(f)) for f in g.features],
                    edges=list(g.edges),
                    root_id=g.root_id,
                )
            )
        from repro.model.batching import make_batch_prepared

        prepared = cache.prepared_many(variants, fingerprints(variants))
        stats = cache.stats()
        assert stats["topology_hits"] == 5
        batch = make_batch_prepared(
            prepared, np.zeros(len(variants)), dtype=model.dtype
        )
        np.testing.assert_array_equal(
            model.predict_runtimes(batch), predict_runtimes(model, variants)
        )

    def test_large_miss_sets_prepare_jointly(self):
        from repro.serve.cache import JOINT_PREPARE_THRESHOLD

        cache = PreparedRequestCache()
        n = JOINT_PREPARE_THRESHOLD + 4
        graphs = synthetic_graphs(n, seed=22)
        prepared = cache.prepared_many(graphs, fingerprints(graphs))
        # joint preparation: one shared base token across the whole set
        assert len({p.base_token for p in prepared}) == 1
        assert cache.stats()["topology_hits"] == 0

    def test_payload_tier_roundtrip(self):
        cache = PreparedRequestCache()
        body = b'{"graphs": [1, 2, 3]}'
        fp = payload_fingerprint(body)
        assert cache.lookup_payload(fp) is None
        cache.remember_payload(fp, ("predict", ["decoded"]))
        assert cache.lookup_payload(fp) == ("predict", ["decoded"])
        stats = cache.stats()
        assert stats["payload_hits"] == 1
        assert stats["payload_misses"] == 1

    def test_payload_fingerprint_bytes_vs_value(self):
        value = {"b": 1, "a": [1.5, "x"]}
        blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
        assert payload_fingerprint(value) == payload_fingerprint(blob)
        assert payload_fingerprint(value) != payload_fingerprint({"b": 2})


# ======================================================================
class TestPredictionCache:
    def test_put_get_roundtrip_and_lru(self):
        cache = PredictionCache(max_entries=2)
        token = cache.token()
        keys = [(1, "a", "", 0.0), (1, "b", "", 0.0), (1, "c", "", 0.0)]
        assert cache.get_many(keys) == [None, None, None]
        assert cache.put_many(keys, [1.0, 2.0, 3.0], token)
        values = cache.get_many(keys)
        assert values[0] is None  # evicted: max_entries=2
        assert values[1:] == [2.0, 3.0]

    def test_invalidate_clears_and_fences_writers(self):
        cache = PredictionCache()
        stale_token = cache.token()
        cache.put_many([(1, "a", "", 0.0)], [1.0], stale_token)
        cache.invalidate()
        # old entries are gone...
        assert cache.get_many([(1, "a", "", 0.0)]) == [None]
        # ...and a writer that read before the swap cannot repopulate
        assert not cache.put_many([(1, "a", "", 0.0)], [1.0], stale_token)
        assert cache.get_many([(1, "a", "", 0.0)]) == [None]
        assert cache.stats()["rejected_puts"] == 1
        assert cache.put_many([(2, "a", "", 0.0)], [2.0], cache.token())
        assert cache.get_many([(2, "a", "", 0.0)]) == [2.0]


# ======================================================================
class TestShardedEngine:
    def test_predictions_match_single_worker(self, model):
        graphs = synthetic_graphs(48, seed=6)
        serial = predict_runtimes(model, graphs)
        with ShardedEngine(model, shards=4, max_batch_size=16) as sharded:
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(
                    pool.map(lambda g: sharded.score_resilient([g]).values[0], graphs)
                )
        np.testing.assert_allclose(concurrent, serial, rtol=1e-9)

    def test_stats_totals_match_single_worker(self, model):
        graphs = synthetic_graphs(40, seed=7)
        totals = {}
        for shards in (1, 4):
            with ShardedEngine(model, shards=shards, max_batch_size=8) as engine:
                engine.score_resilient(graphs)
            totals[shards] = engine.stats
        merged, single = totals[4], totals[1]
        assert merged.requests == single.requests == 40
        assert merged.predictions == single.predictions == 40
        assert merged.failed_requests == single.failed_requests == 0
        per_shard = engine.describe()["per_shard"]
        assert len(per_shard) == 4
        assert sum(s["predictions"] for s in per_shard) == 40

    def test_mid_stream_swap_matches_single_worker(self, model, other_model):
        first = synthetic_graphs(12, seed=8)
        second = synthetic_graphs(12, seed=9)
        with ShardedEngine(model, shards=4, max_batch_size=4) as engine:
            before = engine.score_resilient(first).values
            engine.swap_model(other_model)
            after = engine.score_resilient(second).values
        np.testing.assert_allclose(before, predict_runtimes(model, first), rtol=1e-9)
        np.testing.assert_allclose(
            after, predict_runtimes(other_model, second), rtol=1e-9
        )

    def test_shared_queue_under_contention_loses_nothing(self, model):
        # more workers and callers than cores, with a short switch
        # interval: a lost counter update or a dropped request shows
        graphs = synthetic_graphs(96, seed=17)
        outcomes: list = [None] * 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedEngine(model, shards=4, max_batch_size=8) as engine:

                def client(k: int) -> None:
                    outcomes[k] = engine.score_resilient(graphs[k::8])

                threads = [
                    threading.Thread(target=client, args=(k,)) for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert engine.describe()["queued"] == 0
        finally:
            sys.setswitchinterval(previous)
        # read after close joined the workers: every batch is counted
        stats = engine.stats
        assert stats.requests == stats.predictions == 96
        for k, outcome in enumerate(outcomes):
            np.testing.assert_allclose(
                outcome.values, predict_runtimes(model, graphs[k::8]), rtol=1e-9
            )

    def test_each_graph_is_hashed_once_per_call(self, model, monkeypatch):
        calls: Counter = Counter()

        def counting(graph):
            calls[id(graph)] += 1
            return graph_fingerprint(graph)

        # every repro module that imported the hash by name counts it
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "graph_fingerprint", None) is graph_fingerprint
            ):
                monkeypatch.setattr(module, "graph_fingerprint", counting)
        graphs = synthetic_graphs(5, seed=15)
        with ShardedEngine(
            model, shards=2, prediction_cache=PredictionCache()
        ) as engine:
            outcome = engine.score_resilient(graphs)
        assert outcome.statuses == ["ok"] * 5
        assert calls == Counter({id(g): 1 for g in graphs})

    def test_scored_graphs_are_not_pinned(self, model):
        graphs = synthetic_graphs(3, seed=16)
        with ShardedEngine(
            model,
            shards=2,
            prediction_cache=PredictionCache(),
            fallback=DegradedFallback(),
        ) as engine:
            assert engine.score_resilient(graphs).statuses == ["ok"] * 3
            refs = [weakref.ref(g) for g in graphs]
            del graphs

            def released() -> bool:
                gc.collect()
                return all(ref() is None for ref in refs)

            # the worker drops its batch right after resolving it
            assert wait_until(released, timeout=5.0)

    def test_score_hit_path_is_exact(self, model):
        graphs = synthetic_graphs(16, seed=10)
        with ShardedEngine(
            model, shards=2, prediction_cache=PredictionCache()
        ) as engine:
            cold = engine.score_resilient(graphs).values
            hot = engine.score_resilient([clone_graph(g) for g in graphs]).values
            stats = engine.prediction_cache.stats()
        np.testing.assert_allclose(cold, predict_runtimes(model, graphs), rtol=1e-9)
        assert hot == cold  # bit-identical, not just close
        assert stats["hits"] == 16
        assert stats["misses"] == 16

    def test_score_deduplicates_in_flight_twins(self, model):
        graph = synthetic_graphs(1, seed=11)[0]
        twins = [graph, clone_graph(graph), clone_graph(graph), clone_graph(graph)]
        with ShardedEngine(
            model, shards=2, prediction_cache=PredictionCache()
        ) as engine:
            values = engine.score_resilient(twins).values
            assert engine.stats.predictions == 1  # one forward for four asks
        assert len(set(values)) == 1

    def test_swap_under_live_load_never_serves_stale(self, model, other_model):
        """The version-keyed invalidation gate of the acceptance list:
        once ``swap_model`` returns, every score comes from the new
        model — no cached prediction of the predecessor survives."""
        graphs = synthetic_graphs(24, seed=12)
        expected_old = predict_runtimes(model, graphs)
        expected_new = predict_runtimes(other_model, graphs)
        # the two models must actually disagree for this test to bite
        assert not np.allclose(expected_old, expected_new, rtol=1e-3)
        engine = ShardedEngine(
            model, shards=4, prediction_cache=PredictionCache()
        )
        stop = threading.Event()
        errors: list[str] = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                idx = rng.integers(0, len(graphs), size=8)
                values = engine.score_resilient([graphs[i] for i in idx]).values
                for value, i in zip(values, idx):
                    ok_old = abs(value - expected_old[i]) <= 1e-9 * abs(
                        expected_old[i]
                    )
                    ok_new = abs(value - expected_new[i]) <= 1e-9 * abs(
                        expected_new[i]
                    )
                    if not (ok_old or ok_new):
                        errors.append(f"graph {i}: {value}")

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(3)
        ]
        with engine:
            for t in threads:
                t.start()
            engine.swap_model(other_model)
            # the moment swap_model returns, scores must be new-model
            post = engine.score_resilient(graphs).values
            stop.set()
            for t in threads:
                t.join()
        np.testing.assert_allclose(post, expected_new, rtol=1e-9)
        assert not errors, errors[:5]
        assert engine.prediction_cache.stats()["invalidations"] == 1

    def test_describe_takes_no_dispatch_lock(self, model):
        with ShardedEngine(model, shards=2) as engine:
            engine.score_resilient(synthetic_graphs(4, seed=13))
            # hold the queue lock: a describe() that needed it would
            # deadlock here; a snapshot read sails through
            with engine._lock:
                info = engine.describe()
        assert info["stats"]["predictions"] == 4
        assert info["queued"] == 0


# ======================================================================
@pytest.fixture()
def sharded_service(handmade_db, model):
    engine = ShardedEngine(
        model,
        shards=4,
        max_batch_size=32,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
    )
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(handmade_db),
        estimator=ActualCardinalityEstimator(handmade_db),
    )
    yield service
    engine.close()


class TestShardedAdvisorService:
    def test_parity_with_offline_advisor(self, sharded_service, handmade_db, model):
        from repro.advisor import PullUpAdvisor

        query = make_udf_query()
        offline = PullUpAdvisor(
            model=model,
            catalog=StatisticsCatalog(handmade_db),
            estimator=ActualCardinalityEstimator(handmade_db),
        )
        online = sharded_service.suggest_placement(query)
        reference = offline.decide(query)
        assert online.pull_up == reference.pull_up
        assert online.strategy == reference.strategy
        np.testing.assert_allclose(
            online.pullup_costs, reference.pullup_costs, rtol=1e-9
        )
        np.testing.assert_allclose(
            online.pushdown_costs, reference.pushdown_costs, rtol=1e-9
        )

    def test_repeat_decision_served_from_cache_exactly(self, sharded_service):
        cold = sharded_service.suggest_placement(make_udf_query())
        cache = sharded_service.engine.prediction_cache
        misses_after_cold = cache.stats()["misses"]
        hot = sharded_service.suggest_placement(make_udf_query())
        stats = cache.stats()
        assert stats["misses"] == misses_after_cold  # no new forwards
        assert stats["hits"] >= len(cold.pullup_costs) * 2
        assert hot.pull_up == cold.pull_up
        assert np.array_equal(hot.pullup_costs, cold.pullup_costs)
        assert np.array_equal(hot.pushdown_costs, cold.pushdown_costs)


# ======================================================================
class TestHTTPFastPath:
    @pytest.fixture()
    def server(self, sharded_service, tmp_path, model):
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish("costgnn-shop", model)
        feedback = FeedbackLog(
            tmp_path / "fb", capacity=256, chunk_records=64
        )
        sharded_service.feedback = feedback
        server = make_server(
            sharded_service, registry=registry, model_ref=version.ref
        )
        server.serve_in_background()
        yield server
        server.shutdown()
        feedback.close()

    @staticmethod
    def _call(url: str, payload: dict | None = None) -> dict:
        if payload is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_repeat_predict_body_skips_decode_and_forward(self, server, model):
        graphs = synthetic_graphs(4, seed=14)
        payload = {"graphs": [graph_to_json(g) for g in graphs]}
        first = self._call(f"{server.url}/predict", payload)
        forwards_after_first = server.engine.stats.predictions
        second = self._call(f"{server.url}/predict", payload)
        assert second["runtimes"] == first["runtimes"]
        cache_stats = server.engine.request_cache.stats()
        assert cache_stats["payload_hits"] >= 1
        # the repeat body was served from the prediction cache: no new
        # forward passes ran anywhere in the engine
        assert server.engine.stats.predictions == forwards_after_first
        np.testing.assert_allclose(
            first["runtimes"], predict_runtimes(model, graphs), rtol=1e-9
        )

    def test_predict_poisoned_graph_still_isolated(self, server):
        good = synthetic_graphs(2, seed=16)
        cyclic = JointGraph()
        a = cyclic.add_node("TABLE", np.zeros(enc.FEATURE_DIMS["TABLE"]))
        b = cyclic.add_node("SCAN", np.zeros(enc.FEATURE_DIMS["SCAN"]))
        cyclic.add_edge(a, b)
        cyclic.add_edge(b, a)
        cyclic.root_id = b
        response = self._call(
            f"{server.url}/predict",
            {"graphs": [graph_to_json(g) for g in (good[0], cyclic, good[1])]},
        )
        # per-item statuses: neighbours succeed, only the culprit errors
        assert response["runtimes"][0] is not None
        assert response["runtimes"][1] is None
        assert response["runtimes"][2] is not None
        assert response["errors"][0]["index"] == 1

    def test_repeat_advise_body_skips_decode(self, server):
        payload = {"query": query_to_json(make_udf_query()), "client": "c1"}
        first = self._call(f"{server.url}/advise", payload)
        second = self._call(f"{server.url}/advise", payload)
        assert second["pull_up"] == first["pull_up"]
        assert second["pullup_costs"] == first["pullup_costs"]
        assert server.engine.request_cache.stats()["payload_hits"] >= 1

    def test_stats_reports_registry_shards_and_caches(self, server):
        self._call(
            f"{server.url}/predict",
            {"graphs": [graph_to_json(g) for g in synthetic_graphs(2, seed=15)]},
        )
        stats = self._call(f"{server.url}/stats")
        engine = stats["engine"]
        assert engine["shards"] == 4
        assert len(engine["per_shard"]) == 4
        assert "batches" in engine["per_shard"][0]
        assert "prediction_cache" in engine
        assert "request_cache" in engine
        assert "costgnn-shop" in stats["registry"]["models"]

    def test_drain_flushes_feedback_log(self, sharded_service, tmp_path):
        feedback = FeedbackLog(
            tmp_path / "fb2", capacity=256, chunk_records=64
        )
        sharded_service.feedback = feedback
        server = make_server(sharded_service)
        server.serve_in_background()
        decision = sharded_service.suggest_placement(make_udf_query())
        sharded_service.record_runtime(decision.decision_id, observed=0.5)
        assert feedback.stats()["disk_chunks"] == 0  # buffered, not spilled
        server.drain()
        stats = feedback.stats()
        assert stats["pending_records"] == 0
        assert stats["disk_chunks"] == 1  # SIGTERM drain forced the flush
        feedback.close()


# ======================================================================
class TestSigtermUnderLiveLoad:
    """SIGTERM while clients are mid-flight: every request either
    completes normally or gets a structured 503/504 — nobody hangs, no
    request dies with an unexplained 500, and the feedback tail reaches
    disk before the process would exit."""

    def test_sigterm_drains_cleanly_under_load(self, sharded_service, tmp_path):
        serve_script = load_script("serve")
        feedback = FeedbackLog(tmp_path / "fb-drain", capacity=256, chunk_records=64)
        sharded_service.feedback = feedback
        server = make_server(sharded_service)
        stop = threading.Event()
        tallies: list[dict] = []

        def client(idx: int) -> None:
            tally = {"ok": 0, "shed": 0, "conn": 0, "bad": 0}
            tallies.append(tally)
            burst = 0
            while not stop.is_set():
                burst += 1
                graphs = synthetic_graphs(2, seed=1000 * idx + burst)
                request = urllib.request.Request(
                    f"{server.url}/predict",
                    data=json.dumps(
                        {"graphs": [graph_to_json(g) for g in graphs]}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        body = json.loads(response.read())
                    if all(r is not None for r in body["runtimes"]):
                        tally["ok"] += 1
                    else:
                        tally["bad"] += 1
                except urllib.error.HTTPError as err:
                    body = json.loads(err.read())
                    if err.code in (503, 504) and body["error"]["message"]:
                        tally["shed"] += 1  # clean, structured rejection
                        if body["error"]["code"] == "draining":
                            return  # the server told us to go away
                    else:
                        tally["bad"] += 1
                except Exception:
                    # the socket died mid-drain (connection refused or
                    # reset) — abrupt but not a hang and not a lie
                    tally["conn"] += 1
                    return

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # a feedback record in the in-memory buffer: the drain must not
        # let it die with the process
        decision = sharded_service.suggest_placement(make_udf_query())
        sharded_service.record_runtime(decision.decision_id, observed=0.5)
        previous = signal.getsignal(signal.SIGTERM)
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            serve_script.serve_until_signalled(server)  # returns on signal
        finally:
            timer.cancel()
            stop.set()
        for thread in threads:
            thread.join(timeout=15.0)
        try:
            assert not any(t.is_alive() for t in threads), "a client hung"
            assert signal.getsignal(signal.SIGTERM) is previous
            answered = sum(t["ok"] for t in tallies)
            assert answered > 0, "no request completed before the signal"
            assert sum(t["bad"] for t in tallies) == 0, (
                f"unclean responses under drain: {tallies}"
            )
            # the engine is drained and refuses new work explicitly (a
            # graph no client sent: a prediction-cache miss)
            refused = sharded_service.engine.score_resilient(
                synthetic_graphs(1, seed=99_999)
            )
            assert isinstance(refused.errors[0], EngineClosed)
            stats = feedback.stats()
            assert stats["pending_records"] == 0
            assert stats["dropped_pending"] == 0
            assert len(feedback.replay()) == stats["appended"]
        finally:
            feedback.close()
