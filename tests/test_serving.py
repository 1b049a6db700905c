"""Serving-layer tests: registry, micro-batch engine, advisor service, HTTP.

The engine tests exercise real concurrency (threads submitting while the
worker flushes) but stay fast by using tiny synthetic DAGs; the parity
tests pin the online advisor to the offline one on the deterministic
handmade database. The registry's cross-process safety (O_EXCL version
claims, quarantine-and-skip under concurrent loaders) is exercised with
real spawned processes, and ``scripts/serve.py`` is driven end to end.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import signal
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.advisor import SELECTIVITY_LEVELS, PullUpAdvisor
from repro.bench import build_dataset_benchmark
from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import EngineClosed, ReproError, ServingError
from repro.faults import injected
from repro.feedback import FeedbackLog
from repro.model import CostGNN, GNNConfig, predict_runtimes
from repro.serve import (
    AdvisorService,
    ModelRegistry,
    ShardedEngine,
    graph_from_json,
    graph_to_json,
    make_server,
    query_from_json,
    query_to_json,
)
from repro.sql import (
    ColumnRef,
    CompareOp,
    FilterSpec,
    JoinSpec,
    Query,
    UDFRole,
    UDFSpec,
)
from repro.stats import ActualCardinalityEstimator, StatisticsCatalog
from repro.storage.datatypes import DataType
from repro.udf import UDF
from tests.test_resilience import wait_until


def synthetic_graphs(
    n_graphs: int, seed: int = 0, nodes: tuple[int, int] = (8, 20)
) -> list[JointGraph]:
    """Random typed DAGs shaped like joint graphs, ``nodes`` = [low, high)."""
    rng = np.random.default_rng(seed)
    types = list(enc.NODE_TYPES)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(*nodes))
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
    # float64 so engine-vs-serial comparisons are bit-tight regardless
    # of batch composition
    return CostGNN(GNNConfig(hidden_dim=8, dtype="float64"))


# ======================================================================
class TestModelRegistry:
    def test_publish_list_load_roundtrip(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        version = registry.publish(
            "costgnn-imdb",
            model,
            metrics={"median_q": 1.5},
            description="fold 0",
        )
        assert version.version == 1
        assert version.ref == "costgnn-imdb@v1"
        assert version.dtype == "float64"
        assert version.n_parameters > 0
        assert version.metrics == {"median_q": 1.5}

        assert registry.models() == ["costgnn-imdb"]
        listed = registry.versions("costgnn-imdb")
        assert [v.version for v in listed] == [1]
        assert listed[0].config_fingerprint == version.config_fingerprint

        # load through a *fresh* registry (no live copy): disk round-trip
        reloaded = ModelRegistry(tmp_path).load("costgnn-imdb")
        assert reloaded.config == model.config
        for name, array in model.state_dict().items():
            np.testing.assert_array_equal(reloaded.state_dict()[name], array)

    def test_versions_increment_and_latest(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        other = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=9))
        v2 = registry.publish("m", other)
        assert v2.version == 2
        assert registry.latest("m").version == 2
        # different weights -> different weight fingerprint, same config
        v1 = registry.versions("m")[0]
        assert v1.weights_fingerprint != v2.weights_fingerprint
        loaded = registry.load("m")  # latest
        np.testing.assert_array_equal(
            loaded.state_dict()["head.linear0.weight"],
            other.state_dict()["head.linear0.weight"],
        )

    def test_live_lru_eviction(self, tmp_path, model):
        registry = ModelRegistry(tmp_path, max_live=1)
        registry.publish("a", model)
        registry.publish("b", model)
        registry.load("a")
        assert registry.live_models == ["a@v1"]
        registry.load("b")
        assert registry.live_models == ["b@v1"]  # "a" evicted
        registry.load("a")  # re-load from disk
        assert registry.misses >= 1
        assert registry.live_models == ["a@v1"]

    def test_unknown_model_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ServingError):
            registry.latest("ghost")
        with pytest.raises(ServingError):
            registry.load("ghost")
        with pytest.raises(ServingError):
            registry.publish("Bad Name!", None)

    def test_publish_never_overwrites_claimed_version(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        # another process claimed v2 between our listing and our write
        stray = tmp_path / "m" / "v0002.npz"
        stray.write_bytes(b"claimed-by-another-process")
        version = registry.publish("m", model)
        assert version.version == 3
        assert stray.read_bytes() == b"claimed-by-another-process"

    def test_delete(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        registry.publish("m", model)
        assert registry.delete("m", version=1) == 1
        assert [v.version for v in registry.versions("m")] == [2]
        assert registry.delete("m") == 1
        assert registry.models() == []


# ======================================================================
class TestMicroBatchEngine:
    """The engine's batching contract, driven through ``score_resilient``."""

    def test_concurrent_requests_match_serial(self, model):
        graphs = synthetic_graphs(48)
        serial = predict_runtimes(model, graphs)
        with ShardedEngine(model, shards=1, max_batch_size=16) as engine:
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(
                    pool.map(lambda g: engine.score_resilient([g]).values[0], graphs)
                )
        np.testing.assert_allclose(concurrent, serial, rtol=1e-9)

    def test_burst_beyond_max_batch_size_splits(self, model):
        graphs = synthetic_graphs(40, seed=1)
        with ShardedEngine(model, shards=2, max_batch_size=16) as engine:
            outcome = engine.score_resilient(graphs)
        assert outcome.statuses == ["ok"] * 40
        assert engine.stats.batches >= 2
        assert engine.stats.max_batch_observed <= 16
        np.testing.assert_allclose(
            outcome.values, predict_runtimes(model, graphs), rtol=1e-9
        )

    def test_requests_queued_behind_a_busy_worker_coalesce(self, model):
        first = synthetic_graphs(2, seed=2)
        queued = synthetic_graphs(8, seed=12)
        engine = ShardedEngine(model, shards=1, max_batch_size=64)
        outcomes: dict[int, object] = {}

        def score(key: int, graphs: list[JointGraph]) -> None:
            outcomes[key] = engine.score_resilient(graphs)

        with engine, injected("forward:delay:1.0:0.5"):
            # the only worker sleeps inside the first batch's forward...
            holder = threading.Thread(target=score, args=(-1, first))
            holder.start()
            assert wait_until(
                lambda: engine.stats.requests == 2 and not engine.describe()["queued"]
            )
            # ...while four callers queue two graphs each behind it
            callers = [
                threading.Thread(target=score, args=(i, queued[2 * i : 2 * i + 2]))
                for i in range(4)
            ]
            for thread in callers:
                thread.start()
            assert wait_until(lambda: engine.describe()["queued"] == 8)
            for thread in [holder, *callers]:
                thread.join(timeout=30)
        # no timer split them: the eight queued graphs ran as one batch
        assert engine.stats.batches == 2
        assert engine.stats.max_batch_observed == 8
        values = [v for i in range(4) for v in outcomes[i].values]
        np.testing.assert_allclose(
            values, predict_runtimes(model, queued), rtol=1e-9
        )

    def test_batched_equals_joint_prediction(self, model):
        graphs = synthetic_graphs(20, seed=3)
        with ShardedEngine(model, shards=1, max_batch_size=64) as engine:
            batched = engine.score_resilient(graphs).values
        np.testing.assert_allclose(
            batched, predict_runtimes(model, graphs), rtol=1e-9
        )

    def test_poisoned_graph_does_not_fail_neighbours(self, model):
        graphs = synthetic_graphs(4, seed=4)
        cyclic = JointGraph()
        a = cyclic.add_node("TABLE", np.zeros(enc.FEATURE_DIMS["TABLE"]))
        b = cyclic.add_node("SCAN", np.zeros(enc.FEATURE_DIMS["SCAN"]))
        cyclic.add_edge(a, b)
        cyclic.add_edge(b, a)
        cyclic.root_id = b
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            outcome = engine.score_resilient(graphs[:2] + [cyclic] + graphs[2:])
        assert outcome.statuses == ["ok", "ok", "error", "ok", "ok"]
        assert isinstance(outcome.errors[2], ReproError)
        # the isolation pass and the leader's one retry both fail it
        assert engine.stats.failed_requests == 2
        good = [outcome.values[i] for i in (0, 1, 3, 4)]
        np.testing.assert_allclose(
            good, predict_runtimes(model, graphs), rtol=1e-9
        )

    def test_closed_engine_rejects_and_drains(self, model):
        graphs = synthetic_graphs(6, seed=5)
        engine = ShardedEngine(model, shards=1, max_batch_size=4)
        outcomes: list = []
        with injected("forward:delay:1.0:0.2"):
            threads = [
                threading.Thread(
                    target=lambda chunk: outcomes.append(engine.score_resilient(chunk)),
                    args=(graphs[i : i + 3],),
                )
                for i in (0, 3)
            ]
            for thread in threads:
                thread.start()
            assert wait_until(lambda: engine.stats.requests == 6)
            engine.close()
            for thread in threads:
                thread.join(timeout=30)
        # drained, not dropped: both queued calls were answered
        assert [o.statuses for o in outcomes] == [["ok"] * 3, ["ok"] * 3]
        refused = engine.score_resilient(graphs[:1])
        assert refused.statuses == ["shed_overload"]
        assert isinstance(refused.errors[0], EngineClosed)
        engine.close()  # idempotent

    def test_describe_shape(self, model):
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            engine.score_resilient(synthetic_graphs(4, seed=6))
            info = engine.describe()
        assert info["max_batch_size"] == 8
        assert info["stats"]["requests"] == 4
        assert info["stats"]["predictions"] == 4
        assert info["stats"]["mean_batch_size"] > 0
        assert info["request_cache"]["prepared_entries"] == 4


# ======================================================================
def make_udf_query() -> Query:
    udf = UDF(
        name="cheap",
        source="def cheap(a):\n    return a * 2.0\n",
        arg_types=(DataType.FLOAT,),
    )
    return Query(
        dataset="shop",
        tables=("orders", "customers"),
        joins=(
            JoinSpec(
                ColumnRef("orders", "customer_id"), ColumnRef("customers", "id")
            ),
        ),
        filters=(
            FilterSpec(ColumnRef("customers", "region"), CompareOp.EQ, "north"),
        ),
        udf=UDFSpec(
            udf=udf,
            input_table="orders",
            input_columns=("amount",),
            op=CompareOp.LEQ,
            literal=100.0,
        ),
    )


@pytest.fixture()
def serving_setup(handmade_db, model):
    engine = ShardedEngine(model, shards=1, max_batch_size=32)
    catalog = StatisticsCatalog(handmade_db)
    estimator = ActualCardinalityEstimator(handmade_db)
    service = AdvisorService(engine, catalog=catalog, estimator=estimator)
    offline = PullUpAdvisor(model=model, catalog=catalog, estimator=estimator)
    yield service, offline, make_udf_query()
    engine.close()


class TestAdvisorService:
    def test_parity_with_offline_advisor(self, serving_setup):
        service, offline, query = serving_setup
        online = service.suggest_placement(query)
        reference = offline.decide(query)
        assert online.pull_up == reference.pull_up
        assert online.strategy == reference.strategy
        np.testing.assert_allclose(
            online.pullup_costs, reference.pullup_costs, rtol=1e-9
        )
        np.testing.assert_allclose(
            online.pushdown_costs, reference.pushdown_costs, rtol=1e-9
        )
        assert len(online.pullup_costs) == len(SELECTIVITY_LEVELS)

    def test_cost_mode_parity(self, serving_setup):
        service, offline, query = serving_setup
        online = service.suggest_placement(query, true_selectivity=0.3)
        reference = offline.decide(query, true_selectivity=0.3)
        assert online.strategy == "cost"
        assert online.pull_up == reference.pull_up
        np.testing.assert_allclose(
            online.pullup_costs, reference.pullup_costs, rtol=1e-9
        )

    def test_strategy_override_and_validation(self, serving_setup):
        service, _, query = serving_setup
        decision = service.suggest_placement(query, strategy="ubc")
        assert decision.strategy == "ubc"
        with pytest.raises(ReproError):
            service.suggest_placement(query, strategy="yolo")
        with pytest.raises(ReproError):
            service.suggest_placement(Query(dataset="shop", tables=("orders",)))

    def test_sessions_track_per_client_stats(self, serving_setup):
        service, _, query = serving_setup
        alice = service.session("alice")
        bob = service.session("bob")
        alice.suggest_placement(query)
        alice.suggest_placement(query, strategy="auc")
        bob.suggest_placement(query)
        stats = service.session_stats()
        assert stats["alice"]["decisions"] == 2
        assert stats["alice"]["strategies"] == {"conservative": 1, "auc": 1}
        assert stats["bob"]["decisions"] == 1
        assert stats["alice"]["total_seconds"] > 0
        assert service.session("alice") is alice  # stable handle

    def test_session_cap_evicts_coldest(self, serving_setup):
        service, _, _ = serving_setup
        service.max_sessions = 2
        a = service.session("a")
        service.session("b")
        service.session("c")  # evicts "a", the coldest
        assert set(service.session_stats()) == {"b", "c"}
        assert service.session("a") is not a  # fresh handle after eviction


# ======================================================================
class TestCodec:
    def test_graph_roundtrip(self):
        graph = synthetic_graphs(1, seed=7)[0]
        clone = graph_from_json(json.loads(json.dumps(graph_to_json(graph))))
        assert clone.node_types == graph.node_types
        assert clone.edges == graph.edges
        assert clone.root_id == graph.root_id
        for mine, theirs in zip(clone.features, graph.features):
            np.testing.assert_array_equal(mine, theirs)

    def test_query_roundtrip(self):
        query = make_udf_query()
        clone = query_from_json(json.loads(json.dumps(query_to_json(query))))
        assert clone.dataset == query.dataset
        assert clone.tables == query.tables
        assert clone.joins == query.joins
        assert clone.filters == query.filters
        assert clone.agg == query.agg
        assert clone.udf.udf.name == query.udf.udf.name
        assert clone.udf.udf.source == query.udf.udf.source
        assert clone.udf.udf.arg_types == query.udf.udf.arg_types
        assert clone.udf.input_table == query.udf.input_table
        assert clone.udf.op is query.udf.op
        clone.validate()

    def test_malformed_payloads_raise(self):
        with pytest.raises(ServingError):
            graph_from_json({"node_types": ["TABLE"], "features": []})
        with pytest.raises(ServingError):
            graph_from_json({})
        with pytest.raises(ServingError):
            query_from_json({"tables": ("t",)})  # missing dataset


# ======================================================================
class TestHTTPFrontend:
    @pytest.fixture()
    def server(self, serving_setup, tmp_path, model):
        service, _, _ = serving_setup
        registry = ModelRegistry(tmp_path)
        version = registry.publish("costgnn-shop", model)
        server = make_server(service, registry=registry, model_ref=version.ref)
        server.serve_in_background()
        yield server
        server.shutdown()

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

    def test_healthz_and_models(self, server):
        health = self._call(f"{server.url}/healthz")
        assert health["status"] == "ready"
        assert health["model"] == "costgnn-shop@v1"
        models = self._call(f"{server.url}/models")
        assert "costgnn-shop" in models["models"]

    def test_predict_roundtrip(self, server, model):
        graphs = synthetic_graphs(6, seed=8)
        response = self._call(
            f"{server.url}/predict",
            {"graphs": [graph_to_json(g) for g in graphs]},
        )
        np.testing.assert_allclose(
            response["runtimes"], predict_runtimes(model, graphs), rtol=1e-9
        )

    def test_advise_matches_offline(self, serving_setup, server):
        _, offline, query = serving_setup
        response = self._call(
            f"{server.url}/advise",
            {"query": query_to_json(query), "client": "http-client"},
        )
        reference = offline.decide(query)
        assert response["pull_up"] == reference.pull_up
        assert response["placement"] == reference.placement.value
        np.testing.assert_allclose(
            response["pullup_costs"], reference.pullup_costs, rtol=1e-9
        )
        stats = self._call(f"{server.url}/stats")
        assert stats["sessions"]["http-client"]["decisions"] == 1

    def test_concurrent_http_clients_coalesce(self, serving_setup, server):
        _, _, query = serving_setup
        payload = {"query": query_to_json(query)}
        results = []

        def advise(i):
            results.append(
                self._call(
                    f"{server.url}/advise", {**payload, "client": f"c{i}"}
                )
            )

        threads = [
            threading.Thread(target=advise, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        first = results[0]["pull_up"]
        assert all(r["pull_up"] == first for r in results)

    def test_bad_requests_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._call(f"{server.url}/predict", {"graphs": []})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            self._call(f"{server.url}/advise", {"query": {"nope": 1}})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            self._call(f"{server.url}/nowhere")
        assert err.value.code == 404

    def test_bad_true_selectivity_is_400(self, serving_setup, server):
        _, _, query = serving_setup
        with pytest.raises(urllib.error.HTTPError) as err:
            self._call(
                f"{server.url}/advise",
                {"query": query_to_json(query), "true_selectivity": "abc"},
            )
        assert err.value.code == 400


# ======================================================================
def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module (scripts/ is not a package)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGracefulShutdown:
    def test_sigterm_drains_server_and_engine(self, serving_setup):
        # Container/CI deployments stop scripts/serve.py with SIGTERM;
        # the signal must take the same clean-drain path as ctrl-c.
        serve_script = load_script("serve")
        service, _, _ = serving_setup
        server = make_server(service)
        previous = signal.getsignal(signal.SIGTERM)
        timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            serve_script.serve_until_signalled(server)  # returns on signal
        finally:
            timer.cancel()
        # handler restored, HTTP stopped, micro-batch engine drained
        assert signal.getsignal(signal.SIGTERM) is previous
        refused = service.engine.score_resilient(synthetic_graphs(1))
        assert isinstance(refused.errors[0], EngineClosed)

    def test_server_drain_is_idempotent(self, serving_setup):
        service, _, _ = serving_setup
        server = make_server(service)
        server.serve_in_background()
        server.drain()
        server.drain()
        refused = server.engine.score_resilient(synthetic_graphs(1))
        assert isinstance(refused.errors[0], EngineClosed)


# ======================================================================
# cross-process registry safety
# ======================================================================
SPAWN = multiprocessing.get_context("spawn")


def _race_publish(root: str, barrier, queue) -> None:
    from repro.model import CostGNN, GNNConfig
    from repro.serve import ModelRegistry

    model = CostGNN(GNNConfig(hidden_dim=8))
    barrier.wait(timeout=30)
    version = ModelRegistry(root).publish("race", model)
    queue.put(version.version)


def _race_load(root: str, barrier, queue) -> None:
    from repro.serve import ModelRegistry

    registry = ModelRegistry(root)
    barrier.wait(timeout=30)
    model, version = registry.load_serving("corrupt")
    queue.put((version.version, sorted(registry.quarantined)))


class TestCrossProcessRegistry:
    def test_concurrent_publishers_claim_distinct_versions(self, tmp_path):
        """Two processes publishing into the same root must bump past
        each other via the O_EXCL claim — never overwrite an artifact."""
        barrier = SPAWN.Barrier(2)
        queue = SPAWN.Queue()
        procs = [
            SPAWN.Process(target=_race_publish, args=(str(tmp_path), barrier, queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        versions = {queue.get(timeout=60) for _ in procs}
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        assert versions == {1, 2}
        registry = ModelRegistry(tmp_path)
        for version in versions:
            assert registry.load("race", version) is not None

    def test_concurrent_loaders_quarantine_and_skip_corrupt_artifact(self, tmp_path):
        """A corrupted newest version must not take down *any* loader:
        every racing process quarantines it and serves the predecessor."""
        registry = ModelRegistry(tmp_path)
        registry.publish("corrupt", CostGNN(GNNConfig(hidden_dim=8, seed=2)))
        v2 = registry.publish("corrupt", CostGNN(GNNConfig(hidden_dim=8, seed=3)))
        artifact = tmp_path / "corrupt" / f"v{v2.version:04d}.npz"
        artifact.write_bytes(b"not an archive")
        barrier = SPAWN.Barrier(2)
        queue = SPAWN.Queue()
        procs = [
            SPAWN.Process(target=_race_load, args=(str(tmp_path), barrier, queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        for version, quarantined in results:
            assert version == 1
            assert "corrupt@v2" in quarantined


# ======================================================================
# scripts/serve.py end to end
# ======================================================================
def placeable_query(bench):
    """The first UDF-filter query of ``bench``: one the advisor places."""
    return next(
        entry.query
        for entry in bench.entries
        if entry.query.has_udf and entry.query.udf.role is UDFRole.FILTER
    )


def _post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(url, data=json.dumps(payload).encode())
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


class TestServeScript:
    def test_advise_and_feedback_round_trip_then_clean_drain(self, model, tmp_path):
        registry_dir = str(tmp_path / "registry")
        ModelRegistry(registry_dir).publish("served", model)
        serve_script = load_script("serve")
        args = serve_script.parse_args(
            ["--registry-dir", registry_dir, "--model", "served"]
            + ["--dataset", "imdb", "--queries", "6", "--port", "0"]
        )
        server, _, version = serve_script.build_service(args)
        assert isinstance(server.engine, ShardedEngine)
        assert version.ref == "served@v1"
        # the script attaches no feedback log; /feedback records into
        # whichever log the service holds
        feedback = FeedbackLog(tmp_path / "feedback")
        server.service.feedback = feedback
        server.serve_in_background()
        try:
            bench = build_dataset_benchmark("imdb", n_queries=6, seed=args.seed)
            query = placeable_query(bench)
            request = {"query": query_to_json(query)}
            decision = _post_json(f"{server.url}/advise", request)
            offline = PullUpAdvisor(
                model=model,
                catalog=server.service.catalog,
                estimator=server.service.estimator,
            )
            assert decision["pull_up"] == offline.decide(query).pull_up
            report = {"decision_id": decision["decision_id"], "observed": 2.5}
            accepted = _post_json(f"{server.url}/feedback", report)
            assert accepted["accepted"] == 1
        finally:
            server.drain()
            feedback.close()
        assert feedback.appended == 1
