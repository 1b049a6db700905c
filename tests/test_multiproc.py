"""Multi-process serving tier tests (DESIGN.md §14).

Covers the PR-8 stack end to end: the frame protocol and graph store in
isolation, cross-process registry safety (O_EXCL version claims,
quarantine-and-skip under concurrent loaders), the fingerprint-affinity
router (parity, affinity, wire dedup, spill, crash recovery), the
promotion fence — no worker may ever serve a predecessor-epoch cached
prediction, the ISSUE acceptance pin — and ``scripts/serve.py
--workers 2`` end to end. The HTTP contract over a router backend lives
in ``tests/test_http_contract.py``.

Worker processes are spawned for real (``multiprocessing`` spawn
context), so router fixtures are module-scoped to amortize the cost;
tests that crash or promote workers build their own.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.advisor import PullUpAdvisor
from repro.bench import build_dataset_benchmark
from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import ServingError
from repro.feedback import FeedbackLog
from repro.model import CostGNN, GNNConfig, predict_runtimes
from repro.serve import ModelRegistry, WorkerRouter, query_to_json
from repro.serve.worker import (
    MAX_FRAME_BYTES,
    ServingWorker,
    WorkerConfig,
    _GraphStore,
    recv_frame,
    send_frame,
)
from tests.test_http_contract import placeable_query
from tests.test_serving import _load_serve_script

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
    # float64 so cross-process parity checks are tight
    model = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def mp_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("mp-registry")
    model = _make_model()
    ModelRegistry(root).publish("mp", model)
    return str(root), model


@pytest.fixture(scope="module")
def router(mp_setup):
    root, _ = mp_setup
    with WorkerRouter(root, "mp", workers=2, heartbeat_interval_s=0.25) as r:
        yield r


# ======================================================================
class TestFrameProtocol:
    def test_roundtrip_and_clean_eof(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping", "id": 7})
            assert recv_frame(b) == {"op": "ping", "id": 7}
            a.close()
            assert recv_frame(b) is None  # EOF at a frame boundary
        finally:
            b.close()

    def test_torn_frame_reads_as_eof(self):
        a, b = socket.socketpair()
        try:
            # a length header promising bytes that never arrive: the
            # peer died mid-frame and the reader must not hang or raise
            a.sendall((64).to_bytes(4, "big") + b"partial")
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_frame_refused_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ServingError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestGraphStore:
    def test_resolve_reports_unknown_and_learns(self):
        store = _GraphStore(cap=8)
        g = synthetic_graphs(1)[0]
        graphs, unknown = store.resolve([("fp-a", None)])
        assert unknown == [0] and graphs == [None]
        graphs, unknown = store.resolve([("fp-a", g)])
        assert unknown == [] and graphs == [g]
        graphs, unknown = store.resolve([("fp-a", None)])
        assert unknown == [] and graphs == [g]

    def test_lru_eviction_honours_cap(self):
        store = _GraphStore(cap=4)
        g = synthetic_graphs(1)[0]
        for i in range(8):
            store.resolve([(f"fp-{i}", g)])
        assert len(store) == 4
        _, unknown = store.resolve([("fp-0", None)])
        assert unknown == [0]  # oldest fell out
        _, unknown = store.resolve([("fp-7", None)])
        assert unknown == []


class TestServingWorkerInProcess:
    """The worker's dispatch half, without a process boundary."""

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

    def test_score_tags_epoch_and_reports_unknowns(self, worker, mp_setup):
        _, model = mp_setup
        graphs = synthetic_graphs(3, seed=11)
        fps = [f"fp-{i}" for i in range(3)]
        response = worker.handle(
            {
                "op": "score",
                "id": 1,
                "items": [(fps[0], graphs[0]), (fps[1], None), (fps[2], graphs[2])],
            }
        )
        assert response["ok"]
        assert response["epoch"] == 1
        assert response["unknown"] == [1]
        assert response["statuses"][1] == "unknown_graph"
        expected = predict_runtimes(model, [graphs[0], graphs[2]])
        assert np.allclose(
            [response["values"][0], response["values"][2]], expected, rtol=1e-9
        )

    def test_unknown_op_serializes_the_error(self, worker):
        response = worker.handle({"op": "explode", "id": 2})
        assert response["ok"] is False
        assert response["error"]["type"] == "ServingError"


# ======================================================================
# cross-process registry safety
# ======================================================================
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

    def test_concurrent_loaders_quarantine_and_skip_corrupt_artifact(
        self, tmp_path
    ):
        """A corrupted newest version must not take down *any* loader:
        every racing process quarantines it and serves the predecessor."""
        registry = ModelRegistry(tmp_path)
        registry.publish("corrupt", _make_model(seed=2))
        v2 = registry.publish("corrupt", _make_model(seed=3))
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
# the router
# ======================================================================
class TestWorkerRouter:
    def test_parity_with_local_model(self, router, mp_setup):
        _, model = mp_setup
        graphs = synthetic_graphs(24, seed=21)
        values = router.score(graphs)
        assert np.allclose(values, predict_runtimes(model, graphs), rtol=1e-9)

    def test_affinity_is_sticky_and_spreads(self, router):
        graphs = synthetic_graphs(64, seed=22)
        first = router.score_resilient(graphs)
        second = router.score_resilient(graphs)
        # repeats of a template land on the same worker every time...
        assert first.workers == second.workers
        # ...and the ring actually spreads the template space
        assert set(first.workers) == {0, 1}
        assert all(s == "ok" for s in second.statuses)

    def test_repeats_travel_as_fingerprints_only(self, router):
        graphs = synthetic_graphs(8, seed=23)
        router.score(graphs)
        fps = router.request_cache.fingerprints(graphs)
        known = [
            h
            for h in router._handles
            if any(h.knows(fp) for fp in fps)
        ]
        assert known, "router never learned which worker holds which template"
        # the worker-side graph store mirrors what the router marked
        deep = router.describe(include_workers=True)
        assert sum(w["graph_store"] for w in deep["worker_stats"]) >= len(graphs)

    def test_unknown_fingerprints_are_resent_once(self, router, mp_setup):
        """If the router believes a worker knows a fingerprint it has
        actually evicted, the worker reports it unknown and the router
        re-sends the full graph — values still come back correct."""
        _, model = mp_setup
        graphs = synthetic_graphs(4, seed=24)
        fps = router.request_cache.fingerprints(graphs)
        before = router.stats.unknown_resends
        for handle in router._handles:
            handle.mark_known(fps)  # a lie: the workers never saw these
        values = router.score(graphs)
        assert np.allclose(values, predict_runtimes(model, graphs), rtol=1e-9)
        assert router.stats.unknown_resends > before

    def test_spill_moves_load_off_a_hot_owner(self, router):
        graphs = synthetic_graphs(16, seed=25)
        fps = router.request_cache.fingerprints(graphs)
        alive_ids = {h.worker_id for h in router._alive_handles()}
        owner = router._owner(fps[0], alive_ids)
        hot = router._handles[owner]
        before = router.stats.spills
        hot.note_dispatch(router.spill_threshold + 100)
        try:
            groups = router._route([fps[0]])
        finally:
            hot.note_done(router.spill_threshold + 100)
        assert router.stats.spills == before + 1
        (assigned,) = groups
        assert assigned != owner

    def test_crashed_worker_requests_retry_on_peer_and_respawn(self, mp_setup):
        root, model = mp_setup
        with WorkerRouter(
            root, "mp", workers=2, heartbeat_interval_s=0.2
        ) as own:
            graphs = synthetic_graphs(16, seed=26)
            assert np.allclose(
                own.score(graphs), predict_runtimes(model, graphs), rtol=1e-9
            )
            victim = own._handles[0]
            old_pid = victim.pid
            # die like a segfault: no reply, raw EOF on the socket
            victim.client.request({"op": "crash"})
            # traffic through the outage: the dead worker's slice gets
            # exactly one retry on the healthy peer — no surfaced errors
            outcome = own.score_resilient(graphs)
            assert all(s == "ok" for s in outcome.statuses)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                handle = own._handles[0]
                if handle.pid != old_pid and handle.alive():
                    break
                time.sleep(0.1)
            else:
                pytest.fail("supervisor never respawned the crashed worker")
            assert own.stats.respawns >= 1
            # the respawned worker serves again (empty caches, full graphs)
            assert np.allclose(
                own.score(graphs), predict_runtimes(model, graphs), rtol=1e-9
            )


# ======================================================================
# promotion fencing — the acceptance pin
# ======================================================================
class TestPromotionFencing:
    def test_promote_never_serves_stale_epoch_prediction(self, tmp_path):
        """Once ``promote`` returns, no response may carry a predecessor
        epoch or a predecessor-model cached prediction — even though
        every worker cached these exact templates before the swap, and
        even under concurrent scoring load."""
        registry = ModelRegistry(tmp_path)
        model_v1 = _make_model(seed=31)
        model_v2 = _make_model(seed=32)
        registry.publish("promo", model_v1)
        graphs = synthetic_graphs(12, seed=33)
        expected_v1 = predict_runtimes(model_v1, graphs)
        expected_v2 = predict_runtimes(model_v2, graphs)
        assert not np.allclose(expected_v1, expected_v2, rtol=1e-6)

        with WorkerRouter(tmp_path, "promo", workers=2) as router:
            # warm every worker's prediction cache with v1 answers
            for _ in range(3):
                values = router.score(graphs)
            assert np.allclose(values, expected_v1, rtol=1e-9)
            before = router.score_resilient(graphs)
            assert set(before.epochs) == {1}

            registry.publish("promo", model_v2)
            promoted_at = [None]
            violations: list = []
            stop = threading.Event()

            def hammer() -> None:
                while not stop.is_set():
                    issued = time.monotonic()
                    outcome = router.score_resilient(graphs)
                    fence = promoted_at[0]
                    if fence is not None and issued > fence:
                        for epoch, value in zip(outcome.epochs, outcome.values):
                            if epoch is not None and epoch < 2:
                                violations.append(("epoch", epoch))
                        if not np.allclose(outcome.values, expected_v2, rtol=1e-9):
                            violations.append(("values", outcome.values))

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            try:
                new_epoch = router.promote()
                promoted_at[0] = time.monotonic()
                assert new_epoch == 2
                time.sleep(0.5)  # let post-fence traffic accumulate
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)
            assert not violations, violations[:3]

            after = router.score_resilient(graphs)
            assert set(after.epochs) == {2}
            # the same templates were cached at epoch 1 on every worker:
            # matching v2 exactly proves every cache was fenced
            assert np.allclose(after.values, expected_v2, rtol=1e-9)
            assert router.stats.promotions == 1


# ======================================================================
# scripts/serve.py --workers N: the one front end over the router
# ======================================================================
def _post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(url, data=json.dumps(payload).encode())
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


class TestServeScriptWorkers:
    def test_advise_and_feedback_round_trip_then_clean_drain(self, mp_setup, tmp_path):
        root, model = mp_setup
        serve_script = _load_serve_script()
        args = serve_script.parse_args(
            ["--workers", "2", "--registry-dir", root, "--model", "mp"]
            + ["--dataset", "imdb", "--queries", "6", "--port", "0"]
        )
        server, _, version = serve_script.build_service(args)
        assert isinstance(server.engine, WorkerRouter)
        assert version.ref == "mp@v1"
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
            hung = server.drain()
            feedback.close()
        assert hung == 0
        assert feedback.appended == 1
