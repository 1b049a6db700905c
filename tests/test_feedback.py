"""Closed-loop feedback subsystem tests (DESIGN.md §10).

Covers the collector (bounded replay buffer, persistence, thread
safety), the drift monitor (level + shift triggers), retraining and
canary promotion against a live engine, the HTTP ``/feedback`` surface
with its codec edge cases, and the full continual-learning episode:
synthetic drift → detection → retrain → shadow comparison → hot swap.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.eval import prepare_dataset_samples, q_error_summary
from repro.eval.samples import training_placements
from repro.exceptions import FeedbackError, ServingError
from repro.feedback import (
    CanaryPromoter,
    DriftConfig,
    DriftMonitor,
    FeedbackLog,
    FeedbackLoop,
    FeedbackRecord,
    RetrainConfig,
    Retrainer,
    RetrainOutcome,
    advisable_entries,
    graph_fingerprint,
    observe_benchmark,
)
from repro.model import (
    CostGNN,
    GNNConfig,
    GracefulModel,
    TrainConfig,
    predict_runtimes,
)
from repro.serve import (
    AdvisorService,
    ModelRegistry,
    ShardedEngine,
    feedback_record_from_json,
    feedback_record_to_json,
    make_server,
    query_to_json,
)
from repro.stats import ActualCardinalityEstimator, StatisticsCatalog
from tests.test_serving import load_script


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


def make_records(
    n: int, q: float = 2.0, segment: str = "s", seed: int = 0
) -> list[FeedbackRecord]:
    """Records with a fixed Q-error ``q`` (observed = q * predicted)."""
    graphs = synthetic_graphs(n, seed=seed)
    return [
        FeedbackRecord(
            predicted=1.0, observed=q, segment=segment, graph=graphs[i]
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def model() -> CostGNN:
    return CostGNN(GNNConfig(hidden_dim=8, dtype="float64"))


# ======================================================================
class TestFeedbackRecord:
    def test_q_error_and_fingerprint(self):
        graph = synthetic_graphs(1)[0]
        record = FeedbackRecord(predicted=2.0, observed=4.0, graph=graph)
        assert record.q_error == pytest.approx(2.0)
        assert record.trainable
        assert record.graph_fp == graph_fingerprint(graph)

    def test_metric_only_record_is_not_trainable(self):
        record = FeedbackRecord(predicted=4.0, observed=2.0)
        assert record.q_error == pytest.approx(2.0)
        assert not record.trainable
        assert record.graph_fp == ""


class TestFeedbackLog:
    def test_append_replay_roundtrip(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        records = make_records(25)
        log.extend(records)
        replayed = log.replay()
        assert len(replayed) == 25
        assert [r.graph_fp for r in replayed] == [r.graph_fp for r in records]
        assert log.drain()  # background flusher catches up on full chunks
        stats = log.stats()
        assert stats["disk_chunks"] == 2  # 20 flushed, 5 pending
        assert stats["pending_records"] == 5  # young tail stays in memory

    def test_flush_and_restart_persistence(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        log.extend(make_records(25))
        log.flush()
        reopened = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        assert len(reopened.replay()) == 25
        # new appends continue the chunk sequence, not overwrite it
        reopened.extend(make_records(10, seed=9))
        assert len(reopened.replay()) == 35

    def test_capacity_bounds_disk(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=40, chunk_records=10)
        log.extend(make_records(100))
        assert log.drain()
        stats = log.stats()
        assert stats["disk_chunks"] <= 4
        assert len(log.replay()) <= 40 + log.chunk_records
        assert len(log.recent(1000)) == 40  # memory deque bounded too

    def test_concurrent_appends(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=2048, chunk_records=64)
        records = make_records(200)

        def worker(chunk):
            for record in chunk:
                log.append(record)

        threads = [
            threading.Thread(target=worker, args=(records[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.appended == 200
        assert len(log.replay()) == 200

    def test_corrupt_chunk_quarantined(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        log.extend(make_records(20))
        assert log.drain()
        chunk = log._chunk_paths()[0]
        chunk.write_bytes(b"not a pickle")
        assert len(log.replay()) == 10  # corrupt chunk skipped
        assert not chunk.exists()  # and deleted, like the result store

    def test_subscribe_observer(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=10, chunk_records=5)
        seen = []
        log.subscribe(seen.append)
        log.extend(make_records(3))
        assert len(seen) == 3

    def test_segment_filter_and_clear(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        log.extend(make_records(10, segment="a"))
        log.extend(make_records(10, segment="b", seed=1))
        assert len(log.replay(segment="a")) == 10
        assert len(log.recent(100, segment="b")) == 10
        log.clear()
        assert len(log.replay()) == 0
        assert log.stats()["disk_chunks"] == 0

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(FeedbackError):
            FeedbackLog(tmp_path, capacity=0)
        with pytest.raises(FeedbackError):
            FeedbackLog(tmp_path, flush_age_s=0)

    def test_age_flush_spills_partial_tail(self, tmp_path):
        # fewer records than a chunk must still reach the disk once the
        # oldest pending record is flush_age_s old
        log = FeedbackLog(
            tmp_path, capacity=100, chunk_records=50, flush_age_s=0.05
        )
        log.extend(make_records(3))
        # the chunk lands on disk (os.replace) a beat before the flusher
        # hands off its in-flight batch, so poll for the settled state
        # rather than racing that window
        deadline = time.monotonic() + 5.0
        stats = log.stats()
        while (
            stats["disk_chunks"] == 0 or stats["pending_records"]
        ) and time.monotonic() < deadline:
            time.sleep(0.01)
            stats = log.stats()
        assert stats["disk_chunks"] == 1
        assert stats["pending_records"] == 0
        assert len(log.replay()) == 3

    def test_close_flushes_and_keeps_log_usable(self, tmp_path):
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=10)
        log.extend(make_records(4))
        log.close()
        assert log.stats()["pending_records"] == 0
        assert len(log.replay()) == 4
        # post-close appends still spill at chunk boundaries (inline:
        # the flusher is gone, the pending tail must stay bounded)
        log.extend(make_records(10, seed=3))
        assert len(log.replay()) == 14
        assert log.stats()["pending_records"] < 10

    def test_flusher_survives_write_errors(self, tmp_path):
        # a failed chunk write (disk full, unwritable root) must not
        # kill the background flusher or lose the claimed records
        log = FeedbackLog(
            tmp_path, capacity=100, chunk_records=5, flush_age_s=0.05
        )
        original = log._write_chunk
        failures = {"left": 2}

        def flaky(records):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("disk full")
            return original(records)

        log._write_chunk = flaky
        log.extend(make_records(5))
        deadline = time.monotonic() + 10.0
        while log.stats()["disk_chunks"] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        stats = log.stats()
        assert stats["disk_chunks"] == 1  # retried and eventually landed
        assert stats["write_errors"] == 2
        assert "disk full" in stats["last_write_error"]
        assert log._flusher.is_alive()
        assert len(log.replay()) == 5  # nothing lost along the way

    def test_append_never_writes_inline(self, tmp_path):
        # the /advise + /feedback hot path: append only buffers; every
        # chunk write happens on the background flusher thread
        log = FeedbackLog(tmp_path, capacity=100, chunk_records=5)
        writers: list[str] = []
        original = log._write_chunk

        def spy(records):
            writers.append(threading.current_thread().name)
            return original(records)

        log._write_chunk = spy
        log.extend(make_records(20))
        assert log.drain()
        assert writers
        assert all(name == "feedback-flusher" for name in writers)


# ======================================================================
class TestDriftMonitor:
    def config(self) -> DriftConfig:
        return DriftConfig(
            window=40, min_samples=20, level_ratio=1.5, shift_ratio=1.3
        )

    def test_insufficient_samples_never_triggers(self):
        monitor = DriftMonitor(1.2, self.config())
        for _ in range(10):
            monitor.observe(100.0, "s")
        verdict = monitor.check("s")
        assert not verdict.triggered
        assert verdict.reason == "insufficient_samples"

    def test_stable_traffic_stays_stable(self):
        monitor = DriftMonitor(1.2, self.config())
        rng = np.random.default_rng(0)
        for _ in range(40):
            monitor.observe(1.2 * float(rng.uniform(0.9, 1.1)), "s")
        verdict = monitor.check("s")
        assert not verdict.triggered
        assert verdict.reason == "stable"

    def test_level_trigger(self):
        monitor = DriftMonitor(1.2, self.config())
        for _ in range(30):
            monitor.observe(3.0, "s")
        verdict = monitor.check("s")
        assert verdict.triggered
        assert "level" in verdict.reason
        assert verdict.trailing_median == pytest.approx(3.0)

    def test_shift_trigger_catches_onset(self):
        # older half at baseline, newer half degrading: the shift test
        # fires before the whole trailing window clears the level gate
        monitor = DriftMonitor(1.2, self.config())
        for _ in range(20):
            monitor.observe(1.2, "s")
        for _ in range(20):
            monitor.observe(1.7, "s")
        verdict = monitor.check("s")
        assert verdict.triggered
        assert verdict.reason == "shift"
        assert verdict.shift_ratio >= 1.3

    def test_segments_are_independent(self):
        monitor = DriftMonitor(1.2, self.config())
        for _ in range(30):
            monitor.observe(3.0, "drifted")
            monitor.observe(1.2, "healthy")
        assert monitor.triggered_segments() == ["drifted"]

    def test_rebaseline_restarts_windows(self):
        monitor = DriftMonitor(1.2, self.config())
        for _ in range(30):
            monitor.observe(3.0, "s")
        assert monitor.check("s").triggered
        monitor.rebaseline(2.0)
        assert monitor.baseline_median == 2.0
        assert not monitor.check("s").triggered  # window restarted
        with pytest.raises(FeedbackError):
            monitor.rebaseline(0.5)
        with pytest.raises(FeedbackError):
            DriftMonitor(float("nan"))

    def test_status_shape(self):
        monitor = DriftMonitor(1.2, self.config())
        monitor.observe_record(make_records(1, q=2.0)[0])
        status = monitor.status()
        assert status["baseline_median"] == 1.2
        assert status["observed"] == 1
        assert "s" in status["segments"]
        assert status["segments"]["s"]["reason"] == "insufficient_samples"


# ======================================================================
class TestRetrainer:
    def test_split_is_deterministic_and_guarded(self, tmp_path, model):
        retrainer = Retrainer(
            ModelRegistry(tmp_path), "m", RetrainConfig(min_samples=10)
        )
        records = make_records(20)
        train_a, holdout_a = retrainer.split(records)
        train_b, holdout_b = retrainer.split(records)
        assert [id(r) for r in train_a] == [id(r) for r in train_b]
        assert len(holdout_a) == len(holdout_b) == 5  # 25% of 20
        assert len(train_a) + len(holdout_a) == 20
        with pytest.raises(FeedbackError):
            retrainer.split(records[:5])
        # metric-only records never reach training
        with pytest.raises(FeedbackError):
            retrainer.split(
                [FeedbackRecord(predicted=1.0, observed=2.0)] * 20
            )

    def test_retrain_publishes_candidate_with_metadata(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        retrainer = Retrainer(
            registry, "m", RetrainConfig(epochs=5, min_samples=10)
        )
        records = make_records(24, q=3.0)
        monitor = DriftMonitor(1.2, DriftConfig(window=24, min_samples=10))
        for record in records:
            monitor.observe_record(record)
        outcome = retrainer.retrain(
            model, records, drift=monitor.check("s"), live_ref="m@v1"
        )
        assert outcome.version.version == 2
        assert outcome.n_train + outcome.n_holdout == 24
        published = registry.versions("m")[-1]
        assert published.metrics["retrained_from"] == "m@v1"
        assert published.metrics["feedback"]["n_train"] == outcome.n_train
        assert published.metrics["drift"]["triggered"]
        assert "fine-tune" in published.description


class TestServingVersionSelection:
    """A restart serves what ``ModelRegistry.load_serving`` picks: the
    registry alone owns the serving order."""

    def test_rejected_candidate_is_not_served_on_restart(self, tmp_path, model):
        from repro.feedback import serving_baseline

        registry = ModelRegistry(tmp_path)
        registry.publish("m", model, metrics={"median_q": 1.4})
        # a drift episode published a candidate that LOST its canary —
        # it stays in the registry as the record, but must not be served
        bad = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=3))
        registry.publish("m", bad, metrics={"retrained_from": "m@v1"})
        registry.annotate(
            "m", 2, {"canary": {"promoted": False, "improvement": -0.5}}
        )
        _, chosen = ModelRegistry(tmp_path).load_serving("m")
        assert chosen.version == 1
        assert serving_baseline(chosen) == pytest.approx(1.4)
        # a later *promoted* candidate wins over both
        good = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=4))
        registry.publish("m", good, metrics={"retrained_from": "m@v1"})
        registry.annotate(
            "m",
            3,
            {"canary": {"promoted": True, "candidate_q": {"median": 1.2}}},
        )
        served, chosen = ModelRegistry(tmp_path).load_serving("m")
        assert chosen.version == 3
        assert serving_baseline(chosen) == pytest.approx(1.2)
        for name, array in good.state_dict().items():
            np.testing.assert_array_equal(served.state_dict()[name], array)

    def test_unjudged_candidate_is_not_served(self, tmp_path, model):
        # process died between publish and the canary verdict: serve the
        # last known-good original, not the unjudged candidate
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model, metrics={"median_q": 1.4})
        registry.publish("m", model, metrics={"retrained_from": "m@v1"})
        assert registry.load_serving("m")[1].version == 1
        with pytest.raises(ServingError, match="no published versions"):
            registry.load_serving("ghost")

    def test_feedback_loop_restart_skips_corrupt_artifact(self, tmp_path, model):
        # scripts/feedback_loop.py restarts through load_serving: the
        # corrupt promoted artifact is quarantined, the original serves
        script = load_script("feedback_loop")
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model, metrics={"median_q": 1.4})
        promoted = registry.publish(
            "m",
            model,
            metrics={"retrained_from": "m@v1", "canary": {"promoted": True}},
        )
        promoted.path.write_bytes(b"garbage")
        restarted = ModelRegistry(tmp_path)
        args = argparse.Namespace(model="m", dataset="unused", retrain=False)
        _, version, baseline = script.train_or_load(args, restarted, bench=None)
        assert version.version == 1
        assert baseline == pytest.approx(1.4)
        assert promoted.ref in restarted.quarantined


class TestRegistryAnnotate:
    def test_annotate_merges_into_sidecar(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model, metrics={"median_q": 1.5})
        registry.annotate("m", 1, {"canary": {"promoted": False}})
        version = registry.versions("m")[-1]
        assert version.metrics["median_q"] == 1.5
        assert version.metrics["canary"] == {"promoted": False}

    def test_annotate_unknown_version_raises(self, tmp_path):
        with pytest.raises(ServingError):
            ModelRegistry(tmp_path).annotate("ghost", 1, {})


# ======================================================================
class TestCanaryPromoter:
    def test_engine_swap_between_batches(self, model):
        other = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=7))
        graphs = synthetic_graphs(6, seed=3)
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            before = engine.score_resilient(graphs).values
            engine.swap_model(other)
            after = engine.score_resilient(graphs).values
        np.testing.assert_allclose(before, predict_runtimes(model, graphs))
        np.testing.assert_allclose(after, predict_runtimes(other, graphs))
        assert engine.stats.model_swaps == 1
        assert engine.describe()["stats"]["model_swaps"] == 1

    def test_rejects_worse_candidate_and_records_it(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        # live is perfect on the holdout; the candidate is a different
        # random init, so it cannot win the shadow comparison
        holdout = make_records(12, seed=5)
        live_preds = predict_runtimes(model, [r.graph for r in holdout])
        for record, pred in zip(holdout, live_preds):
            record.predicted = float(pred)
            record.observed = float(pred)
        bad = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=99))
        version = registry.publish("m", bad)
        outcome = RetrainOutcome(
            version=version,
            candidate=bad,
            n_train=12,
            n_holdout=len(holdout),
            holdout=holdout,
            final_loss=0.0,
        )
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            promoter = CanaryPromoter(engine, registry, min_improvement=0.05)
            result = promoter.consider(model, outcome)
            assert not result.promoted
            assert engine.model is model  # no swap
        assert promoter.rejections == 1
        assert promoter.promotions == 0
        published = registry.versions("m")[-1]
        assert published.metrics["canary"]["promoted"] is False
        assert published.metrics["canary"]["improvement"] < 0.05

    def test_promotes_better_candidate(self, tmp_path, model):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", model)
        # observed runtimes are 3x the live predictions; a clone
        # fine-tuned on them must win the shadow comparison
        records = make_records(48, seed=6)
        live_preds = predict_runtimes(model, [r.graph for r in records])
        for record, pred in zip(records, live_preds):
            record.predicted = float(pred)
            record.observed = float(pred) * 3.0
        retrainer = Retrainer(
            registry, "m", RetrainConfig(epochs=15, min_samples=10)
        )
        outcome = retrainer.retrain(model, records, live_ref="m@v1")
        promoted_refs = []
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            promoter = CanaryPromoter(
                engine,
                registry,
                min_improvement=0.05,
                on_promote=lambda v: promoted_refs.append(v.ref),
            )
            result = promoter.consider(model, outcome)
            assert result.promoted
            assert engine.model is outcome.candidate
        assert promoted_refs == [outcome.version.ref]
        assert result.candidate_q["median"] < result.live_q["median"]
        published = registry.versions("m")[-1]
        assert published.metrics["canary"]["promoted"] is True


# ======================================================================
@pytest.fixture(scope="module")
def trained_setup(tiny_bench):
    """A model trained on the tiny benchmark + its serving components."""
    samples = prepare_dataset_samples(
        tiny_bench, "actual", placements=training_placements()
    )
    graceful = GracefulModel(
        GNNConfig(hidden_dim=16, dtype="float64"),
        TrainConfig(epochs=80, lr=5e-3, shards_per_epoch=2),
    )
    graceful.fit(samples)
    catalog = StatisticsCatalog(tiny_bench.database)
    estimator = ActualCardinalityEstimator(tiny_bench.database)
    return graceful.model, catalog, estimator


class TestContinualLearningEndToEnd:
    def test_drift_detect_retrain_promote(self, tmp_path, tiny_bench, trained_setup):
        live_model, catalog, estimator = trained_setup
        log = FeedbackLog(tmp_path / "fb", capacity=64, chunk_records=16)
        registry = ModelRegistry(tmp_path / "reg")
        version = registry.publish("costgnn-tiny", live_model)
        engine = ShardedEngine(live_model, shards=1, max_batch_size=32)
        service = AdvisorService(
            engine, catalog=catalog, estimator=estimator, feedback=log
        )
        try:
            assert len(advisable_entries(tiny_bench)) > 0
            # phase A: in-distribution traffic through the simulated
            # executor; its Q-error is the serving-time baseline
            stable = observe_benchmark(service, tiny_bench, repeats=8)
            baseline = float(
                np.median([r.q_error for r in stable])
            )
            loop = FeedbackLoop(
                log,
                engine,
                registry,
                "costgnn-tiny",
                baseline_median=max(baseline, 1.0),
                live_ref=version.ref,
                drift_config=DriftConfig(
                    window=48, min_samples=24, level_ratio=1.6, shift_ratio=2.5
                ),
                retrain_config=RetrainConfig(
                    epochs=40, lr=2e-3, min_samples=24, seed=1
                ),
            )
            # warm-started on stable traffic: nothing to do
            assert loop.step() is None
            # phase B: synthetic drift — the simulated executor now
            # reports 6x runtimes (the data grew); accuracy collapses
            observe_benchmark(service, tiny_bench, repeats=16, drift_factor=6.0)
            verdict = loop.monitor.check(tiny_bench.name)
            assert verdict.triggered
            event = loop.step()
            assert event is not None
            assert event.action == "promoted"
            assert event.segment == tiny_bench.name
            # a retrained version landed in the registry, with feedback
            # + drift metadata and the canary verdict in its sidecar
            published = registry.versions("costgnn-tiny")[-1]
            assert published.version == 2
            assert event.version_ref == published.ref
            assert published.metrics["retrained_from"] == version.ref
            assert published.metrics["feedback"]["n_train"] >= 24
            assert published.metrics["drift"]["triggered"]
            assert published.metrics["canary"]["promoted"] is True
            # the live engine was hot-swapped and still serves decisions
            assert engine.model is not live_model
            assert loop.live_ref == published.ref
            decision = service.suggest_placement(
                advisable_entries(tiny_bench)[0].query
            )
            assert np.isfinite(decision.pullup_costs).all()
            # the swapped model is measurably better on drifted traffic
            holdout = [r for r in log.replay() if r.trainable][-16:]
            graphs = [r.graph for r in holdout]
            observed = np.asarray([r.observed for r in holdout])
            live_q = q_error_summary(
                predict_runtimes(live_model, graphs), observed
            )
            new_q = q_error_summary(
                predict_runtimes(engine.model, graphs), observed
            )
            assert new_q["median"] < live_q["median"]
            # one episode, one retrain: the loop is quiet again
            assert loop.step() is None
        finally:
            engine.close()


# ======================================================================
def make_udf_query():
    from repro.sql import ColumnRef, CompareOp, FilterSpec, JoinSpec, Query, UDFSpec
    from repro.storage.datatypes import DataType
    from repro.udf import UDF

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
def feedback_service(handmade_db, model, tmp_path):
    log = FeedbackLog(tmp_path / "fb", capacity=256, chunk_records=32)
    engine = ShardedEngine(model, shards=1, max_batch_size=32)
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(handmade_db),
        estimator=ActualCardinalityEstimator(handmade_db),
        feedback=log,
    )
    yield service, log
    engine.close()


class TestAdvisorServiceFeedback:
    def test_decisions_carry_ids_and_pair_with_runtimes(self, feedback_service):
        service, log = feedback_service
        query = make_udf_query()
        decision = service.suggest_placement(query)
        assert decision.decision_id
        assert service.pending_feedback == 1
        record = service.record_runtime(decision.decision_id, 0.25)
        assert service.pending_feedback == 0
        assert len(log) == 1
        assert record.segment == "shop"
        assert record.placement == decision.placement.value
        assert record.graph is not None
        # midpoint of the selectivity grid when the truth is unknown
        costs = (
            decision.pullup_costs if decision.pull_up else decision.pushdown_costs
        )
        mid = len(decision.selectivity_levels) // 2
        assert record.predicted == pytest.approx(float(costs[mid]))

    def test_true_selectivity_picks_nearest_level(self, feedback_service):
        service, _ = feedback_service
        decision = service.suggest_placement(make_udf_query())
        record = service.record_runtime(
            decision.decision_id, 0.25, true_selectivity=0.12
        )
        costs = (
            decision.pullup_costs if decision.pull_up else decision.pushdown_costs
        )
        # nearest enumerated level to 0.12 is 0.1, index 0
        assert record.predicted == pytest.approx(float(costs[0]))
        assert record.metadata["true_selectivity"] == pytest.approx(0.12)

    def test_unknown_or_reused_ids_rejected(self, feedback_service):
        service, _ = feedback_service
        decision = service.suggest_placement(make_udf_query())
        service.record_runtime(decision.decision_id, 0.25)
        with pytest.raises(ServingError):
            service.record_runtime(decision.decision_id, 0.25)  # consumed
        with pytest.raises(ServingError):
            service.record_runtime("ghost", 0.25)

    def test_malformed_observation_does_not_consume_decision(
        self, feedback_service
    ):
        # a bad report must leave the pending decision intact: the
        # client fixes its payload and retries with the same id
        service, log = feedback_service
        decision = service.suggest_placement(make_udf_query())
        for bad in (-1.0, 0.0, float("nan"), "abc"):
            with pytest.raises(ServingError):
                service.record_runtime(decision.decision_id, bad)
        assert service.pending_feedback == 1  # still there
        record = service.record_runtime(decision.decision_id, 0.25)  # retry
        assert record.observed == 0.25
        assert len(log) == 1

    def test_pending_decisions_are_lru_capped(self, feedback_service):
        service, _ = feedback_service
        service.max_pending = 2
        first = service.suggest_placement(make_udf_query())
        service.suggest_placement(make_udf_query())
        service.suggest_placement(make_udf_query())
        assert service.pending_feedback == 2
        with pytest.raises(ServingError):
            service.record_runtime(first.decision_id, 0.25)  # evicted

    def test_no_feedback_log_means_no_ids(self, handmade_db, model):
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            service = AdvisorService(
                engine,
                catalog=StatisticsCatalog(handmade_db),
                estimator=ActualCardinalityEstimator(handmade_db),
            )
            decision = service.suggest_placement(make_udf_query())
            assert decision.decision_id == ""
            with pytest.raises(ServingError):
                service.record_runtime("anything", 1.0)
            assert "feedback" not in service.describe()


# ======================================================================
class TestFeedbackCodec:
    def test_roundtrip_with_graph(self):
        record = make_records(1, q=3.0)[0]
        record.metadata = {"true_selectivity": 0.4}
        wire = json.loads(json.dumps(feedback_record_to_json(record)))
        clone = feedback_record_from_json(wire)
        assert clone.predicted == record.predicted
        assert clone.observed == record.observed
        assert clone.segment == record.segment
        assert clone.graph_fp == record.graph_fp  # graph content survived
        assert clone.metadata == record.metadata
        assert clone.timestamp == record.timestamp

    def test_roundtrip_without_optional_metadata(self):
        # the minimal wire record: predicted + observed only
        clone = feedback_record_from_json({"predicted": 1.5, "observed": 3.0})
        assert clone.graph is None
        assert clone.placement == ""
        assert clone.metadata == {}
        assert clone.q_error == pytest.approx(2.0)
        rewire = feedback_record_to_json(clone)
        assert "graph" not in rewire
        assert feedback_record_from_json(rewire).observed == 3.0

    def test_malformed_records_raise(self):
        for payload in (
            "not an object",
            {},
            {"predicted": 1.0},
            {"predicted": "abc", "observed": 1.0},
            {"predicted": 1.0, "observed": 0.0},
            {"predicted": float("nan"), "observed": 1.0},
            {"predicted": 1.0, "observed": 1.0, "metadata": "nope"},
            {"predicted": 1.0, "observed": 1.0, "graph": {"bad": True}},
            {"predicted": 1.0, "observed": 1.0, "timestamp": "late"},
        ):
            with pytest.raises(ServingError):
                feedback_record_from_json(payload)


class TestFeedbackHTTP:
    @pytest.fixture()
    def server(self, feedback_service):
        service, _ = feedback_service
        server = make_server(service)
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

    def test_decision_id_feedback_roundtrip(self, server, feedback_service):
        _, log = feedback_service
        decision = self._call(
            f"{server.url}/advise",
            {"query": query_to_json(make_udf_query()), "client": "c1"},
        )
        assert decision["decision_id"]
        response = self._call(
            f"{server.url}/feedback",
            {
                "decision_id": decision["decision_id"],
                "observed": 0.5,
                "true_selectivity": 0.3,
            },
        )
        assert response["accepted"] == 1
        assert response["q_error"] > 0
        assert len(log) == 1
        stats = self._call(f"{server.url}/stats")
        assert stats["feedback"]["appended"] == 1
        assert stats["pending_feedback"] == 0

    def test_explicit_records_feedback(self, server, feedback_service):
        _, log = feedback_service
        records = [feedback_record_to_json(r) for r in make_records(5)]
        response = self._call(f"{server.url}/feedback", {"records": records})
        assert response["accepted"] == 5
        assert response["log"]["appended"] == 5
        assert sum(1 for r in log.replay() if r.trainable) == 5

    def test_malformed_feedback_payloads_are_400(self, server):
        bad_payloads = [
            {},  # neither decision_id nor records
            {"decision_id": "ghost", "observed": 1.0},  # unknown id
            {"decision_id": "x"},  # missing observed
            {"decision_id": "x", "observed": "abc"},
            {"records": []},
            {"records": [{"predicted": 1.0}]},  # missing observed
            {"records": [{"predicted": 1.0, "observed": -2.0}]},
            {"records": "nope"},
        ]
        for payload in bad_payloads:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._call(f"{server.url}/feedback", payload)
            assert err.value.code == 400, payload

    def test_oversized_batch_rejected(self, server):
        from repro.serve.http import MAX_FEEDBACK_RECORDS

        records = [
            {"predicted": 1.0, "observed": 2.0}
            for _ in range(MAX_FEEDBACK_RECORDS + 1)
        ]
        with pytest.raises(urllib.error.HTTPError) as err:
            self._call(f"{server.url}/feedback", {"records": records})
        assert err.value.code == 400
        assert "split the report" in err.value.read().decode()

    def test_feedback_without_log_is_400(self, handmade_db, model):
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            service = AdvisorService(
                engine,
                catalog=StatisticsCatalog(handmade_db),
                estimator=ActualCardinalityEstimator(handmade_db),
            )
            server = make_server(service)
            server.serve_in_background()
            try:
                with pytest.raises(urllib.error.HTTPError) as err:
                    self._call(
                        f"{server.url}/feedback",
                        {"records": [{"predicted": 1.0, "observed": 2.0}]},
                    )
                assert err.value.code == 400
            finally:
                server.shutdown()


# ======================================================================
class TestFeedbackLoopEdgeCases:
    def test_quiet_loop_produces_no_events(self, tmp_path, model):
        log = FeedbackLog(tmp_path / "fb", capacity=64, chunk_records=16)
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish("m", model)
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            loop = FeedbackLoop(
                log, engine, registry, "m", baseline_median=1.2
            )
            assert loop.step() is None
            assert len(loop.events) == 0
            description = loop.describe()
            assert description["steps"] == 1
            assert description["promotions"] == 0
            assert description["events_recorded"] == 0
            assert description["episode_active"] is False

    def test_triggered_without_trainable_records_skips(self, tmp_path, model):
        log = FeedbackLog(tmp_path / "fb", capacity=256, chunk_records=64)
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish("m", model)
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            loop = FeedbackLoop(
                log,
                engine,
                registry,
                "m",
                baseline_median=1.1,
                drift_config=DriftConfig(window=32, min_samples=16),
                retrain_config=RetrainConfig(min_samples=32),
            )
            # metric-only reports: drift is visible but nothing to train on
            for _ in range(32):
                log.append(FeedbackRecord(predicted=1.0, observed=9.0))
            event = loop.step()
            assert event is not None
            assert event.action == "skipped"
            assert "trainable" in event.detail
            assert registry.versions("m")[-1].version == 1  # nothing published

    def test_warm_start_resumes_from_replay(self, tmp_path, model):
        log = FeedbackLog(tmp_path / "fb", capacity=256, chunk_records=16)
        log.extend(make_records(32, q=5.0))
        log.flush()
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish("m", model)
        with ShardedEngine(model, shards=1, max_batch_size=8) as engine:
            loop = FeedbackLoop(
                log,
                engine,
                registry,
                "m",
                baseline_median=1.1,
                drift_config=DriftConfig(window=32, min_samples=16),
            )
            # a restarted daemon sees drift that predates the restart
            assert loop.monitor.check("s").triggered
