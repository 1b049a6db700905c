"""Feedback-subsystem overhead benchmark: collection must be ~free.

Writes ``BENCH_feedback.json`` at the repo root:

* ``advise_overhead`` — end-to-end ``suggest_placement`` wall time for
  64 concurrent decisions, with and without a feedback log attached
  (the acceptance gate: attaching the collector adds < 5% latency);
* ``collector`` — raw ``FeedbackLog.append`` cost per record, including
  the graph fingerprint and amortized chunk spills;
* ``detection`` — drift-detection latency in samples: how many drifted
  observations the monitor needs before it triggers, from a cold
  window (fresh deployment) and mid-stream (drift onset after a long
  stable run).

Marked ``perf`` and therefore excluded from the default pytest run;
invoke via ``scripts/bench.sh benchmarks/test_perf_feedback.py``.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.builder import build_dataset_benchmark
from repro.feedback import DriftConfig, DriftMonitor, FeedbackLog, FeedbackRecord
from repro.feedback.simulate import advisable_entries
from repro.model import CostGNN, GNNConfig
from repro.serve import AdvisorService, ShardedEngine
from repro.stats import ActualCardinalityEstimator, StatisticsCatalog
from repro.storage import GeneratorConfig

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_feedback.json"
BATCH = 64

TINY = GeneratorConfig(
    fact_rows=(300, 600), dim_rows=(40, 120), min_tables=3, max_tables=4
)


def _advise_round(service, queries, with_feedback: bool) -> None:
    """One serving round: 64 decisions (+ their runtime reports)."""
    for query in queries:
        decision = service.suggest_placement(query)
        if with_feedback:
            service.record_runtime(decision.decision_id, 0.5)


def _timed(fn) -> float:
    gc.collect()  # don't let a stray gen-2 collection land in one side
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _tiny_graph(rng) -> FeedbackRecord:
    from repro.core import encoding as enc
    from repro.core.joint_graph import JointGraph

    types = list(enc.NODE_TYPES)
    n = int(rng.integers(10, 25))
    graph = JointGraph()
    for _ in range(n):
        gtype = types[int(rng.integers(len(types)))]
        graph.add_node(gtype, rng.random(enc.FEATURE_DIMS[gtype]))
    for node in range(1, n):
        graph.add_edge(int(rng.integers(node)), node)
    graph.root_id = n - 1
    return FeedbackRecord(predicted=1.0, observed=2.0, segment="s", graph=graph)


def test_feedback_overhead(tmp_path):
    bench = build_dataset_benchmark(
        "imdb", n_queries=16, seed=5, generator_config=TINY
    )
    entries = advisable_entries(bench)
    assert entries, "tiny benchmark lost its advisable queries"
    queries = [entries[i % len(entries)].query for i in range(BATCH)]
    model = CostGNN(GNNConfig(hidden_dim=32))
    model.eval()
    catalog = StatisticsCatalog(bench.database)
    estimator = ActualCardinalityEstimator(bench.database)

    # -- /advise with vs. without the collector --------------------------
    # Interleaved best-of: the decision path is seconds of GIL-bound
    # graph building while the collector costs microseconds, so the two
    # configurations alternate round-for-round and take the per-config
    # minimum — wall-clock drift (thermal, background load, stray GC)
    # cancels instead of landing on one side of the comparison.
    log = FeedbackLog(tmp_path / "fb", capacity=2048, chunk_records=512)
    with ShardedEngine(model, shards=1, max_batch_size=BATCH) as engine:
        plain = AdvisorService(engine, catalog=catalog, estimator=estimator)
        collecting = AdvisorService(
            engine, catalog=catalog, estimator=estimator, feedback=log
        )
        _advise_round(plain, queries, False)  # warm caches + engine
        _advise_round(collecting, queries, True)
        t_plain = float("inf")
        t_feedback = float("inf")
        for _ in range(5):
            t_plain = min(t_plain, _timed(lambda: _advise_round(plain, queries, False)))
            t_feedback = min(
                t_feedback, _timed(lambda: _advise_round(collecting, queries, True))
            )

    overhead = t_feedback / t_plain - 1.0

    # -- raw collector cost per record ----------------------------------
    rng = np.random.default_rng(0)
    records = [_tiny_graph(rng) for _ in range(2000)]
    append_log = FeedbackLog(tmp_path / "raw", capacity=4096, chunk_records=256)
    t0 = time.perf_counter()
    for record in records:
        append_log.append(record)
    t_append = time.perf_counter() - t0

    # -- detection latency in samples -----------------------------------
    config = DriftConfig(window=256, min_samples=48)
    cold = DriftMonitor(1.2, config)
    cold_latency = 0
    while not cold.check("s").triggered:
        cold.observe(4.0, "s")
        cold_latency += 1
        assert cold_latency <= config.window, "level trigger never fired"

    onset = DriftMonitor(1.2, config)
    for _ in range(config.window):
        onset.observe(1.2 * float(rng.uniform(0.92, 1.08)), "s")
    onset_latency = 0
    while not onset.check("s").triggered:
        onset.observe(4.0, "s")
        onset_latency += 1
        assert onset_latency <= config.window, "onset trigger never fired"

    results = {
        "advise_overhead": {
            "batch_size": BATCH,
            "plain_seconds": t_plain,
            "feedback_seconds": t_feedback,
            "overhead_fraction": overhead,
            "decisions_per_second": BATCH / t_feedback,
        },
        "collector": {
            "records": len(records),
            "append_us": t_append / len(records) * 1e6,
            "appends_per_second": len(records) / t_append,
        },
        "detection": {
            "window": config.window,
            "min_samples": config.min_samples,
            "cold_trigger_samples": cold_latency,
            "onset_trigger_samples": onset_latency,
        },
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print()
    print("=" * 78)
    print("Feedback overhead (written to BENCH_feedback.json)")
    print("=" * 78)
    print(
        f"  /advise x{BATCH} : plain {t_plain * 1e3:.1f} ms, "
        f"collecting {t_feedback * 1e3:.1f} ms "
        f"(overhead {overhead:+.1%})"
    )
    print(
        f"  collector     : {t_append / len(records) * 1e6:.1f} us/record "
        f"({len(records) / t_append:,.0f} records/s)"
    )
    print(
        f"  detection     : {cold_latency} samples cold, "
        f"{onset_latency} samples after onset (window {config.window})"
    )

    # Acceptance: the collector adds < 5% latency to /advise at batch 64.
    assert overhead < 0.05, f"collector overhead {overhead:.1%} >= 5%"
