"""What the benchmark harness (``perfbench/``) reads from ``src/``.

perfbench never edits the program: it wraps public functions by name
(``layers.LAYER_TARGETS``), groups spans by worker thread name
(``layers.SHARD_THREAD_PREFIX``) and reads ``/stats`` keys
(``serving.window_counters``, pinned in ``tests/test_http_contract.py``).
A rename in ``src/`` breaks it silently unless tier-1 checks the names.
"""

from __future__ import annotations

import importlib
import sys
import threading
from pathlib import Path

import pytest

from repro.model import CostGNN, GNNConfig
from repro.serve import ShardedEngine
from tests.test_serving import synthetic_graphs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` as its scripts do, with
    ``perfbench/`` on ``sys.path`` for the sibling imports; the siblings
    leave ``sys.modules`` again, so their plain names (``common``,
    ``layers``) shadow nothing later."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        for key, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[key]


@pytest.fixture(scope="module")
def layers():
    return load_perfbench("layers")


def test_every_layer_target_resolves(layers):
    # the same resolution Tracer.install performs: a missing function or
    # a method no longer defined on its class raises here
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert len(tracer._undo) >= len(layers.LAYER_TARGETS)
    finally:
        tracer.uninstall()


def test_engine_workers_carry_the_shard_thread_prefix(layers):
    model = CostGNN(GNNConfig(hidden_dim=8, dtype="float64"))
    before = set(threading.enumerate())
    tracer = layers.Tracer().install()
    try:
        with ShardedEngine(model, shards=2) as engine:
            started = [t.name for t in threading.enumerate() if t not in before]
            outcome = engine.score_resilient(synthetic_graphs(4, seed=1))
    finally:
        tracer.uninstall()
    prefix = layers.SHARD_THREAD_PREFIX
    assert len([name for name in started if name.startswith(prefix)]) == 2
    assert outcome.statuses == ["ok"] * 4
    # the forward ran on a worker thread perfbench attributes as "shard"
    spans = tracer.snapshot()["layers"]
    assert "model.forward|shard" in spans
    assert "serve.engine|request" in spans
