"""Training loop for graph-based cost models.

The loop never rebuilds topology: graphs are prepared once through the
process-wide :class:`~repro.model.prepared.PreparedGraphCache`, shards
are assembled into batches up front, and epochs only shuffle index
arrays over the cached shard batches (DESIGN.md §8). The pre-refactor
behavior — a fresh random partition every epoch — remains available as
``TrainConfig.reshard_each_epoch`` and is the parity mode used by the
equivalence tests (together with ``GNNConfig(dtype="float64")``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.joint_graph import JointGraph
from repro.eval.metrics import q_error_summary
from repro.model.batching import make_batch, make_batch_prepared
from repro.model.gnn import CostGNN
from repro.model.prepared import default_graph_cache, prepare_graphs
from repro.nn.loss import log_mse_loss
from repro.nn.optim import Adam, clip_grad_norm


@dataclass
class TrainConfig:
    epochs: int = 60
    lr: float = 3e-3
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    #: number of random shards per epoch (stochasticity without paying the
    #: per-small-batch Python overhead).
    shards_per_epoch: int = 4
    seed: int = 0
    verbose: bool = False
    #: early-stopping patience on training loss plateaus (epochs); 0 = off.
    patience: int = 0
    #: draw a fresh random partition every epoch instead of shuffling the
    #: order of fixed, pre-assembled shard batches. Slower (one batch
    #: assembly per shard per epoch) but reproduces the reference
    #: training trajectory exactly — the float64 parity mode. Exact
    #: parity assumes dropout == 0 (the default): with dropout active
    #: the batch-level encoders consume the rng in a different order
    #: than the reference's per-level encoder calls.
    reshard_each_epoch: bool = False


@dataclass
class TrainResult:
    losses: list[float]
    final_loss: float
    epochs_run: int


def train_cost_model(
    model: CostGNN,
    graphs: list[JointGraph],
    runtimes: np.ndarray | list[float],
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train ``model`` to predict log runtimes of ``graphs``."""
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    runtimes = np.asarray(runtimes, dtype=np.float64)
    params = model.parameters()
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    dtype = getattr(model, "dtype", np.dtype(np.float64))
    n = len(graphs)
    n_shards = max(1, min(config.shards_per_epoch, n))
    graph_cache = default_graph_cache()
    prepared = graph_cache.get_many(graphs)

    shard_sizes: list[int] = []
    shard_batches = []
    if not config.reshard_each_epoch:
        base_order = rng.permutation(n)
        for shard in np.array_split(base_order, n_shards):
            if len(shard) == 0:
                continue
            shard_sizes.append(len(shard))
            shard_batches.append(
                make_batch_prepared(
                    [prepared[i] for i in shard], runtimes[shard], dtype=dtype
                )
            )

    losses: list[float] = []
    best = float("inf")
    stall = 0
    model.train()
    for epoch in range(config.epochs):
        if config.reshard_each_epoch:
            order = rng.permutation(n)
            epoch_shards = [s for s in np.array_split(order, n_shards) if len(s)]
            epoch_batches = [
                make_batch_prepared(
                    [prepared[i] for i in s], runtimes[s], dtype=dtype
                )
                for s in epoch_shards
            ]
            epoch_sizes = [len(s) for s in epoch_shards]
        else:
            shard_order = rng.permutation(len(shard_batches))
            epoch_batches = [shard_batches[i] for i in shard_order]
            epoch_sizes = [shard_sizes[i] for i in shard_order]
        epoch_loss = 0.0
        for batch, size in zip(epoch_batches, epoch_sizes):
            optimizer.zero_grad()
            prediction = model.forward(batch)
            loss = log_mse_loss(prediction, batch.targets.reshape(-1, 1))
            loss.backward()
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            epoch_loss += loss.item() * size
        epoch_loss /= n
        losses.append(epoch_loss)
        if config.verbose and (epoch % 10 == 0 or epoch == config.epochs - 1):
            print(f"  epoch {epoch:3d}  loss={epoch_loss:.4f}")
        if config.patience:
            if epoch_loss < best - 1e-4:
                best = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
    return TrainResult(losses=losses, final_loss=losses[-1], epochs_run=len(losses))


def evaluate_cost_model(
    model: CostGNN,
    graphs: list[JointGraph],
    runtimes: np.ndarray | list[float],
    batch_size: int = 512,
) -> dict[str, float]:
    """Q-error summary of ``model`` on held-out graphs."""
    predictions = predict_runtimes(model, graphs, batch_size)
    return q_error_summary(predictions, np.asarray(runtimes, dtype=np.float64))


def predict_runtimes(
    model: CostGNN, graphs: list[JointGraph], batch_size: int = 512
) -> np.ndarray:
    """Predicted runtimes (seconds) for a list of graphs.

    Chunks under 16 graphs (the advisor's per-decision selectivity grid
    of freshly built graphs) are prepared jointly without a cache; larger
    chunks go through :func:`~repro.model.batching.make_batch`, which
    reuses prepared topology from the process-wide graph cache.
    """
    dtype = getattr(model, "dtype", np.dtype(np.float64))
    predictions = np.empty(len(graphs), dtype=np.float64)
    for start in range(0, len(graphs), batch_size):
        chunk = graphs[start : start + batch_size]
        if len(chunk) < 16:
            batch = make_batch_prepared(
                prepare_graphs(chunk), np.zeros(len(chunk)), dtype=dtype
            )
        else:
            batch = make_batch(chunk, np.zeros(len(chunk)), dtype=dtype)
        predictions[start : start + len(chunk)] = model.predict_runtimes(batch)
    return predictions
