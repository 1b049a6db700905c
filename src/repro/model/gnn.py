"""Typed topological message-passing GNN (§III-D).

Architecture, following the GNN-MLP design of the paper (itself based on
the zero-shot cost model [11]):

1. *node encoding*: a per-node-type MLP embeds raw features into a shared
   hidden space (this is where "each node type translates into a node
   type of the GNN");
2. *topological message passing*: nodes are processed level by level in
   topological order; each node combines its own encoding with the mean
   of its predecessors' hidden states through an update MLP;
3. *readout*: the root node's state (the plan's top operator, which has
   aggregated the whole query and UDF) feeds a regression MLP that
   predicts log(runtime).

The model computes in ``GNNConfig.dtype`` — float32 by default, float64
as the opt-in parity mode (DESIGN.md §8). Batches prepared with the
matching dtype flow through without copies; mismatched batches are cast
on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding import FEATURE_DIMS, NODE_TYPES
from repro.model.batching import GraphBatch
from repro.nn.layers import MLP, Module
from repro.nn.tensor import Tensor, concat, gather_rows, scatter_add

#: the largest log runtime whose ``exp`` is finite: a diverged forward
#: answers the largest float instead of ``inf``, which strict JSON rejects
MAX_LOG_RUNTIME = float(np.log(np.finfo(np.float64).max))


@dataclass
class GNNConfig:
    hidden_dim: int = 32
    encoder_hidden: tuple[int, ...] = (32,)
    update_hidden: tuple[int, ...] = (32,)
    head_hidden: tuple[int, ...] = (32, 16)
    dropout: float = 0.0
    #: aggregate predecessor states by sum AND mean (sum lets costs
    #: accumulate along operator chains; mean is scale-free). When False
    #: only the mean is used.
    sum_aggregation: bool = True
    #: readout = concat(root state, sum-pool over all node states). The
    #: sum-pool shortcut lets total cost be a sum of per-node terms
    #: without travelling the whole DAG depth (reproduction adaptation
    #: for the small numpy GNN; disable for the paper-faithful variant).
    sum_pool_readout: bool = True
    #: use one update MLP per node type (paper-faithful but slower) or a
    #: single shared update MLP (type information is already injected by
    #: the per-type encoders).
    per_type_updates: bool = False
    node_types: tuple[str, ...] = field(default_factory=lambda: NODE_TYPES)
    seed: int = 0
    #: compute precision: "float32" (default, fast) or "float64"
    #: (parity mode for equivalence checks against the reference
    #: pipeline). Initialization draws the same rng stream either way.
    dtype: str = "float32"


class CostGNN(Module):
    """The GNN-MLP cost model over batched joint graphs."""

    def __init__(self, config: GNNConfig | None = None):
        super().__init__()
        self.config = config or GNNConfig()
        cfg = self.config
        dtype = np.dtype(cfg.dtype)
        rng = np.random.default_rng(cfg.seed)
        self.encoders: dict[str, MLP] = {}
        for gtype in cfg.node_types:
            encoder = MLP(
                FEATURE_DIMS[gtype],
                list(cfg.encoder_hidden),
                cfg.hidden_dim,
                dropout_p=cfg.dropout,
                rng=rng,
                dtype=dtype,
            )
            self.add_module(f"enc_{gtype}", encoder)
            self.encoders[gtype] = encoder
        update_in = (3 if cfg.sum_aggregation else 2) * cfg.hidden_dim
        if cfg.per_type_updates:
            self.updates: dict[str, MLP] = {}
            for gtype in cfg.node_types:
                update = MLP(
                    update_in, list(cfg.update_hidden), cfg.hidden_dim,
                    dropout_p=cfg.dropout, rng=rng, dtype=dtype,
                )
                self.add_module(f"upd_{gtype}", update)
                self.updates[gtype] = update
            self.shared_update = None
        else:
            self.shared_update = MLP(
                update_in, list(cfg.update_hidden), cfg.hidden_dim,
                dropout_p=cfg.dropout, rng=rng, dtype=dtype,
            )
            self.add_module("upd_shared", self.shared_update)
            self.updates = {}
        head_in = cfg.hidden_dim * (2 if cfg.sum_pool_readout else 1)
        self.head = MLP(
            head_in, list(cfg.head_hidden), 1, dropout_p=cfg.dropout, rng=rng,
            dtype=dtype,
        )
        self.add_module("head", self.head)

    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.config.dtype)

    # ------------------------------------------------------------------
    def _encode_batch(self, batch: GraphBatch) -> Tensor | None:
        """Run every per-type encoder once over the whole batch.

        Returns the type-major concatenation of encodings; per level the
        forward pass gathers its rows via ``LevelData.encode_rows``.
        None when the batch carries no type-major layout (reference
        batches), falling back to per-level encoding.
        """
        if batch.type_feats is None:
            return None
        dtype = self.dtype
        parts = [
            self.encoders[gtype](Tensor(features.astype(dtype, copy=False)))
            for gtype, features in batch.type_feats.items()
        ]
        return parts[0] if len(parts) == 1 else concat(parts, axis=0)

    def _encode_level(self, level, encoded_all: Tensor | None) -> Tensor:
        """This level's (n_nodes, hidden) encodings."""
        if encoded_all is not None:
            return gather_rows(encoded_all, level.encode_rows)
        dtype = self.dtype
        parts = []
        for gtype, (features, positions) in level.type_groups.items():
            encoded = self.encoders[gtype](
                Tensor(features.astype(dtype, copy=False))
            )
            # positions within one type group are distinct by
            # construction, so the scatter is a plain assignment
            parts.append(scatter_add(encoded, positions, level.n_nodes, unique=True))
        out = parts[0]
        for part in parts[1:]:
            out = out + part
        return out

    def _update_level(self, level, combined: Tensor) -> Tensor:
        """Apply (per-type or shared) update MLPs to the combined input."""
        if self.shared_update is not None:
            return self.shared_update(combined)
        parts = []
        for gtype, (_, positions) in level.type_groups.items():
            rows = gather_rows(combined, positions)
            updated = self.updates[gtype](rows)
            parts.append(scatter_add(updated, positions, level.n_nodes, unique=True))
        out = parts[0]
        for part in parts[1:]:
            out = out + part
        return out

    def forward(self, batch: GraphBatch) -> Tensor:
        """Predicted log(runtime), shape (n_graphs,)."""
        dtype = self.dtype
        encoded_all = self._encode_batch(batch)
        level_states: list[Tensor] = []
        for lv, level in enumerate(batch.levels):
            if level.n_nodes == 0:
                level_states.append(
                    Tensor(np.zeros((0, self.config.hidden_dim), dtype=dtype))
                )
                continue
            self_enc = self._encode_level(level, encoded_all)
            if lv == 0 or not level.edge_groups:
                level_states.append(self_enc)
                continue
            agg_parts = []
            for src_level, src_idx, dst_idx in level.edge_groups:
                messages = gather_rows(level_states[src_level], src_idx)
                agg_parts.append(scatter_add(messages, dst_idx, level.n_nodes))
            agg_sum = agg_parts[0]
            for part in agg_parts[1:]:
                agg_sum = agg_sum + part
            inv_indegree = (1.0 / level.indegree).astype(dtype, copy=False)
            agg_mean = agg_sum * Tensor(inv_indegree)
            if self.config.sum_aggregation:
                combined = concat([self_enc, agg_sum, agg_mean], axis=-1)
            else:
                combined = concat([self_enc, agg_mean], axis=-1)
            level_states.append(self._update_level(level, combined))

        # Readout: gather each graph's root state, grouped by root level.
        root_order = np.argsort(batch.root_levels, kind="stable")
        root_lvs, first = np.unique(batch.root_levels[root_order], return_index=True)
        bounds = np.append(first, len(root_order))
        parts = []
        for lv, start, stop in zip(root_lvs, bounds[:-1], bounds[1:]):
            graph_indices = root_order[start:stop]
            rows = gather_rows(
                level_states[int(lv)], batch.root_positions[graph_indices]
            )
            parts.append(
                scatter_add(rows, graph_indices, batch.n_graphs, unique=True)
            )
        pooled = parts[0]
        for part in parts[1:]:
            pooled = pooled + part
        if self.config.sum_pool_readout:
            sum_parts = []
            for lv, level in enumerate(batch.levels):
                if level.n_nodes == 0:
                    continue
                sum_parts.append(
                    scatter_add(level_states[lv], level.graph_index, batch.n_graphs)
                )
            graph_sum = sum_parts[0]
            for part in sum_parts[1:]:
                graph_sum = graph_sum + part
            pooled = concat([pooled, graph_sum], axis=-1)
        prediction = self.head(pooled)  # (B, 1) log runtime
        return prediction

    # ------------------------------------------------------------------
    def predict_runtimes(self, batch: GraphBatch) -> np.ndarray:
        """Runtimes in seconds (eval mode, no tape)."""
        was_training = self.training
        self.eval()
        log_pred = self.forward(batch).data.reshape(-1).astype(np.float64)
        if was_training:
            self.train()
        return np.exp(np.minimum(log_pred, MAX_LOG_RUNTIME))
