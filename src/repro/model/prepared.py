"""Prepared graphs and topology caches for the batching pipeline.

Batching a set of joint graphs splits into two phases (DESIGN.md §8):

1. *per-graph preparation* (:func:`prepare_graphs`): topological levels,
   integer-coded node types, per-type feature matrices, and the edge
   array. This depends only on the graph and is computed **once** per
   graph, ever — :class:`PreparedGraphCache` memoizes it by identity.
   Cold batches prepare all their graphs *jointly*: levels come from a
   single vectorized Kahn sweep over the disjoint union and feature
   matrices from one ``np.stack`` per node type across the whole batch,
   so the per-graph numpy overhead is paid once per batch, not 512×.
2. *batch assembly* (:func:`repro.model.batching.make_batch_prepared`):
   pure numpy group-bys over the concatenated prepared arrays.

Training loops, prediction paths, and the fold experiments all funnel
through the module-level default caches so that identical topology is
never recomputed across shards, epochs, folds, or models.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import ModelError

#: stable integer code per node type (index into ``enc.NODE_TYPES``).
TYPE_CODE: dict[str, int] = {t: i for i, t in enumerate(enc.NODE_TYPES)}
NUM_TYPES = len(enc.NODE_TYPES)

#: monotonically increasing id per :func:`prepare_graphs` call
_PREPARE_TOKEN = 0


def next_prepare_token() -> int:
    """A fresh base token (new prepare call / unpickle / rehydration)."""
    global _PREPARE_TOKEN
    _PREPARE_TOKEN += 1
    return _PREPARE_TOKEN


def group_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run keys and [start, stop) bounds of runs in a sorted key array.

    Returns ``(keys, bounds)`` with ``len(bounds) == len(keys) + 1`` —
    the standard follow-up to a stable argsort over a composite group
    key (np.unique would redundantly re-sort).
    """
    n = sorted_keys.size
    if n == 0:
        return sorted_keys, np.zeros(1, dtype=np.int64)
    first = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    )
    return sorted_keys[first], np.append(first, n)


def _levels_from_arrays(n_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Vectorized Kahn sweeps over an edge array (possibly a disjoint union).

    Each sweep retires the whole current frontier at once: out-edges are
    expanded through a CSR adjacency with ``np.repeat`` range arithmetic,
    successor levels raised with ``np.maximum.at`` and in-degrees consumed
    with ``np.subtract.at`` — the Python loop runs once per *depth*, not
    once per node or edge.
    """
    level = np.zeros(n_nodes, dtype=np.int64)
    if src.size == 0:
        return level
    indeg = np.bincount(dst, minlength=n_nodes)
    out_counts = np.bincount(src, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(out_counts, out=indptr[1:])
    sorted_dst = dst[np.argsort(src, kind="stable")]

    frontier = np.flatnonzero(indeg == 0)
    seen = int(frontier.size)
    while frontier.size:
        counts = out_counts[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        starts = indptr[frontier]
        offsets = np.cumsum(counts) - counts
        edge_idx = np.repeat(starts - offsets, counts) + np.arange(total)
        succ = sorted_dst[edge_idx]
        np.maximum.at(level, succ, np.repeat(level[frontier] + 1, counts))
        np.subtract.at(indeg, succ, 1)
        touched = np.unique(succ)
        frontier = touched[indeg[touched] == 0]
        seen += int(frontier.size)
    if seen != n_nodes:
        raise ModelError("graph contains a cycle; joint graphs must be DAGs")
    return level


def compute_levels(n_nodes: int, edges) -> np.ndarray:
    """Longest-path-from-source level per node (vectorized Kahn sweeps)."""
    edge_arr = np.asarray(edges, dtype=np.int64)
    if edge_arr.size == 0:
        return np.zeros(n_nodes, dtype=np.int64)
    edge_arr = edge_arr.reshape(-1, 2)
    return _levels_from_arrays(n_nodes, edge_arr[:, 0], edge_arr[:, 1])


@dataclass(frozen=True)
class PreparedGraph:
    """Per-graph topology, computed once and shared by every batch."""

    n_nodes: int
    #: (n, 5) int64 [level, type code, feature row, rank within level,
    #: row within the shared base matrix] — one contiguous block so
    #: batch assembly concatenates a single array per graph
    node_meta: np.ndarray
    #: topological level per node (n,) — column view of ``node_meta``
    levels: np.ndarray
    max_level: int
    #: integer node-type code per node (n,), index into ``enc.NODE_TYPES``
    type_code: np.ndarray
    #: row of each node inside its type's feature matrix (n,)
    feat_row: np.ndarray
    #: nodes per level (max_level + 1,)
    level_counts: np.ndarray
    #: type code -> (k, feature_dim) float64 matrix, rows in node-id order
    features_by_type: dict[int, np.ndarray]
    #: the shared per-type base matrices of the prepare call this graph
    #: came from; all graphs of one call alias the same dict. Retention
    #: tradeoff: one cached graph keeps its whole call's matrices alive
    #: — at most ~2x the features of the graphs themselves, since call
    #: members are cached and evicted together in practice
    base_matrices: dict[int, np.ndarray]
    #: identifies the prepare call: batches whose graphs all carry the
    #: same token gather features straight from ``base_matrices``
    base_token: int
    #: (e, 4) int64 [src, dst, src level, dst level]
    edge_meta: np.ndarray
    #: (e, 2) int64 edge array — column view of ``edge_meta``
    edges: np.ndarray
    root_id: int
    root_level: int

    # -- pickling ------------------------------------------------------
    # Cache entries must be pickle-stable: a serialized PreparedGraph is
    # self-contained (no alias into its prepare call's shared base
    # matrices, which would drag the whole call's features through the
    # pickle) and base_token never collides across processes (tokens
    # come from a per-process counter, so a shipped token could falsely
    # match a live prepare call in the receiver).
    def __getstate__(self) -> dict:
        state = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        # per-graph feature copies instead of views into the shared base
        # (a real .copy(): contiguous slices pass ascontiguousarray
        # unchanged, which would let copy.copy() retain the whole call)
        state["features_by_type"] = {
            code: mat.copy() for code, mat in self.features_by_type.items()
        }
        state["base_matrices"] = None
        state["base_token"] = None
        # column views of node_meta/edge_meta — rebuilt on load
        for name in ("levels", "type_code", "feat_row", "edges"):
            state[name] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # copy before mutating: under copy.copy() the state dict
        # aliases the live source object's arrays
        meta = state["node_meta"] = state["node_meta"].copy()
        edge_meta = state["edge_meta"]
        state["levels"] = meta[:, 0]
        state["type_code"] = meta[:, 1]
        state["feat_row"] = meta[:, 2]
        state["edges"] = edge_meta[:, :2]
        # column 4 held the row inside the prepare call's *shared* type
        # block; the unpickled graph's base is its own per-graph
        # matrices, so the base row is now the per-graph feature row
        # (otherwise the same-token batching fast path would gather
        # rows offset by sibling graphs of the original call)
        meta[:, 4] = meta[:, 2]
        # the graph is its own base: batches of co-unpickled graphs use
        # the general per-graph gather path (distinct fresh tokens)
        state["base_matrices"] = state["features_by_type"]
        state["base_token"] = next_prepare_token()
        for name, value in state.items():
            object.__setattr__(self, name, value)


def prepare_graphs(graphs: list[JointGraph]) -> list[PreparedGraph]:
    """Compute the reusable topology of many graphs in one joint pass."""
    n_graphs = len(graphs)
    if n_graphs == 0:
        return []
    n_per = np.asarray([g.num_nodes for g in graphs], dtype=np.int64)
    node_offset = np.zeros(n_graphs + 1, dtype=np.int64)
    np.cumsum(n_per, out=node_offset[1:])
    n_total = int(node_offset[-1])
    graph_idx = np.repeat(np.arange(n_graphs, dtype=np.int64), n_per)

    edge_arrays = [
        np.asarray(g.edges, dtype=np.int64).reshape(-1, 2) for g in graphs
    ]
    e_per = np.asarray([e.shape[0] for e in edge_arrays], dtype=np.int64)
    if int(e_per.sum()):
        shift = np.repeat(node_offset[:-1], e_per)
        src = np.concatenate([e[:, 0] for e in edge_arrays]) + shift
        dst = np.concatenate([e[:, 1] for e in edge_arrays]) + shift
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    # One Kahn sweep over the disjoint union == per-graph level sets.
    levels_cat = _levels_from_arrays(n_total, src, dst)

    type_cat = np.fromiter(
        (TYPE_CODE[t] for t in itertools.chain.from_iterable(
            g.node_types for g in graphs
        )),
        dtype=np.int64,
        count=n_total,
    )
    type_split = np.split(type_cat, node_offset[1:-1])

    # One np.stack per node type over the whole batch, ordered by
    # (type, graph, node); each graph's per-type matrix is a view slice.
    features_cat: list[np.ndarray] = []
    for g in graphs:
        features_cat.extend(g.features)
    t_order = np.argsort(type_cat, kind="stable")
    per_graph_type_counts = np.zeros((n_graphs, NUM_TYPES), dtype=np.int64)
    np.add.at(per_graph_type_counts, (graph_idx, type_cat), 1)
    type_totals = per_graph_type_counts.sum(axis=0)
    type_block_start = np.zeros(NUM_TYPES + 1, dtype=np.int64)
    np.cumsum(type_totals, out=type_block_start[1:])
    #: offset of graph g's sub-block inside its type block
    graph_block_base = np.zeros_like(per_graph_type_counts)
    np.cumsum(per_graph_type_counts[:-1], axis=0, out=graph_block_base[1:])
    # rank of each node inside its type block, then inside its graph's
    # sub-block == its feature-matrix row
    rank_in_type = np.empty(n_total, dtype=np.int64)
    rank_in_type[t_order] = (
        np.arange(n_total, dtype=np.int64) - type_block_start[type_cat[t_order]]
    )
    feat_row_cat = rank_in_type - graph_block_base[graph_idx, type_cat]

    # rank of each node within its (graph, level) group, in node-id
    # order — batch assembly turns this into batch-local positions with
    # a cumulative per-graph offset instead of re-sorting every call.
    max_all = int(levels_cat.max()) if n_total else 0
    gl_key = graph_idx * np.int64(max_all + 1) + levels_cat
    gl_order = np.argsort(gl_key, kind="stable")
    sorted_gl = gl_key[gl_order]
    is_start = (
        np.concatenate(([True], sorted_gl[1:] != sorted_gl[:-1]))
        if n_total
        else np.zeros(0, dtype=bool)
    )
    group_start = np.flatnonzero(is_start)
    group_id = np.cumsum(is_start) - 1
    rank_in_level = np.empty(n_total, dtype=np.int64)
    rank_in_level[gl_order] = (
        np.arange(n_total, dtype=np.int64) - group_start[group_id]
    )

    node_meta_cat = np.column_stack(
        (levels_cat, type_cat, feat_row_cat, rank_in_level, rank_in_type)
    )
    node_meta_split = np.split(node_meta_cat, node_offset[1:-1])

    if int(e_per.sum()):
        edge_meta_cat = np.column_stack(
            (src - shift, dst - shift, levels_cat[src], levels_cat[dst])
        )
    else:
        edge_meta_cat = np.zeros((0, 4), dtype=np.int64)
    edge_offset = np.zeros(n_graphs + 1, dtype=np.int64)
    np.cumsum(e_per, out=edge_offset[1:])
    edge_meta_split = np.split(edge_meta_cat, edge_offset[1:-1])

    type_matrices: dict[int, np.ndarray] = {}
    for code in np.unique(type_cat):
        code = int(code)
        start, stop = type_block_start[code], type_block_start[code + 1]
        block = t_order[start:stop]
        type_matrices[code] = np.stack(
            [features_cat[i] for i in block]
        ).astype(np.float64, copy=False)

    token = next_prepare_token()
    prepared: list[PreparedGraph] = []
    for gi, graph in enumerate(graphs):
        features_by_type: dict[int, np.ndarray] = {}
        for code in np.unique(type_split[gi]):
            code = int(code)
            base = int(graph_block_base[gi, code])
            count = int(per_graph_type_counts[gi, code])
            features_by_type[code] = type_matrices[code][base : base + count]
        meta = node_meta_split[gi]
        levels = meta[:, 0]
        max_level = int(levels.max()) if levels.size else 0
        edge_meta = edge_meta_split[gi]
        prepared.append(
            PreparedGraph(
                n_nodes=int(n_per[gi]),
                node_meta=meta,
                levels=levels,
                max_level=max_level,
                type_code=meta[:, 1],
                feat_row=meta[:, 2],
                level_counts=np.bincount(levels, minlength=max_level + 1),
                features_by_type=features_by_type,
                base_matrices=type_matrices,
                base_token=token,
                edge_meta=edge_meta,
                edges=edge_meta[:, :2],
                root_id=graph.root_id,
                root_level=int(levels[graph.root_id]) if levels.size else 0,
            )
        )
    return prepared


def prepare_graph(graph: JointGraph) -> PreparedGraph:
    """Compute the reusable topology of one joint graph."""
    return prepare_graphs([graph])[0]


class PreparedGraphCache:
    """Identity-keyed LRU of ``JointGraph -> PreparedGraph``.

    Joint graphs are mutable dataclasses and not hashable, so entries are
    keyed by ``id()``; the graph object is retained in the entry to keep
    the id stable for the lifetime of the cache slot.
    """

    def __init__(self, max_graphs: int = 16384):
        self.max_graphs = max_graphs
        self._entries: OrderedDict[int, tuple[JointGraph, PreparedGraph]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(self, graph: JointGraph) -> PreparedGraph:
        return self.get_many([graph])[0]

    def get_many(self, graphs: list[JointGraph]) -> list[PreparedGraph]:
        """Resolve many graphs at once; misses are prepared jointly.

        Entries are keyed by identity, so a graph mutated after first
        batching would otherwise be served stale; node/edge counts are
        cross-checked on every hit and a changed graph is re-prepared.
        (In-place edits of existing feature vectors are not detected —
        joint graphs are built once and never mutated in this codebase.)
        """
        out: list[PreparedGraph | None] = [None] * len(graphs)
        miss_pos: list[int] = []
        miss_ids: set[int] = set()
        for i, graph in enumerate(graphs):
            entry = self._entries.get(id(graph))
            if entry is not None:
                prepared = entry[1]
                if prepared.n_nodes != graph.num_nodes or prepared.edge_meta.shape[
                    0
                ] != len(graph.edges):
                    del self._entries[id(graph)]  # mutated since prepared
                    entry = None
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(id(graph))
                out[i] = entry[1]
            elif id(graph) in miss_ids:
                miss_pos.append(i)  # duplicate object in this very call
            else:
                self.misses += 1
                miss_ids.add(id(graph))
                miss_pos.append(i)
        # first occurrence of each distinct missing graph, in call order
        distinct: list[int] = []
        seen: set[int] = set()
        for i in miss_pos:
            if id(graphs[i]) not in seen:
                seen.add(id(graphs[i]))
                distinct.append(i)
        if distinct:
            fresh: dict[int, PreparedGraph] = {}
            for i, prepared in zip(
                distinct, prepare_graphs([graphs[i] for i in distinct])
            ):
                fresh[id(graphs[i])] = prepared
                self._entries[id(graphs[i])] = (graphs[i], prepared)
            # resolve results before eviction: a call larger than the
            # cache capacity must still return every prepared graph
            for i in miss_pos:
                if out[i] is None:
                    out[i] = fresh[id(graphs[i])]
            while len(self._entries) > self.max_graphs:
                self._entries.popitem(last=False)
        return out  # type: ignore[return-value]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Occupancy + hit counters (surfaced by the serving stats API)."""
        return {
            "entries": len(self._entries),
            "max_graphs": self.max_graphs,
            "hits": self.hits,
            "misses": self.misses,
        }


_GRAPH_CACHE = PreparedGraphCache()


def default_graph_cache() -> PreparedGraphCache:
    """The process-wide prepared-graph cache."""
    return _GRAPH_CACHE
