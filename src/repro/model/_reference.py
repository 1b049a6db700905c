"""Retained reference implementation of the pre-vectorization batching.

This module preserves, verbatim, the original pure-Python ``compute_levels``
and ``make_batch`` that :mod:`repro.model.batching` replaced with vectorized
numpy group-bys (DESIGN.md §8). The equivalence tests
(``tests/test_model_batching_equiv.py``) assert that the vectorized pipeline
reproduces this implementation's level structure byte-for-byte and its
forward/backward results to float64 precision.

Do not use it in production paths — it re-runs per-node and per-edge Python
loops on every call.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.joint_graph import JointGraph
from repro.exceptions import ModelError
from repro.model.batching import GraphBatch, LevelData


def reference_compute_levels(
    n_nodes: int, edges: list[tuple[int, int]]
) -> np.ndarray:
    """Longest-path-from-source level per node (scalar Kahn's algorithm)."""
    indeg = np.zeros(n_nodes, dtype=np.int64)
    succs: dict[int, list[int]] = defaultdict(list)
    for src, dst in edges:
        indeg[dst] += 1
        succs[src].append(dst)
    level = np.zeros(n_nodes, dtype=np.int64)
    queue = [i for i in range(n_nodes) if indeg[i] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for succ in succs.get(node, ()):
            level[succ] = max(level[succ], level[node] + 1)
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    if seen != n_nodes:
        raise ModelError("graph contains a cycle; joint graphs must be DAGs")
    return level


def reference_make_batch(
    graphs: list[JointGraph],
    targets: np.ndarray | list[float],
    meta: list[dict] | None = None,
) -> GraphBatch:
    """Merge graphs into one level-indexed batch (per-node Python loops)."""
    if not graphs:
        raise ModelError("cannot batch zero graphs")
    # Global ids: (graph_index, node_id) -> (level, local position).
    level_of: list[np.ndarray] = []
    for graph in graphs:
        level_of.append(reference_compute_levels(graph.num_nodes, graph.edges))
    max_level = int(max(lv.max() if len(lv) else 0 for lv in level_of))

    # Assign local positions per level.
    position: list[np.ndarray] = []
    level_sizes = np.zeros(max_level + 1, dtype=np.int64)
    for gi, graph in enumerate(graphs):
        pos = np.zeros(graph.num_nodes, dtype=np.int64)
        for node in range(graph.num_nodes):
            lv = level_of[gi][node]
            pos[node] = level_sizes[lv]
            level_sizes[lv] += 1
        position.append(pos)

    # Group node features by (level, type); track each node's graph.
    feats_by: dict[tuple[int, str], list[np.ndarray]] = defaultdict(list)
    pos_by: dict[tuple[int, str], list[int]] = defaultdict(list)
    graph_index = [np.zeros(int(size), dtype=np.int64) for size in level_sizes]
    for gi, graph in enumerate(graphs):
        for node in range(graph.num_nodes):
            lv = int(level_of[gi][node])
            gtype = graph.node_types[node]
            feats_by[(lv, gtype)].append(graph.features[node])
            pos_by[(lv, gtype)].append(int(position[gi][node]))
            graph_index[lv][position[gi][node]] = gi

    # Group edges by (dst level, src level).
    edges_by: dict[tuple[int, int], tuple[list[int], list[int]]] = defaultdict(
        lambda: ([], [])
    )
    indegree = [np.zeros(int(size), dtype=np.float64) for size in level_sizes]
    for gi, graph in enumerate(graphs):
        for src, dst in graph.edges:
            src_lv, dst_lv = int(level_of[gi][src]), int(level_of[gi][dst])
            src_list, dst_list = edges_by[(dst_lv, src_lv)]
            src_list.append(int(position[gi][src]))
            dst_list.append(int(position[gi][dst]))
            indegree[dst_lv][position[gi][dst]] += 1.0

    levels: list[LevelData] = []
    for lv in range(max_level + 1):
        type_groups = {
            gtype: (
                np.vstack(feats_by[(l, gtype)]),
                np.asarray(pos_by[(l, gtype)], dtype=np.int64),
            )
            for (l, gtype) in feats_by
            if l == lv
        }
        edge_groups = [
            (src_lv, np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64))
            for (dst_lv, src_lv), (srcs, dsts) in edges_by.items()
            if dst_lv == lv
        ]
        levels.append(
            LevelData(
                n_nodes=int(level_sizes[lv]),
                type_groups=type_groups,
                edge_groups=edge_groups,
                indegree=np.maximum(indegree[lv], 1.0).reshape(-1, 1),
                graph_index=graph_index[lv],
            )
        )

    roots = [
        (int(level_of[gi][graph.root_id]), int(position[gi][graph.root_id]))
        for gi, graph in enumerate(graphs)
    ]
    root_levels = np.asarray([lv for lv, _ in roots], dtype=np.int64)
    root_positions = np.asarray([pos for _, pos in roots], dtype=np.int64)
    return GraphBatch(
        levels=levels,
        roots=roots,
        targets=np.asarray(targets, dtype=np.float64),
        n_graphs=len(graphs),
        root_levels=root_levels,
        root_positions=root_positions,
        meta=meta or [{} for _ in graphs],
    )
