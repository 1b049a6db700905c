"""Fingerprint-keyed serving caches: the request fast path (DESIGN.md §11).

Advisor traffic is highly repetitive — the same UDF/query templates recur
at different selectivities (the paper's motivating workload) — but every
request arrives as a *fresh* object: a new JSON body, a new decoded
:class:`~repro.core.joint_graph.JointGraph`, freshly annotated placement
graphs. Identity-keyed caches (:class:`~repro.model.prepared
.PreparedGraphCache`) never hit on such traffic, so before this module
the serving path re-decoded, re-prepared, and re-scored every repeat.

Two content-keyed tiers fix that:

* :class:`PreparedRequestCache` — ``graph_fingerprint(graph)`` →
  :class:`~repro.model.prepared.PreparedGraph`, so a repeated graph skips
  topology preparation no matter which object carries it; plus a payload
  tier (``sha256`` of the raw wire bytes → decoded objects) so a repeated
  HTTP body skips JSON parsing and codec decode entirely.
* :class:`PredictionCache` — ``(model_version, fingerprint, placement,
  selectivity)`` → predicted cost, so a repeated scoring request skips
  the GNN forward pass. Keys carry the engine's model version and the
  cache is invalidated atomically on ``swap_model`` (canary promotion),
  so a promoted model can never serve a predecessor's cached prediction:
  old entries are unreadable (version key) *and* dropped (epoch bump),
  and in-flight writers that started before the swap are rejected by the
  epoch token they captured at read time.

Both caches are shared by every worker of a
:class:`~repro.serve.engine.ShardedEngine` and are internally locked;
the critical sections are dictionary operations only (hashing and
preparation happen outside the lock).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.joint_graph import JointGraph
from repro.model.prepared import (
    PreparedGraph,
    next_prepare_token,
    prepare_graphs,
)

#: prediction-cache key: (model_version, graph_fp, placement, selectivity)
PredictionKey = tuple[int, str, str, float]

#: miss sets at least this large skip the per-graph topology tier and
#: prepare jointly instead: one vectorized Kahn sweep over the disjoint
#: union amortizes better than N rehydrations, and the shared base token
#: keeps batch assembly on its fast same-provenance gather path
JOINT_PREPARE_THRESHOLD = 24


def topology_fingerprint(graph: JointGraph) -> str:
    """Fingerprint of a graph's *shape* only (types, edges, root).

    Template traffic re-sends the same query/UDF structure with
    different feature values (selectivities, cardinalities); graphs that
    share this fingerprint can reuse each other's prepared topology with
    only the per-type feature matrices restacked.
    """
    sha = hashlib.sha256()
    sha.update(f"topology|{graph.root_id}|".encode())
    sha.update("|".join(graph.node_types).encode())
    sha.update(np.asarray(graph.edges, dtype=np.int64).tobytes())
    return sha.hexdigest()[:16]


@dataclass(frozen=True)
class _TopologySkeleton:
    """The feature-independent part of a :class:`PreparedGraph`.

    ``node_meta`` is stored self-based (base row == per-graph feature
    row) and shared read-only by every graph rehydrated from the
    skeleton; only ``features_by_type`` is rebuilt per graph.
    """

    n_nodes: int
    node_meta: np.ndarray
    max_level: int
    level_counts: np.ndarray
    edge_meta: np.ndarray
    #: type code -> node ids of that type in node-id order (the stack
    #: order of the per-type feature matrices)
    ids_by_type: dict[int, np.ndarray]
    root_id: int
    root_level: int


def _skeleton_from(prepared: PreparedGraph) -> _TopologySkeleton:
    meta = prepared.node_meta.copy()
    meta[:, 4] = meta[:, 2]  # self-based: no shared prepare-call matrices
    return _TopologySkeleton(
        n_nodes=prepared.n_nodes,
        node_meta=meta,
        max_level=prepared.max_level,
        level_counts=prepared.level_counts,
        edge_meta=prepared.edge_meta,
        ids_by_type={
            code: np.flatnonzero(prepared.type_code == code)
            for code in prepared.features_by_type
        },
        root_id=prepared.root_id,
        root_level=prepared.root_level,
    )


def _rehydrate(skeleton: _TopologySkeleton, graph: JointGraph) -> PreparedGraph:
    """A :class:`PreparedGraph` for ``graph`` from a shared skeleton —
    no Kahn sweep, no rank computation, just per-type feature stacking."""
    features = graph.features
    features_by_type = {
        code: np.stack([features[i] for i in ids])
        for code, ids in skeleton.ids_by_type.items()
    }
    meta = skeleton.node_meta
    return PreparedGraph(
        n_nodes=skeleton.n_nodes,
        node_meta=meta,
        levels=meta[:, 0],
        max_level=skeleton.max_level,
        type_code=meta[:, 1],
        feat_row=meta[:, 2],
        level_counts=skeleton.level_counts,
        features_by_type=features_by_type,
        base_matrices=features_by_type,
        base_token=next_prepare_token(),
        edge_meta=skeleton.edge_meta,
        edges=skeleton.edge_meta[:, :2],
        root_id=skeleton.root_id,
        root_level=skeleton.root_level,
    )


def payload_fingerprint(payload) -> str:
    """Stable fingerprint of a wire payload (raw bytes or a JSON value).

    Raw request bytes hash directly (the cheap path — clients resend the
    same bytes for the same template); decoded JSON values are
    re-serialized canonically first.
    """
    if isinstance(payload, (bytes, bytearray)):
        blob = bytes(payload)
    else:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(b"payload|" + blob).hexdigest()[:16]


class PreparedRequestCache:
    """Version-independent request-shape caches, keyed by content.

    Three tiers behind one lock:

    * the prepared tier (``graph_fingerprint`` →
      :class:`PreparedGraph`): repeat graphs skip the Kahn sweep /
      type-stacking of :func:`prepare_graphs` entirely;
    * the topology tier (``topology_fingerprint`` → skeleton): a known
      shape with new feature values only restacks its feature matrices;
    * the payload tier (``payload_fingerprint`` of raw wire bytes → the
      decoded object(s)): repeat HTTP bodies skip ``json.loads`` and
      codec decoding.
    """

    def __init__(self, max_graphs: int = 8192, max_payloads: int = 4096):
        self.max_graphs = max_graphs
        self.max_payloads = max_payloads
        self._lock = threading.Lock()
        self._prepared: OrderedDict[str, PreparedGraph] = OrderedDict()
        self._topology: OrderedDict[str, _TopologySkeleton] = OrderedDict()
        self._payloads: OrderedDict[str, object] = OrderedDict()
        self.prepared_hits = 0
        self.prepared_misses = 0
        self.topology_hits = 0
        self.topology_misses = 0
        self.payload_hits = 0
        self.payload_misses = 0

    # -- prepared tier --------------------------------------------------
    def prepared_many(
        self, graphs: list[JointGraph], fps: list[str]
    ) -> list[PreparedGraph]:
        """Resolve prepared topology by content; misses prepare jointly.

        ``fps[i]`` is ``graph_fingerprint(graphs[i])``, computed once by
        the caller (the engine hashes each request's graph on arrival).

        Misses fall through two levels before paying full preparation:
        an exact-content hit reuses the whole :class:`PreparedGraph`; a
        *topology* hit (same types/edges/root, different feature values
        — a known template at a new selectivity) reuses the cached Kahn
        sweep and rank arrays and only restacks the per-type feature
        matrices, the dominant serving-miss shape of template traffic.
        """
        out: list[PreparedGraph | None] = [None] * len(graphs)
        miss_pos: list[int] = []
        with self._lock:
            for i, fp in enumerate(fps):
                prepared = self._prepared.get(fp)
                if prepared is not None and prepared.n_nodes == graphs[i].num_nodes:
                    self.prepared_hits += 1
                    self._prepared.move_to_end(fp)
                    out[i] = prepared
                else:
                    self.prepared_misses += 1
                    miss_pos.append(i)
        if not miss_pos:
            return out  # type: ignore[return-value]

        # topology tier: same-shape graphs rehydrate from the skeleton —
        # but only for small miss sets; large ones amortize better as
        # one joint preparation (see JOINT_PREPARE_THRESHOLD)
        topo_fps = {i: topology_fingerprint(graphs[i]) for i in miss_pos}
        rehydrated: dict[int, _TopologySkeleton] = {}
        cold: list[int] = []
        if len(miss_pos) < JOINT_PREPARE_THRESHOLD:
            with self._lock:
                for i in miss_pos:
                    skeleton = self._topology.get(topo_fps[i])
                    if (
                        skeleton is not None
                        and skeleton.n_nodes == graphs[i].num_nodes
                    ):
                        self.topology_hits += 1
                        self._topology.move_to_end(topo_fps[i])
                        rehydrated[i] = skeleton
                    else:
                        self.topology_misses += 1
                        cold.append(i)
        else:
            cold = list(miss_pos)
        for i, skeleton in rehydrated.items():
            out[i] = _rehydrate(skeleton, graphs[i])

        distinct: list[int] = []
        if cold:
            # first occurrence of each distinct missing fingerprint
            seen: set[str] = set()
            for i in cold:
                if fps[i] not in seen:
                    seen.add(fps[i])
                    distinct.append(i)
            fresh = dict(
                zip(
                    [fps[i] for i in distinct],
                    prepare_graphs([graphs[i] for i in distinct]),
                )
            )
            for i in cold:
                out[i] = fresh[fps[i]]
        skeletons = {
            topo_fps[i]: _skeleton_from(out[i])
            for i in distinct
            if topo_fps[i] not in self._topology
        }
        with self._lock:
            for i in miss_pos:
                self._prepared[fps[i]] = out[i]
            while len(self._prepared) > self.max_graphs:
                self._prepared.popitem(last=False)
            for topo_fp, skeleton in skeletons.items():
                self._topology.setdefault(topo_fp, skeleton)
            while len(self._topology) > self.max_graphs:
                self._topology.popitem(last=False)
        return out  # type: ignore[return-value]

    # -- payload tier ---------------------------------------------------
    def lookup_payload(self, fp: str):
        """The decoded object(s) cached for a wire payload, or ``None``."""
        with self._lock:
            value = self._payloads.get(fp)
            if value is None:
                self.payload_misses += 1
                return None
            self.payload_hits += 1
            self._payloads.move_to_end(fp)
            return value

    def remember_payload(self, fp: str, decoded) -> None:
        with self._lock:
            self._payloads[fp] = decoded
            while len(self._payloads) > self.max_payloads:
                self._payloads.popitem(last=False)

    # -- maintenance ----------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._prepared.clear()
            self._topology.clear()
            self._payloads.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "prepared_entries": len(self._prepared),
                "topology_entries": len(self._topology),
                "payload_entries": len(self._payloads),
                "max_graphs": self.max_graphs,
                "prepared_hits": self.prepared_hits,
                "prepared_misses": self.prepared_misses,
                "topology_hits": self.topology_hits,
                "topology_misses": self.topology_misses,
                "payload_hits": self.payload_hits,
                "payload_misses": self.payload_misses,
            }


class PredictionCache:
    """Version-keyed LRU of served cost predictions.

    A hit returns the exact float an earlier joint forward produced for
    the same ``(model_version, graph, placement, selectivity)``, so the
    cached path is bit-identical to the cold path by construction.

    Invalidation protocol (``swap_model`` / canary promotion): callers
    snapshot :meth:`token` before reading and pass it back to
    :meth:`put_many`. :meth:`invalidate` bumps the epoch and clears the
    table under the same lock, so a writer that scored with the old
    model either lands entirely before the swap (and is cleared with
    everything else) or is rejected by its stale token — a promoted
    model can never be shadowed by a predecessor's cached prediction.
    """

    def __init__(self, max_entries: int = 65536):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[PredictionKey, float] = OrderedDict()
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.rejected_puts = 0

    def token(self) -> int:
        """The current epoch; pass to :meth:`put_many` with the values."""
        return self._epoch

    def get_many(self, keys: list[PredictionKey]) -> list[float | None]:
        with self._lock:
            out: list[float | None] = []
            for key in keys:
                value = self._entries.get(key)
                if value is None:
                    self.misses += 1
                else:
                    self.hits += 1
                    self._entries.move_to_end(key)
                out.append(value)
            return out

    def put_many(
        self, keys: list[PredictionKey], values: list[float], token: int
    ) -> bool:
        """Store predictions; rejected when ``token`` predates a swap."""
        with self._lock:
            if token != self._epoch:
                self.rejected_puts += len(keys)
                return False
            for key, value in zip(keys, values):
                self._entries[key] = float(value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    def invalidate(self) -> None:
        """Atomically drop everything and fence out in-flight writers."""
        with self._lock:
            self._epoch += 1
            self.invalidations += 1
            self._entries.clear()

    def clear(self) -> None:
        self.invalidate()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "epoch": self._epoch,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "invalidations": self.invalidations,
                "rejected_puts": self.rejected_puts,
            }
