"""JSON codecs for the serving wire format.

The HTTP front end speaks plain JSON; these helpers convert between the
wire shape and the library objects. Two payload kinds exist:

* **joint graphs** (``/predict``) — typed nodes with raw feature
  vectors, edges, and a root; exactly the :class:`JointGraph` fields;
* **queries** (``/advise``) — the declarative :class:`Query` spec,
  including the UDF's source code, so a remote client can ask for a
  placement decision without sharing a Python process.

Decoders validate shapes and raise :class:`ServingError` on malformed
payloads so the HTTP layer can map them to 400 responses.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.advisor.advisor import AdvisorDecision
from repro.core.joint_graph import JointGraph
from repro.exceptions import ServingError
from repro.feedback.collector import FeedbackRecord
from repro.sql.expressions import ColumnRef, CompareOp
from repro.sql.plan import AggFunc
from repro.sql.query import (
    AggSpec,
    FilterSpec,
    JoinSpec,
    Query,
    UDFRole,
    UDFSpec,
)
from repro.storage.datatypes import DataType
from repro.udf.udf import UDF, BranchInfo, LoopInfo


# -- joint graphs ------------------------------------------------------
def graph_to_json(graph: JointGraph) -> dict:
    return {
        "node_types": list(graph.node_types),
        "features": [np.asarray(f, dtype=np.float64).tolist() for f in graph.features],
        "edges": [[int(s), int(d)] for s, d in graph.edges],
        "root_id": int(graph.root_id),
    }


def graph_from_json(payload: dict) -> JointGraph:
    try:
        node_types = payload["node_types"]
        features = payload["features"]
        edges = payload["edges"]
        root_id = int(payload["root_id"])
        n_nodes = len(node_types)
        n_features = len(features)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ServingError(f"malformed graph payload: {exc}") from exc
    if n_nodes != n_features:
        raise ServingError(
            f"graph payload has {n_nodes} node types but "
            f"{n_features} feature vectors"
        )
    if not 0 <= root_id < n_nodes:
        raise ServingError(f"graph root_id {root_id} is not one of its {n_nodes} nodes")
    graph = JointGraph()
    try:
        for gtype, feats in zip(node_types, features):
            graph.add_node(gtype, np.asarray(feats, dtype=np.float64))
        for src, dst in edges:
            graph.add_edge(int(src), int(dst))
        # node ids and feature values are checked in bulk, once per
        # graph: a bad id would fail deep inside prepare, and a NaN or
        # inf feature (json.loads reads 1e999 as inf) would score as NaN
        ids = list(itertools.chain.from_iterable(graph.edges))
        values = np.concatenate(graph.features)
    except Exception as exc:
        raise ServingError(f"malformed graph payload: {exc}") from exc
    if ids and (min(ids) < 0 or max(ids) >= n_nodes):
        raise ServingError(f"graph edge endpoint outside its {n_nodes} nodes")
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ServingError("graph features must be flat lists of finite numbers")
    graph.root_id = root_id
    return graph


# -- queries -----------------------------------------------------------
def _column_to_json(column: ColumnRef) -> list:
    return [column.table, column.column]


def _column_from_json(payload) -> ColumnRef:
    table, column = payload
    return ColumnRef(str(table), str(column))


def query_to_json(query: Query) -> dict:
    out: dict = {
        "dataset": query.dataset,
        "tables": list(query.tables),
        "joins": [
            [_column_to_json(j.left), _column_to_json(j.right)] for j in query.joins
        ],
        "filters": [
            {
                "column": _column_to_json(f.column),
                "op": f.op.value,
                "literal": f.literal,
            }
            for f in query.filters
        ],
        "query_id": query.query_id,
    }
    if query.udf is not None:
        spec = query.udf
        udf = spec.udf
        out["udf"] = {
            "name": udf.name,
            "source": udf.source,
            "arg_types": [t.value for t in udf.arg_types],
            "return_type": udf.return_type.value,
            # cost-relevant static metadata: branch conditions feed the
            # hit-ratio estimator, loops feed iteration counts (§III-B)
            "branches": [
                {
                    "arg_index": b.arg_index,
                    "op": b.op.value,
                    "literal": b.literal,
                    "has_else": b.has_else,
                }
                for b in udf.branches
            ],
            "loops": [
                {"kind": lp.kind, "n_iterations": lp.n_iterations}
                for lp in udf.loops
            ],
            "op_counts": dict(udf.op_counts),
            "input_table": spec.input_table,
            "input_columns": list(spec.input_columns),
            "role": spec.role.value,
            "op": spec.op.value,
            "literal": spec.literal,
        }
    if query.agg is not None:
        out["agg"] = {
            "func": query.agg.func.value,
            "column": _column_to_json(query.agg.column) if query.agg.column else None,
        }
    return out


def query_from_json(payload: dict) -> Query:
    try:
        udf_spec = None
        if payload.get("udf") is not None:
            u = payload["udf"]
            udf_spec = UDFSpec(
                udf=UDF(
                    name=str(u["name"]),
                    source=str(u["source"]),
                    arg_types=tuple(DataType(t) for t in u["arg_types"]),
                    return_type=DataType(u.get("return_type", "float")),
                    branches=tuple(
                        BranchInfo(
                            arg_index=int(b["arg_index"]),
                            op=CompareOp(b["op"]),
                            literal=b["literal"],
                            has_else=bool(b.get("has_else", False)),
                        )
                        for b in u.get("branches", ())
                    ),
                    loops=tuple(
                        LoopInfo(
                            kind=str(lp["kind"]),
                            n_iterations=int(lp["n_iterations"]),
                        )
                        for lp in u.get("loops", ())
                    ),
                    op_counts=dict(u.get("op_counts", {})),
                ),
                input_table=str(u["input_table"]),
                input_columns=tuple(u["input_columns"]),
                role=UDFRole(u.get("role", "filter")),
                op=CompareOp(u.get("op", "<=")),
                literal=u.get("literal", 0.0),
            )
        agg_spec = None
        if payload.get("agg") is not None:
            a = payload["agg"]
            agg_spec = AggSpec(
                func=AggFunc(a.get("func", "count")),
                column=(
                    _column_from_json(a["column"])
                    if a.get("column") is not None
                    else None
                ),
            )
        query = Query(
            dataset=str(payload["dataset"]),
            tables=tuple(payload["tables"]),
            joins=tuple(
                JoinSpec(_column_from_json(left), _column_from_json(right))
                for left, right in payload.get("joins", ())
            ),
            filters=tuple(
                FilterSpec(
                    column=_column_from_json(f["column"]),
                    op=CompareOp(f["op"]),
                    literal=f["literal"],
                )
                for f in payload.get("filters", ())
            ),
            udf=udf_spec,
            agg=agg_spec,
            query_id=int(payload.get("query_id", 0)),
        )
        query.validate()
    except ServingError:
        raise
    except Exception as exc:
        raise ServingError(f"malformed query payload: {exc}") from exc
    return query


def selectivity_from_json(value) -> float | None:
    """An optional ``true_selectivity``: absent, or a fraction in [0, 1]."""
    if value is None:
        return None
    try:
        selectivity = float(value)
    except (TypeError, ValueError) as exc:
        raise ServingError(f"invalid true_selectivity {value!r}") from exc
    if not 0.0 <= selectivity <= 1.0:  # NaN fails both comparisons
        raise ServingError(
            f"true_selectivity must be a number in [0, 1], got {value!r}"
        )
    return selectivity


# -- decisions ---------------------------------------------------------
def decision_to_json(decision: AdvisorDecision) -> dict:
    out = {
        "placement": decision.placement.value,
        "pull_up": decision.pull_up,
        "strategy": decision.strategy,
        "pullup_costs": decision.pullup_costs.tolist(),
        "pushdown_costs": decision.pushdown_costs.tolist(),
        "selectivity_levels": decision.selectivity_levels.tolist(),
        "decision_seconds": decision.decision_seconds,
    }
    if decision.decision_id:
        out["decision_id"] = decision.decision_id
    if decision.degraded:
        out["degraded"] = True
    return out


# -- feedback records --------------------------------------------------
def feedback_record_to_json(record: FeedbackRecord) -> dict:
    """Wire form of one feedback record; optional fields stay optional."""
    out: dict = {
        "predicted": record.predicted,
        "observed": record.observed,
        "placement": record.placement,
        "segment": record.segment,
        "client": record.client,
        "timestamp": record.timestamp,
        "metadata": record.metadata,
    }
    if record.graph is not None:
        out["graph"] = graph_to_json(record.graph)
        out["graph_fp"] = record.graph_fp
    return out


def feedback_record_from_json(payload: dict) -> FeedbackRecord:
    """Decode one ``/feedback`` record; ``predicted``/``observed`` are
    the only required fields (metric-only reports carry no graph)."""
    if not isinstance(payload, dict):
        raise ServingError("feedback record must be a JSON object")
    try:
        predicted = float(payload["predicted"])
        observed = float(payload["observed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServingError(f"malformed feedback record: {exc}") from exc
    if not np.isfinite(predicted) or not np.isfinite(observed) or observed <= 0:
        raise ServingError(
            "feedback record needs finite predicted and positive observed "
            f"runtimes, got predicted={predicted!r} observed={observed!r}"
        )
    graph = None
    if payload.get("graph") is not None:
        graph = graph_from_json(payload["graph"])
    metadata = payload.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ServingError('"metadata" must be an object when given')
    try:
        record = FeedbackRecord(
            predicted=predicted,
            observed=observed,
            placement=str(payload.get("placement", "")),
            segment=str(payload.get("segment", "")),
            client=str(payload.get("client", "")),
            graph=graph,
            metadata=dict(metadata),
        )
        if payload.get("timestamp") is not None:
            record.timestamp = float(payload["timestamp"])
    except Exception as exc:
        raise ServingError(f"malformed feedback record: {exc}") from exc
    return record
