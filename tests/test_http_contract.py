"""The HTTP contract (DESIGN.md §12, §15).

:class:`~repro.serve.http.ServingServer` serves the
:class:`~repro.serve.ShardedEngine` its :class:`~repro.serve.AdvisorService`
wraps. :class:`TestContract` pins parity with the in-process model and
the offline advisor, feedback reaching the log, the ``/healthz``,
``/stats`` and ``/metrics`` shapes, request ids and traces; a table of
malformed requests must each get a structured 4xx body, never a 500.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np
import pytest

from repro.advisor import PullUpAdvisor
from repro.feedback import FeedbackLog
from repro.model import CostGNN, GNNConfig, predict_runtimes
from repro.obs import tracing
from repro.serve import (
    AdvisorService,
    ModelRegistry,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    graph_to_json,
    make_server,
    query_to_json,
)
from repro.serve.http import MAX_CLIENT_CHARS, MAX_FEEDBACK_RECORDS
from repro.stats import ActualCardinalityEstimator, StatisticsCatalog
from tests.test_obs import assert_histograms_coherent, parse_prometheus
from tests.test_perfbench_contract import load_perfbench
from tests.test_serving import make_udf_query, placeable_query, synthetic_graphs

MODEL_NAME = "contract"


def _make_model() -> CostGNN:
    # float64 so parity checks against the in-process model are tight
    model = CostGNN(GNNConfig(hidden_dim=8, dtype="float64", seed=1))
    model.eval()
    return model


def wait_for_trace(trace_id: str, timeout_s: float = 2.0) -> tracing.Trace:
    """The finished trace with ``trace_id``, polling briefly.

    The front end flushes the response bytes before its finally block
    calls :func:`tracing.finish`, so a client can observe the reply a
    beat before the trace reaches the recent ring.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        found = [t for t in tracing.recent_traces(64) if t.trace_id == trace_id]
        if found:
            return found[-1]
        time.sleep(0.005)
    raise AssertionError(f"trace {trace_id!r} never finished")


def send(server, method: str, path: str, body=None, headers=None):
    """``(status, headers, raw body)`` of one request; errors do not raise.

    ``body`` is bytes, or anything else to JSON-encode. A
    ``Content-Length`` header in ``headers`` replaces the computed one.
    """
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode()
    headers = dict(headers or {})
    if body is not None:
        headers.setdefault("Content-Length", str(len(body)))
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.putrequest(method, path)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def reject_constant(name: str):
    """``parse_constant`` hook: strict JSON has no NaN or Infinity."""
    raise AssertionError(f"non-standard JSON constant {name}")


def call(server, method: str, path: str, body=None, headers=None):
    """``(status, headers, decoded JSON body)`` of one request."""
    status, response_headers, raw = send(server, method, path, body, headers)
    return status, response_headers, json.loads(raw)


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract-registry")
    model = _make_model()
    version = ModelRegistry(root).publish(MODEL_NAME, model)
    return str(root), model, version.ref


@pytest.fixture(scope="module")
def advisor_parts(tiny_bench):
    database = tiny_bench.database
    return StatisticsCatalog(database), ActualCardinalityEstimator(database)


@pytest.fixture(scope="module")
def server(published, advisor_parts, tmp_path_factory):
    root, model, ref = published
    engine = ShardedEngine(
        model,
        shards=1,
        max_batch_size=16,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
    )
    catalog, estimator = advisor_parts
    feedback = FeedbackLog(tmp_path_factory.mktemp("contract-feedback"))
    service = AdvisorService(
        engine, catalog=catalog, estimator=estimator, feedback=feedback
    )
    server = make_server(service, registry=ModelRegistry(root), model_ref=ref)
    server.serve_in_background()
    yield server
    server.drain()
    feedback.close()


class TestContract:
    def test_predict_matches_in_process_model(self, server, published):
        _, model, _ = published
        graphs = synthetic_graphs(6, seed=41)
        status, _, body = call(
            server, "POST", "/predict", {"graphs": [graph_to_json(g) for g in graphs]}
        )
        assert status == 200
        assert np.allclose(body["runtimes"], predict_runtimes(model, graphs), rtol=1e-9)
        # "degraded" appears only when true
        assert body.get("degraded", False) is False

    @pytest.mark.parametrize("true_selectivity", [None, 0.3])
    def test_advise_matches_offline_advisor(
        self, server, published, advisor_parts, tiny_bench, true_selectivity
    ):
        _, model, _ = published
        catalog, estimator = advisor_parts
        query = placeable_query(tiny_bench)
        status, _, raw = send(
            server,
            "POST",
            "/advise",
            {
                "query": query_to_json(query),
                "true_selectivity": true_selectivity,
                "client": "contract",
            },
        )
        assert status == 200
        body = json.loads(raw, parse_constant=reject_constant)
        offline = PullUpAdvisor(model=model, catalog=catalog, estimator=estimator)
        reference = offline.decide(query, true_selectivity=true_selectivity)
        assert body["pull_up"] == reference.pull_up
        assert body["placement"] == reference.placement.value
        assert body["strategy"] == reference.strategy
        np.testing.assert_allclose(
            body["pullup_costs"], reference.pullup_costs, rtol=1e-9
        )
        np.testing.assert_allclose(
            body["pushdown_costs"], reference.pushdown_costs, rtol=1e-9
        )
        _, _, stats = call(server, "GET", "/stats")
        assert stats["sessions"]["contract"]["decisions"] >= 1

    def test_feedback_reaches_the_log(self, server, tiny_bench):
        feedback = server.service.feedback
        before = feedback.appended
        query = query_to_json(placeable_query(tiny_bench))
        _, _, decision = call(server, "POST", "/advise", {"query": query})
        status, _, body = call(
            server,
            "POST",
            "/feedback",
            {
                "decision_id": decision["decision_id"],
                "observed": 1.5,
                "true_selectivity": 0.4,
            },
        )
        assert status == 200 and body["accepted"] == 1
        record = {
            "predicted": 2.0,
            "observed": 3.0,
            "graph": graph_to_json(synthetic_graphs(1, seed=43)[0]),
        }
        status, _, body = call(server, "POST", "/feedback", {"records": [record]})
        assert status == 200 and body["accepted"] == 1
        assert feedback.appended == before + 2

    def test_healthz_reports_state(self, server):
        status, headers, body = call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ready"
        assert body["model"] == f"{MODEL_NAME}@v1"
        assert headers["X-Request-Id"]  # generated when absent

    def test_stats_sections(self, server):
        graphs = synthetic_graphs(2, seed=31)
        call(server, "POST", "/predict", {"graphs": [graph_to_json(g) for g in graphs]})
        status, _, stats = call(server, "GET", "/stats")
        assert status == 200
        assert stats["health"]["state"] == "ready"
        assert "prepared_hits" in stats["caches"]["request"]
        assert "hit_rate" in stats["caches"]["prediction"]
        assert "batches" in stats["engine"]["stats"]
        # every /stats key and /metrics stage the benchmark's window
        # reads (a missing key raises KeyError in window_counters)
        serving = load_perfbench("serving")
        _, _, metrics_text = send(server, "GET", "/metrics")
        state = {
            "stats": stats,
            "stages": serving.stage_sums(metrics_text.decode()),
            # the benchmark server's own process counters, not /stats
            "proc": {
                "cpu_s": 0.0,
                "feedback": {"flushed_chunks": 0, "write_errors": 0},
            },
        }
        assert "queue.wait" in state["stages"]
        assert serving.window_counters(state, state)["shed"] == 0

    def test_metrics_exposition_parses(self, server):
        graphs = synthetic_graphs(3, seed=30)
        call(server, "POST", "/predict", {"graphs": [graph_to_json(g) for g in graphs]})
        status, headers, raw = send(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        samples, types = parse_prometheus(raw.decode())
        assert_histograms_coherent(samples, types)
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_http_request_seconds"] == "histogram"
        assert types["repro_cache_events_total"] == "counter"
        assert types["repro_engine_requests_total"] == "counter"
        routes = {
            (lab["route"], lab["status"])
            for lab, _ in samples["repro_http_requests_total"]
        }
        assert ("/predict", "200") in routes

    def test_request_id_echo(self, server):
        status, headers, _ = send(
            server, "GET", "/healthz", headers={"X-Request-Id": "rid-echo"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == "rid-echo"

    def test_error_body_carries_request_id(self, server):
        status, headers, body = call(
            server,
            "POST",
            "/predict",
            b"not json",
            headers={"X-Request-Id": "rid-err"},
        )
        assert status == 400
        assert headers["X-Request-Id"] == "rid-err"
        assert body["error"]["request_id"] == "rid-err"
        assert body["error"]["code"] == "bad_request"

    def test_blown_deadline_is_structured_504(self, server):
        graphs = synthetic_graphs(2, seed=42)
        status, _, body = call(
            server,
            "POST",
            "/predict",
            {"graphs": [graph_to_json(g) for g in graphs]},
            headers={"X-Deadline-Ms": "0.000001"},
        )
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"

    def test_traced_request_spans_cover_e2e(self, server):
        """The acceptance gate: a traced request's top-level spans tile
        its end-to-end latency within 10% (plus a millisecond of grace
        for scheduling floors on a busy CI host)."""
        warm, fresh = (synthetic_graphs(4, seed=seed) for seed in (31, 32))
        call(server, "POST", "/predict", {"graphs": [graph_to_json(g) for g in warm]})
        # fresh graphs: a prediction-cache hit would skip the engine
        body = {"graphs": [graph_to_json(g) for g in fresh]}
        trace_id = f"tid-{server.server_address[1]}"
        status, headers, _ = send(
            server, "POST", "/predict", body, headers={"X-Trace-Id": trace_id}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == trace_id
        trace = wait_for_trace(trace_id)
        stages = trace.breakdown()
        assert "http.decode" in stages
        assert "engine.wait" in stages
        total = trace.total_seconds()
        covered = trace.top_level_seconds()
        assert covered <= total + 1e-6
        assert covered >= 0.9 * total - 1e-3, (
            f"top-level spans cover {covered * 1e3:.2f}ms of "
            f"{total * 1e3:.2f}ms e2e"
        )


# ======================================================================
# malformed requests: every one gets a structured 4xx, never a 500
# ======================================================================
GRAPH = graph_to_json(synthetic_graphs(1, seed=3)[0])
QUERY = query_to_json(make_udf_query())
NAN_ROW = [float("nan")] * len(GRAPH["features"][0])


def graph_body(**overrides) -> dict:
    return {"graphs": [{**GRAPH, **overrides}]}


def with_literal(payload: dict, literal: str) -> bytes:
    """``payload`` as JSON with the string ``"LITERAL"`` swapped for a raw
    literal :func:`json.dumps` never writes (``1e999`` parses as inf)."""
    return json.dumps(payload).replace('"LITERAL"', literal).encode()


def post(path: str, body, headers=None, status=400, code="bad_request"):
    return "POST", path, body, headers or {}, status, code


def predict_with(headers: dict):
    return post("/predict", graph_body(), headers)


def advise_with(true_selectivity):
    body = {"query": QUERY, "true_selectivity": true_selectivity}
    return post("/advise", body)


def feedback_with(**fields):
    return post("/feedback", fields)


#: case id -> (method, path, body, headers, status, error code)
MALFORMED = {
    # bodies
    "invalid_json": post("/predict", b"{not json"),
    "non_utf8_body": post("/predict", b"\xff\xfe{}"),
    "deep_nesting": post("/predict", b"[" * 100_000),
    "non_object_body": post("/predict", [1, 2]),
    "empty_body": post("/predict", b""),
    "body_too_large": post("/predict", b"{}", {"Content-Length": str(1 << 30)}),
    # /predict graphs
    "empty_object": post("/predict", {}),
    "graphs_missing": post("/predict", {"nope": 1}),
    "graphs_empty": post("/predict", {"graphs": []}),
    "graph_not_object": post("/predict", {"graphs": [5]}),
    "graph_fields_not_lists": post("/predict", graph_body(node_types=5, features=5)),
    "graph_unknown_node_type": post(
        "/predict", graph_body(node_types=["NOPE"] + GRAPH["node_types"][1:])
    ),
    "root_out_of_range": post("/predict", graph_body(root_id=99)),
    "root_negative": post("/predict", graph_body(root_id=-1)),
    "root_infinite": post(
        "/predict", with_literal(graph_body(root_id="LITERAL"), "1e999")
    ),
    "edge_to_missing_node": post("/predict", graph_body(edges=[[0, 50]])),
    "edge_from_negative_node": post("/predict", graph_body(edges=[[-1, 0]])),
    "nan_features": post(
        "/predict", graph_body(features=[NAN_ROW] + GRAPH["features"][1:])
    ),
    "overflowing_feature": post(
        "/predict",
        with_literal(
            graph_body(features=[["LITERAL"] * len(NAN_ROW)] + GRAPH["features"][1:]),
            "1e999",
        ),
    ),
    # headers
    "content_length_not_a_number": predict_with({"Content-Length": "abc"}),
    "deadline_not_a_number": predict_with({"X-Deadline-Ms": "soon"}),
    "deadline_zero": predict_with({"X-Deadline-Ms": "0"}),
    "deadline_negative": predict_with({"X-Deadline-Ms": "-5"}),
    "deadline_infinite": predict_with({"X-Deadline-Ms": "inf"}),
    "deadline_nan": predict_with({"X-Deadline-Ms": "nan"}),
    # /advise
    "query_not_object": post("/advise", {"query": 5}),
    "query_malformed": post("/advise", {"query": {"nope": 1}}),
    "query_filter_outside_its_tables": post(
        "/advise", {"query": {**QUERY, "tables": ["orders"], "joins": []}}
    ),
    "strategy_not_a_string": post("/advise", {"query": QUERY, "strategy": ["auc"]}),
    "client_not_string": post("/advise", {"query": QUERY, "client": {"id": 1}}),
    "client_too_long": post(
        "/advise", {"query": QUERY, "client": "c" * (MAX_CLIENT_CHARS + 1)}
    ),
    "selectivity_not_a_number": advise_with("abc"),
    "selectivity_nan": advise_with("nan"),
    "selectivity_inf": advise_with("inf"),
    "selectivity_negative": advise_with(-3),
    "selectivity_above_one": advise_with(7),
    # /feedback
    "feedback_empty_object": feedback_with(),
    "feedback_without_observed": feedback_with(decision_id="d1"),
    "feedback_unknown_decision": feedback_with(decision_id="nope", observed=1.0),
    "feedback_observed_not_a_number": feedback_with(decision_id="d1", observed="abc"),
    "feedback_nan_observed": feedback_with(decision_id="d1", observed="nan"),
    "feedback_bad_selectivity": feedback_with(
        decision_id="d1", observed=1.0, true_selectivity=7
    ),
    "feedback_records_empty": feedback_with(records=[]),
    "feedback_records_not_a_list": feedback_with(records="nope"),
    "feedback_too_many_records": feedback_with(
        records=[{"predicted": 1.0, "observed": 2.0}] * (MAX_FEEDBACK_RECORDS + 1)
    ),
    "feedback_record_without_observed": feedback_with(records=[{"predicted": 1.0}]),
    "feedback_record_negative_runtime": feedback_with(
        records=[{"predicted": 1.0, "observed": -1.0}]
    ),
    "feedback_record_bad_graph": feedback_with(
        records=[{"predicted": 1.0, "observed": 1.0, "graph": {**GRAPH, "root_id": 99}}]
    ),
    # routes and methods
    "unknown_get_route": ("GET", "/nope", None, {}, 404, "not_found"),
    "unknown_post_route": post("/nope", {}, status=404, code="not_found"),
    "post_to_get_route": post("/healthz", {}, status=404, code="not_found"),
    "put": ("PUT", "/predict", b"{}", {}, 405, "method_not_allowed"),
    "delete": ("DELETE", "/predict", b"{}", {}, 405, "method_not_allowed"),
    "patch": ("PATCH", "/advise", b"{}", {}, 405, "method_not_allowed"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_request_is_structured_4xx(server, case):
    method, path, body, headers, expected_status, expected_code = MALFORMED[case]
    status, response_headers, raw = send(server, method, path, body, headers)
    assert status == expected_status, raw
    error = json.loads(raw)["error"]
    assert error["code"] == expected_code
    assert error["message"]
    assert error["request_id"] == response_headers["X-Request-Id"]
