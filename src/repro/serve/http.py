"""Thin stdlib JSON front end for the serving subsystem (no deps).

Endpoints (all JSON):

* ``GET  /healthz`` — liveness + model identity + uptime;
* ``GET  /stats``   — engine/advisor/session/feedback statistics;
* ``GET  /models``  — the registry's published versions;
* ``POST /predict`` — ``{"graphs": [graph, ...]}`` → predicted runtimes;
* ``POST /advise``  — ``{"query": {...}, "strategy"?, "true_selectivity"?,
  "client"?}`` → a placement decision (with a ``decision_id`` when a
  feedback log is attached);
* ``POST /feedback`` — ``{"decision_id": ..., "observed": ...,
  "true_selectivity"?}`` pairs an observed runtime with a served
  decision, or ``{"records": [...]}`` reports explicit records; either
  way the observations land in the feedback log that drives drift
  detection and retraining.

Built on :class:`http.server.ThreadingHTTPServer`: each connection is
handled on its own thread, so concurrent clients' ``/predict`` and
``/advise`` calls meet inside the micro-batching engine and share joint
forward passes — the serving win needs no async framework.

The scoring backend is the :class:`~repro.serve.engine.ShardedEngine`
the :class:`AdvisorService` wraps; ``/predict`` and ``/advise`` both
score through its ``score_resilient``.

Repeated ``/predict`` and ``/advise`` bodies are recognized by a
fingerprint of the *raw request bytes* in the engine's
:class:`~repro.serve.cache.PreparedRequestCache` and skip JSON parsing
and codec decoding entirely (DESIGN.md §11).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import faults
from repro.exceptions import (
    DeadlineExceeded,
    EngineClosed,
    EngineOverloaded,
    ReproError,
    ServingError,
)
from repro.obs import clock, export, metrics, tracing
from repro.serve.advisor_service import AdvisorService
from repro.serve.cache import payload_fingerprint
from repro.serve.codec import (
    decision_to_json,
    feedback_record_from_json,
    graph_from_json,
    query_from_json,
    selectivity_from_json,
)
from repro.serve.engine import ShardedEngine
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import HealthMonitor, deadline_from_ms

logger = logging.getLogger("repro.serve")

#: caps request bodies; a joint graph is ~KBs, advise payloads smaller
MAX_BODY_BYTES = 16 * 1024 * 1024

#: caps one ``/feedback`` post; larger reports must be split (keeps a
#: single request from monopolizing the log's lock and the JSON parser)
MAX_FEEDBACK_RECORDS = 1024

#: caps the ``/advise`` client id: it keys the session LRU and is
#: echoed by ``/stats``
MAX_CLIENT_CHARS = 128

#: seconds a shed client should wait before retrying (the 503 header)
RETRY_AFTER_S = 1

#: request-metric route labels stay bounded: anything else is "other"
KNOWN_ROUTES = frozenset(
    ("/healthz", "/stats", "/models", "/metrics", "/predict", "/advise", "/feedback")
)

HTTP_REQUESTS = metrics.counter(
    "repro_http_requests_total",
    "HTTP requests by route and status code",
    labelnames=("route", "status"),
)
HTTP_SECONDS = metrics.histogram(
    "repro_http_request_seconds",
    "End-to-end HTTP request latency by route",
    labelnames=("route",),
)


def metric_route(path: str) -> str:
    route = path.split("?", 1)[0]
    return route if route in KNOWN_ROUTES else "other"


def default_deadline_ms() -> float | None:
    """Default per-request budget: ``$REPRO_DEADLINE_MS``, else none."""
    env = os.environ.get("REPRO_DEADLINE_MS", "").strip()
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


class ServingServer(ThreadingHTTPServer):
    """HTTP server that owns the serving components."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AdvisorService,
        registry: ModelRegistry | None = None,
        model_ref: str = "",
        loop=None,
        health: HealthMonitor | None = None,
    ):
        super().__init__(address, ServingHandler)
        self.service = service
        self.engine: ShardedEngine = service.engine
        self.registry = registry
        self.model_ref = model_ref
        #: optional :class:`repro.feedback.FeedbackLoop`; surfaces drift
        #: and promotion state through /stats and keeps model_ref honest
        self.loop = loop
        #: the /healthz state machine, wired to the engine's breaker and
        #: (via the shard supervisor) the engine's restart history
        self.health = health or HealthMonitor(breaker=service.engine.breaker)
        if service.engine.health is None:
            service.engine.health = self.health
        self.started = time.time()
        #: feeds the every-Nth trace sampler (REPRO_TRACE_SAMPLE)
        self.request_seq = itertools.count(1)
        self.health.mark_ready()

    def drain(self) -> None:
        """Stop accepting requests, drain the engine, flush feedback.

        The health state flips to ``draining`` first (new requests get a
        clean 503 instead of racing the shutdown), then in-flight work
        drains; the feedback log buffers appends in memory (its flusher
        spills chunks in the background), so the SIGTERM/ctrl-c path
        must force a final synchronous flush or the tail of observed
        runtimes dies with the process.
        """
        self.health.mark_draining()
        self.shutdown()
        self.engine.close()
        feedback = self.service.feedback
        if feedback is not None:
            feedback.flush()

    def cache_section(self) -> dict:
        """Per-tier cache counters for the /stats ``caches`` section."""
        caches = {"request": self.engine.request_cache.stats()}
        if self.engine.prediction_cache is not None:
            caches["prediction"] = self.engine.prediction_cache.stats()
        return caches

    def render_metrics(self) -> str:
        """Prometheus text: live registry + scrape-time engine samples."""
        return metrics.render(
            export.serving_samples(
                engine=self.engine,
                health=self.health,
                feedback=self.service.feedback,
            )
        )

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="serving-http", daemon=True
        )
        thread.start()
        return thread


class ServingHandler(BaseHTTPRequestHandler):
    server: ServingServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep pytest/CLI output clean; stats cover observability

    def _begin(self) -> None:
        """Start per-request observability state (id, trace, clock)."""
        self._obs_started = clock.monotonic()
        self._obs_status = 0
        self._request_id = (
            self.headers.get("X-Request-Id") or tracing.new_request_id()
        )
        self._trace = tracing.maybe_trace(
            self.headers.get("X-Trace-Id"),
            self._request_id,
            next(self.server.request_seq),
        )
        self._trace_token = tracing.push(self._trace)

    def _finish(self) -> None:
        elapsed = clock.monotonic() - self._obs_started
        route = metric_route(self.path)
        if metrics.enabled():
            HTTP_REQUESTS.labels(route, str(self._obs_status or 0)).inc()
            HTTP_SECONDS.labels(route).observe(elapsed)
        trace = self._trace
        if trace is not None:
            tracing.pop(self._trace_token)
            self._trace = None
            tracing.finish(trace)
            tracing.maybe_log_slow(trace, route=route, status=self._obs_status or 0)

    def _send_json(
        self, payload: dict, status: int = 200, retry_after: int | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self._send_obs_headers()
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)
        self._obs_status = status

    def _send_obs_headers(self) -> None:
        # every response is joinable to server logs (X-Request-Id) and,
        # when traced, to its span breakdown (X-Trace-Id)
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        trace = getattr(self, "_trace", None)
        if trace is not None:
            self.send_header("X-Trace-Id", trace.trace_id)

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: int | None = None,
    ) -> None:
        """Structured error body: ``{"error": {"code", "message"}}``.

        ``message`` is client-safe by contract — internal exception text
        never travels here (see ``_map_exception``), only the log line.
        The request id rides in the body too, so a client-side error
        report alone is enough to find the server's matching log line.
        """
        error = {"code": code, "message": message}
        request_id = getattr(self, "_request_id", None)
        if request_id:
            error["request_id"] = request_id
        self._send_json(
            {"error": error}, status=status, retry_after=retry_after
        )

    def _map_exception(self, exc: BaseException) -> None:
        """One structured error response per exception class.

        Expected rejections carry their message (it describes the
        *request*, not the server); anything unexpected is logged
        server-side with its traceback and answered with a generic 500 —
        internal exception text is an information leak, not an API.
        """
        if isinstance(exc, (EngineOverloaded, EngineClosed)):
            code = "overloaded" if isinstance(exc, EngineOverloaded) else "draining"
            self._send_error_json(503, code, str(exc), retry_after=RETRY_AFTER_S)
        elif isinstance(exc, DeadlineExceeded):
            self._send_error_json(504, "deadline_exceeded", str(exc))
        elif isinstance(exc, ServingError):
            self._send_error_json(400, "bad_request", str(exc))
        elif isinstance(exc, ReproError):
            self._send_error_json(422, "unprocessable", str(exc))
        else:
            logger.exception(
                "unhandled error serving %s (request %s)",
                self.path,
                getattr(self, "_request_id", "-"),
                exc_info=exc,
            )
            self._send_error_json(500, "internal", "internal server error")

    def _deadline(self) -> float | None:
        """Absolute deadline for this request: header, else env default."""
        header = self.headers.get("X-Deadline-Ms")
        if header is not None:
            try:
                budget = float(header)
            except ValueError as exc:
                raise ServingError(f"invalid X-Deadline-Ms {header!r}") from exc
            if not (math.isfinite(budget) and budget > 0):
                raise ServingError("X-Deadline-Ms must be a finite number > 0")
            return deadline_from_ms(budget)
        return deadline_from_ms(default_deadline_ms())

    def _read_raw(self) -> bytes:
        header = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(header)
        except ValueError as exc:
            raise ServingError(f"invalid Content-Length {header!r}") from exc
        if length <= 0:
            raise ServingError("request body required")
        if length > MAX_BODY_BYTES:
            raise ServingError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    @staticmethod
    def _parse(raw: bytes) -> dict:
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and non-UTF-8 bodies
            raise ServingError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("JSON body must be an object")
        return payload

    def _cached_payload(self, raw: bytes, route: str):
        """``(decoded, remember)`` for a raw body via the payload tier.

        ``decoded`` is the cached object for a repeated body (entries
        are tagged by route so /predict and /advise bodies can never
        cross-serve) or ``None`` on a miss; ``remember(decoded)`` stores
        the parse result.
        """
        cache = self.server.engine.request_cache
        fp = payload_fingerprint(raw)
        cached = cache.lookup_payload(fp)
        if cached is not None and cached[0] == route:
            return cached[1], None
        return None, lambda decoded: cache.remember_payload(fp, (route, decoded))

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        self._begin()
        try:
            self._route_get()
        finally:
            self._finish()

    def _route_get(self) -> None:
        server = self.server
        if self.path == "/healthz":
            model_ref = server.model_ref
            if server.loop is not None and server.loop.live_ref:
                model_ref = server.loop.live_ref  # survives hot-swaps
            health = server.health
            state = health.state()
            payload = {
                "status": state,
                "model": model_ref,
                "uptime_seconds": time.time() - server.started,
                "restarts": health.restarts,
            }
            if health.breaker is not None:
                payload["breaker"] = health.breaker.state
            # ready/degraded answer 200 (the service responds, possibly
            # at reduced fidelity); starting/draining answer 503 so load
            # balancers stop routing here
            retry = RETRY_AFTER_S if health.http_status() == 503 else None
            self._send_json(payload, status=health.http_status(), retry_after=retry)
        elif self.path == "/metrics":
            body = server.render_metrics().encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self._send_obs_headers()
            self.end_headers()
            self.wfile.write(body)
            self._obs_status = 200
        elif self.path == "/stats":
            # every section is a snapshot read: the engine reports its
            # queue depth and worker counters without its queue lock,
            # so /stats stays responsive while the workers are saturated
            stats = server.service.describe()
            stats["health"] = server.health.describe()
            stats["caches"] = server.cache_section()
            if server.loop is not None:
                stats["feedback_loop"] = server.loop.describe()
            if server.registry is not None:
                stats["registry"] = server.registry.describe()
            self._send_json(stats)
        elif self.path == "/models":
            if server.registry is None:
                self._send_error_json(404, "not_found", "no registry attached")
            else:
                self._send_json(server.registry.describe())
        else:
            self._send_error_json(404, "not_found", f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        self._begin()
        try:
            self._route_post()
        finally:
            self._finish()

    def _reject_method(self) -> None:
        self._begin()
        try:
            self._send_error_json(
                405, "method_not_allowed", f"unsupported method {self.command}"
            )
        finally:
            self._finish()

    # without these the stdlib answers its own 501 HTML page
    do_PUT = do_DELETE = do_PATCH = _reject_method

    def _route_post(self) -> None:
        try:
            if self.server.health.state() == "draining":
                raise EngineClosed("server is draining")
            # the budget starts when the request arrives: decode time
            # (and any fault injected into it) counts against the client
            # deadline, so a slow parse can expire a request before the
            # engine ever sees it
            deadline = self._deadline()
            raw = self._read_raw()
            faults.fire("decode")
            if deadline is not None and clock.monotonic() >= deadline:
                raise DeadlineExceeded("deadline expired while decoding")
            if self.path == "/predict":
                self._handle_predict(raw, deadline)
            elif self.path == "/advise":
                self._handle_advise(raw, deadline)
            elif self.path == "/feedback":
                self._handle_feedback(self._parse(raw))
            else:
                self._send_error_json(
                    404, "not_found", f"unknown path {self.path!r}"
                )
        except Exception as exc:
            self._map_exception(exc)

    @staticmethod
    def _item_error(index: int, status: str, err: BaseException | None) -> dict:
        # the same leak discipline as _map_exception, per item: library
        # errors describe the request; anything else stays server-side
        if isinstance(err, (ServingError, ReproError)):
            message = str(err)
        else:
            message = "internal error"
            logger.error("request item %d failed: %r", index, err)
        code = {"shed_overload": "overloaded", "shed_deadline": "deadline_exceeded"}
        return {"index": index, "code": code.get(status, "error"), "message": message}

    def _handle_predict(self, raw: bytes, deadline: float | None = None) -> None:
        # repeat bodies (same bytes) skip json.loads + codec decode
        with tracing.span("http.decode"):
            graphs, remember = self._cached_payload(raw, "predict")
            if graphs is None:
                payload = self._parse(raw)
                raw_graphs = payload.get("graphs")
                if not isinstance(raw_graphs, list) or not raw_graphs:
                    raise ServingError('"graphs" must be a non-empty list')
                graphs = [graph_from_json(g) for g in raw_graphs]
                remember(graphs)
        outcome = self.server.engine.score_resilient(graphs, deadline=deadline)
        answered = [v is not None for v in outcome.values]
        if not any(answered):
            # nothing was answered: one structured rejection beats a
            # vector of nulls (a lone shed request gets its 503/504)
            raise outcome.first_error() or ServingError("scoring failed")
        runtimes = [float(v) if v is not None else None for v in outcome.values]
        response: dict = {"runtimes": runtimes}
        errors = [
            self._item_error(i, outcome.statuses[i], outcome.errors[i])
            for i in range(len(graphs))
            if not answered[i]
        ]
        if errors:
            response["errors"] = errors
        if outcome.degraded:
            response["degraded"] = True
        self._send_json(response)

    def _handle_advise(self, raw: bytes, deadline: float | None = None) -> None:
        with tracing.span("http.decode"):
            parsed, remember = self._cached_payload(raw, "advise")
            if parsed is None:
                payload = self._parse(raw)
                raw_query = payload.get("query")
                if not isinstance(raw_query, dict):
                    raise ServingError('"query" must be an object')
                query = query_from_json(raw_query)
                true_selectivity = selectivity_from_json(
                    payload.get("true_selectivity")
                )
                client = payload.get("client", "anonymous")
                if not isinstance(client, str) or len(client) > MAX_CLIENT_CHARS:
                    raise ServingError(
                        f'"client" must be a string of at most '
                        f"{MAX_CLIENT_CHARS} characters"
                    )
                strategy = payload.get("strategy")
                if strategy is not None and not isinstance(strategy, str):
                    raise ServingError('"strategy" must be a string')
                parsed = (query, true_selectivity, client, strategy)
                remember(parsed)
        query, true_selectivity, client, strategy = parsed
        session = self.server.service.session(client)
        decision = session.suggest_placement(
            query,
            true_selectivity=true_selectivity,
            strategy=strategy,
            deadline=deadline,
        )
        self._send_json(decision_to_json(decision))

    def _handle_feedback(self, payload: dict) -> None:
        service = self.server.service
        if service.feedback is None:
            raise ServingError("no feedback log attached to this service")
        if payload.get("decision_id") is not None:
            try:
                observed = float(payload["observed"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServingError(
                    'feedback with "decision_id" needs a numeric "observed" '
                    f"runtime: {exc}"
                ) from exc
            true_selectivity = selectivity_from_json(payload.get("true_selectivity"))
            record = service.record_runtime(
                str(payload["decision_id"]),
                observed,
                true_selectivity=true_selectivity,
            )
            self._send_json({"accepted": 1, "q_error": record.q_error})
            return
        raw_records = payload.get("records")
        if not isinstance(raw_records, list) or not raw_records:
            raise ServingError(
                'feedback payload needs "decision_id" + "observed" or a '
                'non-empty "records" list'
            )
        if len(raw_records) > MAX_FEEDBACK_RECORDS:
            raise ServingError(
                f"feedback batch of {len(raw_records)} exceeds "
                f"{MAX_FEEDBACK_RECORDS} records; split the report"
            )
        records = [feedback_record_from_json(r) for r in raw_records]
        service.feedback.extend(records)
        self._send_json({"accepted": len(records), "log": service.feedback.stats()})


def make_server(
    service: AdvisorService,
    registry: ModelRegistry | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    model_ref: str = "",
    loop=None,
    health: HealthMonitor | None = None,
) -> ServingServer:
    """Bind a :class:`ServingServer` (``port=0`` picks a free port)."""
    return ServingServer((host, port), service, registry, model_ref, loop, health)
