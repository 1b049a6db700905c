"""Micro-batched online inference over the prepared-graph pipeline.

Serving traffic arrives as small scoring calls (one ``/predict`` body,
or the twelve placement graphs of one ``/advise`` decision), but the
prepared-graph pipeline (DESIGN.md §8) is fastest when many graphs
travel through one :func:`~repro.model.batching.make_batch_prepared`
call: one joint Kahn sweep, one encoder pass per node type, one forward.
The engine bridges the two shapes (DESIGN.md §9, §11):

* :meth:`ShardedEngine.score_resilient` hashes each graph once, answers
  prediction-cache hits, and puts the misses — fingerprint attached —
  on one bounded queue;
* ``REPRO_SERVE_SHARDS`` worker threads drain that queue: a free worker
  takes up to ``max_batch_size`` queued requests and runs them as one
  joint forward through the fingerprint-keyed
  :class:`~repro.serve.cache.PreparedRequestCache`. Requests that arrive
  while every worker is busy coalesce into the next batch; nothing waits
  on a timer.

A request that poisons the joint batch (e.g. a cyclic graph) does not
fail its neighbours: on batch failure the worker retries each request
individually and only the culprit's future carries the exception.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, field, fields as dataclass_fields

import numpy as np

from repro import faults
from repro.core.joint_graph import JointGraph
from repro.exceptions import (
    DeadlineExceeded,
    EngineClosed,
    EngineOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.feedback.collector import graph_fingerprint
from repro.model.batching import make_batch_prepared
from repro.model.gnn import CostGNN
from repro.obs import clock, metrics, tracing
from repro.serve.cache import PredictionCache, PreparedRequestCache
from repro.serve.resilience import (
    CircuitBreaker,
    DegradedFallback,
    deadline_remaining,
)

#: safety-net wait on a queued request when the caller set no deadline —
#: a client must never hang forever on a wedged future
DEFAULT_RESULT_TIMEOUT_S = 30.0


def default_shards() -> int:
    """Worker count: ``$REPRO_SERVE_SHARDS``, else one per core (max 4)."""
    env = os.environ.get("REPRO_SERVE_SHARDS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def default_queue_cap() -> int:
    """Engine-wide admission bound: ``$REPRO_QUEUE_CAP``, else 8192."""
    env = os.environ.get("REPRO_QUEUE_CAP", "").strip()
    if env:
        return max(1, int(env))
    return 8192


@dataclass
class EngineStats:
    """Counters describing how well requests coalesce into batches."""

    requests: int = 0
    predictions: int = 0
    batches: int = 0
    failed_requests: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    crashed_requests: int = 0
    max_batch_observed: int = 0
    busy_seconds: float = 0.0
    model_swaps: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.predictions / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "mean_batch_size": self.mean_batch_size}


@dataclass
class _Request:
    graph: JointGraph
    #: ``graph_fingerprint(graph)``, computed once by ``score_resilient``
    fingerprint: str
    #: absolute monotonic deadline (:mod:`repro.obs.clock`); expired
    #: requests are shed from the batch *before* the forward is paid
    deadline: float | None = None
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=clock.monotonic)


class _Worker:
    """One worker thread's slot: the thread, its batch, its counters.

    ``stats`` is written by the worker's own thread only (the engine
    merges every slot on read). ``active`` is the batch the thread popped
    and has not finished; if the thread dies, the supervisor fails it.
    """

    def __init__(self, name: str):
        self.name = name
        self.stats = EngineStats()
        self.active: list[_Request] | None = None
        self.thread: threading.Thread | None = None


def _wait(future: Future, deadline: float | None) -> float:
    timeout = max(deadline_remaining(deadline, DEFAULT_RESULT_TIMEOUT_S), 1e-3)
    return float(future.result(timeout=timeout))


@dataclass
class ScoreOutcome:
    """Per-item result of :meth:`ShardedEngine.score_resilient`.

    ``statuses[i]`` is one of ``ok`` (GNN answer, possibly cached),
    ``degraded`` (fallback-tier answer), ``shed_overload``,
    ``shed_deadline``, or ``error``; ``values[i]`` is ``None`` unless
    the status is ok/degraded, and ``errors[i]`` carries the exception
    for every non-answer.
    """

    values: list
    statuses: list
    errors: list

    @property
    def degraded(self) -> bool:
        return any(s == "degraded" for s in self.statuses)

    def first_error(self) -> BaseException | None:
        for err in self.errors:
            if err is not None:
                return err
        return None


class ShardedEngine:
    """Joint-batch scoring over N worker threads draining one queue.

    The workers share the *model* (read-only during a forward pass —
    numpy/BLAS releases the GIL inside the heavy kernels, so workers
    overlap on multi-core hosts), a fingerprint-keyed
    :class:`~repro.serve.cache.PreparedRequestCache`, and an optional
    :class:`~repro.serve.cache.PredictionCache`. One bounded queue feeds
    them all, so one call's misses coalesce into one joint forward and a
    free worker never idles while requests wait.

    ``swap_model`` is coordinated: the model is replaced (a batch reads
    it once, so in-flight batches complete on the old weights) and *then*
    the engine's ``model_version`` advances and the prediction cache is
    invalidated — see :class:`PredictionCache` for why that ordering can
    never serve a predecessor's cached prediction after a canary
    promotion.

    Statistics are lock-light: each worker keeps its own batch counters
    and :attr:`stats` merges them on read; admission counters are written
    under the queue lock; ``describe()`` takes no lock at all.
    """

    def __init__(
        self,
        model: CostGNN,
        shards: int | None = None,
        max_batch_size: int = 64,
        request_cache: PreparedRequestCache | None = None,
        prediction_cache: PredictionCache | None = None,
        max_queue: int | None = None,
        breaker: CircuitBreaker | None = None,
        fallback: DegradedFallback | None = None,
        supervise: bool = True,
        supervise_interval_s: float = 0.05,
    ):
        n_shards = shards if shards is not None else default_shards()
        if n_shards < 1:
            raise ServingError("shards must be >= 1")
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        self.model = model
        self.max_batch_size = max_batch_size
        #: admission bound: calls that would push the queue past it are
        #: shed with :class:`EngineOverloaded` instead of queued
        self.max_queue = max_queue if max_queue is not None else default_queue_cap()
        self.request_cache = (
            request_cache if request_cache is not None else PreparedRequestCache()
        )
        self.prediction_cache = prediction_cache
        #: breaker over the GNN path + the degraded tier behind it; both
        #: optional — a bare engine behaves exactly like the PR 5 one
        self.breaker = breaker
        self.fallback = fallback
        #: optional HealthMonitor notified on worker restarts (wired by
        #: the HTTP layer; the engine itself has no HTTP concept)
        self.health = None
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False
        #: engine-wide counters (requests, shed_overload,
        #: crashed_requests), written under the queue lock
        self._admission = EngineStats()
        self._workers = [_Worker(f"microbatch-shard-{i}") for i in range(n_shards)]
        for worker in self._workers:
            self._start(worker)
        self._swap_lock = threading.Lock()
        self._model_version = 1
        #: cross-call in-flight dedup: PredictionKey -> Future resolved
        #: by the leader's finally block (followers can never hang)
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()
        self._restarts = 0
        self._supervise_interval_s = supervise_interval_s
        self._supervisor: threading.Thread | None = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="shard-supervisor", daemon=True
            )
            self._supervisor.start()

    # -- identity ------------------------------------------------------
    @property
    def model_version(self) -> int:
        return self._model_version

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    # -- scoring -------------------------------------------------------
    def score_resilient(
        self,
        graphs: list[JointGraph],
        contexts: list[tuple[str, float]] | None = None,
        deadline: float | None = None,
    ) -> ScoreOutcome:
        """Per-item scoring that never hangs and degrades honestly.

        ``contexts`` optionally tags each graph with its
        ``(placement, selectivity)`` — the advisor's key space; plain
        predictions use the empty context. Each graph is fingerprinted
        once; the fingerprint keys the prediction cache and travels with
        the queued request to the prepared tier. Cache hits return the
        exact float an earlier forward produced (bit-identical to the
        cold path). Misses are deduplicated *across concurrent calls*:
        the first caller for a key becomes the leader and pays the
        forward; followers wait on the leader's future, which the
        leader's ``finally`` block always resolves — an erroring leader
        fails or retries its followers instead of hanging them. When the
        circuit breaker is open, misses skip the GNN entirely and take
        the degraded tier (see :class:`~repro.serve.resilience
        .DegradedFallback`); every wait carries a timeout, so a wedged
        worker turns into an error, never a hung client.
        """
        n = len(graphs)
        if contexts is None:
            contexts = [("", 0.0)] * n
        values: list = [None] * n
        statuses: list = [None] * n
        errors: list = [None] * n
        cache = self.prediction_cache
        token = cache.token() if cache is not None else None
        version = self._model_version
        lookup_started = clock.monotonic()
        fps = [graph_fingerprint(graph) for graph in graphs]
        keys: list[tuple[int, str, str, float]] = [
            (version, fp, ctx[0], float(ctx[1])) for fp, ctx in zip(fps, contexts)
        ]
        if deadline is not None and clock.monotonic() >= deadline:
            exc = DeadlineExceeded("deadline expired before scoring began")
            return ScoreOutcome([None] * n, ["shed_deadline"] * n, [exc] * n)
        if cache is not None:
            for i, value in enumerate(cache.get_many(keys)):
                if value is not None:
                    values[i] = value
                    statuses[i] = "ok"
        tracing.observe_stage("cache.lookup", clock.monotonic() - lookup_started)
        miss = [i for i in range(n) if statuses[i] is None]
        if not miss:
            return ScoreOutcome(values, statuses, errors)
        # one representative per distinct key; duplicates copy it later
        first_at: dict[tuple, int] = {}
        for i in miss:
            first_at.setdefault(keys[i], i)
        reps = list(first_at.values())
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            self._fill_degraded(reps, graphs, values, statuses, errors)
        else:
            wait_started = clock.monotonic()
            self._score_primary(
                reps, graphs, fps, keys, deadline, values, statuses, errors
            )
            tracing.observe_stage("engine.wait", clock.monotonic() - wait_started)
            # primary-path errors fall through to the degraded tier only
            # once the breaker agrees the GNN path is unhealthy — a bad
            # input on a healthy engine stays an honest error
            if breaker is not None and breaker.state != "closed":
                rescue = [i for i in reps if statuses[i] == "error"]
                if rescue:
                    self._fill_degraded(rescue, graphs, values, statuses, errors)
            if cache is not None:
                computed = [i for i in reps if statuses[i] == "ok"]
                if computed:
                    cache.put_many(
                        [keys[i] for i in computed],
                        [values[i] for i in computed],
                        token,
                    )
                    fb = self.fallback
                    if fb is not None:
                        fb.observe_many(
                            [graphs[i] for i in computed],
                            [values[i] for i in computed],
                        )
        for i in miss:
            rep = first_at[keys[i]]
            if i != rep:
                values[i] = values[rep]
                statuses[i] = statuses[rep]
                errors[i] = errors[rep]
        return ScoreOutcome(values, statuses, errors)

    def _score_primary(
        self,
        reps: list[int],
        graphs: list[JointGraph],
        fps: list[str],
        keys: list[tuple],
        deadline: float | None,
        values: list,
        statuses: list,
        errors: list,
    ) -> None:
        """GNN-path scoring for the representative misses (in place)."""
        leaders: list[int] = []
        owned: dict[tuple, Future] = {}
        followers: list[tuple[int, Future]] = []
        with self._inflight_lock:
            for i in reps:
                existing = self._inflight.get(keys[i])
                if existing is None:
                    owned[keys[i]] = Future()
                    self._inflight[keys[i]] = owned[keys[i]]
                    leaders.append(i)
                else:
                    followers.append((i, existing))
        breaker = self.breaker
        requests = [_Request(graphs[i], fps[i], deadline) for i in leaders]
        try:
            self._enqueue(requests)
        except ServingError as exc:
            # a shed call fails every item with the same rejection
            for request in requests:
                request.future.set_exception(exc)
        # latency is measured submit-to-completion: co-batched leaders
        # all resolve together while the first one is awaited, so a
        # per-leader clock started at wait time would read ~0 for the
        # rest and hide a brownout from the breaker
        submitted = clock.monotonic()
        for i, request in zip(leaders, requests):
            key = keys[i]
            value: float | None = None
            err: BaseException | None = None
            try:
                value = _wait(request.future, deadline)
            except WorkerCrashed:
                # the worker died under this request; one retry lands it
                # on a live (possibly freshly restarted) worker
                value, err = self._retry_once(graphs[i], fps[i], deadline)
            except (EngineOverloaded, EngineClosed, DeadlineExceeded) as exc:
                err = exc
            except FutureTimeoutError:
                err = DeadlineExceeded("gave up waiting on the queued request")
            except ServingError as exc:
                err = exc
            except Exception:
                # transient infrastructure failure (an injected fault, a
                # flaky forward): one retry; deterministic bad-input
                # errors just fail identically the second time
                value, err = self._retry_once(graphs[i], fps[i], deadline)
            finally:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                inflight = owned[key]
                if value is not None:
                    inflight.set_result(value)
                else:
                    inflight.set_exception(err)
            if value is not None:
                values[i] = value
                statuses[i] = "ok"
                if breaker is not None:
                    breaker.record_success(clock.monotonic() - submitted)
            else:
                errors[i] = err
                statuses[i] = self._shed_status(err)
                if breaker is not None and statuses[i] == "error":
                    breaker.record_failure()
        for i, inflight in followers:
            value = None
            err = None
            try:
                value = _wait(inflight, deadline)
            except FutureTimeoutError:
                err = DeadlineExceeded("gave up waiting on the dedup leader")
            except Exception:
                # the leader failed; this request is still perfectly
                # good, so pay its own forward instead of inheriting
                # the leader's fate
                value, err = self._retry_once(graphs[i], fps[i], deadline)
            if value is not None:
                values[i] = value
                statuses[i] = "ok"
            else:
                errors[i] = err
                statuses[i] = self._shed_status(err)

    def _retry_once(
        self, graph: JointGraph, fp: str, deadline: float | None
    ) -> tuple[float | None, BaseException | None]:
        request = _Request(graph, fp, deadline)
        try:
            self._enqueue([request])
            return _wait(request.future, deadline), None
        except FutureTimeoutError:
            return None, DeadlineExceeded("gave up waiting on the retry")
        except BaseException as exc:
            return None, exc

    @staticmethod
    def _shed_status(err: BaseException | None) -> str:
        if isinstance(err, (EngineOverloaded, EngineClosed)):
            return "shed_overload"
        if isinstance(err, DeadlineExceeded):
            return "shed_deadline"
        return "error"

    def _fill_degraded(
        self,
        indices: list[int],
        graphs: list[JointGraph],
        values: list,
        statuses: list,
        errors: list,
    ) -> None:
        """Answer ``indices`` from the fallback tier (in place)."""
        fallback_started = clock.monotonic()
        try:
            self._fill_degraded_inner(indices, graphs, values, statuses, errors)
        finally:
            tracing.observe_stage(
                "degraded.fallback", clock.monotonic() - fallback_started
            )

    def _fill_degraded_inner(
        self,
        indices: list[int],
        graphs: list[JointGraph],
        values: list,
        statuses: list,
        errors: list,
    ) -> None:
        fb = self.fallback
        if fb is None:
            exc = ServingError(
                "GNN path unavailable and no degraded fallback is configured"
            )
            for i in indices:
                statuses[i] = "error"
                errors[i] = exc
            return
        try:
            predicted = fb.predict_many([graphs[i] for i in indices])
        except Exception as exc:
            for i in indices:
                statuses[i] = "error"
                errors[i] = exc
            return
        for i, value in zip(indices, predicted):
            values[i] = float(value)
            statuses[i] = "degraded"
            errors[i] = None

    # -- the queue -----------------------------------------------------
    def _enqueue(self, requests: list[_Request]) -> None:
        """Admit one call's requests, all or nothing.

        If the bounded queue cannot take the whole call, nothing is
        queued and :class:`EngineOverloaded` is raised — the caller sheds
        cleanly instead of half-submitting.
        """
        if not requests:
            return
        with self._ready:
            if self._closed:
                raise EngineClosed("engine is closed")
            if len(self._queue) + len(requests) > self.max_queue:
                self._admission.shed_overload += len(requests)
                raise EngineOverloaded(
                    f"queue full ({len(self._queue)}/{self.max_queue})"
                )
            self._queue.extend(requests)
            self._admission.requests += len(requests)
            # one wake-up per batch the call can fill; busy workers look
            # at the queue again as soon as their batch is done
            self._ready.notify(-(-len(requests) // self.max_batch_size))

    def _start(self, worker: _Worker) -> None:
        worker.thread = threading.Thread(
            target=self._run, args=(worker,), name=worker.name, daemon=True
        )
        worker.thread.start()

    def _run(self, worker: _Worker) -> None:
        while True:
            with self._ready:
                while not self._queue and not self._closed:
                    self._ready.wait()
                if not self._queue:
                    return  # closed and drained
                n = min(len(self._queue), self.max_batch_size)
                batch = [self._queue.popleft() for _ in range(n)]
                worker.active = batch
            try:
                faults.fire("shard.worker")
            except faults.WorkerCrash:
                # scripted thread death: having sailed past every
                # per-request safety net, it lands here at the thread
                # boundary — exit without the interpreter's traceback
                # spew, leaving ``active`` for the supervisor to fail
                return
            self._process(worker, batch)
            # an idle worker must not pin its last batch's graphs
            worker.active = batch = None

    def _process(self, worker: _Worker, requests: list[_Request]) -> None:
        stats = worker.stats
        # shed expired requests *before* paying the forward: nobody is
        # waiting for these answers any more
        now = clock.monotonic()
        live: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                stats.shed_deadline += 1
                request.future.set_exception(
                    DeadlineExceeded("deadline expired before the forward pass")
                )
            else:
                live.append(request)
        if not live:
            return
        if metrics.enabled():
            for request in live:
                tracing.observe_stage("queue.wait", now - request.enqueued)
        # one read: a concurrent swap_model must not split a batch
        # between the old model's dtype and the new model's weights
        model = self.model
        start = clock.monotonic()
        try:
            runtimes = self._predict_joint(model, live)
        except Exception:
            # Joint failure: isolate the culprit(s) by retrying one by
            # one, so a malformed graph cannot fail its co-batch.
            runtimes = None
        if runtimes is not None:
            for request, runtime in zip(live, runtimes):
                request.future.set_result(float(runtime))
        else:
            for request in live:
                try:
                    value = float(self._predict_joint(model, [request])[0])
                except Exception as exc:
                    stats.failed_requests += 1
                    request.future.set_exception(exc)
                else:
                    request.future.set_result(value)
        elapsed = clock.monotonic() - start
        stats.batches += 1
        stats.predictions += len(live)
        stats.max_batch_observed = max(stats.max_batch_observed, len(live))
        stats.busy_seconds += elapsed
        tracing.observe_stage("model.forward", elapsed)

    def _predict_joint(self, model: CostGNN, requests: list[_Request]) -> np.ndarray:
        faults.fire("forward")
        prepared = self.request_cache.prepared_many(
            [r.graph for r in requests], [r.fingerprint for r in requests]
        )
        batch = make_batch_prepared(
            prepared, np.zeros(len(requests)), dtype=model.dtype
        )
        return model.predict_runtimes(batch)

    # -- supervision ---------------------------------------------------
    @property
    def restarts(self) -> int:
        return self._restarts

    def _supervise(self) -> None:
        """Detect dead worker threads and restart them.

        Lock-free detection (``Thread.is_alive``), so a wedged worker can
        never wedge its supervisor. Only the batch the dead thread held
        fails; queued requests stay for the live workers.
        """
        while not self._closed:
            for worker in self._workers:
                if not self._closed and not worker.thread.is_alive():
                    self._revive(worker)
            time.sleep(self._supervise_interval_s)

    def _revive(self, worker: _Worker) -> None:
        with self._ready:
            if self._closed:
                return
            stranded, worker.active = worker.active or [], None
            self._start(worker)
        self._restarts += 1
        self._fail(stranded, f"{worker.name} died with the request in flight")
        health = self.health
        if health is not None:
            health.note_restart()

    def _fail(self, requests: list[_Request], reason: str) -> None:
        """Fail stranded requests with :class:`WorkerCrashed`."""
        stranded = [r for r in requests if not r.future.done()]
        with self._lock:
            self._admission.crashed_requests += len(stranded)
        for request in stranded:
            request.future.set_exception(WorkerCrashed(reason))

    # -- lifecycle -----------------------------------------------------
    def swap_model(self, model: CostGNN) -> None:
        """Coordinated hot-swap: model, then version, then caches."""
        with self._swap_lock:
            self.model = model
            self._model_version += 1
            if self.prediction_cache is not None:
                self.prediction_cache.invalidate()

    def close(self, timeout: float | None = 10.0) -> None:
        """Reject new calls, let the workers drain the queue, stop them.

        Whatever is stranded afterwards — requests still queued because
        the workers died or did not finish in ``timeout``, and the batch
        of any dead worker — is failed with :class:`WorkerCrashed`, so no
        caller waits on a request that silently went nowhere.
        """
        with self._ready:
            if self._closed:
                return
            self._closed = True
            self._ready.notify_all()
        for worker in self._workers:
            worker.thread.join(timeout)
        with self._ready:
            stranded = list(self._queue)
            self._queue.clear()
            for worker in self._workers:
                if not worker.thread.is_alive():
                    stranded += worker.active or []
                    worker.active = None
        self._fail(stranded, "engine closed with the request in flight")

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Admission counters plus every worker's, merged on read."""
        merged = EngineStats()
        for part in [self._admission] + [w.stats for w in self._workers]:
            for spec in dataclass_fields(EngineStats):
                if spec.name == "max_batch_observed":
                    merged.max_batch_observed = max(
                        merged.max_batch_observed, part.max_batch_observed
                    )
                else:
                    total = getattr(merged, spec.name) + getattr(part, spec.name)
                    setattr(merged, spec.name, total)
        merged.model_swaps = self._model_version - 1
        return merged

    def describe(self) -> dict:
        """Engine-wide snapshot; takes no lock (``len`` of a deque is
        atomic), so ``/stats`` never stalls behind a busy queue."""
        info = {
            "shards": len(self._workers),
            "model_version": self._model_version,
            "max_batch_size": self.max_batch_size,
            "max_queue": self.max_queue,
            "queued": len(self._queue),
            "restarts": self._restarts,
            "supervised": self._supervisor is not None,
            "stats": self.stats.as_dict(),
            "per_shard": [
                {
                    "batches": w.stats.batches,
                    "predictions": w.stats.predictions,
                    "busy_seconds": w.stats.busy_seconds,
                }
                for w in self._workers
            ],
            "request_cache": self.request_cache.stats(),
        }
        if self.prediction_cache is not None:
            info["prediction_cache"] = self.prediction_cache.stats()
        if self.breaker is not None:
            info["breaker"] = self.breaker.describe()
        if self.fallback is not None:
            info["fallback"] = self.fallback.describe()
        injector = faults.current()
        if injector is not None:
            info["faults"] = injector.describe()
        return info
