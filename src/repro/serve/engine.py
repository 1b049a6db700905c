"""Micro-batched online inference over the prepared-graph pipeline.

Serving traffic arrives as single cost-prediction requests (one joint
graph each), but the PR 1 pipeline is fastest when many graphs travel
through one :func:`~repro.model.batching.make_batch_prepared` call: one
joint Kahn sweep, one encoder pass per node type, one forward. The
engine bridges the two shapes (DESIGN.md §9):

* ``submit(graph)`` enqueues the request and returns a
  :class:`concurrent.futures.Future` immediately;
* a dedicated worker thread coalesces whatever is queued into one batch,
  flushing when either ``max_batch_size`` requests are pending or the
  oldest request has waited ``max_wait_us`` microseconds — the classic
  latency/throughput knob pair of model-serving systems;
* the whole batch runs through the fingerprint-keyed
  :class:`~repro.serve.cache.PreparedRequestCache` and a single GNN
  forward; each request's future resolves to its own runtime.

A request that poisons the joint batch (e.g. a cyclic graph) does not
fail its neighbours: on batch failure the engine retries each request
individually and only the culprit's future carries the exception.

:class:`ShardedEngine` scales the same contract across
``REPRO_SERVE_SHARDS`` worker threads (DESIGN.md §11): round-robin
dispatch over per-shard queues, shared read-only weights (numpy/BLAS
releases the GIL inside the heavy kernels), fingerprint-keyed prepared
and prediction caches shared by every shard, coordinated ``swap_model``,
and per-shard statistics merged on read — the serving hot path takes no
engine-wide lock.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro.core.joint_graph import JointGraph
from repro.exceptions import (
    DeadlineExceeded,
    EngineClosed,
    EngineOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.model.batching import make_batch_prepared
from repro.model.gnn import CostGNN
from repro.obs import clock, metrics, tracing
from repro.serve import faults
from repro.serve.cache import PredictionCache, PreparedRequestCache
from repro.serve.resilience import (
    CircuitBreaker,
    DegradedFallback,
    deadline_remaining,
)

#: safety-net wait on a shard future when the caller set no deadline —
#: a client must never hang forever on a wedged future
DEFAULT_RESULT_TIMEOUT_S = 30.0


def default_shards() -> int:
    """Shard count: ``$REPRO_SERVE_SHARDS``, else one per core (max 4)."""
    env = os.environ.get("REPRO_SERVE_SHARDS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def default_queue_cap() -> int:
    """Admission bound per shard: ``$REPRO_QUEUE_CAP``, else 8192."""
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
    size_flushes: int = 0
    timeout_flushes: int = 0
    drain_flushes: int = 0
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
        return {
            "requests": self.requests,
            "predictions": self.predictions,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "size_flushes": self.size_flushes,
            "timeout_flushes": self.timeout_flushes,
            "drain_flushes": self.drain_flushes,
            "failed_requests": self.failed_requests,
            "shed_overload": self.shed_overload,
            "shed_deadline": self.shed_deadline,
            "crashed_requests": self.crashed_requests,
            "max_batch_observed": self.max_batch_observed,
            "busy_seconds": self.busy_seconds,
            "model_swaps": self.model_swaps,
        }


@dataclass
class _Request:
    graph: JointGraph
    future: Future
    enqueued: float = field(default_factory=clock.monotonic)
    #: absolute monotonic deadline (:mod:`repro.obs.clock`); expired
    #: requests are shed
    #: from the batch *before* the forward pass is paid for them
    deadline: float | None = None


class MicroBatchEngine:
    """Coalesces concurrent prediction requests into joint GNN batches."""

    def __init__(
        self,
        model: CostGNN,
        max_batch_size: int = 64,
        max_wait_us: float = 2000.0,
        request_cache: PreparedRequestCache | None = None,
        name: str = "microbatch-engine",
        max_queue: int | None = None,
    ):
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        self.model = model
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_us / 1e6
        #: fingerprint-keyed prepared topology: repeat *content* hits
        #: across fresh objects (and it is safe to share between shards
        #: — internally locked)
        self.request_cache = (
            request_cache if request_cache is not None else PreparedRequestCache()
        )
        #: admission bound: submissions past this depth are shed with
        #: :class:`EngineOverloaded` instead of queued without limit
        self.max_queue = max_queue if max_queue is not None else default_queue_cap()
        self.name = name
        self.stats = EngineStats()
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        #: the batch the worker popped but has not finished — the shard
        #: supervisor fails these futures if the worker thread dies
        self._active: list[_Request] | None = None
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    # -- client API ----------------------------------------------------
    def submit(self, graph: JointGraph) -> Future:
        """Enqueue one cost prediction; resolves to runtime seconds."""
        return self.submit_many([graph])[0]

    def submit_many(
        self, graphs: list[JointGraph], deadline: float | None = None
    ) -> list[Future]:
        """Enqueue many predictions at once (they coalesce into batches).

        Admission is all-or-nothing: if the bounded queue cannot take the
        whole call, nothing is enqueued and :class:`EngineOverloaded` is
        raised — the caller sheds cleanly instead of half-submitting.
        """
        requests = [_Request(graph, Future(), deadline=deadline) for graph in graphs]
        with self._wake:
            if self._closed:
                raise EngineClosed("engine is closed")
            if len(self._queue) + len(requests) > self.max_queue:
                self.stats.shed_overload += len(requests)
                raise EngineOverloaded(
                    f"shard queue full ({len(self._queue)}/{self.max_queue})"
                )
            self._queue.extend(requests)
            self.stats.requests += len(requests)
            self._wake.notify_all()
        return [r.future for r in requests]

    def predict(self, graphs: list[JointGraph]) -> np.ndarray:
        """Blocking convenience wrapper: submit all, gather all."""
        futures = self.submit_many(graphs)
        return np.asarray([f.result() for f in futures], dtype=np.float64)

    def swap_model(self, model: CostGNN) -> None:
        """Hot-swap the served model between batches (canary promotion).

        Taken under the worker's lock, so in-flight batches complete on
        the old model and every later batch runs the new one; pending
        futures never straddle two models.
        """
        with self._wake:
            self.model = model
            self.stats.model_swaps += 1

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain the queue, stop the worker, reject new submissions.

        A healthy worker drains every queued request before exiting; if
        the worker is dead (or dies during the drain), the stranded
        futures are failed with :class:`WorkerCrashed` so no caller is
        left waiting on a request that silently went nowhere.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._worker.join(timeout)
        with self._wake:
            stranded = list(self._active or []) + list(self._queue)
            self._queue.clear()
            self._active = None
        for request in stranded:
            if not request.future.done():
                self.stats.crashed_requests += 1
                request.future.set_exception(
                    WorkerCrashed(f"{self.name} closed with the request in flight")
                )

    def dead(self) -> bool:
        """True when the worker thread died without the engine closing."""
        return not self._closed and not self._worker.is_alive()

    def revive(self) -> int:
        """Restart a dead worker; fail every stranded future.

        Called by the shard supervisor. The batch the dead worker held
        and everything still queued get :class:`WorkerCrashed` — callers
        retry on a healthy shard instead of hanging — then a fresh
        worker thread takes over the (now empty) queue. Returns the
        number of futures failed.
        """
        with self._wake:
            if self._closed or self._worker.is_alive():
                return 0
            stranded = list(self._active or []) + list(self._queue)
            self._queue.clear()
            self._active = None
            self._worker = threading.Thread(
                target=self._run, name=self.name, daemon=True
            )
            self._worker.start()
        failed = 0
        for request in stranded:
            if not request.future.done():
                failed += 1
                self.stats.crashed_requests += 1
                request.future.set_exception(
                    WorkerCrashed(f"{self.name} worker died with the request in flight")
                )
        return failed

    def __enter__(self) -> "MicroBatchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker --------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue:
                    return  # closed and drained
                # Wait for co-batchable requests: flush once the batch is
                # full or the *oldest* request has waited max_wait_us.
                deadline = self._queue[0].enqueued + self.max_wait_s
                while len(self._queue) < self.max_batch_size and not self._closed:
                    remaining = deadline - clock.monotonic()
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
                n = min(len(self._queue), self.max_batch_size)
                batch = [self._queue.popleft() for _ in range(n)]
                # expose the popped batch for the shard supervisor: if
                # this thread dies mid-batch, these are the futures that
                # must be failed instead of left hanging
                self._active = batch
                if self._closed:
                    reason = "drain"
                elif n == self.max_batch_size:
                    reason = "size"
                else:
                    reason = "timeout"
            try:
                faults.fire("shard.worker")
            except faults.WorkerCrash:
                # scripted thread death: having sailed past every
                # per-request safety net, it lands here at the thread
                # boundary — exit without the interpreter's traceback
                # spew, leaving _active set for the supervisor to mop up
                return
            self._process(batch, reason)
            self._active = None

    def _process(self, requests: list[_Request], reason: str) -> None:
        # shed expired requests *before* paying the forward: nobody is
        # waiting for these answers any more
        now = clock.monotonic()
        live: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self.stats.shed_deadline += 1
                request.future.set_exception(
                    DeadlineExceeded("deadline expired before the forward pass")
                )
            else:
                live.append(request)
        if not live:
            return
        requests = live
        if metrics.enabled():
            for request in requests:
                tracing.observe_stage("queue.wait", now - request.enqueued)
        start = clock.monotonic()
        try:
            runtimes = self._predict_joint([r.graph for r in requests])
        except Exception:
            # Joint failure: isolate the culprit(s) by retrying one by
            # one, so a malformed graph cannot fail its co-batch.
            runtimes = None
        stats = self.stats
        if runtimes is not None:
            for request, runtime in zip(requests, runtimes):
                request.future.set_result(float(runtime))
        else:
            for request in requests:
                try:
                    value = float(self._predict_joint([request.graph])[0])
                except Exception as exc:
                    stats.failed_requests += 1
                    request.future.set_exception(exc)
                else:
                    request.future.set_result(value)
        stats.batches += 1
        stats.predictions += len(requests)
        stats.max_batch_observed = max(stats.max_batch_observed, len(requests))
        elapsed = clock.monotonic() - start
        stats.busy_seconds += elapsed
        tracing.observe_stage("model.forward", elapsed)
        if reason == "size":
            stats.size_flushes += 1
        elif reason == "timeout":
            stats.timeout_flushes += 1
        else:
            stats.drain_flushes += 1

    def _predict_joint(self, graphs: list[JointGraph]) -> np.ndarray:
        faults.fire("forward")
        # one read: a concurrent swap_model must not split a batch
        # between the old model's dtype and the new model's weights
        model = self.model
        prepared = self.request_cache.prepared_many(graphs)
        batch = make_batch_prepared(prepared, np.zeros(len(graphs)), dtype=model.dtype)
        return model.predict_runtimes(batch)

    # -- introspection -------------------------------------------------
    def queue_depth(self) -> int:
        """Pending requests — a snapshot read, no dispatch lock taken
        (``len`` of a deque is atomic under the GIL), so ``/stats`` can
        never stall behind a worker holding the lock."""
        return len(self._queue)

    def describe(self) -> dict:
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_us": self.max_wait_s * 1e6,
            "max_queue": self.max_queue,
            "queued": self.queue_depth(),
            "closed": self._closed,
            "stats": self.stats.as_dict(),
            "request_cache": self.request_cache.stats(),
        }


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
    """Round-robin fan-out of the micro-batch contract over N workers.

    Each shard is a :class:`MicroBatchEngine` with its own queue, lock,
    and worker thread; the shards share the *model* (read-only during a
    forward pass — numpy/BLAS releases the GIL inside the heavy kernels,
    so shards overlap on multi-core hosts), a fingerprint-keyed
    :class:`~repro.serve.cache.PreparedRequestCache`, and an optional
    :class:`~repro.serve.cache.PredictionCache`. Dispatch is plain
    round-robin per ``submit_many`` call so one client's burst still
    coalesces into one joint forward; bursts larger than
    ``max_batch_size`` are spread across every shard.

    ``swap_model`` is coordinated: every shard swaps (in-flight batches
    complete on the old weights, exactly like the single-worker engine)
    and *then* the engine's ``model_version`` advances and the
    prediction cache is invalidated — see :class:`PredictionCache` for
    why that ordering can never serve a predecessor's cached prediction
    after a canary promotion.

    Statistics are lock-light by construction: each shard maintains its
    own counters on its own worker thread and :attr:`stats` merges them
    on read; ``describe()`` takes no dispatch lock at all.
    """

    def __init__(
        self,
        model: CostGNN,
        shards: int | None = None,
        max_batch_size: int = 64,
        max_wait_us: float = 2000.0,
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
        self.max_batch_size = max_batch_size
        self.request_cache = (
            request_cache if request_cache is not None else PreparedRequestCache()
        )
        self.prediction_cache = prediction_cache
        #: breaker over the GNN path + the degraded tier behind it; both
        #: optional — a bare engine behaves exactly like the PR 5 one
        self.breaker = breaker
        self.fallback = fallback
        #: optional HealthMonitor notified on shard restarts (wired by
        #: the HTTP layer; the engine itself has no HTTP concept)
        self.health = None
        self._shards = [
            MicroBatchEngine(
                model,
                max_batch_size=max_batch_size,
                max_wait_us=max_wait_us,
                request_cache=self.request_cache,
                name=f"microbatch-shard-{i}",
                max_queue=max_queue,
            )
            for i in range(n_shards)
        ]
        self._rr = itertools.count()  # next() is atomic under the GIL
        self._swap_lock = threading.Lock()
        self._model_version = 1
        #: cross-call in-flight dedup: PredictionKey -> Future resolved
        #: by the leader's finally block (followers can never hang)
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()
        self._restarts = 0
        self._last_restart = 0.0
        self._closing = False
        self._supervise_interval_s = supervise_interval_s
        self._supervisor: threading.Thread | None = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="shard-supervisor", daemon=True
            )
            self._supervisor.start()

    # -- identity ------------------------------------------------------
    @property
    def model(self) -> CostGNN:
        return self._shards[0].model

    @property
    def model_version(self) -> int:
        return self._model_version

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _pick(self) -> MicroBatchEngine:
        return self._shards[next(self._rr) % len(self._shards)]

    # -- supervision ---------------------------------------------------
    @property
    def restarts(self) -> int:
        return self._restarts

    def _supervise(self) -> None:
        """Detect dead shard workers and restart them.

        Lock-free detection (``Thread.is_alive``), so a wedged shard can
        never wedge its supervisor; ``revive`` fails the dead shard's
        stranded futures and restarts only that shard — the others keep
        serving throughout.
        """
        while not self._closing:
            for shard in self._shards:
                if self._closing or not shard.dead():
                    continue
                shard.revive()
                self._restarts += 1
                self._last_restart = clock.monotonic()
                health = self.health
                if health is not None:
                    health.note_restart()
            time.sleep(self._supervise_interval_s)

    # -- client API ----------------------------------------------------
    def submit(self, graph: JointGraph) -> Future:
        return self._pick().submit(graph)

    def submit_many(
        self, graphs: list[JointGraph], deadline: float | None = None
    ) -> list[Future]:
        """Round-robin dispatch; one call's burst lands on one shard so
        it coalesces, unless it exceeds ``max_batch_size`` — then it is
        spread across all shards to run in parallel."""
        n = len(self._shards)
        if n == 1 or len(graphs) <= self.max_batch_size:
            return self._pick().submit_many(graphs, deadline=deadline)
        chunk = -(-len(graphs) // n)  # ceil division
        futures: list[Future] = []
        for start in range(0, len(graphs), chunk):
            futures.extend(
                self._pick().submit_many(
                    graphs[start : start + chunk], deadline=deadline
                )
            )
        return futures

    def predict(self, graphs: list[JointGraph]) -> np.ndarray:
        futures = self.submit_many(graphs)
        return np.asarray([f.result() for f in futures], dtype=np.float64)

    def score(
        self,
        graphs: list[JointGraph],
        contexts: list[tuple[str, float]] | None = None,
    ) -> np.ndarray:
        """Prediction-cache-aware blocking predict (the serving fast path).

        The strict wrapper over :meth:`score_resilient`: any per-item
        failure is re-raised, so callers either get a full vector of
        answers (GNN or flagged-degraded fallback) or an exception.
        """
        outcome = self.score_resilient(graphs, contexts)
        err = outcome.first_error()
        if err is not None:
            raise err
        return np.asarray(outcome.values, dtype=np.float64)

    def score_resilient(
        self,
        graphs: list[JointGraph],
        contexts: list[tuple[str, float]] | None = None,
        deadline: float | None = None,
    ) -> ScoreOutcome:
        """Per-item scoring that never hangs and degrades honestly.

        ``contexts`` optionally tags each graph with its
        ``(placement, selectivity)`` — the advisor's key space; plain
        predictions use the empty context. Cache hits return the exact
        float an earlier forward produced (bit-identical to the cold
        path). Misses are deduplicated *across concurrent calls*: the
        first caller for a key becomes the leader and pays the forward;
        followers wait on the leader's future, which the leader's
        ``finally`` block always resolves — an erroring leader fails or
        retries its followers instead of hanging them. When the circuit
        breaker is open, misses skip the GNN entirely and take the
        degraded tier (see :class:`~repro.serve.resilience
        .DegradedFallback`); every wait carries a timeout, so a wedged
        shard turns into an error, never a hung client.
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
        fps = self.request_cache.fingerprints(graphs)
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
            self._fill_degraded(reps, graphs, values, statuses, errors, None)
        else:
            wait_started = clock.monotonic()
            self._score_primary(reps, graphs, keys, deadline, values, statuses, errors)
            tracing.observe_stage("engine.wait", clock.monotonic() - wait_started)
            # primary-path errors fall through to the degraded tier only
            # once the breaker agrees the GNN path is unhealthy — a bad
            # input on a healthy engine stays an honest error
            if breaker is not None and breaker.state != "closed":
                rescue = [i for i in reps if statuses[i] == "error"]
                if rescue:
                    self._fill_degraded(
                        rescue, graphs, values, statuses, errors, None
                    )
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
        shard_futures = self._submit_best_effort(
            [graphs[i] for i in leaders], deadline
        )
        # latency is measured submit-to-completion: co-batched leaders
        # all resolve together while the first one is awaited, so a
        # per-leader clock started at wait time would read ~0 for the
        # rest and hide a brownout from the breaker
        submitted = clock.monotonic()
        for i, shard_future in zip(leaders, shard_futures):
            key = keys[i]
            value: float | None = None
            err: BaseException | None = None
            try:
                value = float(
                    shard_future.result(
                        timeout=max(
                            deadline_remaining(deadline, DEFAULT_RESULT_TIMEOUT_S),
                            1e-3,
                        )
                    )
                )
            except WorkerCrashed:
                # the shard died under this request; one retry lands it
                # on a (possibly freshly revived) healthy worker
                value, err = self._retry_once(graphs[i], deadline)
            except (EngineOverloaded, EngineClosed, DeadlineExceeded) as exc:
                err = exc
            except FutureTimeoutError:
                err = DeadlineExceeded("gave up waiting on the shard future")
            except ServingError as exc:
                err = exc
            except Exception:
                # transient infrastructure failure (an injected fault, a
                # flaky forward): one retry; deterministic bad-input
                # errors just fail identically the second time
                value, err = self._retry_once(graphs[i], deadline)
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
                value = float(
                    inflight.result(
                        timeout=max(
                            deadline_remaining(deadline, DEFAULT_RESULT_TIMEOUT_S),
                            1e-3,
                        )
                    )
                )
            except FutureTimeoutError:
                err = DeadlineExceeded("gave up waiting on the dedup leader")
            except Exception:
                # the leader failed; this request is still perfectly
                # good, so pay its own forward instead of inheriting
                # the leader's fate
                value, err = self._retry_once(graphs[i], deadline)
            if value is not None:
                values[i] = value
                statuses[i] = "ok"
            else:
                errors[i] = err
                statuses[i] = self._shed_status(err)

    def _healthy_shard(self) -> MicroBatchEngine:
        """A shard whose worker is alive, else round-robin's next pick.

        Retries after a :class:`WorkerCrashed` must not land back on the
        still-dead shard (its queue would be failed again by ``revive``).
        """
        for _ in range(len(self._shards)):
            shard = self._pick()
            if not shard.dead():
                return shard
        return self._pick()

    def _retry_once(
        self, graph: JointGraph, deadline: float | None
    ) -> tuple[float | None, BaseException | None]:
        try:
            future = self._healthy_shard().submit_many([graph], deadline=deadline)[0]
            value = float(
                future.result(
                    timeout=max(
                        deadline_remaining(deadline, DEFAULT_RESULT_TIMEOUT_S), 1e-3
                    )
                )
            )
            return value, None
        except FutureTimeoutError:
            return None, DeadlineExceeded("gave up waiting on the retry future")
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
        default_exc: BaseException | None,
    ) -> None:
        """Answer ``indices`` from the fallback tier (in place)."""
        fallback_started = clock.monotonic()
        try:
            self._fill_degraded_inner(
                indices, graphs, values, statuses, errors, default_exc
            )
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
        default_exc: BaseException | None,
    ) -> None:
        fb = self.fallback
        if fb is None:
            exc = default_exc or ServingError(
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

    def _submit_best_effort(
        self, graphs: list[JointGraph], deadline: float | None
    ) -> list[Future]:
        """submit_many with per-chunk admission: an overloaded shard
        sheds only its chunk (as already-failed futures) instead of
        poisoning the whole call."""
        if not graphs:
            return []
        n = len(self._shards)
        if n == 1 or len(graphs) <= self.max_batch_size:
            chunks = [graphs]
        else:
            size = -(-len(graphs) // n)  # ceil division
            chunks = [graphs[s : s + size] for s in range(0, len(graphs), size)]
        futures: list[Future] = []
        for chunk in chunks:
            try:
                futures.extend(self._pick().submit_many(chunk, deadline=deadline))
            except ServingError as exc:
                for _ in chunk:
                    failed: Future = Future()
                    failed.set_exception(exc)
                    futures.append(failed)
        return futures

    # -- lifecycle -----------------------------------------------------
    def swap_model(self, model: CostGNN) -> None:
        """Coordinated hot-swap: all shards, then version, then caches."""
        with self._swap_lock:
            for shard in self._shards:
                shard.swap_model(model)
            self._model_version += 1
            if self.prediction_cache is not None:
                self.prediction_cache.invalidate()

    def close(self, timeout: float | None = 10.0) -> None:
        # stop the supervisor first so a closing shard's dead worker is
        # not "revived" into a fresh thread mid-drain
        self._closing = True
        for shard in self._shards:
            shard.close(timeout)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Per-shard counters merged on read (no hot-path lock)."""
        merged = EngineStats()
        for shard in self._shards:
            s = shard.stats
            for spec in dataclass_fields(EngineStats):
                if spec.name == "max_batch_observed":
                    merged.max_batch_observed = max(
                        merged.max_batch_observed, s.max_batch_observed
                    )
                else:
                    total = getattr(merged, spec.name) + getattr(s, spec.name)
                    setattr(merged, spec.name, total)
        merged.model_swaps = self._model_version - 1
        return merged

    def queue_depth(self) -> int:
        return sum(shard.queue_depth() for shard in self._shards)

    def describe(self) -> dict:
        """Engine-wide snapshot; takes no dispatch lock anywhere."""
        info = {
            "shards": len(self._shards),
            "model_version": self._model_version,
            "max_batch_size": self.max_batch_size,
            "queued": self.queue_depth(),
            "restarts": self._restarts,
            "supervised": self._supervisor is not None,
            "stats": self.stats.as_dict(),
            "per_shard": [
                {
                    "queued": shard.queue_depth(),
                    "requests": shard.stats.requests,
                    "batches": shard.stats.batches,
                    "busy_seconds": shard.stats.busy_seconds,
                }
                for shard in self._shards
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
