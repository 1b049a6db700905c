"""Fingerprint-affinity router over worker processes (DESIGN.md §14).

:class:`WorkerRouter` is the front half of the multi-process serving
tier: it spawns N :mod:`repro.serve.worker` processes (each hosting a
:class:`~repro.serve.engine.ShardedEngine` loaded from the shared
:class:`~repro.serve.registry.ModelRegistry`) and dispatches scoring
traffic so that each worker's fingerprint-keyed caches stay hot for its
slice of the template space:

* **affinity** — a consistent-hash ring (``vnodes`` virtual nodes per
  worker, blake2b over the graph fingerprint) owns every fingerprint, so
  repeats of a template land on the same worker and hit its
  ``PreparedRequestCache``/``PredictionCache`` instead of re-warming N
  copies;
* **spill** — when the owner's outstanding depth exceeds the least
  loaded worker's by ``spill_threshold``, the batch spills to the least
  loaded alive worker: a flash-crowd on one template costs cache
  locality, not latency;
* **failure** — worker death is detected by socket EOF and by the
  heartbeat/supervisor thread (process liveness + ping); in-flight
  requests on a dead worker get exactly one retry on a healthy peer, and
  the supervisor respawns the dead worker from the registry;
* **promotion** — :meth:`promote` swaps every alive worker to the newly
  published version (each swap invalidates that worker's prediction
  cache *before* acking) and only then advances the router epoch: once
  ``promote`` returns, no worker can serve a predecessor-epoch cached
  prediction, pinned by ``tests/test_multiproc.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from repro.exceptions import (
    DeadlineExceeded,
    EngineClosed,
    EngineOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.obs import clock, tracing
from repro.serve.cache import PreparedRequestCache
from repro.serve.worker import (
    WorkerConfig,
    recv_frame,
    send_frame,
    worker_main,
)

#: safety-net wait on a worker response when the caller set no deadline
DEFAULT_CALL_TIMEOUT_S = 30.0

#: worker-reported error types mapped back onto the local hierarchy so
#: the HTTP layer's status mapping works unchanged across the wire
_WIRE_ERRORS = {
    cls.__name__: cls
    for cls in (
        EngineOverloaded,
        EngineClosed,
        DeadlineExceeded,
        WorkerCrashed,
        ServingError,
    )
}


def _wire_error(err: dict | None) -> BaseException | None:
    if err is None:
        return None
    return _WIRE_ERRORS.get(err.get("type", ""), ServingError)(
        err.get("message", "worker error")
    )


def _shed_status(err: BaseException) -> str:
    if isinstance(err, DeadlineExceeded):
        return "shed_deadline"
    if isinstance(err, (EngineOverloaded, EngineClosed)):
        return "shed_overload"
    return "error"


def _ring_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


@dataclass
class RouterOutcome:
    """Per-item result of :meth:`WorkerRouter.score_resilient`.

    Same status vocabulary as :class:`~repro.serve.engine.ScoreOutcome`
    (``ok``/``degraded``/``shed_overload``/``shed_deadline``/``error``)
    plus ``epochs[i]``/``workers[i]`` recording which epoch and worker
    produced each answer — the promotion-fencing pin reads ``epochs``.
    """

    values: list
    statuses: list
    errors: list
    epochs: list
    workers: list

    @property
    def degraded(self) -> bool:
        return any(s == "degraded" for s in self.statuses)

    def first_error(self) -> BaseException | None:
        for err in self.errors:
            if err is not None:
                return err
        return None


class _WorkerClient:
    """One socket to one worker: locked framed sends, a reader thread
    resolving response futures by id, EOF failing everything pending."""

    def __init__(self, port: int, connect_timeout: float = 10.0):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=connect_timeout
        )
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.dead = False
        self._send_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._reader = threading.Thread(
            target=self._read_loop, name="worker-client-reader", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self.sock)
                if frame is None:
                    break
                with self._pending_lock:
                    future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (OSError, ValueError, ServingError):
            pass
        finally:
            self.dead = True
            with self._pending_lock:
                pending = list(self._pending.values())
                self._pending.clear()
            for future in pending:
                if not future.done():
                    future.set_exception(
                        WorkerCrashed("worker connection lost with requests in flight")
                    )

    def request(self, payload: dict) -> Future:
        """Send one frame; the future resolves to the response frame."""
        if self.dead:
            raise WorkerCrashed("worker connection is dead")
        rid = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            self._pending[rid] = future
        try:
            with self._send_lock:
                send_frame(self.sock, {**payload, "id": rid})
        except OSError as exc:
            self.dead = True
            with self._pending_lock:
                self._pending.pop(rid, None)
            raise WorkerCrashed(f"worker send failed: {exc}") from exc
        return future

    def call(self, payload: dict, timeout: float = DEFAULT_CALL_TIMEOUT_S) -> dict:
        """Blocking request; raises the wire error on a non-ok reply."""
        try:
            response = self.request(payload).result(timeout=timeout)
        except FutureTimeoutError:
            raise DeadlineExceeded(
                f"worker did not answer {payload.get('op')!r} within {timeout}s"
            ) from None
        if not response.get("ok", False):
            err = _wire_error(response.get("error"))
            raise err if err is not None else ServingError("worker error")
        return response

    def close(self) -> None:
        self.dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _WorkerHandle:
    """A live worker process plus the router-side state that shadows it."""

    def __init__(self, worker_id: int, process, client: _WorkerClient, pid: int):
        self.worker_id = worker_id
        self.process = process
        self.client = client
        self.pid = pid
        self._outstanding = 0
        self._lock = threading.Lock()
        #: fingerprints this worker has been sent in full at least once —
        #: repeats travel as keys only; cleared on respawn (fresh handle)
        self.known_fps: OrderedDict[str, None] = OrderedDict()
        self.known_cap = 12288  # below the worker's store cap: the
        # worker evicts later than we forget, so "known" rarely lies

    def alive(self) -> bool:
        return self.process.is_alive() and not self.client.dead

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def note_dispatch(self, n: int) -> None:
        with self._lock:
            self._outstanding += n

    def note_done(self, n: int) -> None:
        with self._lock:
            self._outstanding -= n

    def mark_known(self, fps: list[str]) -> None:
        with self._lock:
            for fp in fps:
                self.known_fps[fp] = None
                self.known_fps.move_to_end(fp)
            while len(self.known_fps) > self.known_cap:
                self.known_fps.popitem(last=False)

    def knows(self, fp: str) -> bool:
        with self._lock:
            return fp in self.known_fps


@dataclass
class RouterStats:
    dispatched: int = 0
    affinity: int = 0
    spills: int = 0
    retries: int = 0
    respawns: int = 0
    unknown_resends: int = 0
    promotions: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class WorkerRouter:
    """N worker processes behind one affinity-routing front end."""

    def __init__(
        self,
        registry_root,
        model_name: str,
        model_version: int | None = None,
        workers: int = 2,
        shards_per_worker: int = 1,
        max_batch_size: int = 64,
        max_wait_us: float = 500.0,
        max_queue: int | None = None,
        vnodes: int = 64,
        spill_threshold: int = 32,
        heartbeat_interval_s: float = 0.5,
        spawn_timeout_s: float = 90.0,
        supervise: bool = True,
    ):
        if workers < 1:
            raise ServingError("workers must be >= 1")
        from repro.serve.registry import ModelRegistry

        self.registry_root = str(registry_root)
        self.model_name = model_name
        registry = ModelRegistry(self.registry_root)
        self.model_version = (
            model_version
            if model_version is not None
            else registry.latest(model_name).version
        )
        self.n_workers = workers
        self.shards_per_worker = shards_per_worker
        self.max_batch_size = max_batch_size
        self.max_wait_us = max_wait_us
        self.max_queue = max_queue
        self.spill_threshold = spill_threshold
        self.heartbeat_interval_s = heartbeat_interval_s
        self.spawn_timeout_s = spawn_timeout_s
        self.stats = RouterStats()
        #: deployment epoch: starts at 1, bumped by each promotion *after*
        #: every worker has fenced its caches
        self._epoch = 1
        self._ctx = multiprocessing.get_context("spawn")
        self._promote_lock = threading.Lock()
        self._closing = False
        # the router only uses the fingerprint memo and, behind the HTTP
        # front end, the payload tier (same name as ShardedEngine's)
        self.request_cache = PreparedRequestCache()
        #: optional HealthMonitor notified on worker respawns (wired by
        #: the HTTP layer, exactly like ShardedEngine's shard restarts)
        self.health = None
        self._supervisor: threading.Thread | None = None
        self._handles: list[_WorkerHandle | None] = [None] * workers
        try:
            for wid in range(workers):
                self._handles[wid] = self._spawn(wid, base_epoch=self._epoch)
        except Exception:
            self.close(timeout=5.0)
            raise
        # ring of (hash, worker_id) vnodes; worker ids are stable across
        # respawns so the ring never needs rebuilding
        ring = []
        for wid in range(workers):
            for v in range(vnodes):
                ring.append((_ring_hash(f"worker-{wid}:{v}"), wid))
        ring.sort()
        self._ring_hashes = [h for h, _ in ring]
        self._ring_ids = [wid for _, wid in ring]
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="router-supervisor", daemon=True
            )
            self._supervisor.start()

    # -- lifecycle ------------------------------------------------------
    def _spawn(self, worker_id: int, base_epoch: int) -> _WorkerHandle:
        config = WorkerConfig(
            worker_id=worker_id,
            registry_root=self.registry_root,
            model_name=self.model_name,
            model_version=self.model_version,
            base_epoch=base_epoch,
            shards=self.shards_per_worker,
            max_batch_size=self.max_batch_size,
            max_wait_us=self.max_wait_us,
            max_queue=self.max_queue,
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, child_conn),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.spawn_timeout_s):
            process.terminate()
            raise ServingError(
                f"worker {worker_id} did not report ready within "
                f"{self.spawn_timeout_s}s"
            )
        try:
            info = parent_conn.recv()
        except EOFError:
            process.join(timeout=5.0)
            raise ServingError(
                f"worker {worker_id} died before reporting ready "
                f"(exitcode {process.exitcode})"
            ) from None
        finally:
            parent_conn.close()
        if "error" in info:
            process.join(timeout=5.0)
            raise ServingError(f"worker {worker_id} failed to start: {info['error']}")
        client = _WorkerClient(info["port"])
        return _WorkerHandle(worker_id, process, client, info["pid"])

    def _respawn(self, worker_id: int, base_epoch: int | None = None) -> _WorkerHandle:
        old = self._handles[worker_id]
        if old is not None:
            old.client.close()
            if old.process.is_alive():
                old.process.terminate()
            old.process.join(timeout=5.0)
        handle = self._spawn(
            worker_id, base_epoch=self._epoch if base_epoch is None else base_epoch
        )
        self._handles[worker_id] = handle
        self.stats.respawns += 1
        if self.health is not None:
            self.health.note_restart()
        return handle

    def _supervise(self) -> None:
        """Heartbeat loop: process liveness + ping, respawn on death."""
        while not self._closing:
            for wid in range(self.n_workers):
                if self._closing:
                    return
                handle = self._handles[wid]
                if handle is None:
                    continue
                if not handle.alive():
                    try:
                        # under the promote lock: a respawn racing a
                        # promotion must not be born at a stale epoch
                        with self._promote_lock:
                            if not self._closing:
                                self._respawn(wid)
                    except Exception:
                        pass  # next sweep retries
                    continue
                try:
                    handle.client.request({"op": "ping"})
                except WorkerCrashed:
                    # send failed: socket already dead; respawn next pass
                    continue
            time.sleep(self.heartbeat_interval_s)

    def close(self, timeout: float = 10.0) -> int:
        """Drain and stop every worker; returns the hung-worker count.

        A worker that ignores its ``shutdown`` frame and survives the
        join window is terminated (then killed) and counted — the smoke
        harness fails on a non-zero return.
        """
        self._closing = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=self.heartbeat_interval_s * 4 + 1.0)
        hung = 0
        for handle in self._handles:
            if handle is None:
                continue
            try:
                if handle.alive():
                    handle.client.request({"op": "shutdown"})
            except (WorkerCrashed, OSError):
                pass
        for handle in self._handles:
            if handle is None:
                continue
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                hung += 1
                handle.process.terminate()
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=2.0)
            handle.client.close()
        return hung

    def __enter__(self) -> "WorkerRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- promotion ------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def promote(self, version: int | None = None, timeout: float = 60.0) -> int:
        """Swap every worker to ``version`` (default: newest published).

        The fence, in order: each worker loads the published artifact,
        swaps its engine (which invalidates its prediction cache before
        the swap response is sent), and acks with its new epoch. Only
        after *every* alive worker has acked — a worker whose swap fails
        is killed and respawned directly at the new version — does the
        router's epoch advance. A request routed after ``promote``
        returns therefore cannot reach a worker still holding
        predecessor-epoch cache entries. Returns the new epoch.
        """
        from repro.serve.registry import ModelRegistry

        with self._promote_lock:
            if version is None:
                version = ModelRegistry(self.registry_root).latest(
                    self.model_name
                ).version
            target_epoch = self._epoch + 1
            self.model_version = version
            for wid in range(self.n_workers):
                handle = self._handles[wid]
                swapped = False
                if handle is not None and handle.alive():
                    try:
                        ack = handle.client.call(
                            {
                                "op": "swap",
                                "name": self.model_name,
                                "version": version,
                            },
                            timeout=timeout,
                        )
                        swapped = ack.get("epoch") == target_epoch
                    except Exception:
                        swapped = False
                if not swapped:
                    # a worker that cannot fence must not keep serving:
                    # replace it with one born at the promoted version
                    # (base_epoch = target, fresh empty caches)
                    self._respawn(wid, base_epoch=target_epoch)
            self._epoch = target_epoch
            self.stats.promotions += 1
            return target_epoch

    # -- routing --------------------------------------------------------
    def _alive_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles if h is not None and h.alive()]

    def _owner(self, fp: str, alive_ids: set[int]) -> int:
        """Ring walk from the fingerprint's position to an alive owner."""
        pos = bisect.bisect_right(self._ring_hashes, _ring_hash(fp))
        n = len(self._ring_ids)
        for step in range(n):
            wid = self._ring_ids[(pos + step) % n]
            if wid in alive_ids:
                return wid
        raise ServingError("no alive workers to route to")

    def _route(self, fps: list[str]) -> dict[int, list[int]]:
        """fingerprint → owning worker, with spill on imbalance."""
        alive = self._alive_handles()
        if not alive:
            raise ServingError("no alive workers to route to")
        alive_ids = {h.worker_id for h in alive}
        loads = {h.worker_id: h.outstanding for h in alive}
        min_load = min(loads.values())
        least_loaded = min(loads, key=loads.get)
        groups: dict[int, list[int]] = {}
        for i, fp in enumerate(fps):
            wid = self._owner(fp, alive_ids)
            if loads[wid] - min_load > self.spill_threshold:
                wid = least_loaded
                self.stats.spills += 1
            else:
                self.stats.affinity += 1
            groups.setdefault(wid, []).append(i)
        return groups

    def score(self, graphs, contexts=None):
        """Strict wrapper: full vector of values or the first error."""
        outcome = self.score_resilient(graphs, contexts)
        err = outcome.first_error()
        if err is not None:
            raise err
        return outcome.values

    def score_resilient(
        self,
        graphs: list,
        contexts: list[tuple[str, float]] | None = None,
        deadline: float | None = None,
    ) -> RouterOutcome:
        """Route, dispatch, and gather one scoring call across workers.

        Per-group failure handling mirrors the in-process engine's
        contract: a crashed worker's items get exactly one retry on a
        healthy peer; evicted fingerprints are re-sent in full once; all
        other failures surface per item with honest statuses.
        """
        n = len(graphs)
        values: list = [None] * n
        statuses: list = [None] * n
        errors: list = [None] * n
        epochs: list = [None] * n
        workers: list = [None] * n
        if n == 0:
            return RouterOutcome(values, statuses, errors, epochs, workers)
        dispatch_started = clock.monotonic()
        fps = self.request_cache.fingerprints(graphs)
        deadline_ms = (
            max((deadline - clock.monotonic()) * 1e3, 0.0)
            if deadline is not None
            else None
        )
        groups = self._route(fps)
        self.stats.dispatched += n
        dispatches = []
        for wid, idxs in groups.items():
            handle = self._handles[wid]
            sent = self._send_group(
                handle, idxs, graphs, fps, contexts, deadline_ms
            )
            dispatches.append((handle, idxs, sent))
        tracing.observe_stage(
            "router.dispatch", clock.monotonic() - dispatch_started
        )
        gather_started = clock.monotonic()
        retry: list[int] = []
        for handle, idxs, future in dispatches:
            if future is None:
                retry.extend(idxs)
                continue
            try:
                self._gather(
                    handle, idxs, future, graphs, fps, contexts, deadline_ms,
                    values, statuses, errors, epochs, workers,
                )
            except WorkerCrashed:
                retry.extend(idxs)
            finally:
                handle.note_done(len(idxs))
        if retry:
            self.stats.retries += len(retry)
            self._retry_once(
                retry, graphs, fps, contexts, deadline_ms,
                values, statuses, errors, epochs, workers,
            )
        tracing.observe_stage("wire.roundtrip", clock.monotonic() - gather_started)
        return RouterOutcome(values, statuses, errors, epochs, workers)

    def _send_group(self, handle, idxs, graphs, fps, contexts, deadline_ms):
        """Dispatch one worker's slice; ``None`` signals an instant crash."""
        items = [
            (fps[i], None if handle.knows(fps[i]) else graphs[i]) for i in idxs
        ]
        payload = {
            "op": "score",
            "items": items,
            "contexts": [contexts[i] for i in idxs] if contexts is not None else None,
            "deadline_ms": deadline_ms,
        }
        wire_trace = tracing.to_wire(tracing.current())
        if wire_trace is not None:
            payload["trace"] = wire_trace
        handle.note_dispatch(len(idxs))
        try:
            return handle.client.request(payload)
        except WorkerCrashed:
            handle.note_done(len(idxs))
            # re-dispatch accounting happens in the retry path
            handle.note_dispatch(len(idxs))
            return None

    def _gather(
        self, handle, idxs, future, graphs, fps, contexts, deadline_ms,
        values, statuses, errors, epochs, workers,
    ) -> None:
        timeout = (
            max(deadline_ms / 1e3 + 5.0, 1.0)
            if deadline_ms is not None
            else DEFAULT_CALL_TIMEOUT_S
        )
        try:
            response = future.result(timeout=timeout)
        except FutureTimeoutError:
            exc = DeadlineExceeded("gave up waiting on the worker response")
            for i in idxs:
                statuses[i] = "shed_deadline"
                errors[i] = exc
                workers[i] = handle.worker_id
            return
        if not response.get("ok", False):
            exc = _wire_error(response.get("error")) or ServingError("worker error")
            if isinstance(exc, WorkerCrashed):
                raise exc
            status = _shed_status(exc)
            for i in idxs:
                statuses[i] = status
                errors[i] = exc
                workers[i] = handle.worker_id
            return
        handle.mark_known([fps[i] for i in idxs])
        self._note_worker_trace(handle, response)
        epoch = response.get("epoch")
        unknown_local: list[int] = []
        for pos, i in enumerate(idxs):
            status = response["statuses"][pos]
            if status == "unknown_graph":
                unknown_local.append(i)
                continue
            values[i] = response["values"][pos]
            statuses[i] = status
            errors[i] = _wire_error(response["errors"][pos])
            epochs[i] = epoch
            workers[i] = handle.worker_id
        if unknown_local:
            # the worker evicted these fingerprints (e.g. it was
            # respawned behind our back): re-send the full graphs once
            self.stats.unknown_resends += len(unknown_local)
            payload = {
                "op": "score",
                "items": [(fps[i], graphs[i]) for i in unknown_local],
                "contexts": (
                    [contexts[i] for i in unknown_local]
                    if contexts is not None
                    else None
                ),
                "deadline_ms": deadline_ms,
            }
            wire_trace = tracing.to_wire(tracing.current())
            if wire_trace is not None:
                payload["trace"] = wire_trace
            response = handle.client.call(payload, timeout=timeout)
            self._note_worker_trace(handle, response)
            epoch = response.get("epoch")
            for pos, i in enumerate(unknown_local):
                status = response["statuses"][pos]
                if status == "unknown_graph":  # full graph sent: impossible
                    statuses[i] = "error"
                    errors[i] = ServingError("worker rejected a full graph")
                else:
                    values[i] = response["values"][pos]
                    statuses[i] = status
                    errors[i] = _wire_error(response["errors"][pos])
                epochs[i] = epoch
                workers[i] = handle.worker_id

    def _note_worker_trace(self, handle, response: dict) -> None:
        """Nest a worker's span breakdown under the current trace.

        The worker's stages (``worker.engine`` plus the engine-internal
        spans it measured) happened *inside* this router's
        ``wire.roundtrip`` span, so they are recorded nested — detail,
        not additional wall clock.  The echoed ``trace_id`` is tagged so
        tests can pin that resend/retry frames kept the original trace.
        """
        trace = tracing.current()
        if trace is None:
            return
        stages = response.get("stages")
        if stages:
            for name, seconds in stages.items():
                trace.record(name, seconds, nested=True)
        echoed = response.get("trace_id")
        if echoed:
            trace.tag("worker.trace_id", echoed)
        if response.get("epoch") is not None:
            trace.tag("worker.epoch", response["epoch"])
        trace.tag("worker.id", handle.worker_id)

    def _retry_once(
        self, idxs, graphs, fps, contexts, deadline_ms,
        values, statuses, errors, epochs, workers,
    ) -> None:
        """One retry for crashed-worker items, on the least loaded peer."""
        alive = self._alive_handles()
        if not alive:
            exc = WorkerCrashed("no alive workers for the retry")
            for i in idxs:
                statuses[i] = "error"
                errors[i] = exc
            return
        handle = min(alive, key=lambda h: h.outstanding)
        future = self._send_group(handle, idxs, graphs, fps, contexts, deadline_ms)
        try:
            if future is None:
                raise WorkerCrashed("retry peer crashed on dispatch")
            self._gather(
                handle, idxs, future, graphs, fps, contexts, deadline_ms,
                values, statuses, errors, epochs, workers,
            )
        except WorkerCrashed as exc:
            for i in idxs:
                statuses[i] = "error"
                errors[i] = exc
        finally:
            handle.note_done(len(idxs))

    # -- introspection --------------------------------------------------
    def queue_depth(self) -> int:
        return sum(h.outstanding for h in self._handles if h is not None)

    def worker_counts(self) -> tuple[int, int]:
        """``(alive, total)`` worker processes: the health probe."""
        return len(self._alive_handles()), self.n_workers

    def describe(self, include_workers: bool = False) -> dict:
        alive, total = self.worker_counts()
        info = {
            "workers": total,
            "alive": alive,
            "epoch": self._epoch,
            "model": f"{self.model_name}@v{self.model_version}",
            "outstanding": self.queue_depth(),
            "stats": self.stats.as_dict(),
            "per_worker": [
                {
                    "worker_id": h.worker_id,
                    "pid": h.pid,
                    "alive": h.alive(),
                    "outstanding": h.outstanding,
                    "known_fps": len(h.known_fps),
                }
                for h in self._handles
                if h is not None
            ],
        }
        if include_workers:
            deep = []
            for h in self._handles:
                if h is None or not h.alive():
                    continue
                try:
                    stats = h.client.call({"op": "stats"}, timeout=5.0)
                except Exception:
                    continue
                stats.pop("id", None)
                deep.append(stats)
            info["worker_stats"] = deep
        return info
