"""Runtime feedback capture: the collector half of the closed loop.

Serving hands out cost predictions; executors eventually observe real
runtimes. A :class:`FeedbackRecord` pairs the two — the annotated joint
graph that was scored, the predicted cost, the observed runtime, and the
placement decision taken — and the :class:`FeedbackLog` collects records
thread-safely behind the serving path (``/feedback``) and the simulated
executor.

The log is also the **replay buffer** the retrainer trains from, so it
is bounded and durable: records spill to disk in pickled chunks with the
same atomic-write + fingerprint + ``.meta.json``-sidecar discipline as
:mod:`repro.eval.resultstore`, and the oldest chunks are dropped once
the buffer exceeds its capacity. A restarted process replays the
surviving chunks and continues appending.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.core.joint_graph import JointGraph
from repro.eval.resultstore import SCHEMA_VERSION, feedback_dir, fingerprint
from repro.exceptions import FeedbackError
from repro.obs import tracing

_CHUNK_RE = re.compile(r"^chunk_(\d{8})_[0-9a-f]+\.pkl$")


def graph_fingerprint(graph: JointGraph) -> str:
    """Content fingerprint of a joint graph.

    Hot-path variant of the resultstore fingerprint discipline: the
    serving fast path computes one fingerprint per request graph, so this
    hashes the raw node/edge/feature bytes directly (~10us) instead of
    building the repr-based canonical form (~150us — slower than the GNN
    forward pass itself). The stream is unambiguous without length
    prefixes: feature dims are fixed per node type, so the node-type
    string pins the layout of the trailing feature bytes, and whatever
    precedes them is the edge array.
    """
    sha = hashlib.sha256()
    sha.update(f"jointgraph|{SCHEMA_VERSION}|{graph.root_id}|".encode())
    sha.update("|".join(graph.node_types).encode())
    sha.update(np.asarray(graph.edges, dtype=np.int64).tobytes())
    if graph.features:
        sha.update(np.concatenate(graph.features).tobytes())
    return sha.hexdigest()[:16]


@dataclass
class FeedbackRecord:
    """One observed (prediction, runtime) pair from the serving path."""

    predicted: float
    observed: float
    placement: str = ""
    #: workload segment the record belongs to (dataset / tenant / client);
    #: drift is monitored per segment
    segment: str = ""
    client: str = ""
    timestamp: float = field(default_factory=time.time)
    #: the annotated joint graph that was scored — the retraining sample.
    #: Optional: metric-only reports still feed the drift monitor.
    graph: JointGraph | None = None
    graph_fp: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.predicted = float(self.predicted)
        self.observed = float(self.observed)
        if self.graph is not None and not self.graph_fp:
            self.graph_fp = graph_fingerprint(self.graph)

    @property
    def q_error(self) -> float:
        """``max(pred/obs, obs/pred)`` — the drift statistic's raw input."""
        pred = max(self.predicted, 1e-9)
        obs = max(self.observed, 1e-9)
        return max(pred / obs, obs / pred)

    @property
    def trainable(self) -> bool:
        """Whether the record can feed retraining (graph + real runtime)."""
        return self.graph is not None and self.observed > 0.0


class FeedbackLog:
    """Thread-safe, capacity-bounded feedback collector + replay buffer.

    ``append()`` is the hot path (called per served decision) and never
    touches the disk: it appends to the in-memory deques under one lock
    and wakes the background flusher when a chunk's worth of records is
    pending. The flusher spills full chunks as they accumulate and
    everything else once the oldest pending record is ``flush_age_s``
    old, so ``/advise`` and ``/feedback`` are never stalled behind a
    chunk write. Writes stay atomic (temp file + ``os.replace`` with a
    JSON sidecar), so a killed process never leaves a truncated chunk
    behind; ``close()`` (and the serving SIGTERM drain) performs a final
    synchronous flush. At most ``capacity`` records are retained — in
    memory *and* on disk — by dropping the oldest chunks.

    Records move through exactly one of three places — ``_pending`` (not
    yet claimed by a write), ``_flushing`` (claimed, write in progress),
    or a chunk on disk — and ``replay()`` serializes against the writer,
    so no interleaving can double-count or drop a record.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        capacity: int = 8192,
        chunk_records: int = 256,
        flush_age_s: float = 2.0,
    ):
        if capacity < 1 or chunk_records < 1:
            raise FeedbackError("capacity and chunk_records must be >= 1")
        if flush_age_s <= 0:
            raise FeedbackError("flush_age_s must be > 0")
        self.root = Path(root) if root is not None else feedback_dir()
        self.capacity = capacity
        self.chunk_records = min(chunk_records, capacity)
        self.flush_age_s = flush_age_s
        self.appended = 0
        self.flushed_chunks = 0
        self.write_errors = 0
        self.last_write_error = ""
        self.dropped_pending = 0
        #: cap on the flusher's exponential retry backoff
        self.backoff_cap_s = 30.0
        #: consecutive failures of the *same* head chunk before its
        #: records are quarantined so the queue behind them can flush
        self.poison_after = 5
        self.quarantined_chunks = 0
        self.poison_records = 0
        self._consecutive_failures = 0
        self._poison_head: FeedbackRecord | None = None
        self._buffer: deque[FeedbackRecord] = deque(maxlen=capacity)
        self._pending: list[FeedbackRecord] = []
        self._flushing: list[FeedbackRecord] = []
        self._pending_since: float | None = None
        self._segments: Counter = Counter()
        self._observers: list = []
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: serializes chunk writes and fences ``replay()``/``clear()``
        #: against a write in progress; never taken by ``append()``
        self._write_lock = threading.Lock()
        self._closed = False
        self._next_seq = self._scan_next_seq()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="feedback-flusher", daemon=True
        )
        self._flusher.start()

    # -- capture -------------------------------------------------------
    def append(self, record: FeedbackRecord) -> FeedbackRecord:
        """Record one observation (no disk I/O on this path)."""
        with self._cond:
            self._buffer.append(record)
            self._pending.append(record)
            while len(self._pending) > self.capacity:
                # the disk is failing (see write_errors): keep the
                # not-yet-spilled queue bounded like everything else
                self._pending.pop(0)
                self.dropped_pending += 1
            first = self._pending_since is None
            if first:
                self._pending_since = time.monotonic()
            self._segments[record.segment] += 1
            self.appended += 1
            observers = list(self._observers)
            due = len(self._pending) >= self.chunk_records
            if due or first:
                # `first` arms the flusher's age timer; `due` hands it a
                # full chunk — either way the wake carries no disk I/O
                self._cond.notify_all()
            closed = self._closed
        if due and closed:
            # the flusher is gone after close(); spill inline so a
            # still-used log cannot grow its pending tail without bound
            self._write_out(take_all=False)
        for observer in observers:
            observer(record)
        return record

    def extend(self, records: list[FeedbackRecord]) -> None:
        for record in records:
            self.append(record)

    def subscribe(self, observer) -> None:
        """Register ``observer(record)`` to run after every append (the
        drift monitor's feed)."""
        with self._lock:
            self._observers.append(observer)

    # -- persistence ---------------------------------------------------
    def flush(self) -> Path | None:
        """Spill every pending record to disk now (synchronous)."""
        return self._write_out(take_all=True)

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until the background flusher has no due work left.

        "Due" means a full chunk is pending or a write is in progress;
        a partial tail younger than ``flush_age_s`` stays pending.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._pending) >= self.chunk_records or self._flushing:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def close(self, timeout: float = 10.0) -> None:
        """Stop the flusher and spill everything still pending."""
        with self._cond:
            if self._closed:
                self._cond.notify_all()
            else:
                self._closed = True
                self._cond.notify_all()
        self._flusher.join(timeout)
        self.flush()

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._pending:
                    self._cond.wait()
                if self._closed:
                    return  # close() performs the final flush
                age = time.monotonic() - self._pending_since
                if len(self._pending) < self.chunk_records:
                    remaining = self.flush_age_s - age
                    if remaining > 0:
                        self._cond.wait(remaining)
                        continue  # re-evaluate: closed / grown / still young
                    take_all = True
                else:
                    take_all = False  # full chunks now, young tail stays
            try:
                self._write_out(take_all=take_all)
            except Exception as exc:  # disk full, unwritable root, ...
                # the flusher must outlive a failed write: unwritten
                # records went back to _pending (see _write_out), so
                # record the error and retry with capped exponential
                # backoff instead of dying silently (or hammering a
                # struggling disk at full speed)
                with self._cond:
                    self.write_errors += 1
                    self.last_write_error = repr(exc)
                    backoff = self._note_failure_locked()
                    self._cond.wait(backoff)
            else:
                with self._cond:
                    self._consecutive_failures = 0
                    self._poison_head = None

    def _note_failure_locked(self) -> float:
        """Track a failed write; quarantine a poison head chunk.

        A chunk whose records themselves break the write (an unpicklable
        graph, say) would otherwise wedge the queue forever: every retry
        claims the same head and fails. After ``poison_after``
        consecutive failures of the *same* head record, that chunk's
        worth of records is set aside — counted, dropped from the spill
        queue, still visible via ``recent()`` until evicted — so the
        records behind it get their turn. Returns the backoff to wait.
        """
        head = self._pending[0] if self._pending else None
        if head is not None and head is self._poison_head:
            self._consecutive_failures += 1
        else:
            self._poison_head = head
            self._consecutive_failures = 1
        if head is not None and self._consecutive_failures >= self.poison_after:
            n = min(self.chunk_records, len(self._pending))
            del self._pending[:n]
            self.quarantined_chunks += 1
            self.poison_records += n
            self._consecutive_failures = 0
            self._poison_head = self._pending[0] if self._pending else None
            if not self._pending:
                self._pending_since = None
        return min(
            self.flush_age_s * (2 ** max(0, self._consecutive_failures - 1)),
            self.backoff_cap_s,
        )

    def _write_out(self, take_all: bool) -> Path | None:
        """Claim pending records and write them as chunk(s) on disk."""
        last: Path | None = None
        with self._write_lock:
            with self._cond:
                if take_all:
                    count = len(self._pending)
                else:
                    count = (
                        len(self._pending) // self.chunk_records
                    ) * self.chunk_records
                if count == 0:
                    return None
                claimed = self._pending[:count]
                self._flushing = claimed
                self._pending = self._pending[count:]
                if not self._pending:
                    self._pending_since = None
            try:
                for start in range(0, count, self.chunk_records):
                    last = self._write_chunk(
                        claimed[start : start + self.chunk_records]
                    )
                    with self._cond:
                        self._flushing = claimed[start + self.chunk_records :]
            finally:
                with self._cond:
                    if self._flushing:
                        # a failed write returns its unwritten records to
                        # the queue head: nothing is lost, the next flush
                        # (or close()) retries them in order
                        self._pending = self._flushing + self._pending
                        if self._pending_since is None:
                            self._pending_since = time.monotonic()
                    self._flushing = []
                    self._cond.notify_all()  # wake drain() waiters
        return last

    def _write_chunk(self, records: list[FeedbackRecord]) -> Path:
        faults.fire("feedback.flush")
        with tracing.span("feedback.flush"):
            return self._write_chunk_inner(records)

    def _write_chunk_inner(self, records: list[FeedbackRecord]) -> Path:
        fp = fingerprint(
            "feedback_chunk",
            self._next_seq,
            len(records),
            [r.graph_fp for r in records],
        )
        path = self.root / f"chunk_{self._next_seq:08d}_{fp}.pkl"
        self._next_seq += 1
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(records, fh)
        os.replace(tmp, path)
        meta = {
            "records": len(records),
            "created": time.time(),
            "segments": dict(Counter(r.segment for r in records)),
            "fingerprint": fp,
        }
        meta_tmp = path.with_suffix(f".metatmp{os.getpid()}")
        with open(meta_tmp, "w") as fh:
            json.dump(meta, fh)
        os.replace(meta_tmp, path.with_suffix(".meta.json"))
        self.flushed_chunks += 1
        self._prune_locked()
        return path

    def _chunk_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir() if _CHUNK_RE.match(p.name))

    def _scan_next_seq(self) -> int:
        chunks = self._chunk_paths()
        if not chunks:
            return 0
        return int(_CHUNK_RE.match(chunks[-1].name).group(1)) + 1

    def _prune_locked(self) -> None:
        """Drop oldest chunks until the disk buffer fits the capacity."""
        chunks = self._chunk_paths()
        max_chunks = max(1, self.capacity // self.chunk_records)
        for path in chunks[: max(0, len(chunks) - max_chunks)]:
            for target in (path, path.with_suffix(".meta.json")):
                try:
                    target.unlink()
                except OSError:
                    pass

    # -- replay --------------------------------------------------------
    def replay(
        self, segment: str | None = None, limit: int | None = None
    ) -> list[FeedbackRecord]:
        """All buffered records, oldest first: surviving disk chunks plus
        the not-yet-flushed tail. Corrupt chunks are quarantined (deleted
        and skipped) exactly like result-store entries. Serialized
        against the background flusher, so a record mid-write is seen
        exactly once."""
        with self._write_lock:
            with self._lock:
                chunks = self._chunk_paths()
                pending = list(self._pending)
            records: list[FeedbackRecord] = []
            for path in chunks:
                try:
                    with open(path, "rb") as fh:
                        records.extend(pickle.load(fh))
                except (MemoryError, RecursionError):
                    raise
                except Exception:
                    for target in (path, path.with_suffix(".meta.json")):
                        try:
                            target.unlink()
                        except OSError:
                            pass
            records.extend(pending)
        if segment is not None:
            records = [r for r in records if r.segment == segment]
        if limit is not None:
            records = records[-limit:]
        return records

    def recent(self, n: int, segment: str | None = None) -> list[FeedbackRecord]:
        """The newest ``n`` in-memory records (oldest first)."""
        with self._lock:
            records = list(self._buffer)
        if segment is not None:
            records = [r for r in records if r.segment == segment]
        return records[-n:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            chunks = self._chunk_paths()
            disk_bytes = 0
            for path in chunks:
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    pass
            return {
                "root": str(self.root),
                "capacity": self.capacity,
                "chunk_records": self.chunk_records,
                "flush_age_s": self.flush_age_s,
                "appended": self.appended,
                "memory_records": len(self._buffer),
                "pending_records": len(self._pending) + len(self._flushing),
                "write_errors": self.write_errors,
                "last_write_error": self.last_write_error,
                "dropped_pending": self.dropped_pending,
                "quarantined_chunks": self.quarantined_chunks,
                "poison_records": self.poison_records,
                "disk_chunks": len(chunks),
                "disk_bytes": disk_bytes,
                "segments": dict(self._segments),
            }

    def clear(self) -> None:
        """Drop every buffered record, in memory and on disk."""
        with self._write_lock:
            with self._lock:
                self._buffer.clear()
                self._pending.clear()
                self._pending_since = None
                self._segments.clear()
                for path in self._chunk_paths():
                    for target in (path, path.with_suffix(".meta.json")):
                        try:
                            target.unlink()
                        except OSError:
                            pass
