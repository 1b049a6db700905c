"""Crash-safe distributed experiment runner (DESIGN.md §16).

A *sweep* decomposes an experiment (folds, ablation steps × seeds,
hyperparameter grids, or arbitrary ``parallel_map`` work) into durable
task files under one directory; *runner* processes — possibly on
separate hosts sharing the directory — claim tasks and publish results
through :mod:`repro.eval.resultstore` conventions. The contract is that
a sweep always terminates with every task either **done** or explicitly
**quarantined**, never silently lost, no matter which runners crash:

* **claim** — one winner per task via the ``O_EXCL`` idiom
  (`serve/registry.py` uses the same one for version claims);
* **lease + heartbeat** — a claim is a lease file whose mtime the
  holder renews from a heartbeat thread; a runner that dies (or is
  frozen past the lease) stops renewing, the lease expires, and a peer
  *reclaims* the task through an atomic-rename takeover (exactly one
  reclaimer wins ``os.rename`` of the expired lease);
* **retry with capped exponential backoff** — a task that raises is
  released with a ``next_retry_at`` stamp; any runner picks it up after
  the backoff;
* **quarantine** — after ``max_attempts`` raising attempts (or
  ``max_reclaims`` lease expiries, the crash-poison signature) the task
  is parked under ``quarantine/`` with the failing traceback in a
  sidecar, and the sweep can still terminate;
* **idempotent results** — results are stored by content fingerprint,
  so a frozen runner finishing *after* its task was reclaimed and
  completed by a peer merely repeats an identical ``os.replace``.

Task state machine (every transition is one atomic file operation)::

    pending ── claim (O_EXCL lease) ──────────▶ running
    running ── result + done marker ──────────▶ done
    running ── raise, attempts < K ───────────▶ pending (retry_at)
    running ── raise, attempts = K ───────────▶ quarantined
    running ── lease expires (runner died) ───▶ pending (reclaim)
    pending ── reclaims > max_reclaims ───────▶ quarantined

Fault sites for the chaos harness (``repro.faults``):
``task.claim`` (claim scans), ``runner.heartbeat`` (lease renewal),
``runner.task`` (task execution), ``store.write`` (result publishing) —
all with the error/delay/crash kinds; a ``crash`` kills the runner
process like an OOM would (``os._exit``, no cleanup, lease left to
expire).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.eval.resultstore import (
    ResultStore,
    atomic_write_json,
    exclusive_create,
    fingerprint,
    read_json,
)

__all__ = [
    "ChaosPlan",
    "Runner",
    "RunnerCrashed",
    "Sweep",
    "SweepConfig",
    "SweepReport",
    "SweepStatus",
    "TaskSpec",
    "ablation_sweep_tasks",
    "demo_sweep_tasks",
    "folds_sweep_tasks",
    "merge_ablation",
    "merge_folds",
    "register_task_kind",
    "run_demo_task",
    "run_sweep_local",
    "task_kinds",
]


class RunnerCrashed(RuntimeError):
    """A task was quarantined because it kept killing its runners."""


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    """Durability knobs, persisted in ``sweep.json`` so every runner —
    including one started later by ``scripts/sweep.py resume`` — plays
    by the same lease and retry rules."""

    #: a lease not renewed for this long is expired and reclaimable
    lease_seconds: float = 10.0
    #: heartbeat renewal period (must be well under ``lease_seconds``)
    heartbeat_seconds: float = 2.0
    #: raising attempts before quarantine
    max_attempts: int = 3
    #: lease expiries before quarantine (the crash-poison bound)
    max_reclaims: int = 2
    #: capped exponential backoff for retries: base * 2**(attempt-1)
    backoff_base_seconds: float = 0.1
    backoff_cap_seconds: float = 5.0

    def backoff(self, attempts: int) -> float:
        return min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2.0 ** max(0, attempts - 1)),
        )


@dataclass(frozen=True)
class TaskSpec:
    """One unit of sweep work, durable as ``tasks/<task_id>.json``.

    ``params`` must be JSON-serializable; anything richer (the pickled
    callable of a ``parallel_map`` task) rides in a payload sidecar.
    The ``fingerprint`` keys the result in the sweep's store — grids
    dedupe through it, and a late duplicate execution republishes
    identical bytes.
    """

    task_id: str
    index: int
    kind: str
    fingerprint: str
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "TaskSpec":
        return TaskSpec(
            task_id=doc["task_id"],
            index=int(doc["index"]),
            kind=doc["kind"],
            fingerprint=doc["fingerprint"],
            params=doc.get("params", {}),
        )


@dataclass
class SweepStatus:
    total: int = 0
    done: int = 0
    quarantined: int = 0
    claimed: int = 0
    retry_wait: int = 0
    pending: int = 0
    reclaims: int = 0

    @property
    def terminal(self) -> bool:
        return self.total > 0 and self.done + self.quarantined == self.total

    @property
    def lost(self) -> int:
        return self.total - self.done - self.quarantined

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "done": self.done,
            "quarantined": self.quarantined,
            "claimed": self.claimed,
            "retry_wait": self.retry_wait,
            "pending": self.pending,
            "reclaims": self.reclaims,
            "terminal": self.terminal,
        }


# ----------------------------------------------------------------------
# task kinds: name -> fn(sweep, spec) -> result object. Registered by
# name so task files stay JSON and any host that imports the code can
# execute them; experiment kinds import their heavyweight modules
# lazily to keep the runner importable from the eval hot path.
_TASK_KINDS: dict[str, callable] = {}


def register_task_kind(name: str, fn) -> None:
    _TASK_KINDS[name] = fn


def task_kinds() -> tuple[str, ...]:
    return tuple(sorted(_TASK_KINDS))


def _run_call_task(sweep: "Sweep", spec: TaskSpec):
    fn, item = sweep.load_payload(spec)
    return fn(item)


def run_demo_task(params: dict) -> dict:
    """Deterministic single-threaded compute workload (the chaos
    harness and CI smoke run on it: no dataset builds, byte-stable
    results across processes)."""
    import numpy as np

    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    rng = np.random.default_rng(int(params.get("seed", 0)))
    x = rng.standard_normal(int(params.get("size", 50_000)))
    for _ in range(int(params.get("reps", 0))):
        x = np.tanh(x * 1.0009) + 1e-4
    return {
        "seed": int(params.get("seed", 0)),
        "checksum": float(x.sum()),
        "norm": float((x * x).sum()),
    }


def _run_demo_kind(sweep: "Sweep", spec: TaskSpec):
    return run_demo_task(spec.params)


def _run_fold_kind(sweep: "Sweep", spec: TaskSpec):
    from repro.eval import experiments as ex

    scale = sweep.load_config()
    return ex._run_fold_with_stats(
        scale,
        ex._worker_sample_store(scale),
        spec.params["test_dataset"],
        tuple(spec.params["train_datasets"]),
    )


def _run_ablation_kind(sweep: "Sweep", spec: TaskSpec):
    from repro.eval import experiments as ex

    scale = sweep.load_config()
    _, config = ex.ABLATION_STEPS[int(spec.params["step_index"])]
    return ex._ablation_step_seed(
        scale,
        ex._worker_sample_store(scale),
        spec.params["test_dataset"],
        config,
        int(spec.params["seed_offset"]),
    )


register_task_kind("call", _run_call_task)
register_task_kind("demo", _run_demo_kind)
register_task_kind("fold", _run_fold_kind)
register_task_kind("ablation", _run_ablation_kind)


# ----------------------------------------------------------------------
class Sweep:
    """A durable work queue under one directory.

    Layout (every file written atomically or claimed O_EXCL)::

        sweep.json                  config + identity
        config.pkl                  optional pickled experiment config
        tasks/<id>.json             task specs
        tasks/<id>.payload.pkl      pickled payload (call tasks)
        leases/<id>.lease           claim: JSON token, mtime = heartbeat
        attempts/<id>.json          retry/reclaim bookkeeping
        done/<id>.json              completion markers
        quarantine/<id>.json        poison markers (+ .traceback.txt)
        results/task_<fp>.pkl       a ResultStore holding task results
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.attempts_dir = self.root / "attempts"
        self.done_dir = self.root / "done"
        self.quarantine_dir = self.root / "quarantine"
        self.result_store = ResultStore(self.root / "results")
        self._config: SweepConfig | None = None
        self._payload_config = None
        self._payload_config_loaded = False

    # -- creation / identity -------------------------------------------
    @classmethod
    def create(
        cls,
        root: Path | str,
        config: SweepConfig | None = None,
        payload_config=None,
        description: str = "",
    ) -> "Sweep":
        sweep = cls(root)
        sweep.root.mkdir(parents=True, exist_ok=True)
        for sub in (
            sweep.tasks_dir,
            sweep.leases_dir,
            sweep.attempts_dir,
            sweep.done_dir,
            sweep.quarantine_dir,
        ):
            sub.mkdir(parents=True, exist_ok=True)
        config = config or SweepConfig()
        doc = {
            "sweep_id": uuid.uuid4().hex[:12],
            "created": time.time(),
            "description": description,
            "config": dataclasses.asdict(config),
        }
        if not exclusive_create(
            sweep.root / "sweep.json", json.dumps(doc, sort_keys=True).encode()
        ):
            raise FileExistsError(f"sweep already exists at {sweep.root}")
        if payload_config is not None:
            with open(sweep.root / "config.pkl", "wb") as fh:
                pickle.dump(payload_config, fh)
        sweep._config = config
        return sweep

    @classmethod
    def open(cls, root: Path | str) -> "Sweep":
        sweep = cls(root)
        if sweep.manifest() is None:
            raise FileNotFoundError(f"no sweep at {sweep.root}")
        return sweep

    def manifest(self) -> dict | None:
        return read_json(self.root / "sweep.json")

    @property
    def config(self) -> SweepConfig:
        if self._config is None:
            doc = self.manifest() or {}
            self._config = SweepConfig(**doc.get("config", {}))
        return self._config

    def load_config(self):
        """The pickled experiment config (e.g. ExperimentScale)."""
        if not self._payload_config_loaded:
            path = self.root / "config.pkl"
            if path.exists():
                with open(path, "rb") as fh:
                    self._payload_config = pickle.load(fh)
            self._payload_config_loaded = True
        return self._payload_config

    # -- enqueue -------------------------------------------------------
    def add_tasks(self, specs: list[TaskSpec], dedupe: bool = False) -> int:
        """Write task files; with ``dedupe``, specs whose fingerprint is
        already enqueued are skipped (grid sweeps collapse duplicate
        configurations). Returns the number of tasks added."""
        seen: set[str] = set()
        if dedupe:
            for spec in self.tasks():
                seen.add(spec.fingerprint)
        added = 0
        for spec in specs:
            if dedupe and spec.fingerprint in seen:
                continue
            seen.add(spec.fingerprint)
            atomic_write_json(self.tasks_dir / f"{spec.task_id}.json", spec.to_json())
            added += 1
        return added

    def add_call_tasks(self, fn, items) -> list[TaskSpec]:
        """Enqueue ``fn(item)`` tasks (the ``parallel_map`` decomposition).

        The payload is pickled per task; the fingerprint covers the
        payload bytes *and* the index so duplicate items stay distinct
        tasks with distinct results.
        """
        specs: list[TaskSpec] = []
        for index, item in enumerate(items):
            payload = pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
            task_id = f"t{index:05d}"
            fp = hashlib.sha256(payload + f"|{index}".encode()).hexdigest()[:16]
            spec = TaskSpec(
                task_id=task_id,
                index=index,
                kind="call",
                fingerprint=fp,
                params={},
            )
            with open(self.tasks_dir / f"{task_id}.payload.pkl", "wb") as fh:
                fh.write(payload)
            specs.append(spec)
        self.add_tasks(specs)
        return specs

    def load_payload(self, spec: TaskSpec):
        with open(self.tasks_dir / f"{spec.task_id}.payload.pkl", "rb") as fh:
            return pickle.load(fh)

    # -- inspection ----------------------------------------------------
    def tasks(self) -> list[TaskSpec]:
        specs = []
        for path in sorted(self.tasks_dir.glob("t*.json")):
            doc = read_json(path)
            if doc is not None:
                specs.append(TaskSpec.from_json(doc))
        return sorted(specs, key=lambda s: s.index)

    def _lease_path(self, task_id: str) -> Path:
        return self.leases_dir / f"{task_id}.lease"

    def _attempts_path(self, task_id: str) -> Path:
        return self.attempts_dir / f"{task_id}.json"

    def _done_path(self, task_id: str) -> Path:
        return self.done_dir / f"{task_id}.json"

    def _quarantine_path(self, task_id: str) -> Path:
        return self.quarantine_dir / f"{task_id}.json"

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def is_quarantined(self, task_id: str) -> bool:
        return self._quarantine_path(task_id).exists()

    def attempts(self, task_id: str) -> dict:
        return read_json(self._attempts_path(task_id)) or {
            "error_attempts": 0,
            "reclaims": 0,
            "next_retry_at": 0.0,
            "last_error": "",
        }

    def status(self, now: float | None = None) -> SweepStatus:
        now = time.time() if now is None else now
        status = SweepStatus()
        lease = self.config.lease_seconds
        for spec in self.tasks():
            status.total += 1
            attempts = self.attempts(spec.task_id)
            status.reclaims += int(attempts.get("reclaims", 0))
            if self.is_done(spec.task_id):
                status.done += 1
            elif self.is_quarantined(spec.task_id):
                status.quarantined += 1
            elif self._lease_alive(spec.task_id, lease, now):
                status.claimed += 1
            elif float(attempts.get("next_retry_at", 0.0)) > now:
                status.retry_wait += 1
            else:
                status.pending += 1
        return status

    def _lease_alive(self, task_id: str, lease_seconds: float, now: float) -> bool:
        try:
            mtime = self._lease_path(task_id).stat().st_mtime
        except OSError:
            return False
        return now - mtime <= lease_seconds

    # -- quarantine ----------------------------------------------------
    def quarantine(
        self, spec: TaskSpec, reason: str, tb_text: str, attempts: dict
    ) -> None:
        tb_path = self.quarantine_dir / f"{spec.task_id}.traceback.txt"
        tb_path.parent.mkdir(parents=True, exist_ok=True)
        tb_path.write_text(tb_text)
        atomic_write_json(
            self._quarantine_path(spec.task_id),
            {
                "task_id": spec.task_id,
                "index": spec.index,
                "kind": spec.kind,
                "fingerprint": spec.fingerprint,
                "reason": reason,
                "error_attempts": int(attempts.get("error_attempts", 0)),
                "reclaims": int(attempts.get("reclaims", 0)),
                "last_error": attempts.get("last_error", ""),
                "traceback_file": tb_path.name,
                "quarantined_at": time.time(),
            },
        )

    def quarantine_record(self, task_id: str) -> dict | None:
        return read_json(self._quarantine_path(task_id))

    # -- results -------------------------------------------------------
    def load_result(self, spec: TaskSpec):
        """The stored result of a done task (``None`` if missing)."""
        wrapped = self.result_store.load("task", spec.fingerprint)
        if wrapped is None:
            return None
        return wrapped.get("value")

    def collect(self):
        """``(results_by_index, failures)`` for a terminal sweep."""
        results: dict[int, object] = {}
        failures: list[dict] = []
        for spec in self.tasks():
            if self.is_done(spec.task_id):
                wrapped = self.result_store.load("task", spec.fingerprint)
                if wrapped is not None:
                    results[spec.index] = wrapped.get("value")
                    continue
                # done marker without a loadable result: the store entry
                # was corrupt and got quarantined by load() — surface it
                failures.append(
                    {
                        "task_id": spec.task_id,
                        "index": spec.index,
                        "reason": "result-unreadable",
                        "last_error": "stored result missing or corrupt",
                        "traceback": "",
                    }
                )
            elif self.is_quarantined(spec.task_id):
                record = self.quarantine_record(spec.task_id) or {}
                tb_file = record.get("traceback_file")
                tb_text = ""
                if tb_file:
                    try:
                        tb_text = (self.quarantine_dir / tb_file).read_text()
                    except OSError:
                        pass
                failures.append(
                    {
                        "task_id": spec.task_id,
                        "index": spec.index,
                        "reason": record.get("reason", "quarantined"),
                        "last_error": record.get("last_error", ""),
                        "reclaims": record.get("reclaims", 0),
                        "error_attempts": record.get("error_attempts", 0),
                        "traceback": tb_text,
                    }
                )
        return results, failures


# ----------------------------------------------------------------------
class _Heartbeat(threading.Thread):
    """Renews one lease until stopped; flags the lease as lost when the
    file vanished or carries someone else's token (the task was
    reclaimed while we were frozen)."""

    def __init__(self, lease_path: Path, token: str, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{lease_path.stem}")
        self.lease_path = lease_path
        self.token = token
        self.interval = interval
        self.stop_event = threading.Event()
        self.lost = threading.Event()
        self.renewals = 0

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            try:
                faults.fire("runner.heartbeat")
                doc = read_json(self.lease_path)
                if doc is None or doc.get("token") != self.token:
                    self.lost.set()
                    return
                os.utime(self.lease_path)
                self.renewals += 1
            except OSError:
                self.lost.set()
                return
            except Exception:
                # injected error: skip this beat, keep trying — a lease
                # missing several beats simply expires
                continue

    def stop(self) -> None:
        self.stop_event.set()


class Runner:
    """One worker process's claim/execute/complete loop over a sweep."""

    def __init__(
        self,
        sweep: Sweep,
        runner_id: str | None = None,
        poll_interval: float = 0.05,
        max_tasks: int | None = None,
    ):
        self.sweep = sweep
        self.runner_id = runner_id or f"runner-{os.getpid()}"
        self.poll_interval = poll_interval
        self.max_tasks = max_tasks
        self.completed = 0
        self.failed = 0
        self.reclaimed = 0
        #: task specs are immutable once enqueued; cache the scan so a
        #: claim pass costs file-existence checks, not a JSON re-parse
        #: of every task
        self._specs: list[TaskSpec] | None = None

    # -- claim protocol ------------------------------------------------
    def _try_reclaim(self, spec: TaskSpec, now: float) -> bool:
        """Take over an expired lease; True when this runner won.

        ``os.rename`` of the expired lease is the election: exactly one
        renamer succeeds, every other reclaimer gets FileNotFoundError.
        """
        lease_path = self.sweep._lease_path(spec.task_id)
        try:
            mtime = lease_path.stat().st_mtime
        except OSError:
            return True  # lease vanished — holder released it; claimable
        if now - mtime <= self.sweep.config.lease_seconds:
            return False  # live lease
        tombstone = lease_path.with_suffix(
            f".reclaimed.{os.getpid()}.{uuid.uuid4().hex[:6]}"
        )
        try:
            os.rename(lease_path, tombstone)
        except OSError:
            return False  # another reclaimer won the election
        try:
            tombstone.unlink()
        except OSError:
            pass
        attempts = self.sweep.attempts(spec.task_id)
        attempts["reclaims"] = int(attempts.get("reclaims", 0)) + 1
        atomic_write_json(self.sweep._attempts_path(spec.task_id), attempts)
        self.reclaimed += 1
        if attempts["reclaims"] > self.sweep.config.max_reclaims:
            self.sweep.quarantine(
                spec,
                reason="crash-poison: lease expired too often",
                tb_text=(
                    f"task {spec.task_id} lost its lease "
                    f"{attempts['reclaims']} times (> max_reclaims="
                    f"{self.sweep.config.max_reclaims}); the task keeps "
                    "killing or freezing its runners"
                ),
                attempts=attempts,
            )
            return False
        return True

    def claim(self) -> tuple[TaskSpec, str] | None:
        """Claim one runnable task; ``(spec, lease_token)`` or None."""
        faults.fire("task.claim")
        now = time.time()
        if self._specs is None:
            self._specs = self.sweep.tasks()
        for spec in self._specs:
            if self.sweep.is_done(spec.task_id) or self.sweep.is_quarantined(
                spec.task_id
            ):
                continue
            lease_path = self.sweep._lease_path(spec.task_id)
            if lease_path.exists() and not self._try_reclaim(spec, now):
                continue
            if self.sweep.is_quarantined(spec.task_id):
                continue  # _try_reclaim crossed the reclaim bound
            attempts = self.sweep.attempts(spec.task_id)
            if float(attempts.get("next_retry_at", 0.0)) > now:
                continue
            token = uuid.uuid4().hex
            claim_doc = {
                "token": token,
                "runner": self.runner_id,
                "claimed_at": now,
                "pid": os.getpid(),
            }
            if exclusive_create(
                lease_path, json.dumps(claim_doc, sort_keys=True).encode()
            ):
                return spec, token
        return None

    def _release(self, task_id: str, token: str) -> bool:
        """Unlink the lease iff we still hold it (token check guards
        against unlinking a reclaimer's fresh lease)."""
        lease_path = self.sweep._lease_path(task_id)
        doc = read_json(lease_path)
        if doc is None or doc.get("token") != token:
            return False
        try:
            lease_path.unlink()
        except OSError:
            return False
        return True

    # -- execution -----------------------------------------------------
    def _store_result(self, spec: TaskSpec, result) -> None:
        faults.fire("store.write")
        self.sweep.result_store.store(
            "task",
            spec.fingerprint,
            {"task_id": spec.task_id, "value": result},
            description=f"{spec.kind} task {spec.task_id}",
        )

    def execute(self, spec: TaskSpec, token: str) -> bool:
        """Run one claimed task to a terminal or retryable state."""
        config = self.sweep.config
        heartbeat = _Heartbeat(
            self.sweep._lease_path(spec.task_id), token, config.heartbeat_seconds
        )
        heartbeat.start()
        started = time.time()
        try:
            faults.fire("runner.task")
            kind_fn = _TASK_KINDS.get(spec.kind)
            if kind_fn is None:
                raise RunnerCrashed(f"unknown task kind {spec.kind!r}")
            result = kind_fn(self.sweep, spec)
            self._store_result(spec, result)
        except Exception as exc:
            heartbeat.stop()
            self._record_failure(spec, exc)
            self._release(spec.task_id, token)
            self.failed += 1
            return False
        # BaseException (WorkerCrash / KeyboardInterrupt) propagates:
        # the lease is deliberately NOT released — that is the crash
        # path peers must recover via expiry
        heartbeat.stop()
        attempts = self.sweep.attempts(spec.task_id)
        atomic_write_json(
            self.sweep._done_path(spec.task_id),
            {
                "task_id": spec.task_id,
                "index": spec.index,
                "fingerprint": spec.fingerprint,
                "runner": self.runner_id,
                "elapsed_s": time.time() - started,
                "error_attempts": int(attempts.get("error_attempts", 0)),
                "reclaims": int(attempts.get("reclaims", 0)),
                "late_write": heartbeat.lost.is_set(),
                "finished_at": time.time(),
            },
        )
        self._release(spec.task_id, token)
        self.completed += 1
        return True

    def _record_failure(self, spec: TaskSpec, exc: Exception) -> None:
        attempts = self.sweep.attempts(spec.task_id)
        attempts["error_attempts"] = int(attempts.get("error_attempts", 0)) + 1
        attempts["last_error"] = f"{type(exc).__name__}: {exc}"
        tb_text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        if attempts["error_attempts"] >= self.sweep.config.max_attempts:
            atomic_write_json(self.sweep._attempts_path(spec.task_id), attempts)
            self.sweep.quarantine(
                spec,
                reason=f"poison: failed {attempts['error_attempts']} attempts",
                tb_text=tb_text,
                attempts=attempts,
            )
            return
        attempts["next_retry_at"] = time.time() + self.sweep.config.backoff(
            attempts["error_attempts"]
        )
        atomic_write_json(self.sweep._attempts_path(spec.task_id), attempts)

    # -- loop ----------------------------------------------------------
    def run(self) -> SweepStatus:
        """Claim and execute until the sweep is terminal (or
        ``max_tasks`` tasks were executed by this runner)."""
        while True:
            if self.max_tasks is not None and (
                self.completed + self.failed
            ) >= self.max_tasks:
                break
            try:
                claimed = self.claim()
            except Exception:
                # injected claim error / transient FS trouble: back off
                time.sleep(self.poll_interval)
                continue
            if claimed is not None:
                self.execute(*claimed)
                continue
            status = self.sweep.status()
            if status.terminal:
                break
            time.sleep(self.poll_interval)
        return self.sweep.status()


# ----------------------------------------------------------------------
def _runner_process_main(
    root: str, runner_id: str, fault_spec: str, max_tasks: int | None
) -> None:
    """Child-process entry: run one Runner to sweep completion.

    A :class:`~repro.faults.WorkerCrash` (injected) exits via
    ``os._exit`` — no lease release, no atexit, exactly like an OOM
    kill; the sweep recovers through lease expiry.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the driver tears down
    if fault_spec:
        faults.install(fault_spec)
    else:
        faults.install_from_env()
    sweep = Sweep.open(root)
    runner = Runner(sweep, runner_id=runner_id, max_tasks=max_tasks)
    try:
        runner.run()
    except faults.WorkerCrash:
        os._exit(23)
    except KeyboardInterrupt:
        os._exit(130)
    os._exit(0)


@dataclass
class ChaosPlan:
    """Driver-side runner killing for the chaos harness.

    ``kills`` runners are SIGKILLed, each only once it holds a live
    lease (so every kill provably orphans a task for lease-expiry
    reclaim), at least ``min_interval_s`` apart. ``fault_spec`` arms
    the in-process fault sites in every runner.
    """

    kills: int = 1
    min_interval_s: float = 0.15
    fault_spec: str = ""


@dataclass
class SweepReport:
    total: int
    done: int
    quarantined: int
    reclaims: int
    respawns: int
    kills: int
    elapsed_s: float
    runner_exits: list[int] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return self.total - self.done - self.quarantined

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "done": self.done,
            "quarantined": self.quarantined,
            "lost": self.lost,
            "reclaims": self.reclaims,
            "respawns": self.respawns,
            "kills": self.kills,
            "elapsed_s": round(self.elapsed_s, 3),
            "runner_exits": self.runner_exits,
        }


def _spawn_runner(ctx, sweep: Sweep, index: int, chaos_spec: str, max_tasks):
    proc = ctx.Process(
        target=_runner_process_main,
        args=(str(sweep.root), f"runner-{index}", chaos_spec, max_tasks),
        daemon=False,
    )
    proc.start()
    return proc


def _victim_with_lease(sweep: Sweep, procs: dict) -> int | None:
    """A live runner index currently holding a lease (to make a chaos
    kill provably orphan a task)."""
    holders = set()
    for lease in sweep.leases_dir.glob("*.lease"):
        doc = read_json(lease)
        if doc:
            holders.add(doc.get("runner"))
    for index, proc in procs.items():
        if proc.is_alive() and f"runner-{index}" in holders:
            return index
    return None


def run_sweep_local(
    sweep: Sweep,
    n_runners: int,
    chaos: ChaosPlan | None = None,
    max_respawns: int | None = None,
    max_tasks_per_runner: int | None = None,
    poll_interval: float = 0.05,
    timeout: float | None = None,
) -> SweepReport:
    """Drive a sweep with ``n_runners`` local runner processes.

    The driver supervises: dead runners (crashed, chaos-killed, or
    injected ``os._exit``) are respawned while work remains, so the
    sweep always reaches a terminal state — every task done or
    quarantined — unless ``timeout`` expires first. On KeyboardInterrupt
    the runners are terminated and reaped before the exception
    propagates (no orphan processes, no hung driver).
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    chaos_spec = chaos.fault_spec if chaos else ""
    if max_respawns is None:
        max_respawns = 4 + 2 * n_runners + (chaos.kills if chaos else 0)
    started = time.time()
    procs: dict[int, object] = {}
    exits: list[int] = []
    respawns = 0
    kills_done = 0
    last_kill_at = 0.0
    next_index = 0
    try:
        for _ in range(n_runners):
            procs[next_index] = _spawn_runner(
                ctx, sweep, next_index, chaos_spec, max_tasks_per_runner
            )
            next_index += 1
        while True:
            status = sweep.status()
            if status.terminal:
                break
            now = time.time()
            if timeout is not None and now - started > timeout:
                raise TimeoutError(
                    f"sweep did not terminate in {timeout}s: "
                    f"{status.to_json()}"
                )
            # chaos: kill a lease-holding runner, at most every interval
            if (
                chaos is not None
                and kills_done < chaos.kills
                and now - last_kill_at >= chaos.min_interval_s
            ):
                victim = _victim_with_lease(sweep, procs)
                if victim is not None:
                    os.kill(procs[victim].pid, signal.SIGKILL)
                    kills_done += 1
                    last_kill_at = now
            # reap + respawn
            for index, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                proc.join()
                exits.append(proc.exitcode)
                del procs[index]
                if respawns < max_respawns:
                    procs[next_index] = _spawn_runner(
                        ctx, sweep, next_index, chaos_spec, max_tasks_per_runner
                    )
                    next_index += 1
                    respawns += 1
            if not procs:
                # respawn budget exhausted with work remaining
                status = sweep.status()
                if status.terminal:
                    break
                raise RuntimeError(
                    f"all runners exited with work remaining: "
                    f"{status.to_json()} (respawns={respawns})"
                )
            time.sleep(poll_interval)
    finally:
        deadline = time.time() + 10.0
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=max(0.1, deadline - time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
            if proc.exitcode is not None:
                exits.append(proc.exitcode)
    status = sweep.status()
    return SweepReport(
        total=status.total,
        done=status.done,
        quarantined=status.quarantined,
        reclaims=status.reclaims,
        respawns=respawns,
        kills=kills_done,
        elapsed_s=time.time() - started,
        runner_exits=exits,
    )


# ----------------------------------------------------------------------
# experiment sweep decompositions + deterministic merges. The merge
# stores its aggregate under the exact fingerprint the serial driver
# uses, so a distributed sweep warms the same cache entry run_folds /
# run_ablation would have written.
def demo_sweep_tasks(
    n: int,
    size: int = 50_000,
    reps: int = 60,
    sleep_s: float = 0.0,
    seed: int = 0,
) -> list[TaskSpec]:
    specs = []
    for index in range(n):
        params = {
            "seed": seed + index,
            "size": size,
            "reps": reps,
            "sleep_s": sleep_s,
        }
        specs.append(
            TaskSpec(
                task_id=f"t{index:05d}",
                index=index,
                kind="demo",
                fingerprint=fingerprint("demotask", params),
                params=params,
            )
        )
    return specs


def folds_sweep_tasks(scale) -> list[TaskSpec]:
    from repro.eval import experiments as ex
    from repro.eval.folds import leave_one_out_folds
    from repro.eval.samples import training_placements

    specs = []
    folds = leave_one_out_folds(scale.datasets, scale.n_folds)
    for index, (test_dataset, train_datasets) in enumerate(folds):
        fp = fingerprint(
            "foldtask",
            ex._normalized_scale(scale),
            ex._gnn_config(scale),
            ex._train_config(scale),
            training_placements(),
            test_dataset,
            train_datasets,
        )
        specs.append(
            TaskSpec(
                task_id=f"t{index:05d}",
                index=index,
                kind="fold",
                fingerprint=fp,
                params={
                    "test_dataset": test_dataset,
                    "train_datasets": list(train_datasets),
                },
            )
        )
    return specs


def merge_folds(sweep: Sweep, scale) -> list:
    """Assemble fold results in fold order and store the aggregate under
    the serial driver's fingerprint (``folds``/:func:`folds_fingerprint`)."""
    from repro.eval import experiments as ex
    from repro.eval.resultstore import default_store

    results, failures = sweep.collect()
    if failures:
        raise RunnerCrashed(
            f"{len(failures)} fold task(s) quarantined; first: "
            f"{failures[0]['last_error'] or failures[0]['reason']}"
        )
    runs = [results[index] for index in sorted(results)]
    default_store().store(
        "folds",
        ex.folds_fingerprint(scale),
        runs,
        description=f"fold runs (distributed sweep {sweep.manifest()['sweep_id']})",
    )
    return runs


def ablation_sweep_tasks(scale, test_dataset: str | None = None) -> list[TaskSpec]:
    from repro.eval import experiments as ex

    if test_dataset is None:
        test_dataset = "genome" if "genome" in scale.datasets else scale.datasets[-1]
    n_seeds = max(1, scale.n_ablation_seeds)
    specs = []
    index = 0
    for step_index, (step, config) in enumerate(ex.ABLATION_STEPS):
        for seed_offset in range(n_seeds):
            fp = fingerprint(
                "ablationtask",
                ex._normalized_scale(scale),
                ex._gnn_config(scale),
                ex._train_config(scale),
                test_dataset,
                step,
                config,
                seed_offset,
            )
            specs.append(
                TaskSpec(
                    task_id=f"t{index:05d}",
                    index=index,
                    kind="ablation",
                    fingerprint=fp,
                    params={
                        "test_dataset": test_dataset,
                        "step_index": step_index,
                        "seed_offset": seed_offset,
                    },
                )
            )
            index += 1
    return specs


def merge_ablation(sweep: Sweep, scale, test_dataset: str | None = None) -> dict:
    from repro.eval import experiments as ex
    from repro.eval.resultstore import default_store

    if test_dataset is None:
        test_dataset = "genome" if "genome" in scale.datasets else scale.datasets[-1]
    results, failures = sweep.collect()
    if failures:
        raise RunnerCrashed(
            f"{len(failures)} ablation task(s) quarantined; first: "
            f"{failures[0]['last_error'] or failures[0]['reason']}"
        )
    n_seeds = max(1, scale.n_ablation_seeds)
    summaries = [results[index] for index in sorted(results)]
    merged: dict[str, dict] = {}
    for i, (step, _) in enumerate(ex.ABLATION_STEPS):
        merged[step] = ex._median_over_seeds(summaries[i * n_seeds : (i + 1) * n_seeds])
    default_store().store(
        "ablation",
        ex.ablation_fingerprint(scale, test_dataset),
        merged,
        description=(
            f"Fig. 7 ablation on {test_dataset} "
            f"(distributed sweep {sweep.manifest()['sweep_id']})"
        ),
    )
    return merged
