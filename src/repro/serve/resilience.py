"""Resilience primitives for the serving tier (DESIGN.md §12).

Four small machines that, together with the bounded queue and worker
supervisor in :mod:`repro.serve.engine`, turn "a request was submitted"
into "every admitted request gets exactly one of: an answer, a flagged
degraded answer, or a clean structured rejection — promptly":

* :class:`Deadline` helpers — absolute monotonic deadlines (on the
  :mod:`repro.obs.clock` seam, like every duration in the stack)
  carried from the HTTP header through the engine queue, so expired work
  is shed *before* a forward pass is paid for it;
* :class:`CircuitBreaker` — a classic closed/open/half-open breaker over
  the GNN forward, tripping on error rate or latency and recovering via
  limited half-open probes;
* :class:`DegradedFallback` — the answer of last resort while the
  breaker is open: a GBM (:mod:`repro.model.gbm`) self-distilled from
  ``(graph features, GNN prediction)`` pairs observed during healthy
  traffic, or the observed median before enough pairs exist. Orders of
  magnitude cheaper than the GNN and immune to whatever is breaking it,
  at the price of accuracy — which is why every fallback answer is
  flagged ``degraded: true``;
* :class:`HealthMonitor` — the ``starting → ready ⇄ degraded → draining``
  state machine behind ``/healthz``, derived from breaker state and
  recent shard restarts rather than asserted by hand.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.exceptions import ServingError
from repro.model.gbm import GBMConfig, GBMRegressor
from repro.obs import clock

# -- deadlines ---------------------------------------------------------


def deadline_from_ms(budget_ms: float | None) -> float | None:
    """Relative millisecond budget → absolute monotonic deadline."""
    if budget_ms is None:
        return None
    return clock.monotonic() + max(0.0, float(budget_ms)) / 1e3


def deadline_expired(deadline: float | None) -> bool:
    return deadline is not None and clock.monotonic() >= deadline


def deadline_remaining(deadline: float | None, default: float) -> float:
    """Seconds left on ``deadline`` (``default`` when none was set)."""
    if deadline is None:
        return default
    return max(0.0, deadline - clock.monotonic())


# -- circuit breaker ---------------------------------------------------


class CircuitBreaker:
    """Error-rate / latency breaker over the GNN forward path.

    ``closed`` is normal service. When, over a sliding window of at
    least ``min_samples`` outcomes, the error rate reaches
    ``max_error_rate`` — or the windowed mean latency exceeds
    ``max_latency_s`` — the breaker *opens*: :meth:`allow` answers
    ``False`` and callers take the degraded path without touching the
    forward. After ``cooldown_s`` it goes *half-open*, letting
    ``half_open_probes`` real requests through; one success closes it
    (window reset — pre-incident history must not instantly re-trip),
    one failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        window: int = 64,
        min_samples: int = 16,
        max_error_rate: float = 0.5,
        max_latency_s: float | None = None,
        cooldown_s: float = 2.0,
        half_open_probes: int = 1,
    ):
        if not 0.0 < max_error_rate <= 1.0:
            raise ServingError("max_error_rate must be in (0, 1]")
        self.window = window
        self.min_samples = min_samples
        self.max_error_rate = max_error_rate
        self.max_latency_s = max_latency_s
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._lock = threading.Lock()
        self._outcomes: deque[tuple[bool, float]] = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._probes_left = 0
        self.trips = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == "open" and (
            clock.monotonic() - self._opened_at >= self.cooldown_s
        ):
            self._state = "half_open"
            self._probes_left = self.half_open_probes
        return self._state

    def allow(self) -> bool:
        """May a request take the primary (GNN) path right now?"""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open" and self._probes_left > 0:
                self._probes_left -= 1
                self.probes += 1
                return True
            return False

    def record_success(self, latency_s: float) -> None:
        with self._lock:
            state = self._state_locked()
            if state == "half_open":
                # one healthy probe closes the breaker with a clean
                # window: the outcomes that tripped it are history
                self._state = "closed"
                self._outcomes.clear()
            self._outcomes.append((True, latency_s))
            self._maybe_trip_locked()

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state == "half_open":
                self._trip_locked()
                return
            self._outcomes.append((False, 0.0))
            self._maybe_trip_locked()

    def _maybe_trip_locked(self) -> None:
        if self._state != "closed" or len(self._outcomes) < self.min_samples:
            return
        failures = sum(1 for ok, _ in self._outcomes if not ok)
        if failures / len(self._outcomes) >= self.max_error_rate:
            self._trip_locked()
            return
        if self.max_latency_s is not None:
            latencies = [lat for ok, lat in self._outcomes if ok]
            if latencies and float(np.mean(latencies)) > self.max_latency_s:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = "open"
        self._opened_at = clock.monotonic()
        self._outcomes.clear()
        self.trips += 1

    def describe(self) -> dict:
        with self._lock:
            state = self._state_locked()
            failures = sum(1 for ok, _ in self._outcomes if not ok)
            return {
                "state": state,
                "window": len(self._outcomes),
                "window_failures": failures,
                "trips": self.trips,
                "probes": self.probes,
                "max_error_rate": self.max_error_rate,
                "max_latency_s": self.max_latency_s,
                "cooldown_s": self.cooldown_s,
            }


# -- degraded fallback -------------------------------------------------


def graph_feature_vector(graph: JointGraph) -> np.ndarray:
    """Flatten a joint graph into the fallback GBM's feature space.

    Node-type histogram + size + coarse feature statistics — crude next
    to the GNN's message passing, but computable in microseconds with no
    shared state, which is the entire point of a degraded tier.
    """
    counts = np.zeros(len(enc.NODE_TYPES), dtype=np.float64)
    index = {t: i for i, t in enumerate(enc.NODE_TYPES)}
    for gtype in graph.node_types:
        at = index.get(gtype)
        if at is not None:
            counts[at] += 1.0
    if graph.features:
        flat = np.concatenate([np.ravel(f) for f in graph.features])
        stats = np.array(
            [flat.sum(), flat.mean(), flat.max(), flat.min()], dtype=np.float64
        )
    else:
        stats = np.zeros(4, dtype=np.float64)
    size = np.array(
        [float(graph.num_nodes), float(len(graph.edges))], dtype=np.float64
    )
    return np.concatenate([counts, size, stats])


class DegradedFallback:
    """Answer of last resort: a GBM distilled from healthy GNN traffic.

    During normal service :meth:`observe_many` samples ``(graph, GNN
    prediction)`` pairs into a bounded reservoir; the GBM is (re)fitted
    lazily on first degraded use after enough new observations arrive.
    Below ``min_fit`` observations it predicts the observed median; with
    no observations at all it raises — the caller then has nothing left
    but an error, and says so honestly.
    """

    def __init__(
        self,
        capacity: int = 2048,
        min_fit: int = 64,
        refit_every: int = 512,
        config: GBMConfig | None = None,
    ):
        self.capacity = capacity
        self.min_fit = min_fit
        self.refit_every = refit_every
        self.config = config or GBMConfig(
            n_estimators=40, max_depth=4, min_samples_leaf=3, seed=0
        )
        self._lock = threading.Lock()
        self._features: deque[np.ndarray] = deque(maxlen=capacity)
        self._targets: deque[float] = deque(maxlen=capacity)
        self._model: GBMRegressor | None = None
        self._fitted_at = 0
        self._seen = 0
        self.served = 0

    def observe_many(self, graphs: list[JointGraph], values: list[float]) -> None:
        """Record healthy (graph, prediction) pairs for distillation."""
        with self._lock:
            for graph, value in zip(graphs, values):
                self._seen += 1
                self._features.append(graph_feature_vector(graph))
                self._targets.append(float(value))

    def observations(self) -> int:
        with self._lock:
            return len(self._targets)

    def _ensure_model_locked(self) -> GBMRegressor | None:
        n = len(self._targets)
        if n < self.min_fit:
            return None
        stale = self._model is None or (
            self._seen - self._fitted_at >= self.refit_every
        )
        if stale:
            X = np.stack(list(self._features))
            y = np.asarray(self._targets, dtype=np.float64)
            self._model = GBMRegressor(self.config).fit(X, y)
            self._fitted_at = self._seen
        return self._model

    def predict_many(self, graphs: list[JointGraph]) -> list[float]:
        """Degraded predictions; raises ServingError with no history."""
        with self._lock:
            if not self._targets:
                raise ServingError(
                    "degraded fallback has no observations to distill from"
                )
            model = self._ensure_model_locked()
            if model is None:
                value = float(np.median(np.asarray(self._targets)))
                self.served += len(graphs)
                return [value] * len(graphs)
            X = np.stack([graph_feature_vector(g) for g in graphs])
            out = model.predict(X)
            self.served += len(graphs)
            return [float(v) for v in out]

    def describe(self) -> dict:
        with self._lock:
            return {
                "observations": len(self._targets),
                "seen": self._seen,
                "min_fit": self.min_fit,
                "fitted": self._model is not None,
                "served": self.served,
            }


# -- health state machine ----------------------------------------------

HEALTH_STATES = ("starting", "ready", "degraded", "draining")


@dataclass
class HealthMonitor:
    """Derives the service health state instead of asserting it.

    ``draining`` and ``starting`` are explicit lifecycle edges set by the
    server; between them the state is *computed*: ``degraded`` whenever
    the breaker is not closed or a shard restarted within
    ``restart_grace_s``, else ``ready``. ``/healthz`` answers 200 for
    ready/degraded (the service responds, possibly at reduced fidelity)
    and 503 for starting/draining (do not route traffic here).
    """

    breaker: CircuitBreaker | None = None
    restart_grace_s: float = 5.0
    _started: bool = False
    _draining: bool = False
    _last_restart: float = field(default=0.0)
    _restarts: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def mark_ready(self) -> None:
        with self._lock:
            self._started = True

    def mark_draining(self) -> None:
        with self._lock:
            self._draining = True

    def note_restart(self) -> None:
        with self._lock:
            self._restarts += 1
            self._last_restart = clock.monotonic()

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def state(self) -> str:
        with self._lock:
            if self._draining:
                return "draining"
            if not self._started:
                return "starting"
            recently_restarted = (
                self._last_restart > 0.0
                and clock.monotonic() - self._last_restart < self.restart_grace_s
            )
        if recently_restarted:
            return "degraded"
        if self.breaker is not None and self.breaker.state != "closed":
            return "degraded"
        return "ready"

    def http_status(self) -> int:
        return 200 if self.state() in ("ready", "degraded") else 503

    def describe(self) -> dict:
        info = {"state": self.state(), "restarts": self.restarts}
        if self.breaker is not None:
            info["breaker"] = self.breaker.describe()
        return info
