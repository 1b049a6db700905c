"""Online pull-up advisor on top of the micro-batching engine.

The offline :class:`~repro.advisor.advisor.PullUpAdvisor` predicts the
two placement cost curves with two sequential model calls. The service
variant scores *all* annotated graphs of a decision — both placements ×
every selectivity level — in one ``score_resilient`` call on the
:class:`~repro.serve.engine.ShardedEngine`, so a single advisory request
forms one micro-batch by itself, and concurrent requests from many
clients coalesce further inside the engine.

Graph construction and strategy resolution are the exact shared helpers
of :mod:`repro.advisor.advisor` (:func:`placement_graphs`,
:func:`apply_strategy`); the service cannot drift from the offline
advisor's semantics.

Sessions give each client a handle with per-client statistics (decision
counts, placement mix, latency), the raw material for the per-tenant
accounting a production advisor needs.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.advisor.advisor import (
    AdvisorDecision,
    apply_strategy,
    check_udf_filter_query,
    placement_graphs,
)
from repro.advisor.strategies import SELECTIVITY_LEVELS
from repro.core.joint_graph import JointGraph, JointGraphConfig
from repro.exceptions import ServingError
from repro.feedback.collector import FeedbackLog, FeedbackRecord
from repro.serve.engine import ShardedEngine
from repro.sql.query import Query, UDFPlacement
from repro.stats.base import CardinalityEstimator
from repro.stats.catalog import StatisticsCatalog


@dataclass
class SessionStats:
    """Per-client accounting, updated by every decision of the session."""

    client_id: str
    decisions: int = 0
    pull_ups: int = 0
    push_downs: int = 0
    strategies: Counter = field(default_factory=Counter)
    total_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "decisions": self.decisions,
            "pull_ups": self.pull_ups,
            "push_downs": self.push_downs,
            "strategies": dict(self.strategies),
            "total_seconds": self.total_seconds,
            "mean_seconds": (
                self.total_seconds / self.decisions if self.decisions else 0.0
            ),
        }


@dataclass
class _PendingDecision:
    """A served decision awaiting its observed runtime.

    Holds the chosen placement's annotated graphs (one per scored
    selectivity level) and their predicted costs, so the eventual
    observation can be paired with the exact graph the model scored —
    the retraining sample — without rebuilding anything.
    """

    graphs: list[JointGraph]
    costs: np.ndarray
    levels: np.ndarray
    placement: str
    segment: str
    client: str


class AdvisorSession:
    """A client-scoped handle onto the shared advisor service."""

    def __init__(self, service: "AdvisorService", client_id: str):
        self.service = service
        self.stats = SessionStats(client_id)

    def suggest_placement(
        self,
        query: Query,
        true_selectivity: float | None = None,
        strategy: str | None = None,
        deadline: float | None = None,
    ) -> AdvisorDecision:
        return self.service.suggest_placement(
            query,
            true_selectivity=true_selectivity,
            strategy=strategy,
            session=self,
            deadline=deadline,
        )


class AdvisorService:
    """Multi-client placement advisory over one sharded engine."""

    def __init__(
        self,
        engine: ShardedEngine,
        catalog: StatisticsCatalog,
        estimator: CardinalityEstimator,
        strategy: str = "conservative",
        selectivity_levels: tuple[float, ...] = SELECTIVITY_LEVELS,
        joint_config: JointGraphConfig | None = None,
        max_sessions: int = 1024,
        feedback: FeedbackLog | None = None,
        max_pending: int = 4096,
    ):
        self.engine = engine
        self.catalog = catalog
        self.estimator = estimator
        self.strategy = strategy
        self.selectivity_levels = selectivity_levels
        self.joint_config = joint_config or JointGraphConfig()
        self.max_sessions = max_sessions
        self.feedback = feedback
        self.max_pending = max_pending
        self._sessions: OrderedDict[str, AdvisorSession] = OrderedDict()
        self._pending: OrderedDict[str, _PendingDecision] = OrderedDict()
        self._lock = threading.Lock()

    # -- sessions ------------------------------------------------------
    def session(self, client_id: str) -> AdvisorSession:
        """The (created-on-first-use) session for ``client_id``.

        Sessions are LRU-capped at ``max_sessions``: arbitrary client
        ids arriving over HTTP must not grow memory without bound, so
        the coldest session (and its stats) is dropped at the cap.
        """
        with self._lock:
            session = self._sessions.get(client_id)
            if session is None:
                session = self._sessions[client_id] = AdvisorSession(self, client_id)
            self._sessions.move_to_end(client_id)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
            return session

    def session_stats(self) -> dict[str, dict]:
        with self._lock:
            return {
                client: session.stats.as_dict()
                for client, session in self._sessions.items()
            }

    # -- the advisory call ---------------------------------------------
    def suggest_placement(
        self,
        query: Query,
        true_selectivity: float | None = None,
        strategy: str | None = None,
        session: AdvisorSession | None = None,
        deadline: float | None = None,
    ) -> AdvisorDecision:
        """Decide pull-up vs push-down with one micro-batched model call."""
        check_udf_filter_query(query)
        strategy = strategy or self.strategy
        start = time.perf_counter()
        levels = (
            np.asarray([true_selectivity])
            if true_selectivity is not None
            else np.asarray(self.selectivity_levels, dtype=np.float64)
        )
        graphs = placement_graphs(
            query, self.catalog, self.estimator, levels, self.joint_config
        )
        # One submission for every placement alternative: the engine sees
        # them together and runs a single joint forward pass. With a
        # prediction cache, repeat (graph, placement, selectivity) keys
        # skip the forward entirely and only the misses travel to the
        # engine queue.
        order = (UDFPlacement.PUSH_DOWN, UDFPlacement.PULL_UP)
        flat = [g for placement in order for g in graphs[placement]]
        contexts = [
            (placement.value, float(level)) for placement in order for level in levels
        ]
        try:
            outcome = self.engine.score_resilient(flat, contexts, deadline=deadline)
            err = outcome.first_error()
            if err is not None:
                # a decision needs every cost; any failed point fails
                # the advisory call as a whole
                raise err
        except ServingError:
            # sheds and rejections keep their class: the HTTP layer maps
            # EngineOverloaded/DeadlineExceeded/... to their own statuses
            raise
        except Exception as exc:  # surface engine-side failures uniformly
            raise ServingError(f"placement scoring failed: {exc}") from exc
        per_placement = np.asarray(outcome.values, dtype=np.float64).reshape(
            len(order), len(levels)
        )
        pushdown_costs, pullup_costs = per_placement
        pull_up, strategy_name = apply_strategy(
            pullup_costs, pushdown_costs, levels, strategy, true_selectivity
        )
        decision = AdvisorDecision(
            pull_up=pull_up,
            strategy=strategy_name,
            pullup_costs=pullup_costs,
            pushdown_costs=pushdown_costs,
            selectivity_levels=levels,
            decision_seconds=time.perf_counter() - start,
        )
        decision.degraded = outcome.degraded
        if self.feedback is not None:
            decision.decision_id = self._stash_pending(query, graphs, decision, session)
        self._record(session, decision)
        return decision

    # -- runtime feedback ----------------------------------------------
    def _stash_pending(
        self,
        query: Query,
        graphs: dict[UDFPlacement, list[JointGraph]],
        decision: AdvisorDecision,
        session: AdvisorSession | None,
    ) -> str:
        """Remember the served decision until its runtime is observed."""
        chosen = decision.placement
        costs = decision.pullup_costs if decision.pull_up else decision.pushdown_costs
        pending = _PendingDecision(
            graphs=graphs[chosen],
            costs=np.asarray(costs, dtype=np.float64),
            levels=np.asarray(decision.selectivity_levels, dtype=np.float64),
            placement=chosen.value,
            segment=query.dataset,
            client=session.stats.client_id if session is not None else "anonymous",
        )
        decision_id = uuid.uuid4().hex[:16]
        with self._lock:
            self._pending[decision_id] = pending
            while len(self._pending) > self.max_pending:
                self._pending.popitem(last=False)
        return decision_id

    def record_runtime(
        self,
        decision_id: str,
        observed: float,
        true_selectivity: float | None = None,
        metadata: dict | None = None,
    ) -> FeedbackRecord:
        """Pair an observed runtime with its served decision.

        The feedback record carries the annotated graph the model
        actually scored for the chosen placement — at the level nearest
        the reported true selectivity when the caller knows it, at the
        grid midpoint otherwise — so the retrainer trains on exactly
        what serving predicted.

        ``metadata`` entries are merged into the record's metadata
        (callers tag provenance, e.g. ``{"backend": "duckdb"}`` for
        real-engine observations); reserved keys (``decision_id``,
        ``true_selectivity``) cannot be overridden.
        """
        if self.feedback is None:
            raise ServingError("no feedback log attached to this service")
        try:
            observed = float(observed)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"observed runtime must be a number: {exc}") from exc
        if not np.isfinite(observed) or observed <= 0:
            # reject before consuming the pending entry: a malformed
            # report must leave the decision available for a retry
            raise ServingError(f"observed runtime must be > 0, got {observed!r}")
        with self._lock:
            pending = self._pending.pop(decision_id, None)
        if pending is None:
            raise ServingError(f"unknown or expired decision id {decision_id!r}")
        if true_selectivity is not None:
            index = int(np.argmin(np.abs(pending.levels - float(true_selectivity))))
        else:
            index = len(pending.graphs) // 2
        record_metadata = dict(metadata) if metadata else {}
        record_metadata["decision_id"] = decision_id
        if true_selectivity is not None:
            record_metadata["true_selectivity"] = float(true_selectivity)
        record = FeedbackRecord(
            predicted=float(pending.costs[index]),
            observed=observed,
            placement=pending.placement,
            segment=pending.segment,
            client=pending.client,
            graph=pending.graphs[index],
            metadata=record_metadata,
        )
        self.feedback.append(record)
        return record

    @property
    def pending_feedback(self) -> int:
        with self._lock:
            return len(self._pending)

    def _record(
        self, session: AdvisorSession | None, decision: AdvisorDecision
    ) -> None:
        if session is None:
            session = self.session("anonymous")
        stats = session.stats
        with self._lock:
            stats.decisions += 1
            if decision.pull_up:
                stats.pull_ups += 1
            else:
                stats.push_downs += 1
            stats.strategies[decision.strategy] += 1
            stats.total_seconds += decision.decision_seconds

    def describe(self) -> dict:
        info = {
            "strategy": self.strategy,
            "selectivity_levels": list(self.selectivity_levels),
            "sessions": self.session_stats(),
            "engine": self.engine.describe(),
        }
        if self.feedback is not None:
            info["feedback"] = self.feedback.stats()
            info["pending_feedback"] = self.pending_feedback
        return info
