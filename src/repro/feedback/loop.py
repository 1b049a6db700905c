"""The feedback-loop orchestrator: monitor → retrain → canary → promote.

One :class:`FeedbackLoop` owns the whole cycle for one served model:

1. every record appended to the :class:`FeedbackLog` streams into the
   :class:`DriftMonitor` (the loop subscribes on construction and warm
   starts from the replay buffer, so a restarted daemon resumes with the
   trailing window it had);
2. ``step()`` checks every workload segment; on a trigger it fine-tunes
   a candidate on the replay buffer, publishes it, shadow-scores it
   against the live model, and promotes (hot-swaps the engine) only on a
   clear win;
3. after either verdict the monitor's windows restart — on promotion
   with the candidate's holdout median as the new baseline — so one
   drift episode produces one retrain, not one per loop tick.

``run()`` paces ``step()`` on a wall-clock interval for daemon use
(``scripts/feedback_loop.py``); ``step()`` alone is the one-shot mode.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import FeedbackError
from repro.feedback.collector import FeedbackLog
from repro.feedback.drift import DriftConfig, DriftMonitor
from repro.feedback.retrain import (
    CanaryPromoter,
    RetrainConfig,
    Retrainer,
)
from repro.serve.engine import ShardedEngine
from repro.serve.registry import ModelRegistry, ModelVersion


@dataclass
class LoopEvent:
    """One completed ``step()`` that found something to do."""

    action: str  # "promoted" | "rejected" | "skipped"
    segment: str
    timestamp: float = field(default_factory=time.time)
    drift: dict = field(default_factory=dict)
    version_ref: str = ""
    promotion: dict = field(default_factory=dict)
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "action": self.action,
            "segment": self.segment,
            "timestamp": self.timestamp,
            "drift": self.drift,
            "version_ref": self.version_ref,
            "promotion": self.promotion,
            "detail": self.detail,
        }


class FeedbackLoop:
    """Closed-loop continual learning over one serving engine."""

    def __init__(
        self,
        log: FeedbackLog,
        engine: ShardedEngine,
        registry: ModelRegistry,
        model_name: str,
        baseline_median: float,
        live_ref: str = "",
        drift_config: DriftConfig | None = None,
        retrain_config: RetrainConfig | None = None,
        on_promote=None,
        max_events: int = 256,
    ):
        self.log = log
        self.engine = engine
        self.registry = registry
        self.model_name = model_name
        self.live_ref = live_ref
        self.monitor = DriftMonitor(baseline_median, drift_config)
        self.retrainer = Retrainer(registry, model_name, retrain_config)
        self._external_on_promote = on_promote
        self.promoter = CanaryPromoter(
            engine,
            registry,
            min_improvement=self.retrainer.config.min_improvement,
            on_promote=self._handle_promotion,
        )
        self.steps = 0
        self.events_recorded = 0
        #: bounded: a long-lived daemon must not grow /stats forever
        self.events: deque[LoopEvent] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._episode_active = False
        # warm-start the monitor from the surviving replay buffer, then
        # subscribe for everything that arrives from now on
        for record in log.replay(limit=self.monitor.config.window):
            self.monitor.observe_record(record)
        log.subscribe(self.monitor.observe_record)

    def _handle_promotion(self, version: ModelVersion) -> None:
        self.live_ref = version.ref
        if self._external_on_promote is not None:
            self._external_on_promote(version)

    # -- the loop body -------------------------------------------------
    def step(self) -> LoopEvent | None:
        """One monitor→retrain→canary cycle; None when nothing drifted.

        One episode at a time: a daemon tick racing a manual call would
        retrain the same drift twice. The guard is an episode *flag*,
        not holding the lock across training — ``describe()`` (the
        ``/stats`` endpoint) must stay responsive exactly while a drift
        episode is being handled.
        """
        with self._lock:
            if self._episode_active:
                return None
            self.steps += 1
            verdicts = self.monitor.check_all()
            triggered = {s: v for s, v in verdicts.items() if v.triggered}
            if not triggered:
                return None
            self._episode_active = True
        try:
            # retrain once per episode, attributed to the worst segment;
            # the fine-tune itself uses the whole replay buffer
            segment = max(triggered, key=lambda s: triggered[s].level_ratio)
            verdict = triggered[segment]
            live_model = self.engine.model
            try:
                outcome = self.retrainer.retrain(
                    live_model,
                    self.log.replay(),
                    drift=verdict,
                    live_ref=self.live_ref,
                )
            except FeedbackError as exc:
                return self._record_event(
                    LoopEvent(
                        action="skipped",
                        segment=segment,
                        drift=verdict.as_dict(),
                        detail=str(exc),
                    )
                )
            promotion = self.promoter.consider(live_model, outcome)
            if promotion.promoted:
                self.monitor.rebaseline(max(promotion.candidate_q["median"], 1.0))
            else:
                # restart the windows so this episode is not retried on
                # every subsequent tick; the baseline stays
                self.monitor.rebaseline()
            return self._record_event(
                LoopEvent(
                    action="promoted" if promotion.promoted else "rejected",
                    segment=segment,
                    drift=verdict.as_dict(),
                    version_ref=outcome.version.ref,
                    promotion=promotion.as_dict(),
                    detail=promotion.reason,
                )
            )
        finally:
            with self._lock:
                self._episode_active = False

    def _record_event(self, event: LoopEvent) -> LoopEvent:
        with self._lock:
            self.events.append(event)
            self.events_recorded += 1
        return event

    def run(
        self,
        interval_seconds: float = 30.0,
        stop: threading.Event | None = None,
        max_steps: int | None = None,
    ) -> list[LoopEvent]:
        """Pace ``step()`` until ``stop`` is set (daemon mode)."""
        stop = stop or threading.Event()
        produced: list[LoopEvent] = []
        ticks = 0
        while not stop.is_set():
            event = self.step()
            if event is not None:
                produced.append(event)
            ticks += 1
            if max_steps is not None and ticks >= max_steps:
                break
            stop.wait(interval_seconds)
        return produced

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        """Loop summary for the serving ``/stats`` endpoint."""
        with self._lock:
            events = [e.as_dict() for e in self.events]
            steps = self.steps
            events_recorded = self.events_recorded
            episode_active = self._episode_active
        return {
            "model": self.model_name,
            "live_ref": self.live_ref,
            "steps": steps,
            "episode_active": episode_active,
            "retrains": self.retrainer.retrains,
            "promotions": self.promoter.promotions,
            "rejections": self.promoter.rejections,
            "min_improvement": self.promoter.min_improvement,
            "events": events,
            "events_recorded": events_recorded,
            "monitor": self.monitor.status(),
            "log": self.log.stats(),
        }
