"""Closed-loop continual learning over the serving subsystem.

The offline experiments train the cost model once; production traffic
drifts. This package closes the loop back from observed runtimes to the
served model (DESIGN.md §10):

* :class:`FeedbackLog` — thread-safe collector with a bounded on-disk
  replay buffer of ``(graph, predicted, observed, placement)`` records;
* :class:`DriftMonitor` — windowed Q-error tracking per workload
  segment with a level trigger (trailing median vs. training-time
  baseline) and a two-window shift test;
* :class:`Retrainer` — fine-tunes the live model on replay samples
  through the prepared-batch training pipeline and publishes the
  candidate to the model registry with drift/feedback metadata;
* :class:`CanaryPromoter` — shadow-scores the candidate against the
  live model on a held-out replay slice and hot-swaps the engine only
  when the candidate wins by a configurable margin;
* :class:`FeedbackLoop` — the orchestrator tying the four together,
  runnable one-shot or as a daemon (``scripts/feedback_loop.py``).
"""

from repro.feedback.collector import (
    FeedbackLog,
    FeedbackRecord,
    graph_fingerprint,
)
from repro.feedback.drift import DriftConfig, DriftMonitor, DriftVerdict
from repro.feedback.loop import FeedbackLoop, LoopEvent
from repro.feedback.retrain import (
    CanaryPromoter,
    PromotionResult,
    RetrainConfig,
    Retrainer,
    RetrainOutcome,
    clone_model,
    serving_baseline,
)
from repro.feedback.simulate import (
    advisable_entries,
    observe_benchmark,
    true_udf_selectivity,
)

__all__ = [
    "CanaryPromoter",
    "DriftConfig",
    "DriftMonitor",
    "DriftVerdict",
    "FeedbackLog",
    "FeedbackLoop",
    "FeedbackRecord",
    "LoopEvent",
    "PromotionResult",
    "RetrainConfig",
    "RetrainOutcome",
    "Retrainer",
    "advisable_entries",
    "clone_model",
    "graph_fingerprint",
    "observe_benchmark",
    "serving_baseline",
    "true_udf_selectivity",
]
