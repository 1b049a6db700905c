"""Retraining + canary promotion: the actuator half of the closed loop.

On a drift trigger the :class:`Retrainer` fine-tunes a *clone* of the
live model on replay-buffer samples — the same prepared-batch training
pipeline as offline training (`repro.model.training` over the
process-wide `PreparedGraphCache`), just warm-started from the live
weights with a gentler learning rate — and publishes the candidate to
the model registry with drift/feedback metadata in its sidecar.

The :class:`CanaryPromoter` then shadow-scores candidate vs. live on the
held-out replay slice the candidate never trained on, and hot-swaps the
serving engine *only* when the candidate's median Q-error beats the live
model's by a configurable margin. Either verdict is recorded back into
the published version's sidecar, so the registry history tells the whole
story: what drifted, what was retrained, and whether it won.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.metrics import q_error_summary
from repro.exceptions import FeedbackError
from repro.feedback.collector import FeedbackRecord
from repro.feedback.drift import DriftVerdict
from repro.model.gnn import CostGNN
from repro.model.training import (
    TrainConfig,
    predict_runtimes,
    train_cost_model,
)
from repro.serve.engine import ShardedEngine
from repro.serve.registry import ModelRegistry, ModelVersion


@dataclass(frozen=True)
class RetrainConfig:
    """Knobs of the fine-tune + canary stage."""

    #: fine-tune epochs (short: we start from the live weights)
    epochs: int = 25
    #: fine-tune learning rate (gentler than from-scratch training)
    lr: float = 1e-3
    shards_per_epoch: int = 4
    seed: int = 0
    #: replay slice held out of fine-tuning for the shadow comparison
    holdout_fraction: float = 0.25
    #: trainable records required before a retrain is attempted
    min_samples: int = 32
    #: newest trainable records kept when the replay buffer is larger
    max_samples: int = 4096
    #: candidate must beat the live median Q-error by this relative
    #: margin to be promoted (0.05 = at least 5% better)
    min_improvement: float = 0.05


def clone_model(model: CostGNN) -> CostGNN:
    """An independent copy of ``model`` (same config, copied weights)."""
    clone = CostGNN(model.config)
    clone.load_state_dict(model.state_dict())
    return clone


def serving_baseline(version: ModelVersion) -> float:
    """The drift baseline a served version is known to deliver: the
    canary holdout median for promoted candidates, the recorded
    training/validation median otherwise (0.0 when unknown)."""
    canary = version.metrics.get("canary", {})
    if canary.get("promoted") is True:
        return float(canary.get("candidate_q", {}).get("median", 0.0))
    return float(version.metrics.get("median_q", 0.0))


@dataclass
class RetrainOutcome:
    """A published candidate, ready for the canary comparison."""

    version: ModelVersion
    candidate: CostGNN
    n_train: int
    n_holdout: int
    holdout: list[FeedbackRecord]
    final_loss: float


@dataclass
class PromotionResult:
    """The canary verdict for one candidate."""

    promoted: bool
    reason: str
    version_ref: str
    improvement: float
    live_q: dict[str, float] = field(default_factory=dict)
    candidate_q: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "promoted": self.promoted,
            "reason": self.reason,
            "version_ref": self.version_ref,
            "improvement": self.improvement,
            "live_q": self.live_q,
            "candidate_q": self.candidate_q,
        }


class Retrainer:
    """Fine-tunes the live model on replay samples, publishes candidates."""

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str,
        config: RetrainConfig | None = None,
    ):
        self.registry = registry
        self.model_name = model_name
        self.config = config or RetrainConfig()
        self.retrains = 0

    def split(
        self, records: list[FeedbackRecord]
    ) -> tuple[list[FeedbackRecord], list[FeedbackRecord]]:
        """Deterministic train/holdout split of the trainable records."""
        config = self.config
        trainable = [r for r in records if r.trainable]
        if len(trainable) < config.min_samples:
            raise FeedbackError(
                f"retraining needs >= {config.min_samples} trainable feedback "
                f"records, replay buffer has {len(trainable)}"
            )
        trainable = trainable[-config.max_samples :]
        rng = np.random.default_rng(config.seed + len(trainable))
        order = rng.permutation(len(trainable))
        n_holdout = max(1, int(len(trainable) * config.holdout_fraction))
        holdout = [trainable[i] for i in sorted(order[:n_holdout])]
        train = [trainable[i] for i in sorted(order[n_holdout:])]
        if not train:
            raise FeedbackError("holdout fraction leaves no training records")
        return train, holdout

    def retrain(
        self,
        live_model: CostGNN,
        records: list[FeedbackRecord],
        drift: DriftVerdict | None = None,
        live_ref: str = "",
    ) -> RetrainOutcome:
        """Fine-tune a clone of ``live_model`` and publish the candidate."""
        config = self.config
        train, holdout = self.split(records)
        candidate = clone_model(live_model)
        result = train_cost_model(
            candidate,
            [r.graph for r in train],
            np.asarray([r.observed for r in train], dtype=np.float64),
            TrainConfig(
                epochs=config.epochs,
                lr=config.lr,
                shards_per_epoch=config.shards_per_epoch,
                seed=config.seed,
            ),
        )
        candidate.eval()
        self.retrains += 1
        segments: dict[str, int] = {}
        for record in train:
            segments[record.segment] = segments.get(record.segment, 0) + 1
        version = self.registry.publish(
            self.model_name,
            candidate,
            metrics={
                "feedback": {
                    "n_train": len(train),
                    "n_holdout": len(holdout),
                    "segments": segments,
                    "final_loss": result.final_loss,
                },
                "drift": drift.as_dict() if drift is not None else {},
                "retrained_from": live_ref,
            },
            description=(
                f"feedback fine-tune of {live_ref or self.model_name} "
                f"on {len(train)} replay samples"
            ),
        )
        return RetrainOutcome(
            version=version,
            candidate=candidate,
            n_train=len(train),
            n_holdout=len(holdout),
            holdout=holdout,
            final_loss=result.final_loss,
        )


class CanaryPromoter:
    """Shadow-scores candidates and hot-swaps the engine on a clear win."""

    def __init__(
        self,
        engine: ShardedEngine,
        registry: ModelRegistry | None = None,
        min_improvement: float = 0.05,
        on_promote=None,
    ):
        self.engine = engine
        self.registry = registry
        self.min_improvement = min_improvement
        self.on_promote = on_promote
        self.promotions = 0
        self.rejections = 0

    def shadow(
        self,
        live_model: CostGNN,
        candidate: CostGNN,
        holdout: list[FeedbackRecord],
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Q-error summaries of both models on the held-out replay slice."""
        graphs = [r.graph for r in holdout]
        observed = np.asarray([r.observed for r in holdout], dtype=np.float64)
        live_q = q_error_summary(predict_runtimes(live_model, graphs), observed)
        cand_q = q_error_summary(predict_runtimes(candidate, graphs), observed)
        return live_q, cand_q

    def consider(
        self, live_model: CostGNN, outcome: RetrainOutcome
    ) -> PromotionResult:
        """Promote ``outcome.candidate`` iff it wins the shadow comparison."""
        if not outcome.holdout:
            raise FeedbackError("canary comparison needs a non-empty holdout")
        live_q, cand_q = self.shadow(live_model, outcome.candidate, outcome.holdout)
        improvement = 1.0 - cand_q["median"] / max(live_q["median"], 1e-9)
        promoted = improvement >= self.min_improvement
        if promoted:
            reason = (
                f"candidate median Q-error {cand_q['median']:.3f} beats live "
                f"{live_q['median']:.3f} by {improvement:.1%} "
                f"(>= {self.min_improvement:.1%})"
            )
        else:
            reason = (
                f"candidate median Q-error {cand_q['median']:.3f} does not "
                f"beat live {live_q['median']:.3f} by {self.min_improvement:.1%} "
                f"(improvement {improvement:.1%})"
            )
        result = PromotionResult(
            promoted=promoted,
            reason=reason,
            version_ref=outcome.version.ref,
            improvement=improvement,
            live_q=live_q,
            candidate_q=cand_q,
        )
        if self.registry is not None:
            self.registry.annotate(
                outcome.version.name,
                outcome.version.version,
                {"canary": result.as_dict()},
            )
        if promoted:
            self.promotions += 1
            self.engine.swap_model(outcome.candidate)
            if self.on_promote is not None:
                self.on_promote(outcome.version)
        else:
            self.rejections += 1
        return result
