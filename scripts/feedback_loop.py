#!/usr/bin/env python
"""Run the closed feedback loop: monitor drift, retrain, canary-promote.

Trains (or reuses from the registry) a cost model for the chosen
dataset, serves it through a micro-batching engine with a feedback log
attached, optionally simulates serving traffic against the simulated
executor, and runs the drift→retrain→promote loop either once
(``--once``) or as a paced daemon::

    PYTHONPATH=src python scripts/feedback_loop.py --dataset movielens \\
        --simulate 4 --drift-factor 5.0 --once

    PYTHONPATH=src python scripts/feedback_loop.py --interval 30

The daemon drains cleanly on SIGTERM/SIGINT. See
``examples/continual_learning.py`` for the full end-to-end story with
generator-level drift injection.
"""

from __future__ import annotations

import argparse
import signal
import threading

import numpy as np

from repro.bench import build_dataset_benchmark
from repro.eval import prepare_dataset_samples, training_placements
from repro.feedback import (
    DriftConfig,
    FeedbackLog,
    FeedbackLoop,
    RetrainConfig,
    observe_benchmark,
    serving_baseline,
)
from repro.model import GNNConfig, GracefulModel, TrainConfig
from repro.serve import AdvisorService, ModelRegistry, ShardedEngine
from repro.stats import StatisticsCatalog, make_estimator


def train_or_load(args, registry, bench):
    """(model, version, baseline_median) for the parsed CLI options."""
    model_name = args.model or f"costgnn-{args.dataset}"
    if registry.versions(model_name) and not args.retrain:
        # the registry's serving order, not versions[-1]: the newest
        # promoted canary, else the newest original publication — never
        # a candidate that lost (or never finished) its shadow
        # comparison; a corrupt artifact is quarantined and skipped
        model, version = registry.load_serving(model_name)
        if registry.quarantined:
            print(f"quarantined artifacts: {registry.quarantined}")
        print(f"serving registry model {version.ref}")
        return model, version, serving_baseline(version)
    print(f"training {model_name} (epochs={args.epochs})...")
    samples = prepare_dataset_samples(
        bench, estimator_name="actual", placements=training_placements()
    )
    graceful = GracefulModel(
        GNNConfig(hidden_dim=args.hidden_dim),
        TrainConfig(epochs=args.epochs),
    )
    graceful.fit(samples)
    predictions = graceful.predict(samples)
    runtimes = np.asarray([s.runtime for s in samples])
    q_errors = np.maximum(predictions / runtimes, runtimes / predictions)
    baseline = float(np.median(q_errors))
    version = registry.publish(
        model_name,
        graceful.model,
        metrics={"median_q": baseline, "n_training_samples": len(samples)},
        description=f"trained by scripts/feedback_loop.py on {args.dataset}",
    )
    print(f"published {version.ref} (training median Q-error {baseline:.3f})")
    return graceful.model, version, baseline


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="movielens")
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--hidden-dim", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--model", default="", help="registry model name")
    parser.add_argument("--registry-dir", default=None)
    parser.add_argument("--feedback-dir", default=None)
    parser.add_argument(
        "--retrain", action="store_true", help="train even if a version exists"
    )
    parser.add_argument(
        "--simulate",
        type=int,
        default=0,
        help="passes of simulated serving traffic to feed the log first",
    )
    parser.add_argument(
        "--drift-factor",
        type=float,
        default=1.0,
        help="scale simulated observed runtimes (synthetic drift injection)",
    )
    parser.add_argument(
        "--once", action="store_true", help="run one loop step and exit"
    )
    parser.add_argument("--interval", type=float, default=30.0)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--baseline", type=float, default=None)
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument("--min-samples", type=int, default=48)
    parser.add_argument("--level-ratio", type=float, default=1.5)
    parser.add_argument("--retrain-epochs", type=int, default=25)
    parser.add_argument("--min-improvement", type=float, default=0.05)
    args = parser.parse_args(argv)

    registry = ModelRegistry(args.registry_dir)
    print(f"building {args.dataset} benchmark ({args.queries} queries)...")
    bench = build_dataset_benchmark(
        args.dataset, n_queries=args.queries, seed=args.seed
    )
    model, version, trained_baseline = train_or_load(args, registry, bench)
    baseline = args.baseline if args.baseline is not None else trained_baseline
    if not baseline or baseline < 1.0:
        baseline = 1.0

    log = FeedbackLog(args.feedback_dir)
    engine = ShardedEngine(model, shards=1)
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(bench.database),
        estimator=make_estimator("actual", bench.database),
        feedback=log,
    )
    loop = FeedbackLoop(
        log,
        engine,
        registry,
        version.name,
        baseline_median=baseline,
        live_ref=version.ref,
        drift_config=DriftConfig(
            window=args.window,
            min_samples=args.min_samples,
            level_ratio=args.level_ratio,
        ),
        retrain_config=RetrainConfig(
            epochs=args.retrain_epochs,
            min_improvement=args.min_improvement,
        ),
        on_promote=lambda v: print(f"promoted {v.ref}"),
    )

    if args.simulate:
        print(
            f"simulating {args.simulate} traffic passes "
            f"(drift factor {args.drift_factor})..."
        )
        records = observe_benchmark(
            service,
            bench,
            repeats=args.simulate,
            drift_factor=args.drift_factor,
        )
        q_median = float(np.median([r.q_error for r in records]))
        print(f"collected {len(records)} records (median Q-error {q_median:.3f})")

    stop = threading.Event()

    def handle_signal(signum, frame):
        stop.set()

    previous = signal.signal(signal.SIGTERM, handle_signal)
    try:
        if args.once:
            event = loop.step()
            print(f"step: {event.action if event else 'stable'}")
            if event is not None:
                print(f"  {event.detail}")
        else:
            print(f"feedback loop every {args.interval}s (ctrl-c to stop)")
            loop.run(
                interval_seconds=args.interval,
                stop=stop,
                max_steps=args.max_steps,
            )
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        engine.close()
        log.flush()
    summary = loop.describe()
    print(
        f"done: {summary['steps']} steps, {summary['retrains']} retrains, "
        f"{summary['promotions']} promotions, "
        f"{summary['rejections']} rejections; live model {loop.live_ref}"
    )


if __name__ == "__main__":
    main()
