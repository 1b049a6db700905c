"""Continual learning demo: drift → detection → retrain → promotion.

The full closed-loop story (DESIGN.md §10) on one dataset:

1. build a benchmark, train the cost model, publish it to a registry,
   and serve it through a micro-batching engine with a feedback log;
2. replay in-distribution traffic through the simulated executor — the
   advisor decides, the executor reports observed runtimes back through
   ``record_runtime`` — and establish the serving-time Q-error baseline;
3. inject *real* workload drift: regenerate the database 2.5x larger
   (``storage/generator``) with a heavier UDF workload
   (``udf/generator`` — forced loops, far more iterations) and keep
   serving; accuracy collapses and the drift monitor trips;
4. one ``FeedbackLoop.step()`` fine-tunes a candidate on the replay
   buffer, publishes it, shadow-scores it against the live model on a
   held-out slice, and hot-swaps the engine only because it wins.

Run:  PYTHONPATH=src python examples/continual_learning.py
"""

import tempfile

import numpy as np

from repro.bench import build_dataset_benchmark
from repro.bench.workload import WorkloadConfig
from repro.eval import prepare_dataset_samples, q_error_summary, training_placements
from repro.feedback import (
    DriftConfig,
    FeedbackLog,
    FeedbackLoop,
    RetrainConfig,
    observe_benchmark,
)
from repro.model import (
    GNNConfig,
    GracefulModel,
    TrainConfig,
    predict_runtimes,
)
from repro.serve import AdvisorService, ModelRegistry, ShardedEngine
from repro.stats import StatisticsCatalog, make_estimator
from repro.storage import GeneratorConfig
from repro.udf.generator import UDFGeneratorConfig

DATASET = "movielens"
N_QUERIES = 30

#: the drifted world: the database grew 2.5x and the UDF workload got
#: loop-heavy — every observed runtime shifts away from training
DRIFTED_GENERATOR = GeneratorConfig(scale=2.5)
DRIFTED_WORKLOAD = WorkloadConfig(
    udf=UDFGeneratorConfig(force_loops=2, loop_iterations_range=(300, 800))
)


def build_service(engine, bench, log):
    return AdvisorService(
        engine,
        catalog=StatisticsCatalog(bench.database),
        estimator=make_estimator("actual", bench.database),
        feedback=log,
    )


def main() -> None:
    print("=== phase 1: train + publish + serve " + "=" * 40)
    bench = build_dataset_benchmark(DATASET, n_queries=N_QUERIES, seed=3)
    samples = prepare_dataset_samples(
        bench, estimator_name="actual", placements=training_placements()
    )
    graceful = GracefulModel(GNNConfig(hidden_dim=16), TrainConfig(epochs=30, lr=5e-3))
    graceful.fit(samples)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(f"{tmp}/registry")
        version = registry.publish(f"costgnn-{DATASET}", graceful.model)
        log = FeedbackLog(f"{tmp}/feedback", capacity=512, chunk_records=64)
        engine = ShardedEngine(graceful.model, shards=1)
        service = build_service(engine, bench, log)
        print(f"serving {version.ref}")

        print("\n=== phase 2: in-distribution traffic " + "=" * 40)
        stable = observe_benchmark(service, bench, repeats=3)
        baseline = float(np.median([r.q_error for r in stable]))
        print(
            f"{len(stable)} decisions + observed runtimes collected; "
            f"serving median Q-error {baseline:.2f}"
        )
        loop = FeedbackLoop(
            log,
            engine,
            registry,
            version.name,
            baseline_median=max(baseline, 1.0),
            live_ref=version.ref,
            drift_config=DriftConfig(window=64, min_samples=48),
            # max_samples bounds fine-tuning to the *newest* replay
            # records: after a regime change the old observations are
            # stale truth, and mixing them in drags the candidate back
            # toward the world that no longer exists
            retrain_config=RetrainConfig(
                epochs=30, lr=2e-3, min_samples=48, max_samples=96
            ),
            on_promote=lambda v: print(f"  >> hot-swapped engine to {v.ref}"),
        )
        event = loop.step()
        print(f"loop step on stable traffic: {event.action if event else 'stable'}")

        print("\n=== phase 3: the workload drifts " + "=" * 44)
        drifted = build_dataset_benchmark(
            DATASET,
            n_queries=N_QUERIES,
            seed=4,
            generator_config=DRIFTED_GENERATOR,
            workload_config=DRIFTED_WORKLOAD,
        )
        drifted_service = build_service(engine, drifted, log)
        drifted_records = observe_benchmark(drifted_service, drifted, repeats=4)
        drifted_q = float(np.median([r.q_error for r in drifted_records]))
        print(
            f"{len(drifted_records)} drifted observations; "
            f"median Q-error now {drifted_q:.2f} (baseline {baseline:.2f})"
        )
        verdict = loop.monitor.check(DATASET)
        print(
            f"monitor verdict: triggered={verdict.triggered} "
            f"reason={verdict.reason} level_ratio={verdict.level_ratio:.2f}"
        )

        print("\n=== phase 4: retrain + canary " + "=" * 47)
        event = loop.step()
        print(f"loop step: {event.action} -> {event.version_ref}")
        print(f"  {event.detail}")
        published = registry.versions(version.name)[-1]
        feedback_meta = published.metrics["feedback"]
        print(
            f"published {published.ref}: fine-tuned on "
            f"{feedback_meta['n_train']} replay samples, "
            f"holdout {feedback_meta['n_holdout']}"
        )

        holdout = [r for r in log.replay() if r.trainable][-32:]
        graphs = [r.graph for r in holdout]
        observed = np.asarray([r.observed for r in holdout])
        old_q = q_error_summary(predict_runtimes(graceful.model, graphs), observed)
        new_q = q_error_summary(predict_runtimes(engine.model, graphs), observed)
        print(
            f"on the newest drifted traffic: live-before median Q-error "
            f"{old_q['median']:.2f} -> live-after {new_q['median']:.2f}"
        )
        print(f"registry now serves {loop.live_ref}")
        engine.close()


if __name__ == "__main__":
    main()
