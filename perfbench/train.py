"""``train``: the offline path, in this process, with no serving layer.

Label a benchmark over ``DATABASES`` (execute every placement of every
query), featurize, fit GRACEFUL for a fixed number of epochs with fixed
seeds, then evaluate on held-out queries — every placement, including
the never-trained INTERMEDIATE one — and run the offline
``PullUpAdvisor`` on the held-out UDF-filter queries, recording each
decision's labelled runtime in a ``FeedbackLog`` as a deployment would
feed its retrainer.

The corpus is fixed (``corpus.CORPUS_SEED``), and so is the order of
the training samples: a different order trains a different model.
``--seed`` permutes the order the held-out queries are advised in.
``--seconds`` sets the corpus size (queries per database), so the
pipeline takes about that long on a 2-core x86 host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import layers
from common import median, peak_rss_mb, percentile
from repro.advisor.advisor import PullUpAdvisor
from repro.bench.workload import WorkloadGenerator
from repro.eval import training_placements
from repro.eval.metrics import q_error
from repro.feedback.collector import FeedbackLog, FeedbackRecord
from repro.model.training import predict_runtimes
from repro.stats import StatisticsCatalog, make_estimator

DATABASES = ("imdb", "ssb", "airline")
HOLDOUT = 0.25
#: 40 epochs at lr 1e-3: the 15-epoch, lr 3e-3 fit left a median
#: held-out Q-error above 100 at this corpus size
EPOCHS = 40
LR = 1e-3
#: five, not three: with three the median spread 0.39 over ten seeds
SETUP_REPEATS = 5
#: ten passes, about 17 s of decisions: this host's CPU speed drifts by
#: +-20% over tens of seconds, and a shorter window sampled one level
DECIDE_PASSES = 10
#: labelled queries per database per second of ``--seconds``
QUERIES_PER_DB_SECOND = 2.0


@dataclass
class PipelineResult:
    clock: corpus.StageClock
    wall_s: float
    queries: int
    qerrors: np.ndarray
    speedup: float
    decide_s: list = field(default_factory=list)
    feedback_s: list = field(default_factory=list)
    feedback: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def queries_per_db(seconds: float, tiny: bool) -> int:
    return 4 if tiny else max(4, int(round(QUERIES_PER_DB_SECOND * seconds)))


def setup_once(n_queries: int) -> float:
    """The pipeline's inputs: databases, statistics, query workloads."""
    started = time.perf_counter()
    for i, name in enumerate(DATABASES):
        database = corpus.make_database(name)
        StatisticsCatalog(database)
        WorkloadGenerator(database, seed=corpus.CORPUS_SEED + 20 + i).generate(n_queries)
    return time.perf_counter() - started


def pipeline(seed: int, n_queries: int, epochs: int, log_dir: Path,
             plant_wrong: bool = False) -> PipelineResult:
    started = time.perf_counter()
    clock = corpus.StageClock()
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    train_samples, test_samples, held_out = [], [], []
    for i, name in enumerate(DATABASES):
        database = corpus.make_database(name)
        bench = corpus.label(clock, name, database, n_queries, corpus.CORPUS_SEED + 20 + i)
        if not corpus.check_labels(bench):
            failures.append(f"{name}: labels do not reproduce on re-execution")
        cut = int(round(len(bench.entries) * (1.0 - HOLDOUT)))
        train = corpus.subset(bench, bench.entries[:cut])
        test = corpus.subset(bench, bench.entries[cut:])
        catalog = StatisticsCatalog(database)
        train_samples += corpus.featurize(clock, train, training_placements(), catalog)
        test_samples += corpus.featurize(clock, test, None, catalog)
        held_out.append((test, catalog))
    model = corpus.fit(clock, train_samples, epochs, LR).model

    # Q-error against the labels: the truth vector must be the executed
    # placements' runtimes, re-derived here from the benchmark entries
    graphs = [s.joint_graph for s in test_samples]
    predicted = predict_runtimes(model, graphs)
    truth = corpus.true_runtimes(test_samples)
    if plant_wrong:
        truth[0] *= 1.5
    labelled = {
        (test.name, e.query.query_id, p): r.runtime
        for test, _ in held_out for e in test.entries for p, r in e.runs.items()
    }
    if [labelled[(s.dataset, s.query_id, s.placement)] for s in test_samples] != list(truth):
        failures.append("Q-error truth is not the labelled runtime")
    if np.array_equal(truth, predicted):
        failures.append("Q-error truth equals the predictions")
    qerrors = q_error(predicted, truth)
    sample_of = {
        (s.dataset, s.query_id, s.placement): (s, p)
        for s, p in zip(test_samples, predicted)
    }

    advised = [
        (PullUpAdvisor(model, catalog, make_estimator("actual", test.database)), entry)
        for test, catalog in held_out
        for entry in corpus.advisor_entries(test)
    ]
    log = FeedbackLog(log_dir, capacity=1 << 20)
    decide_s, feedback_s, chosen = [], [], []
    # every held-out query is advised DECIDE_PASSES times: about 20
    # decisions made the median and p95 jump between queries' costs, and
    # with 3 passes the median still spread 0.23 over ten seeds
    for k in np.concatenate([rng.permutation(len(advised)) for _ in range(DECIDE_PASSES)]):
        advisor, entry = advised[k]
        t0 = time.perf_counter()
        placement = advisor.decide(entry.query).placement
        decide_s.append(time.perf_counter() - t0)
        chosen.append((entry, placement))
        sample, prediction = sample_of[(entry.dataset, entry.query.query_id, placement)]
        t0 = time.perf_counter()
        log.append(
            FeedbackRecord(
                predicted=float(prediction),
                observed=entry.runs[placement].runtime,
                placement=placement.value,
                segment=entry.dataset,
                client="offline-advisor",
                graph=sample.joint_graph,
            )
        )
        feedback_s.append(time.perf_counter() - t0)
    log.close()
    replayable = len(log.replay())
    if log.appended != replayable + log.poison_records + log.dropped_pending:
        failures.append("feedback accounting does not close")
    first = chosen[: len(advised)]
    speedup = corpus.speedup([e for e, _ in first], [p for _, p in first])
    return PipelineResult(
        clock=clock,
        wall_s=time.perf_counter() - started,
        queries=clock.label_queries,
        qerrors=qerrors,
        speedup=speedup,
        decide_s=decide_s,
        feedback_s=feedback_s,
        feedback={"chunks_flushed": log.flushed_chunks, "write_errors": log.write_errors},
        failures=failures,
    )


def run(seed: int, seconds: float, trace: bool, tiny: bool, tmp: Path,
        plant_wrong: bool) -> dict:
    n_queries = queries_per_db(seconds, tiny)
    epochs = 2 if tiny else EPOCHS
    setups = [setup_once(n_queries) for _ in range(SETUP_REPEATS)]
    result = pipeline(seed, n_queries, epochs, tmp / "feedback-0", plant_wrong)
    out = {"setup_s": median(setups), "pipeline": result}
    if trace:
        tracer = layers.Tracer().install()
        try:
            out["traced"] = pipeline(seed, n_queries, epochs, tmp / "feedback-1")
            out["spans"] = tracer.snapshot()
        finally:
            tracer.uninstall()
    return out


def end_to_end(res: dict) -> dict:
    p: PipelineResult = res["pipeline"]
    decided = sum(p.decide_s)
    return {
        "setup_s": (res["setup_s"], "s"),
        "throughput_rps": (len(p.decide_s) / decided if decided else 0.0, "1/s"),
        "latency_p50_ms": (1000.0 * percentile(p.decide_s, 50), "ms"),
        "latency_p95_ms": (1000.0 * percentile(p.decide_s, 95), "ms"),
        "feedback_p50_ms": (1000.0 * percentile(p.feedback_s, 50), "ms"),
        "advise_speedup": (p.speedup, "x"),
        "qerror_p50": (percentile(list(p.qerrors), 50), "ratio"),
        "qerror_p95": (percentile(list(p.qerrors), 95), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_layers(res: dict) -> tuple[dict, str]:
    traced: PipelineResult = res["traced"]
    return layers.per_layer_metrics(
        window=res["spans"],
        rounds=traced.queries,
        observed_s=traced.wall_s,
        error_rate=0.0,
        trace_overhead=traced.wall_s / res["pipeline"].wall_s - 1.0,
        feedback=traced.feedback,
        pipeline=traced.clock,
    )


def properties(res: dict) -> dict:
    p: PipelineResult = res["pipeline"]
    return {
        "databases": list(DATABASES),
        "labelled_queries": p.queries,
        "training_sample_epochs": p.clock.fit_sample_epochs,
        "held_out_samples": len(p.qerrors),
        "advised_queries": len(p.decide_s),
        "latency_p99_ms": 1000.0 * percentile(p.decide_s, 99),
        "feedback_p95_ms": 1000.0 * percentile(p.feedback_s, 95),
        "feedback_p99_ms": 1000.0 * percentile(p.feedback_s, 99),
        "pipeline_s": round(p.wall_s, 3),
    }
