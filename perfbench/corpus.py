"""The labelled corpus and the offline pipeline every workload runs.

The corpus — databases, labelled queries, the trained model — comes
from fixed seeds (``CORPUS_SEED``), not from ``--seed``: it is rebuilt
from source in every run, so its quality numbers (Q-error, advisor
speedup) compare code versions rather than random draws of training
data. ``--seed`` drives the traffic (which queries, in which order, at
which times). Every stage calls the program through module attributes,
so the traced run's wrappers (``layers.py``) see each call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from common import median
import repro.bench.builder as builder
import repro.eval.samples as samples_mod
import repro.model.baselines as baselines
import repro.storage.generator as generator
from repro.bench.workload import WorkloadConfig
from repro.model import GNNConfig, TrainConfig
from repro.nn.optim import Adam
from repro.sql.query import UDFPlacement

CORPUS_SEED = 0
#: table-size multiplier for every generated database
SCALE = 0.25
#: the model architecture, small and fixed
GNN = dict(hidden_dim=16, seed=CORPUS_SEED)
#: pool/warm-up queries: every query has a UDF filter and at least one join
UDF_FILTER_JOIN_WORKLOAD = WorkloadConfig(
    udf_filter_fraction=1.0,
    non_udf_fraction=0.0,
    join_weights=(0.0, 0.35, 0.3, 0.2, 0.1, 0.05),
)


#: items per timed block: queries (label), samples (featurize), epochs (fit)
BLOCK = {"label": 8, "featurize": 16, "fit": 1}


@dataclass
class StageClock:
    """Per-item start times of the pipeline's timed stages.

    A stage's rate is its block size over the median block duration,
    where blocks are runs of consecutive items (8 queries, 16 samples,
    1 epoch). The corpus is fixed, so the blocks are the same in every
    run; the host's bursts of speed and slowness (fit rates of 600 and
    1000 sample-epochs/s minutes apart) move one block, not the median.
    """

    starts: dict = field(default_factory=lambda: {k: [] for k in BLOCK})
    label_queries: int = 0
    fit_samples: int = 0
    fit_sample_epochs: int = 0

    def add(self, stage: str, boundaries: list[float]) -> None:
        """Record one call: the times its items start, then its end."""
        self.starts[stage].append(boundaries)

    def rate(self, stage: str, per_item: float = 1.0) -> float:
        size = BLOCK[stage]
        durations = [
            times[i + size] - times[i]
            for times in self.starts[stage]
            for i in range(0, len(times) - size, size)
        ]
        if not durations:  # calls shorter than a block (tiny corpora)
            durations = [(t[-1] - t[0]) * size / (len(t) - 1) for t in self.starts[stage]]
        return size * per_item / median(durations)

    @property
    def label_qps(self) -> float:
        return self.rate("label")

    @property
    def featurize_sps(self) -> float:
        return self.rate("featurize")

    @property
    def fit_sps(self) -> float:
        return self.rate("fit", self.fit_samples)


@contextmanager
def call_starts(owner, attr: str):
    """Collect the start time of every call to ``owner.attr``."""
    original = getattr(owner, attr)
    starts: list[float] = []

    def stamped(*args, **kwargs):
        starts.append(time.perf_counter())
        return original(*args, **kwargs)

    setattr(owner, attr, stamped)
    try:
        yield starts
    finally:
        setattr(owner, attr, original)


def make_database(name: str):
    return builder.prepare_full_database(
        generator.generate_database(name, config=generator.GeneratorConfig(scale=SCALE))
    )


def label(clock: StageClock, name: str, database, n_queries: int, seed: int,
          workload: WorkloadConfig | None = None):
    """Generate ``n_queries`` and execute every placement of each.

    A query's labelling starts at its first ``build_plan`` call (one per
    placement); generating the workload counts towards the first query.
    """
    started = time.perf_counter()
    with call_starts(builder, "build_plan") as plans:
        bench = builder.build_benchmark_for_database(
            name, database, n_queries, seed=seed, workload_config=workload
        )
    first = np.cumsum([0] + [len(e.runs) for e in bench.entries])[:-1]
    clock.add("label", [started] + [plans[i] for i in first[1:]] + [time.perf_counter()])
    clock.label_queries += len(bench.entries)
    return bench


def featurize(clock: StageClock, bench, placements=None, catalog=None) -> list:
    started = time.perf_counter()
    with call_starts(samples_mod, "build_joint_graph") as graphs:
        out = samples_mod.prepare_dataset_samples(
            bench, estimator_name="actual", placements=placements, catalog=catalog
        )
    clock.add("featurize", [started] + graphs[1:] + [time.perf_counter()])
    return out


def fit(clock: StageClock, samples: list, epochs: int, lr: float):
    model = baselines.GracefulModel(
        GNNConfig(**GNN), TrainConfig(epochs=epochs, lr=lr, seed=CORPUS_SEED)
    )
    started = time.perf_counter()
    with call_starts(Adam, "step") as steps:
        model.fit(samples)
    # an epoch ends at its last optimizer step; epoch 1 also pays the
    # one-time batch assembly, so timing starts at its end
    per_epoch = len(steps) // epochs
    ends = steps[per_epoch - 1 :: per_epoch]
    clock.add("fit", ends if epochs > 1 else [started] + ends)
    clock.fit_samples = len(samples)
    clock.fit_sample_epochs += epochs * len(samples)
    return model


def subset(bench, entries):
    return builder.DatasetBenchmark(name=bench.name, database=bench.database, entries=entries)


def true_runtimes(samples: list) -> np.ndarray:
    """Ground truth straight from the executed placements."""
    return np.asarray([s.runtime for s in samples], dtype=np.float64)


def check_labels(bench, n_check: int = 3) -> bool:
    """Labels are executor output: re-executing a plan reproduces them.

    Re-runs the first ``n_check`` placements through a fresh backend
    with the builder's noise seed and compares runtimes bit for bit.
    """
    from repro.exec import resolve_backend

    backend = resolve_backend(None, bench.database)
    checked = 0
    for entry in bench.entries:
        for placement, run in entry.runs.items():
            noise_seed = generator.hash_name(
                f"{bench.name}/{entry.query.query_id}/{placement.value}"
            )
            if backend.execute(run.plan, noise_seed=noise_seed).runtime != run.runtime:
                return False
            checked += 1
            if checked >= n_check:
                return True
    return checked > 0


def advisor_entries(bench) -> list:
    """Entries the advisor applies to: a UDF filter and at least one join
    (exactly the ones the builder labels at every placement)."""
    return [e for e in bench.entries if UDFPlacement.INTERMEDIATE in e.runs]


def speedup(entries: list, placements: list) -> float:
    """Table V: sum of push-down runtimes over sum of chosen runtimes."""
    pushdown = sum(e.runs[UDFPlacement.PUSH_DOWN].runtime for e in entries)
    chosen = sum(e.runs[p].runtime for e, p in zip(entries, placements))
    return pushdown / chosen
