#!/usr/bin/env python
"""Ground the loop on real hardware: simulator vs. DuckDB (DESIGN.md §13).

Generates a TPC-DS-flavored star database, builds a >=200-query UDF
workload on the simulator backend, re-executes every placement plan on
DuckDB with registered Python UDFs, and quantifies how honest the
simulator is:

* per-query Spearman rank correlation of simulated vs. real runtimes
  (overall and per UDF placement),
* advisor-win sign agreement (does pull-up beat push-down on both
  engines for the same query?),
* COUNT(*) parity — both engines must return identical result counts,
  pinning the SQL rendering round-trip.

Real wall-clock runtimes then flow into the closed loop: a quick cost
model serves placement decisions and ``observe_benchmark`` records the
*measured DuckDB runtime* of each chosen placement into the
``FeedbackLog``, tagged ``backend=duckdb``. The report lands in
``BENCH_duckdb.json``::

    pip install -e ".[duckdb]"
    PYTHONPATH=src python scripts/realbench.py --queries 200

Requires the ``duckdb`` extra; exits with a pointed message otherwise.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from repro.bench import WorkloadConfig, build_benchmark_for_database
from repro.bench.builder import prepare_full_database
from repro.eval import prepare_dataset_samples, training_placements
from repro.exec import (
    DuckDBBackend,
    StarSchemaConfig,
    backend_available,
    generate_star_database,
)
from repro.feedback import FeedbackLog, observe_benchmark
from repro.model import GNNConfig, GracefulModel, TrainConfig
from repro.serve import AdvisorService, ShardedEngine
from repro.sql.query import UDFPlacement
from repro.stats import StatisticsCatalog, make_estimator


@dataclass
class RealbenchConfig:
    """One realbench run, CLI-independent so tests can drive it."""

    n_queries: int = 200
    fact_rows: int = 8_000
    seed: int = 7
    like_prob: float = 0.15
    epochs: int = 8
    hidden_dim: int = 24
    max_feedback_queries: int = 60
    feedback_dir: str | None = None
    out_path: str = "BENCH_duckdb.json"
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)


def build_star_bench(config: RealbenchConfig):
    """(database, simulator benchmark) for the configured star schema."""
    schema = StarSchemaConfig(fact_rows=config.fact_rows, seed=config.seed)
    database = prepare_full_database(generate_star_database(schema))
    workload = WorkloadConfig(
        **{
            **config.workload.__dict__,
            "like_prob": config.like_prob,
        }
    )
    bench = build_benchmark_for_database(
        database.name,
        database,
        config.n_queries,
        seed=config.seed,
        workload_config=workload,
        backend="simulator",
    )
    return database, bench


def execute_on_duckdb(database, bench) -> tuple[dict, dict]:
    """Re-run every simulator-built plan on DuckDB.

    Returns ``(runtimes, parity)``: measured seconds per
    ``(query_id, placement.value)`` and count-parity bookkeeping.
    """
    runtimes: dict[tuple[int, str], float] = {}
    matches = 0
    udf_invocations = 0.0
    mismatches: list[dict] = []
    with DuckDBBackend(database) as backend:
        for entry in bench.entries:
            for placement, run in entry.runs.items():
                result = backend.execute(run.plan)
                key = (entry.query.query_id, placement.value)
                runtimes[key] = result.runtime
                udf_invocations += result.counters.get("udf_invocation")
                expected = _expected_count(run.plan)
                got = _result_count(result)
                if expected is None or got == expected:
                    matches += 1
                else:
                    mismatches.append(
                        {
                            "query_id": entry.query.query_id,
                            "placement": placement.value,
                            "simulator": expected,
                            "duckdb": got,
                        }
                    )
    parity = {
        "plans": matches + len(mismatches),
        "matches": matches,
        "mismatches": mismatches[:10],
        "parity_rate": matches / max(matches + len(mismatches), 1),
        #: proof the Python UDFs really ran inside DuckDB (filter-role
        #: UDFs must; projection-role ones a real optimizer may prune)
        "udf_invocations": udf_invocations,
    }
    return runtimes, parity


def _expected_count(plan) -> int | None:
    """The COUNT(*) value the simulator computed, off the plan's
    ``true_card`` annotations (the aggregate input cardinality)."""
    children = getattr(plan, "children", ())
    if not children:
        return None
    child_card = children[0].true_card
    return int(child_card) if child_card is not None else None


def _result_count(result) -> int | None:
    relation = result.relation
    if "agg" not in relation or relation.num_rows != 1:
        return None
    value = relation.column("agg").python_value(0)
    return None if value is None else int(value)


def fidelity_report(bench, runtimes: dict[tuple[int, str], float]) -> dict:
    """Simulator-vs-DuckDB correlation and advisor sign agreement."""
    sim: list[float] = []
    real: list[float] = []
    per_placement: dict[str, tuple[list[float], list[float]]] = {}
    for entry in bench.entries:
        for placement, run in entry.runs.items():
            key = (entry.query.query_id, placement.value)
            if key not in runtimes:
                continue
            sim.append(run.runtime)
            real.append(runtimes[key])
            bucket = per_placement.setdefault(placement.value, ([], []))
            bucket[0].append(run.runtime)
            bucket[1].append(runtimes[key])

    def spearman(xs: list[float], ys: list[float]) -> dict:
        if len(xs) < 3:
            return {"rho": None, "p_value": None, "n": len(xs)}
        rho, p = scipy_stats.spearmanr(xs, ys)
        return {"rho": float(rho), "p_value": float(p), "n": len(xs)}

    agree = 0
    decided = 0
    for entry in bench.entries:
        pd_key = (entry.query.query_id, UDFPlacement.PUSH_DOWN.value)
        pu_key = (entry.query.query_id, UDFPlacement.PULL_UP.value)
        if pd_key not in runtimes or pu_key not in runtimes:
            continue
        sim_win = (
            entry.runs[UDFPlacement.PULL_UP].runtime
            < entry.runs[UDFPlacement.PUSH_DOWN].runtime
        )
        real_win = runtimes[pu_key] < runtimes[pd_key]
        decided += 1
        agree += int(sim_win == real_win)
    ratios = [r / s for s, r in zip(sim, real) if s > 0]
    return {
        "spearman_overall": spearman(sim, real),
        "spearman_per_placement": {
            name: spearman(xs, ys) for name, (xs, ys) in sorted(per_placement.items())
        },
        "advisor_sign_agreement": {
            "agreement": agree / decided if decided else None,
            "n_decided": decided,
        },
        "runtime_ratio_duckdb_over_sim": {
            "median": float(np.median(ratios)) if ratios else None,
            "p10": float(np.percentile(ratios, 10)) if ratios else None,
            "p90": float(np.percentile(ratios, 90)) if ratios else None,
        },
    }


def feed_real_runtimes(
    config: RealbenchConfig, bench, runtimes: dict[tuple[int, str], float]
) -> dict:
    """Train a quick cost model, serve decisions, record DuckDB
    wall-clock through the feedback log."""
    samples = prepare_dataset_samples(
        bench, estimator_name="actual", placements=training_placements()
    )
    model = GracefulModel(
        GNNConfig(hidden_dim=config.hidden_dim, seed=config.seed),
        TrainConfig(epochs=config.epochs, seed=config.seed),
    )
    model.fit(samples)
    log = FeedbackLog(config.feedback_dir)
    engine = ShardedEngine(model.model, shards=1)
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(bench.database),
        estimator=make_estimator("actual", bench.database),
        feedback=log,
    )
    try:
        records = observe_benchmark(
            service,
            bench,
            max_queries=config.max_feedback_queries,
            backend="duckdb",
            runtimes=runtimes,
        )
    finally:
        engine.close()
        log.flush()
    q_errors = [r.q_error for r in records]
    return {
        "n_records": len(records),
        "n_training_samples": len(samples),
        "backend_tagged": sum(
            1 for r in records if r.metadata.get("backend") == "duckdb"
        ),
        "median_q_error": float(np.median(q_errors)) if q_errors else None,
    }


def run_realbench(config: RealbenchConfig) -> dict:
    """The full pipeline; returns the BENCH_duckdb.json payload."""
    t0 = time.perf_counter()
    database, bench = build_star_bench(config)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    runtimes, parity = execute_on_duckdb(database, bench)
    duckdb_seconds = time.perf_counter() - t0

    fidelity = fidelity_report(bench, runtimes)
    feedback = feed_real_runtimes(config, bench, runtimes)
    n_udf = sum(1 for e in bench.entries if e.query.has_udf)
    return {
        "config": {
            "n_queries": config.n_queries,
            "fact_rows": config.fact_rows,
            "seed": config.seed,
            "like_prob": config.like_prob,
        },
        "workload": {
            "n_queries": bench.n_queries,
            "n_plans_executed": len(runtimes),
            "n_udf_queries": n_udf,
            "database_rows": database.total_rows(),
        },
        "count_parity": parity,
        "fidelity": fidelity,
        "feedback": feedback,
        "seconds": {
            "simulator_build": build_seconds,
            "duckdb_execute": duckdb_seconds,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--fact-rows", type=int, default=8_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--like-prob", type=float, default=0.15)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--hidden-dim", type=int, default=24)
    parser.add_argument("--max-feedback-queries", type=int, default=60)
    parser.add_argument("--feedback-dir", default=None)
    parser.add_argument("--out", default="BENCH_duckdb.json")
    args = parser.parse_args(argv)

    if not backend_available("duckdb"):
        print(
            "realbench needs the DuckDB backend: pip install -e \".[duckdb]\""
        )
        return 2

    config = RealbenchConfig(
        n_queries=args.queries,
        fact_rows=args.fact_rows,
        seed=args.seed,
        like_prob=args.like_prob,
        epochs=args.epochs,
        hidden_dim=args.hidden_dim,
        max_feedback_queries=args.max_feedback_queries,
        feedback_dir=args.feedback_dir,
        out_path=args.out,
    )
    report = run_realbench(config)
    with open(config.out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    rho = report["fidelity"]["spearman_overall"]["rho"]
    parity = report["count_parity"]["parity_rate"]
    print(
        f"wrote {config.out_path}: {report['workload']['n_plans_executed']} plans, "
        f"count parity {parity:.3f}, spearman rho "
        f"{rho if rho is None else round(rho, 3)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
