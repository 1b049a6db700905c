#!/usr/bin/env python
"""Open-loop load generator for the sharded serving fast path.

Drives the :class:`~repro.serve.ShardedEngine` (the engine behind
``/predict`` and ``/advise``) with a configurable synthetic workload and
reports what a capacity plan needs: sustained QPS, latency percentiles,
and cache effectiveness::

    PYTHONPATH=src python scripts/loadtest.py --duration 3 --shards 4 \
        --repeat-ratio 0.5 --out BENCH_loadtest.json

Workload model (the paper's motivating traffic shape — the same
UDF/query templates recur over and over):

* ``--templates`` distinct request graphs form the template pool;
* each request is, with probability ``--repeat-ratio``, a *repeat* of a
  template from the currently-hot window (cache-hittable), otherwise a
  *fresh* graph (a perturbed template with a unique fingerprint — full
  decode/prepare/forward work);
* the hot window rotates through the pool every ``--drift-period``
  seconds, a drifting mix like the feedback subsystem's drift episodes.

Two pacing modes:

* **saturation** (default): ``--concurrency`` closed-loop workers issue
  back-to-back bursts — measures peak throughput;
* **open loop** (``--rate R``): requests are scheduled at fixed arrival
  times regardless of completions, and latency is measured from the
  *scheduled* arrival — queueing delay is charged to the system, not
  hidden by a slow client (no coordinated omission).

A sideband poller samples the engine's ``/stats`` snapshot during the
run and reports its latency percentiles: the statistics surface must
stay responsive exactly while the shards are saturated (it takes no
dispatch lock — DESIGN.md §11).

**Chaos mode** (``--chaos [scenario ...]``) replaces the throughput run
with the fault scenarios from DESIGN.md §12: each scenario arms a seeded
``repro.serve.faults`` spec against a breaker+fallback engine and
measures what resilience actually delivered — availability over admitted
requests, shed/degraded rates, and the p99 of answered ones — writing
``BENCH_chaos.json``::

    PYTHONPATH=src python scripts/loadtest.py --chaos --duration 2
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.core import encoding as enc
from repro.core.joint_graph import JointGraph
from repro.obs import tracing
from repro.feedback import FeedbackLog, FeedbackRecord
from repro.model import CostGNN, GNNConfig
from repro.serve import (
    CircuitBreaker,
    DegradedFallback,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    faults,
)

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class LoadtestConfig:
    """One load-test scenario."""

    duration_s: float = 3.0
    concurrency: int = 4
    repeat_ratio: float = 0.5
    templates: int = 128
    hot_templates: int = 32
    drift_period_s: float = 1.0
    shards: int = 4
    max_batch_size: int = 64
    #: shard coalescing timer; load-test bursts arrive pre-batched, so a
    #: short timer keeps partial miss-batches from idling on the queue
    max_wait_us: float = 200.0
    submit_chunk: int = 64
    rate: float | None = None  # None = closed-loop saturation
    #: score every template once before the clock starts — the same
    #: warm-cache protocol as the committed BENCH_serving baseline
    #: (which reports best-of-N over a warmed engine)
    warmup: bool = True
    #: trace every Nth burst per worker (0 = off); traced runs go
    #: through ``score_resilient`` so the span taxonomy applies, and the
    #: result gains a per-stage breakdown table
    trace_sample: int = 0
    hidden_dim: int = 32
    seed: int = 0


def synthetic_graphs(n_graphs: int, seed: int = 0) -> list[JointGraph]:
    """Random typed DAGs shaped like small joint graphs (15-45 nodes),
    the same shape distribution as ``benchmarks/test_perf_serving.py``."""
    rng = np.random.default_rng(seed)
    types = list(enc.NODE_TYPES)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(15, 45))
        graph = JointGraph()
        for _ in range(n):
            gtype = types[int(rng.integers(len(types)))]
            graph.add_node(gtype, rng.random(enc.FEATURE_DIMS[gtype]))
        for node in range(1, n):
            graph.add_edge(int(rng.integers(node)), node)
        graph.root_id = n - 1
        graphs.append(graph)
    return graphs


class WorkloadSampler:
    """Per-worker request sampler: repeats from a drifting hot window,
    fresh graphs as uniquely-perturbed template clones."""

    def __init__(self, config: LoadtestConfig, worker: int, started: float):
        self.config = config
        self.templates = synthetic_graphs(config.templates, seed=config.seed)
        self.rng = np.random.default_rng(config.seed * 10_007 + worker)
        self.started = started
        self.fresh_counter = worker * 1_000_000_007  # unique across workers

    def _hot_window(self, now: float) -> tuple[int, int]:
        config = self.config
        hot = min(config.hot_templates, config.templates)
        step = int((now - self.started) / config.drift_period_s)
        offset = (step * hot) % config.templates
        return offset, hot

    def sample(self, now: float) -> JointGraph:
        config = self.config
        if self.rng.random() < config.repeat_ratio:
            offset, hot = self._hot_window(now)
            index = (offset + int(self.rng.integers(hot))) % config.templates
            return self.templates[index]  # the same object every repeat
        base = self.templates[int(self.rng.integers(config.templates))]
        # a template recurrence at a new "selectivity": same topology,
        # one changed feature value — a unique in-range value gives a
        # unique fingerprint, so this request can never hit the prepared
        # or prediction tiers. Only the mutated feature row is copied;
        # the untouched rows are shared read-only with the template.
        self.fresh_counter += 1
        features = list(base.features)
        features[0] = features[0].copy()
        features[0][0] = (self.fresh_counter * 0.6180339887498949) % 1.0
        return JointGraph(
            node_types=base.node_types,
            features=features,
            edges=base.edges,
            root_id=base.root_id,
        )


def _percentiles_ms(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def _drive_traffic(config: LoadtestConfig, score, describe) -> dict:
    """The scenario's traffic loop.

    ``score(batch)`` is the blocking scoring call and ``describe()`` the
    /stats snapshot the sideband poller samples.
    """
    started = time.perf_counter()
    deadline = started + config.duration_s
    latencies: list[list[float]] = [[] for _ in range(config.concurrency)]
    counts = [0] * config.concurrency
    stats_latencies: list[float] = []
    stop_poller = threading.Event()

    def worker(index: int) -> None:
        sampler = WorkloadSampler(config, index, started)
        mine = latencies[index]
        bursts = 0
        if config.rate is not None:
            interval = config.submit_chunk * config.concurrency / config.rate
            next_sched = started + (index / config.concurrency) * interval
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return
            if config.rate is not None:
                # open loop: wait for the scheduled arrival, then charge
                # the full scheduled-to-done time to the system
                if next_sched > now:
                    time.sleep(next_sched - now)
                sched = next_sched
                next_sched += interval
            else:
                sched = time.perf_counter()
            batch = [sampler.sample(sched) for _ in range(config.submit_chunk)]
            bursts += 1
            if config.trace_sample > 0 and bursts % config.trace_sample == 0:
                with tracing.trace_request():
                    score(batch)
            else:
                score(batch)
            done = time.perf_counter()
            mine.extend([done - sched] * len(batch))
            counts[index] += len(batch)

    def poller() -> None:
        while not stop_poller.is_set():
            t0 = time.perf_counter()
            describe()  # the /stats snapshot
            stats_latencies.append(time.perf_counter() - t0)
            stop_poller.wait(0.02)

    if config.trace_sample > 0:
        tracing.clear_recent()
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(config.concurrency)
    ]
    poll_thread = threading.Thread(target=poller, name="stats-poller")
    poll_thread.start()
    run_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - run_start
    stop_poller.set()
    poll_thread.join()

    total = sum(counts)
    flat = [value for worker_lat in latencies for value in worker_lat]
    result = {
        "requests": total,
        "seconds": elapsed,
        "achieved_qps": total / elapsed if elapsed else 0.0,
        **_percentiles_ms(flat),
        "stats_poll": {
            "samples": len(stats_latencies),
            **_percentiles_ms(stats_latencies),
        },
    }
    if config.rate is not None:
        result["target_rate"] = config.rate
    if config.trace_sample > 0:
        result["trace"] = _trace_summary(tracing.recent_traces(64))
    return result


def _trace_summary(traces) -> dict | None:
    """Per-stage attribution over sampled traces (the BENCH_obs table).

    ``share`` is each stage's mean as a fraction of mean end-to-end
    latency; ``span_coverage`` is the fraction the *top-level* spans
    tile (they should approach 1.0 — the 10% acceptance gate).
    """
    if not traces:
        return None
    stages: dict[str, list[float]] = {}
    totals, top_level = [], []
    for trace in traces:
        totals.append(trace.total_seconds())
        top_level.append(trace.top_level_seconds())
        for name, seconds in trace.breakdown().items():
            stages.setdefault(name, []).append(seconds)
    mean_total = float(np.mean(totals))
    e2e_ms = mean_total * 1e3
    doc: dict = {
        "sampled": len(traces),
        "e2e_ms": e2e_ms,
        "span_coverage": (
            float(np.mean(top_level)) / mean_total if mean_total else 0.0
        ),
        "stages": {},
    }
    for name, values in sorted(stages.items()):
        arr = np.asarray(values, dtype=np.float64) * 1e3
        doc["stages"][name] = {
            "ms": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "share": float(arr.mean()) / e2e_ms if e2e_ms else 0.0,
        }
    return doc


def run_loadtest(config: LoadtestConfig) -> dict:
    """Run one scenario; returns the result document (JSON-ready)."""
    model = CostGNN(GNNConfig(hidden_dim=config.hidden_dim, seed=config.seed))
    model.eval()
    engine = ShardedEngine(
        model,
        shards=config.shards,
        max_batch_size=config.max_batch_size,
        max_wait_us=config.max_wait_us,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
    )
    if config.warmup:
        templates = synthetic_graphs(config.templates, seed=config.seed)
        for start in range(0, len(templates), config.max_batch_size):
            engine.score(templates[start : start + config.max_batch_size])
    score = engine.score if config.trace_sample == 0 else engine.score_resilient
    with engine:
        core = _drive_traffic(config, score, engine.describe)
        description = engine.describe()

    prediction = description.get("prediction_cache", {})
    request = description.get("request_cache", {})
    return {
        "config": asdict(config),
        **core,
        "prediction_cache_hit_rate": prediction.get("hit_rate", 0.0),
        "prepared_hits": request.get("prepared_hits", 0),
        "prepared_misses": request.get("prepared_misses", 0),
        "engine_stats": description["stats"],
    }


# ---------------------------------------------------------------------------
# chaos harness (DESIGN.md §12)
# ---------------------------------------------------------------------------

#: the scenario book. Each entry pairs a fault spec (seeded per run, so a
#: scenario's decision sequence is reproducible) with the engine knobs
#: that make the failure bite; ``overrides`` reshape the workload config.
#: Probabilities are tuned for a few-second closed-loop run: enough fires
#: to exercise every recovery path, not so many the run measures nothing
#: but recovery.
CHAOS_SCENARIOS: dict[str, dict] = {
    "shard_storm": {
        "summary": "shard workers crash mid-batch; the supervisor revives "
        "them and stranded requests retry on healthy shards",
        "faults": "shard.worker:crash:0.005",
    },
    "brownout": {
        "summary": "slow forwards trip the latency breaker; the degraded "
        "tier (prediction cache, then GBM fallback) keeps answering",
        "faults": "forward:delay:0.5:0.05",
        "breaker_latency_s": 0.015,
    },
    "disk_flake": {
        "summary": "feedback chunk writes fail; the flusher backs off and "
        "quarantines poison chunks — no record is lost silently",
        "faults": "feedback.flush:error:0.7",
        "feedback": True,
    },
    "flash_flood": {
        "summary": "offered load far over a small admission queue; the "
        "excess sheds cleanly while admitted requests complete",
        "faults": "",
        "queue_cap": 64,
        "overrides": {"concurrency": 8, "submit_chunk": 64, "repeat_ratio": 0.0},
    },
    "storm_mix": {
        "summary": "crashes + forward faults + disk failures at once — the "
        "acceptance scenario: >=99% of admitted requests answered",
        "faults": "shard.worker:crash:0.003;forward:error:0.02;"
        "feedback.flush:error:0.5",
        "feedback": True,
    },
}


def run_chaos_scenario(base: LoadtestConfig, name: str) -> dict:
    """Run one named chaos scenario; returns its result document.

    The engine is warmed *before* faults are armed — the prediction cache
    and the degraded tier's reservoir get their baseline from a healthy
    engine, the same state a long-running service would have when a
    failure hits it.
    """
    spec = CHAOS_SCENARIOS[name]
    config = replace(base, **spec.get("overrides", {}))
    deadline_s = spec.get("deadline_ms", 1000.0) / 1e3
    model = CostGNN(GNNConfig(hidden_dim=config.hidden_dim, seed=config.seed))
    model.eval()
    breaker = CircuitBreaker(
        max_latency_s=spec.get("breaker_latency_s"), cooldown_s=0.5
    )
    engine = ShardedEngine(
        model,
        shards=config.shards,
        max_batch_size=config.max_batch_size,
        max_wait_us=config.max_wait_us,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
        max_queue=spec.get("queue_cap"),
        breaker=breaker,
        fallback=DegradedFallback(),
    )
    feedback_dir = feedback_log = None
    if spec.get("feedback"):
        feedback_dir = tempfile.TemporaryDirectory(prefix="chaos-feedback-")
        feedback_log = FeedbackLog(
            feedback_dir.name, capacity=1_000_000, chunk_records=64,
            flush_age_s=0.05,
        )
        feedback_log.backoff_cap_s = 0.5  # keep retry waits inside the run
        feedback_log.poison_after = 3

    templates = synthetic_graphs(config.templates, seed=config.seed)
    for start in range(0, len(templates), config.max_batch_size):
        engine.score_resilient(templates[start : start + config.max_batch_size])

    injector = faults.install(spec["faults"], seed=config.seed)
    started = time.perf_counter()
    until = started + config.duration_s
    tallies = [Counter() for _ in range(config.concurrency)]
    latencies: list[list[float]] = [[] for _ in range(config.concurrency)]

    def worker(index: int) -> None:
        sampler = WorkloadSampler(config, index, started)
        tally, mine = tallies[index], latencies[index]
        while time.perf_counter() < until:
            batch = [
                sampler.sample(time.perf_counter())
                for _ in range(config.submit_chunk)
            ]
            t0 = time.perf_counter()
            outcome = engine.score_resilient(
                batch, deadline=time.monotonic() + deadline_s
            )
            elapsed = time.perf_counter() - t0
            answered = 0
            for status in outcome.statuses:
                tally[status] += 1
                answered += status in ("ok", "degraded")
            mine.extend([elapsed] * answered)
            if feedback_log is not None:
                # the serving path's observe-report stream, a trickle per
                # burst — enough to keep the flusher writing under fire
                for value in outcome.values[:4]:
                    if value is None:
                        continue
                    feedback_log.append(
                        FeedbackRecord(
                            predicted=value,
                            observed=abs(value) * 1.07 + 1e-6,
                            segment="chaos",
                        )
                    )

    threads = [
        threading.Thread(
            target=worker, args=(i,), name=f"chaos-{name}-{i}", daemon=True
        )
        for i in range(config.concurrency)
    ]
    for t in threads:
        t.start()
    # the no-hung-clients guarantee, enforced: every worker must return.
    # Daemon threads + a hard join budget mean a wedged scenario is
    # *reported* (hung_workers > 0) instead of wedging the harness.
    join_by = time.perf_counter() + config.duration_s + 30.0
    hung = 0
    for t in threads:
        t.join(timeout=max(0.0, join_by - time.perf_counter()))
        hung += t.is_alive()
    fault_report = injector.describe()
    faults.uninstall()

    feedback_report = None
    if feedback_log is not None:
        feedback_log.drain(10.0)
        stats = feedback_log.stats()
        replayed = len(feedback_log.replay())
        accounted = replayed + stats["poison_records"] + stats["dropped_pending"]
        feedback_report = {
            "appended": stats["appended"],
            "replayable": replayed,
            "write_errors": stats["write_errors"],
            "quarantined_chunks": stats["quarantined_chunks"],
            "poison_records": stats["poison_records"],
            "dropped_pending": stats["dropped_pending"],
            "records_accounted_for": accounted == stats["appended"],
        }
        feedback_log.close()
        feedback_dir.cleanup()
    restarts = engine.restarts
    if not hung:
        engine.close()

    tally: Counter = Counter()
    for partial in tallies:
        tally.update(partial)
    total = sum(tally.values())
    shed = tally["shed_overload"] + tally["shed_deadline"]
    answered = tally["ok"] + tally["degraded"]
    admitted = total - shed
    flat = [value for mine in latencies for value in mine]
    result = {
        "scenario": name,
        "summary": spec["summary"],
        "faults": spec["faults"],
        "requests": total,
        "ok": tally["ok"],
        "degraded": tally["degraded"],
        "shed_overload": tally["shed_overload"],
        "shed_deadline": tally["shed_deadline"],
        "errors": tally["error"],
        "admitted": admitted,
        "availability": answered / admitted if admitted else 1.0,
        "shed_rate": shed / total if total else 0.0,
        "degraded_rate": tally["degraded"] / total if total else 0.0,
        "hung_workers": hung,
        "shard_restarts": restarts,
        "breaker_trips": breaker.describe()["trips"],
        "fault_fires": {
            f"{rule['site']}:{rule['kind']}": rule["fired"]
            for rule in fault_report["rules"]
        },
        **_percentiles_ms(flat),
    }
    if feedback_report is not None:
        result["feedback"] = feedback_report
    return result


def run_chaos(config: LoadtestConfig, names: list[str]) -> dict:
    """Run the named scenarios; returns the ``BENCH_chaos.json`` document."""
    scenarios: dict[str, dict] = {}
    for name in names:
        print(f"chaos scenario {name}: {CHAOS_SCENARIOS[name]['summary']}")
        result = run_chaos_scenario(config, name)
        scenarios[name] = result
        shed = result["shed_overload"] + result["shed_deadline"]
        print(
            f"  {result['requests']} requests: {result['ok']} ok, "
            f"{result['degraded']} degraded, {shed} shed, "
            f"{result['errors']} errors -> availability "
            f"{result['availability']:.4f}, p99 {result['p99_ms']:.2f}ms"
        )
    return {
        "config": asdict(config),
        "scenarios": scenarios,
        "min_availability": min(s["availability"] for s in scenarios.values()),
        "hung_workers": sum(s["hung_workers"] for s in scenarios.values()),
    }


def _print_trace_table(trace: dict | None) -> None:
    if not trace:
        return
    print(
        f"trace sample: {trace['sampled']} requests, "
        f"mean e2e {trace['e2e_ms']:.2f}ms, "
        f"top-level span coverage {trace['span_coverage']:.1%}"
    )
    for name, row in trace["stages"].items():
        print(
            f"  {name:<20} {row['ms']:>8.3f}ms mean "
            f"{row['p50']:>8.3f}ms p50  {row['share']:>6.1%} of e2e"
        )


def serving_baseline_rps() -> float | None:
    """The committed micro-batched baseline (PR 3's BENCH_serving.json)."""
    path = ROOT / "BENCH_serving.json"
    try:
        with open(path) as fh:
            return float(json.load(fh)["batched"]["requests_per_second"])
    except (OSError, KeyError, ValueError, json.JSONDecodeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--repeat-ratio", type=float, default=0.5)
    parser.add_argument("--templates", type=int, default=128)
    parser.add_argument("--hot-templates", type=int, default=32)
    parser.add_argument("--drift-period", type=float, default=1.0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--max-batch-size", type=int, default=64)
    parser.add_argument("--submit-chunk", type=int, default=32)
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in req/s (default: closed-loop saturation)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        help="trace every Nth burst and report a per-stage latency "
        "breakdown (0 = off); writes BENCH_obs.json unless --out is given",
    )
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="", help="write the result JSON here")
    parser.add_argument(
        "--chaos",
        nargs="*",
        metavar="SCENARIO",
        default=None,
        help="run fault scenarios instead of the throughput loadtest "
        f"(no names = all of: {', '.join(CHAOS_SCENARIOS)}); "
        "writes BENCH_chaos.json unless --out is given",
    )
    args = parser.parse_args(argv)

    config = LoadtestConfig(
        duration_s=args.duration,
        concurrency=args.concurrency,
        repeat_ratio=args.repeat_ratio,
        templates=args.templates,
        hot_templates=args.hot_templates,
        drift_period_s=args.drift_period,
        shards=args.shards,
        max_batch_size=args.max_batch_size,
        submit_chunk=args.submit_chunk,
        rate=args.rate,
        trace_sample=args.trace_sample,
        hidden_dim=args.hidden_dim,
        seed=args.seed,
    )
    if args.trace_sample > 0 and not args.out:
        args.out = "BENCH_obs.json"
    if args.chaos is not None:
        names = args.chaos or list(CHAOS_SCENARIOS)
        unknown = [n for n in names if n not in CHAOS_SCENARIOS]
        if unknown:
            parser.error(
                f"unknown chaos scenario(s) {unknown}; "
                f"know {list(CHAOS_SCENARIOS)}"
            )
        doc = run_chaos(config, names)
        out = args.out or "BENCH_chaos.json"
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(
            f"min availability {doc['min_availability']:.4f}, "
            f"hung workers {doc['hung_workers']} -> wrote {out}"
        )
        return 1 if doc["hung_workers"] else 0
    result = run_loadtest(config)
    baseline = serving_baseline_rps()
    if baseline:
        result["baseline_serving_batched_rps"] = baseline
        result["speedup_vs_serving_batched"] = result["achieved_qps"] / baseline

    print(
        f"{result['requests']} requests in {result['seconds']:.2f}s = "
        f"{result['achieved_qps']:,.0f} req/s "
        f"(p50 {result['p50_ms']:.2f}ms / p95 {result['p95_ms']:.2f}ms / "
        f"p99 {result['p99_ms']:.2f}ms)"
    )
    print(
        f"prediction-cache hit rate {result['prediction_cache_hit_rate']:.1%}, "
        f"stats-poll p95 {result['stats_poll']['p95_ms']:.2f}ms"
    )
    _print_trace_table(result.get("trace"))
    if baseline:
        print(
            f"vs committed batched baseline {baseline:,.0f} req/s: "
            f"{result['speedup_vs_serving_batched']:.2f}x"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
