"""``advise`` and ``predict``: the HTTP serving tier under load.

The benchmark process builds the corpus and the served model (the
offline pipeline), publishes the model to a registry in the run's temp
dir, then drives ``server.py`` in its own process:

* ``advise`` — a closed loop of ``SESSIONS`` optimizer sessions; each
  round is ``/advise`` for one pool query (Zipf-skewed draws, so first-
  seen and recurring queries mix) followed by ``POST /feedback`` with
  the labelled runtime of the chosen placement;
* ``predict`` — an open loop paced at ``PREDICT_RATE_RPS``: each arrival is a
  planner costing 12 candidate joint graphs (2 placements x 6 seeded
  selectivity levels of one pool query) with ``/predict``, picking a
  placement, and reporting the observed runtime with a metric-only
  ``POST /feedback`` record. No graph content repeats.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import layers
from common import ROOT, Client, Outcomes, median, percentile
from repro.advisor.advisor import PullUpAdvisor, apply_strategy, placement_graphs
from repro.advisor.strategies import SELECTIVITY_LEVELS
from repro.core.joint_graph import JointGraphConfig
from repro.eval.metrics import q_error
from repro.feedback.collector import graph_fingerprint
from repro.model.training import predict_runtimes
from repro.serve import ModelRegistry, graph_to_json, query_to_json
from repro.sql.query import UDFPlacement
from repro.stats import StatisticsCatalog, make_estimator

DATABASE = "imdb"
MODEL_NAME = "perfbench-costgnn"
SESSIONS = 2
#: predict client threads: one, so a /feedback never waits behind a
#: concurrent /predict for the GIL (with two, feedback p50 spread 0.47
#: over five seeds)
PLANNERS = 1
ZIPF_A = 1.1
#: a third of the unique-traffic /predict capacity measured on a 2-core
#: x86 host (~30 requests/s of 12 graphs); at half capacity the Poisson
#: bursts queued and p95 latency swung from run to run
PREDICT_RATE_RPS = 10.0
#: arrivals are paced, not Poisson: request k is due at (k + u) / rate
#: with u uniform in [0, PACING_JITTER). Even at a third of capacity,
#: Poisson bursts queued whenever the shared host slowed down, and over
#: ten seeds latency p50 spread 0.46 and p95 0.97
PACING_JITTER = 0.3
SETUP_REPEATS = 5
STRATEGY = "conservative"
#: served vs in-process predictions (float32 model, different batching)
RTOL = 1e-4
SERVER_SCRIPT = Path(__file__).resolve().parent / "server.py"


@dataclass(frozen=True)
class Sizes:
    train_queries: int
    pool_queries: int
    warmup_queries: int
    epochs: int
    predict_checks: int


FULL = Sizes(train_queries=60, pool_queries=24, warmup_queries=3, epochs=20, predict_checks=8)
TINY = Sizes(train_queries=10, pool_queries=4, warmup_queries=1, epochs=2, predict_checks=2)


@dataclass
class Corpus:
    database: object
    model: object  # CostGNN
    pool: list  # BenchmarkEntry, advisor-eligible
    pool_samples: list
    warmup: list
    warmup_samples: list
    clock: corpus.StageClock
    labels_ok: bool


def build_corpus(sizes: Sizes, registry_dir: Path) -> Corpus:
    clock = corpus.StageClock()
    database = corpus.make_database(DATABASE)
    seed = corpus.CORPUS_SEED
    train = corpus.label(clock, DATABASE, database, sizes.train_queries, seed + 1)
    pool = corpus.label(clock, DATABASE, database, sizes.pool_queries, seed + 2,
                        corpus.UDF_FILTER_JOIN_WORKLOAD)
    warmup = corpus.label(clock, DATABASE, database, sizes.warmup_queries, seed + 3,
                          corpus.UDF_FILTER_JOIN_WORKLOAD)
    catalog = StatisticsCatalog(database)
    from repro.eval import training_placements

    train_samples = corpus.featurize(clock, train, training_placements(), catalog)
    pool_samples = corpus.featurize(clock, pool, None, catalog)
    warmup_samples = corpus.featurize(clock, warmup, None, catalog)
    model = corpus.fit(clock, train_samples, sizes.epochs, lr=3e-3).model
    ModelRegistry(registry_dir).publish(MODEL_NAME, model, description="perfbench")
    labels_ok = all(corpus.check_labels(b) for b in (train, pool))
    return Corpus(
        database=database,
        model=model,
        pool=corpus.advisor_entries(pool),
        pool_samples=pool_samples,
        warmup=corpus.advisor_entries(warmup),
        warmup_samples=warmup_samples,
        clock=clock,
        labels_ok=labels_ok,
    )


# -- the server process ----------------------------------------------------
class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, tmp: Path, index: int, trace: bool):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(SERVER_SCRIPT),
                "--registry", str(tmp / "registry"),
                "--model", MODEL_NAME,
                "--feedback", str(tmp / f"feedback-{index}"),
                "--database", DATABASE,
                "--scale", str(corpus.SCALE),
                "--trace", str(int(trace)),
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._replies: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready = self._reply(timeout=120.0)
        self.client = Client("127.0.0.1", self.ready["port"])

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@ "):
                self._replies.put(json.loads(line[3:]))
        self._replies.put(None)

    def _reply(self, timeout: float = 60.0) -> dict:
        try:
            reply = self._replies.get(timeout=timeout)
        except queue.Empty:
            reply = None
        if reply is None:
            self.kill()
            raise RuntimeError("server process stopped answering")
        return reply

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def drain(self) -> dict:
        final = self.command("drain")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def state(self) -> dict:
        """Counters the window deltas are computed from."""
        stats = self.client.get_json("/stats")
        metrics_text = self.client.get_text("/metrics")
        return {
            "stats": stats,
            "stages": stage_sums(metrics_text),
            "proc": self.command("snapshot"),
        }


_STAGE_RE = re.compile(r'^repro_stage_seconds_(sum|count)\{stage="([^"]+)"\} (\S+)$')


def stage_sums(metrics_text: str) -> dict:
    """``{stage: [sum_seconds, count]}`` from the ``/metrics`` exposition."""
    out: dict = {}
    for line in metrics_text.splitlines():
        match = _STAGE_RE.match(line)
        if match:
            kind, stage, value = match.groups()
            out.setdefault(stage, [0.0, 0.0])[0 if kind == "sum" else 1] = float(value)
    return out


# -- traffic ---------------------------------------------------------------
@dataclass
class Traffic:
    """What one measured window sent and saw."""

    primary: Outcomes = field(default_factory=Outcomes)
    feedback: Outcomes = field(default_factory=Outcomes)
    window_s: float = 0.0
    rounds: int = 0
    lateness: list = field(default_factory=list)
    repeats: int = 0
    checks: list = field(default_factory=list)  # (arrival index, runtimes)


def zipf_draws(rng: np.random.Generator, n_pool: int):
    """Endless pool indices, Zipf(ZIPF_A)-skewed by rank.

    Draws come in shuffled blocks of fixed composition (rank k appears
    about ``2 * n_pool / k^ZIPF_A`` times, every query at least once),
    so the mix of cheap and expensive queries in a window does not
    depend on the seed; only the order does.
    """
    weights = 1.0 / np.arange(1, n_pool + 1) ** ZIPF_A
    counts = np.maximum(1, np.round(2 * n_pool * weights / weights.sum())).astype(int)
    block = np.repeat(np.arange(n_pool), counts)
    while True:
        yield from rng.permutation(block).tolist()


def advise_bodies(pool: list, client_id: str) -> list[bytes]:
    return [
        json.dumps({"query": query_to_json(e.query), "client": client_id}).encode()
        for e in pool
    ]


def run_advise(server: ServerProcess, data: Corpus, seed: int, seconds: float) -> Traffic:
    """Sessions run in lockstep: every /advise meets exactly one
    concurrent /advise, every /feedback one concurrent /feedback. Free-
    running sessions made /feedback latency bimodal (a write queued
    behind a concurrent /advise waits out GIL hand-offs) and its median
    swing between the modes from run to run."""
    traffic = Traffic()
    seen: set[int] = set()
    lock = threading.Lock()
    start = time.perf_counter()
    stop = start + seconds
    finished = threading.Event()

    def check_clock() -> None:
        if time.perf_counter() >= stop:
            finished.set()

    barrier = threading.Barrier(SESSIONS, action=check_clock)

    def session(index: int) -> None:
        rng = np.random.default_rng([seed, index])
        bodies = advise_bodies(data.pool, f"session-{index}")
        local, local_fb = Outcomes(), Outcomes()
        repeats = rounds = 0
        draws = zipf_draws(rng, len(data.pool))
        try:
            while True:
                barrier.wait(timeout=120)
                if finished.is_set():
                    break
                q = next(draws)
                with lock:
                    repeats += q in seen
                    seen.add(q)
                outcome, secs, decision = server.client.call("POST", "/advise", bodies[q])
                local.add(outcome, secs)
                rounds += 1
                barrier.wait(timeout=120)
                if decision is None:
                    continue
                observed = data.pool[q].runs[UDFPlacement(decision["placement"])].runtime
                body = json.dumps({"decision_id": decision["decision_id"], "observed": observed})
                outcome, secs, _ = server.client.call("POST", "/feedback", body.encode())
                local_fb.add(outcome, secs)
        except threading.BrokenBarrierError:
            pass
        finally:
            barrier.abort()  # a failed peer must not leave the other waiting
            with lock:
                traffic.primary.merge(local)
                traffic.feedback.merge(local_fb)
                traffic.repeats += repeats
                traffic.rounds += rounds

    threads = [threading.Thread(target=session, args=(i,)) for i in range(SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    traffic.window_s = time.perf_counter() - start
    return traffic


@contextmanager
def memoized_udf_graphs():
    """Build each UDF's graph once while the client featurizes request
    graphs (input generation only; never active while measuring)."""
    import repro.core.joint_graph as joint_graph

    original = joint_graph.build_udf_graph
    memo: dict = {}

    def build(udf, config=None):
        entry = memo.get(id(udf))
        if entry is None:
            entry = memo[id(udf)] = (udf, original(udf, config))
        return entry[1]

    joint_graph.build_udf_graph = build
    try:
        yield
    finally:
        joint_graph.build_udf_graph = original


@dataclass
class Arrival:
    """One planner request of the open loop, encoded ahead of time."""

    body: bytes
    levels: np.ndarray
    runtimes: dict  # placement value -> labelled runtime
    fingerprints: set
    node_counts: list
    graphs: list | None  # kept for the seeded sample that is re-checked


def _plan_chunk(chunk: int, grids: list, keep: set) -> list[Arrival]:
    """Label one fresh query per arrival and featurize its 12 candidates."""
    database = corpus.make_database(DATABASE)
    entries: list = []
    batch = 0
    while len(entries) < len(grids):
        bench = corpus.label(
            corpus.StageClock(), DATABASE, database, len(grids) - len(entries),
            [corpus.CORPUS_SEED, 99, chunk, batch], corpus.UDF_FILTER_JOIN_WORKLOAD,
        )
        entries += corpus.advisor_entries(bench)
        batch += 1
    catalog = StatisticsCatalog(database)
    estimator = make_estimator("actual", database)
    config = JointGraphConfig()
    out = []
    with memoized_udf_graphs():
        for k, (entry, grid) in enumerate(zip(entries, grids)):
            built = placement_graphs(entry.query, catalog, estimator, grid, config)
            graphs = built[UDFPlacement.PUSH_DOWN] + built[UDFPlacement.PULL_UP]
            out.append(Arrival(
                body=json.dumps({"graphs": [graph_to_json(g) for g in graphs]}).encode(),
                levels=grid,
                runtimes={p.value: r.runtime for p, r in entry.runs.items()},
                fingerprints={graph_fingerprint(g) for g in graphs},
                node_counts=[g.num_nodes for g in graphs],
                graphs=graphs if k in keep else None,
            ))
    return out


@dataclass
class PredictPlan:
    """The open loop's inputs: arrival times and pre-encoded requests."""

    due: np.ndarray
    arrivals: list

    @property
    def unique(self) -> bool:
        """No graph fingerprint appears in two different requests."""
        seen: set = set()
        for arrival in self.arrivals:
            if seen & arrival.fingerprints:
                return False
            seen |= arrival.fingerprints
        return True


def plan_predict(seed: int, seconds: float, n_checks: int) -> PredictPlan:
    """One fresh labelled query per arrival, so no graph content recurs
    across requests (within a request the 12 candidates can coincide:
    the selectivity level often leaves the featurized graph unchanged).

    The queries come from the fixed corpus seed; ``seed`` draws their
    selectivity levels, their order and the send times. With queries
    drawn from the seed too, request sizes differed between seeds and
    moved latency p95 with them.

    Labelling and featurizing a few hundred queries is input generation,
    not measurement, so it fans out over one worker process per core.
    """
    rng = np.random.default_rng([seed, 7])
    n = max(2, int(round(PREDICT_RATE_RPS * seconds)))
    due = (np.arange(n) + rng.uniform(0.0, PACING_JITTER, size=n)) / PREDICT_RATE_RPS
    grids = [np.sort(rng.uniform(0.02, 1.0, size=len(SELECTIVITY_LEVELS))) for _ in range(n)]
    checked = set(int(i) for i in rng.choice(n, size=min(n_checks, n), replace=False))
    order = rng.permutation(n)
    workers = max(1, min(2, os.cpu_count() or 1, n))
    bounds = np.linspace(0, n, workers + 1).astype(int)
    jobs = [
        (c, grids[lo:hi], {i - lo for i in checked if lo <= i < hi})
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    # fork, not spawn: a spawn pool's semaphores start multiprocessing's
    # resource tracker, a process that outlives the run. Forking is safe
    # only while this process runs no other thread (the servers start later).
    if threading.active_count() > 1:
        raise RuntimeError("plan_predict forks its workers: start no thread before it")
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        chunks = list(pool.map(_plan_chunk, *zip(*jobs)))
    arrivals = [a for chunk in chunks for a in chunk]
    return PredictPlan(due, [arrivals[i] for i in order])


def run_predict(server: ServerProcess, data: Corpus, plan: PredictPlan) -> Traffic:
    traffic = Traffic()
    lock = threading.Lock()
    cursor = iter(range(len(plan.arrivals)))
    start = time.perf_counter()

    def planner(index: int) -> None:
        local, local_fb = Outcomes(), Outcomes()
        lateness, checks = [], []
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            due = start + plan.due[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrival = plan.arrivals[i]
            sent = time.perf_counter()
            lateness.append(sent - due)
            outcome, secs, reply = server.client.call("POST", "/predict", arrival.body)
            local.add(outcome, sent + secs - due)
            if reply is None:
                continue
            costs = np.asarray(reply["runtimes"], dtype=np.float64).reshape(2, -1)
            if arrival.graphs is not None:
                checks.append((i, costs.reshape(-1)))
            pull_up, _ = apply_strategy(costs[1], costs[0], arrival.levels, STRATEGY)
            placement = UDFPlacement.PULL_UP if pull_up else UDFPlacement.PUSH_DOWN
            record = {
                "predicted": float(costs[int(pull_up)].mean()),
                "observed": arrival.runtimes[placement.value],
                "placement": placement.value,
                "segment": DATABASE,
                "client": f"planner-{index}",
            }
            body = json.dumps({"records": [record]}).encode()
            outcome, secs, _ = server.client.call("POST", "/feedback", body)
            local_fb.add(outcome, secs)
        with lock:
            traffic.primary.merge(local)
            traffic.feedback.merge(local_fb)
            traffic.lateness.extend(lateness)
            traffic.checks.extend(checks)

    threads = [threading.Thread(target=planner, args=(i,)) for i in range(PLANNERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    traffic.window_s = time.perf_counter() - start
    traffic.rounds = len(plan.arrivals)
    return traffic


# -- warm-up, verification ---------------------------------------------------
def warm_up(server: ServerProcess, data: Corpus) -> bool:
    """Queries outside the pool, every route once per session: lazy
    initialization lands in set-up, not in the measured window."""
    ok = True
    for index in range(SESSIONS):
        for entry, body in zip(data.warmup, advise_bodies(data.warmup, f"warmup-{index}")):
            outcome, _, decision = server.client.call("POST", "/advise", body)
            ok &= outcome == "2xx"
            if decision is not None:
                observed = entry.runs[UDFPlacement(decision["placement"])].runtime
                fb = json.dumps({"decision_id": decision["decision_id"], "observed": observed})
                ok &= server.client.call("POST", "/feedback", fb.encode())[0] == "2xx"
    graphs = [s.joint_graph for s in data.warmup_samples]
    body = json.dumps({"graphs": [graph_to_json(g) for g in graphs]}).encode()
    ok &= server.client.call("POST", "/predict", body)[0] == "2xx"
    return ok


def served_predictions(
    server: ServerProcess, graphs: list, chunk: int = 24
) -> np.ndarray | None:
    out = []
    for start in range(0, len(graphs), chunk):
        body = json.dumps({"graphs": [graph_to_json(g) for g in graphs[start:start + chunk]]})
        outcome, _, reply = server.client.call("POST", "/predict", body.encode())
        if reply is None or any(v is None for v in reply["runtimes"]):
            return None
        out.extend(reply["runtimes"])
    return np.asarray(out, dtype=np.float64)


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    qerrors: np.ndarray | None = None
    speedup: float = 0.0

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def verify(server: ServerProcess, data: Corpus, workload: str, traffic: Traffic,
           plan: PredictPlan | None, plant_wrong: bool) -> Verdict:
    verdict = Verdict()
    verdict.require(data.labels_ok, "labels do not reproduce on re-execution")
    # Q-error of the served model on the labelled pool plans (all three
    # placements; INTERMEDIATE is never trained on)
    graphs = [s.joint_graph for s in data.pool_samples]
    served = served_predictions(server, graphs)
    local = predict_runtimes(data.model, graphs)
    if served is None:
        verdict.require(False, "served /predict of pool plans failed")
        return verdict
    if plant_wrong:
        served = served.copy()
        served[0] *= 1.5
    verdict.require(
        np.allclose(served, local, rtol=RTOL, atol=0.0),
        "served /predict differs from in-process predict_runtimes",
    )
    verdict.qerrors = q_error(served, corpus.true_runtimes(data.pool_samples))
    # placements: served (advise: /advise, predict: /predict + strategy)
    # against the offline advisor on the same model and statistics
    offline = PullUpAdvisor(
        data.model, StatisticsCatalog(data.database),
        make_estimator("actual", data.database), strategy=STRATEGY,
    )
    chosen = []
    for entry, body in zip(data.pool, advise_bodies(data.pool, "verify")):
        expected = offline.decide(entry.query).placement
        if workload == "advise":
            _, _, decision = server.client.call("POST", "/advise", body)
            got = UDFPlacement(decision["placement"]) if decision else None
        else:
            built = placement_graphs(
                entry.query, offline.catalog, offline.estimator,
                np.asarray(SELECTIVITY_LEVELS), offline.joint_config,
            )
            costs = served_predictions(
                server, built[UDFPlacement.PUSH_DOWN] + built[UDFPlacement.PULL_UP]
            )
            got = None
            if costs is not None:
                costs = costs.reshape(2, -1)
                pull_up, _ = apply_strategy(
                    costs[1], costs[0], np.asarray(SELECTIVITY_LEVELS), STRATEGY
                )
                got = UDFPlacement.PULL_UP if pull_up else UDFPlacement.PUSH_DOWN
        verdict.require(got == expected, f"served placement {got} != offline {expected}")
        chosen.append(expected)
    verdict.speedup = corpus.speedup(data.pool, chosen)
    if plan is not None:
        verdict.require(plan.unique, "predict traffic repeats a graph fingerprint")
        for i, costs in traffic.checks:
            expected = predict_runtimes(data.model, plan.arrivals[i].graphs)
            verdict.require(
                np.allclose(costs, expected, rtol=RTOL, atol=0.0),
                f"served /predict of arrival {i} differs from in-process",
            )
    return verdict


# -- the workload ----------------------------------------------------------
def window_counters(before: dict, after: dict) -> dict:
    """Server-side deltas over the measured window."""
    def engine(state):
        return state["stats"]["engine"]["stats"]

    def request_cache(state):
        return state["stats"]["caches"]["request"]

    def prediction_cache(state):
        return state["stats"]["caches"]["prediction"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def delta(get, key):
        return get(after)[key] - get(before)[key]

    wait_before = before["stages"].get("queue.wait", [0.0, 0.0])
    wait_after = after["stages"].get("queue.wait", [0.0, 0.0])
    wait_s, waits = (a - b for a, b in zip(wait_after, wait_before))
    batches = delta(engine, "batches")
    fb_before, fb_after = before["proc"]["feedback"], after["proc"]["feedback"]
    def tier(get, prefix: str) -> float:
        return ratio(delta(get, f"{prefix}hits"), delta(get, f"{prefix}misses"))

    return {
        "payload_hit_ratio": tier(request_cache, "payload_"),
        "prepared_hit_ratio": tier(request_cache, "prepared_"),
        "topology_hit_ratio": tier(request_cache, "topology_"),
        "prediction_hit_ratio": tier(prediction_cache, ""),
        "queue_wait_ms": 1000.0 * wait_s / waits if waits else 0.0,
        "batch_size_mean": delta(engine, "predictions") / batches if batches else 0.0,
        "busy_s": delta(engine, "busy_seconds"),
        "shed": delta(engine, "shed_overload") + delta(engine, "shed_deadline"),
        "cpu_s": after["proc"]["cpu_s"] - before["proc"]["cpu_s"],
        "chunks_flushed": fb_after["flushed_chunks"] - fb_before["flushed_chunks"],
        "write_errors": fb_after["write_errors"] - fb_before["write_errors"],
    }


def measure(server: ServerProcess, data: Corpus, workload: str, seed: int,
            seconds: float, plan: PredictPlan | None, traced: bool):
    """One measured window: ``(traffic, server counters, window spans)``."""
    before = server.state()
    if traced:
        server.command("reset")
    if workload == "advise":
        traffic = run_advise(server, data, seed, seconds)
    else:
        traffic = run_predict(server, data, plan)
    after = server.state()
    return traffic, window_counters(before, after), after["proc"]["spans"]


def start_server(
    tmp: Path, index: int, data: Corpus, trace: bool
) -> tuple[ServerProcess, float, bool]:
    """A cold server, warmed up: ``(server, set-up seconds, warm-up ok)``."""
    server = ServerProcess(tmp, index, trace)
    try:
        ok = warm_up(server, data)
    except Exception:
        server.kill()
        raise
    return server, time.perf_counter() - server.started, ok


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        tmp: Path, plant_wrong: bool) -> dict:
    sizes = TINY if tiny else FULL
    data = build_corpus(sizes, tmp / "registry")
    plan = None
    if workload == "predict":
        plan = plan_predict(seed, seconds, sizes.predict_checks)
    result: dict = {"clock": data.clock}
    servers: list[ServerProcess] = []
    try:
        if trace:
            # reference window without wrappers, then the traced window
            reference, _, ok_ref = start_server(tmp, 0, data, trace=False)
            servers.append(reference)
            untraced, _, _ = measure(reference, data, workload, seed, seconds, plan, False)
            reference.drain()
            server, setup_s, ok = start_server(tmp, 1, data, trace=True)
            servers.append(server)
            ok &= ok_ref
            result["untraced"] = untraced
            setups = [setup_s]
        else:
            setups, ok = [], True
            for index in range(SETUP_REPEATS):
                server, setup_s, warm_ok = start_server(tmp, index, data, trace=False)
                servers.append(server)
                setups.append(setup_s)
                ok &= warm_ok
                if index < SETUP_REPEATS - 1:
                    server.drain()
        traffic, counters, spans = measure(server, data, workload, seed, seconds, plan, trace)
        verdict = verify(server, data, workload, traffic, plan, plant_wrong)
        verdict.require(ok, "warm-up requests failed")
        final = server.drain()
        accounting = final["accounting"]
        verdict.require(accounting["closes"], f"feedback accounting: {accounting}")
    finally:
        for server_process in servers:
            server_process.kill()
    result.update(
        setup_s=median(setups),
        traffic=traffic,
        counters=counters,
        spans=spans,
        setup_spans=server.ready.get("setup_spans"),
        verdict=verdict,
        peak_rss_mb=final["rss_mb"],
        shards=server.ready["shards"],
        plan=plan,
        data=data,
    )
    return result


def properties(workload: str, res: dict) -> dict:
    traffic, data, plan = res["traffic"], res["data"], res["plan"]
    if workload == "advise":
        bodies = advise_bodies(data.pool, "session-0")
        nodes = [s.joint_graph.num_nodes for s in data.pool_samples]
    else:
        bodies = [a.body for a in plan.arrivals]
        nodes = [n for a in plan.arrivals for n in a.node_counts]
    props = {
        "graphs_per_request": 2 * len(SELECTIVITY_LEVELS),
        "graph_nodes_p50": median(nodes),
        "body_bytes_p50": median([len(b) for b in bodies]),
        "rounds": traffic.rounds,
        "window_s": round(traffic.window_s, 3),
        "latency_samples": len(traffic.primary.latencies),
        "latency_p99_ms": 1000.0 * percentile(traffic.primary.latencies, 99),
        "feedback_samples": len(traffic.feedback.latencies),
        "feedback_p95_ms": 1000.0 * percentile(traffic.feedback.latencies, 95),
        "feedback_p99_ms": 1000.0 * percentile(traffic.feedback.latencies, 99),
        "outcomes": {
            "primary": dict(traffic.primary.counts),
            "feedback": dict(traffic.feedback.counts),
        },
    }
    if workload == "advise":
        props["repeat_share"] = traffic.repeats / traffic.rounds if traffic.rounds else 0.0
    else:
        props["send_lateness_p99_ms"] = 1000.0 * percentile(traffic.lateness, 99)
        props["rate_rps"] = PREDICT_RATE_RPS
        props["unique_graph_fingerprints"] = plan.unique
        props["distinct_graphs_per_request_mean"] = float(
            np.mean([len(a.fingerprints) for a in plan.arrivals])
        )
    return props


def end_to_end(res: dict) -> dict:
    traffic, verdict = res["traffic"], res["verdict"]
    ok = traffic.primary.counts["2xx"]
    return {
        "setup_s": (res["setup_s"], "s"),
        "throughput_rps": (ok / traffic.window_s if traffic.window_s else 0.0, "1/s"),
        "latency_p50_ms": (1000.0 * percentile(traffic.primary.latencies, 50), "ms"),
        "latency_p95_ms": (1000.0 * percentile(traffic.primary.latencies, 95), "ms"),
        "feedback_p50_ms": (1000.0 * percentile(traffic.feedback.latencies, 50), "ms"),
        "advise_speedup": (verdict.speedup, "x"),
        "qerror_p50": (percentile(list(verdict.qerrors), 50), "ratio"),
        "qerror_p95": (percentile(list(verdict.qerrors), 95), "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def traced_layers(res: dict) -> tuple[dict, str]:
    """Per-layer metrics and the report table of a traced window."""
    traffic, counters = res["traffic"], res["counters"]
    observed_s = sum(traffic.primary.latencies) + sum(traffic.feedback.latencies)
    reference = res["untraced"]
    reference_s = sum(reference.primary.latencies) + sum(reference.feedback.latencies)
    reference_n = reference.primary.attempted + reference.feedback.attempted
    attempted = traffic.primary.attempted + traffic.feedback.attempted
    overhead = (observed_s / attempted) / (reference_s / reference_n) - 1.0
    return layers.per_layer_metrics(
        window=res["spans"],
        setup=res["setup_spans"],
        rounds=traffic.rounds,
        observed_s=observed_s,
        server=counters,
        error_rate=(traffic.primary.failed + traffic.feedback.failed) / max(1, attempted),
        trace_overhead=overhead,
        client_queue_s=max(0.0, sum(traffic.lateness)),
        pipeline=res["clock"],
    )
