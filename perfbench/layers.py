"""Per-layer attribution by wrapping each layer's public functions.

The benchmark never edits ``src/``: a :class:`Tracer` replaces a public
function (or method) with a timing wrapper, in its defining module and in
every ``repro`` module that imported it by name, and restores the
originals on :meth:`Tracer.uninstall`.

Each wrapped call is a span. Spans nest per thread, so a layer's *self*
time is its span time minus the time of wrapped calls it made itself
(``stats.annotate`` minus the ``exec.execute`` calls the actual-cardinality
estimator issues, for example). Spans that have no enclosing span on their
thread are *top-level*; the engine's shard threads only ever run top-level
spans, which is how their work is taken out of the waiting request's
``serve.engine`` span (see :func:`attribution`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

#: (layer, module, attribute path, items) — ``items`` names a way to count
#: the work in one call (graphs in a batch, graphs built per decision).
LAYER_TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("serve.http", "repro.serve.http", "ServingHandler.do_POST", None),
    ("serve.codec.decode", "repro.serve.codec", "graph_from_json", None),
    ("serve.codec.decode", "repro.serve.codec", "query_from_json", None),
    ("serve.codec.decode", "repro.serve.codec", "feedback_record_from_json", None),
    ("serve.engine", "repro.serve.engine", "ShardedEngine.score_resilient", None),
    ("advisor.placement_graphs", "repro.advisor.advisor", "placement_graphs", "graph_dict"),
    ("sql.build_plan", "repro.sql.optimizer", "build_plan", None),
    ("core.build_joint_graph", "repro.core.joint_graph", "build_joint_graph", None),
    ("core.hit_ratios", "repro.core.hitratio", "estimate_hit_ratios", None),
    ("stats.annotate", "repro.stats.annotate", "annotate_plan", None),
    ("cfg.build_udf_graph", "repro.cfg.builder", "build_udf_graph", None),
    ("exec.execute", "repro.exec.simulator", "SimulatorBackend.execute", None),
    ("model.prepare", "repro.serve.cache", "PreparedRequestCache.prepared_many", None),
    ("model.prepare", "repro.model.prepared", "PreparedGraphCache.get_many", None),
    ("model.prepare", "repro.model.prepared", "prepare_graphs", None),
    ("model.collate", "repro.model.batching", "make_batch_prepared", None),
    ("model.collate", "repro.model.batching", "make_batch", None),
    ("model.forward", "repro.model.gnn", "CostGNN.forward", "batch"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", None),
    ("nn.optim", "repro.nn.optim", "Adam.step", None),
    ("storage.generate", "repro.storage.generator", "generate_database", None),
    ("bench.workload.generate", "repro.bench.workload", "WorkloadGenerator.generate", None),
    ("eval.prepare_samples", "repro.eval.samples", "prepare_dataset_samples", None),
    ("feedback.record", "repro.serve.advisor_service", "AdvisorService.record_runtime", None),
    ("feedback.append", "repro.feedback.collector", "FeedbackLog.append", None),
)

#: shard worker threads of :class:`repro.serve.engine.MicroBatchEngine`
SHARD_THREAD_PREFIX = "microbatch-shard-"
#: background threads whose spans are not on any request's path
BACKGROUND_THREAD_PREFIXES = ("feedback-flusher",)


def _count_items(kind: str | None, args: tuple, result) -> int:
    if kind == "batch":
        return int(getattr(args[1], "n_graphs", 0))
    if kind == "graph_dict":
        return sum(len(graphs) for graphs in result.values())
    return 0


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Installs span wrappers and aggregates calls/total/self per layer.

    Statistics are keyed by ``(layer, thread group)`` where the group is
    ``"shard"`` for engine shard threads, ``"background"`` for the
    feedback flusher and ``"request"`` for everything else, plus a
    separate tally of top-level time per group.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.stats: dict[tuple[str, str], LayerStat] = {}
        self.top_s: dict[str, float] = {}

    # -- installation ----------------------------------------------------
    def install(self, targets=LAYER_TARGETS) -> "Tracer":
        for layer, module_name, path, items in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(layer, original, items))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, items)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                    self._replace(mod, attr, original, wrapper)
        return self

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        with self._lock:
            self.stats.clear()
            self.top_s.clear()

    # -- spans -----------------------------------------------------------
    def _wrap(self, layer: str, fn, items: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                n_items = _count_items(items, args, result) if result is not None else 0
                tracer._record(layer, elapsed, elapsed - children, not stack, n_items)

        return wrapper

    def _record(self, layer: str, total: float, self_s: float, top: bool, items: int) -> None:
        name = threading.current_thread().name
        if name.startswith(SHARD_THREAD_PREFIX):
            group = "shard"
        elif name.startswith(BACKGROUND_THREAD_PREFIXES):
            group = "background"
        else:
            group = "request"
        with self._lock:
            stat = self.stats.get((layer, group))
            if stat is None:
                stat = self.stats[(layer, group)] = LayerStat()
            stat.calls += 1
            stat.total_s += total
            stat.self_s += self_s
            stat.items += items
            if top:
                self.top_s[group] = self.top_s.get(group, 0.0) + total

    def snapshot(self) -> dict:
        """JSON-ready copy: ``{"layers": {...}, "top_s": {...}}``."""
        with self._lock:
            return {
                "layers": {
                    f"{layer}|{group}": [s.calls, s.total_s, s.self_s, s.items]
                    for (layer, group), s in self.stats.items()
                },
                "top_s": dict(self.top_s),
            }


def merge_layers(snapshot: dict) -> dict[str, LayerStat]:
    """Per-layer totals over every thread group, from :meth:`Tracer.snapshot`."""
    merged: dict[str, LayerStat] = {}
    for key, (calls, total, self_s, items) in snapshot.get("layers", {}).items():
        layer = key.split("|")[0]
        stat = merged.setdefault(layer, LayerStat())
        stat.calls += calls
        stat.total_s += total
        stat.self_s += self_s
        stat.items += items
    return merged


def attribution(snapshot: dict) -> dict[str, float]:
    """Self seconds per layer on the request path.

    A request thread waiting inside ``serve.engine`` (``score_resilient``)
    is idle while a shard thread runs the batch's prepare/collate/forward
    spans, so the shard threads' top-level time is taken out of
    ``serve.engine``'s self time; what remains is dispatch, cache lookups
    and queueing. Background-thread spans (the feedback flusher) are not
    on any request's path and are left out.
    """
    out: dict[str, float] = {}
    for key, (_calls, _total, self_s, _items) in snapshot.get("layers", {}).items():
        layer, group = key.split("|")
        if group == "background":
            continue
        out[layer] = out.get(layer, 0.0) + self_s
    if "serve.engine" in out:
        shard_busy = snapshot.get("top_s", {}).get("shard", 0.0)
        out["serve.engine"] = max(0.0, out["serve.engine"] - shard_busy)
    return out


#: every per-layer metric: (name, unit, better). ``_ms`` metrics are self
#: milliseconds per round (one /advise or /predict round, or one labelled
#: query in ``train``) unless the README says otherwise.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("cfg.build_udf_graph_ms", "ms", "lower"),
    ("cfg.build_udf_graph.calls", "count", "lower"),
    ("stats.annotate_ms", "ms", "lower"),
    ("stats.annotate.calls", "count", "lower"),
    ("core.build_joint_graph.self_ms", "ms", "lower"),
    ("core.hit_ratios_ms", "ms", "lower"),
    ("sql.build_plan_ms", "ms", "lower"),
    ("advisor.placement_graphs_ms", "ms", "lower"),
    ("advisor.graphs_per_decision", "count", "lower"),
    ("serve.cache.payload_hit_ratio", "ratio", "higher"),
    ("serve.cache.prepared_hit_ratio", "ratio", "higher"),
    ("serve.cache.topology_hit_ratio", "ratio", "higher"),
    ("serve.cache.prediction_hit_ratio", "ratio", "higher"),
    ("serve.http.self_ms", "ms", "lower"),
    ("serve.codec.decode_ms", "ms", "lower"),
    ("serve.engine.queue_wait_ms", "ms", "lower"),
    ("serve.engine.batch_size_mean", "count", "higher"),
    ("serve.engine.busy_s", "s", "lower"),
    ("serve.engine.shed", "count", "lower"),
    ("model.prepare_ms", "ms", "lower"),
    ("model.collate_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.graphs_per_forward", "count", "higher"),
    ("nn.backward_s", "s", "lower"),
    ("nn.optim_s", "s", "lower"),
    ("exec.execute_s", "s", "lower"),
    ("exec.execute.calls", "count", "lower"),
    ("bench.workload.generate_s", "s", "lower"),
    ("storage.generate_s", "s", "lower"),
    ("eval.prepare_samples_s", "s", "lower"),
    ("feedback.record_ms", "ms", "lower"),
    ("feedback.append_ms", "ms", "lower"),
    ("feedback.chunks_flushed", "count", "lower"),
    ("feedback.write_errors", "count", "lower"),
    ("serve.cpu_ms_per_request", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.span_coverage", "ratio", "higher"),
    ("label_qps", "1/s", "higher"),
    ("featurize_sps", "1/s", "higher"),
    ("fit_sps", "1/s", "higher"),
)


def per_layer_metrics(
    window: dict,
    rounds: int,
    observed_s: float,
    error_rate: float,
    trace_overhead: float,
    setup: dict | None = None,
    server: dict | None = None,
    feedback: dict | None = None,
    client_queue_s: float = 0.0,
    pipeline=None,
) -> tuple[dict, str]:
    """Every :data:`PER_LAYER` metric and the report table for one window.

    ``window`` holds the spans of the measured work; ``setup`` the spans
    of set-up work (database generation in the server); ``server`` the
    serving counters over the window (absent for ``train``, whose
    serving metrics are 0: no serving layer runs); ``feedback`` the
    in-process feedback log counters of ``train``. ``client_queue_s`` is
    the open loop's send lateness: latency counted from the scheduled
    send that the request spent waiting for a free client connection.
    ``pipeline`` is the offline pipeline's ``corpus.StageClock``.
    """
    merged = merge_layers(window)
    setup_merged = merge_layers(setup or {})
    attributed = attribution(window)
    if client_queue_s > 0:
        attributed["client.queue"] = client_queue_s
    server = server or {}
    feedback = feedback or server

    def stat(layer: str) -> LayerStat:
        return merged.get(layer, LayerStat())

    def self_ms(layer: str) -> float:
        return 1000.0 * stat(layer).self_s / rounds if rounds else 0.0

    def mean_ms(layer: str) -> float:
        s = stat(layer)
        return 1000.0 * s.total_s / s.calls if s.calls else 0.0

    def per_call(layer: str) -> float:
        s = stat(layer)
        return s.items / s.calls if s.calls else 0.0

    def total_s(layer: str) -> float:
        return stat(layer).total_s + setup_merged.get(layer, LayerStat()).total_s

    library_s = sum(s for layer, s in attributed.items() if layer != "serve.http")
    values = {
        "cfg.build_udf_graph_ms": self_ms("cfg.build_udf_graph"),
        "cfg.build_udf_graph.calls": stat("cfg.build_udf_graph").calls,
        "stats.annotate_ms": self_ms("stats.annotate"),
        "stats.annotate.calls": stat("stats.annotate").calls,
        "core.build_joint_graph.self_ms": self_ms("core.build_joint_graph"),
        "core.hit_ratios_ms": self_ms("core.hit_ratios"),
        "sql.build_plan_ms": self_ms("sql.build_plan"),
        "advisor.placement_graphs_ms": mean_ms("advisor.placement_graphs"),
        "advisor.graphs_per_decision": per_call("advisor.placement_graphs"),
        "serve.cache.payload_hit_ratio": server.get("payload_hit_ratio", 0.0),
        "serve.cache.prepared_hit_ratio": server.get("prepared_hit_ratio", 0.0),
        "serve.cache.topology_hit_ratio": server.get("topology_hit_ratio", 0.0),
        "serve.cache.prediction_hit_ratio": server.get("prediction_hit_ratio", 0.0),
        "serve.http.self_ms": (
            1000.0 * max(0.0, observed_s - library_s) / rounds if server and rounds else 0.0
        ),
        "serve.codec.decode_ms": self_ms("serve.codec.decode"),
        "serve.engine.queue_wait_ms": server.get("queue_wait_ms", 0.0),
        "serve.engine.batch_size_mean": server.get("batch_size_mean", 0.0),
        "serve.engine.busy_s": server.get("busy_s", 0.0),
        "serve.engine.shed": server.get("shed", 0),
        "model.prepare_ms": self_ms("model.prepare"),
        "model.collate_ms": self_ms("model.collate"),
        "model.forward_ms": self_ms("model.forward"),
        "model.graphs_per_forward": per_call("model.forward"),
        "nn.backward_s": stat("nn.backward").self_s,
        "nn.optim_s": stat("nn.optim").self_s,
        "exec.execute_s": stat("exec.execute").self_s,
        "exec.execute.calls": stat("exec.execute").calls,
        "bench.workload.generate_s": total_s("bench.workload.generate"),
        "storage.generate_s": total_s("storage.generate"),
        "eval.prepare_samples_s": total_s("eval.prepare_samples"),
        "feedback.record_ms": mean_ms("feedback.record"),
        "feedback.append_ms": mean_ms("feedback.append"),
        "feedback.chunks_flushed": feedback.get("chunks_flushed", 0),
        "feedback.write_errors": feedback.get("write_errors", 0),
        "serve.cpu_ms_per_request": (
            1000.0 * server["cpu_s"] / rounds if server and rounds else 0.0
        ),
        "error_rate": error_rate,
        "obs.trace_overhead": trace_overhead,
        "obs.span_coverage": (
            sum(attributed.values()) / observed_s if observed_s > 0 else 0.0
        ),
        "label_qps": pipeline.label_qps,
        "featurize_sps": pipeline.featurize_sps,
        "fit_sps": pipeline.fit_sps,
    }
    metrics = {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
    table = format_table(attributed, merged, rounds, observed_s)
    return metrics, table


def format_table(
    attributed: dict[str, float],
    layers: dict[str, LayerStat],
    rounds: int,
    observed_s: float,
) -> str:
    """The traced-run report: calls, self ms per round, share of latency."""
    lines = [f"  {'layer':28s} {'calls':>8s} {'self ms/round':>14s} {'share':>7s}"]
    covered = 0.0
    for layer in sorted(attributed, key=lambda name: -attributed[name]):
        seconds = attributed[layer]
        covered += seconds
        calls = layers[layer].calls if layer in layers else 0
        share = seconds / observed_s if observed_s > 0 else 0.0
        per_round = 1000.0 * seconds / rounds if rounds else 0.0
        lines.append(f"  {layer:28s} {calls:8d} {per_round:14.3f} {share:7.1%}")
    rest = max(0.0, observed_s - covered)
    lines.append(
        f"  {'(unattributed)':28s} {'':8s} "
        f"{1000.0 * rest / rounds if rounds else 0.0:14.3f} "
        f"{rest / observed_s if observed_s > 0 else 0.0:7.1%}"
    )
    return "\n".join(lines)
