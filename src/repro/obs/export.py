"""Scrape-time samples bridging component counters into ``/metrics``.

Components that already keep their own cheap counters — the per-shard
``EngineStats`` merged on read, the cache tiers, the circuit breaker,
``RouterStats``, the feedback log — are *sampled* when ``/metrics`` is
scraped rather than double-counted into the live registry.  One number,
one owner: the registry holds hot-path instruments (stage histograms,
HTTP request counters), this module converts everything else into
``(name, kind, help, labels, value)`` tuples that
:meth:`repro.obs.metrics.MetricsRegistry.render` appends verbatim.

Naming follows DESIGN.md §15: ``repro_<subsystem>_<noun>[_unit]`` with
a ``_total`` suffix on monotone counters.
"""

from __future__ import annotations

__all__ = [
    "breaker_samples",
    "cache_samples",
    "engine_samples",
    "feedback_samples",
    "health_samples",
    "router_samples",
    "sample",
    "serving_samples",
]

Sample = tuple

BREAKER_STATES = ("closed", "open", "half_open")
HEALTH_STATES = ("starting", "ready", "degraded", "draining")
_REQUEST_TIERS = ("payload", "prepared", "topology")
#: EngineStats keys that are levels, not monotone counts
_ENGINE_GAUGES = ("mean_batch_size", "max_batch_observed")
#: FeedbackLog.stats() keys that are monotone counts
_FEEDBACK_COUNTERS = (
    "appended",
    "write_errors",
    "dropped_pending",
    "quarantined_chunks",
    "poison_records",
)
_FEEDBACK_GAUGES = ("memory_records", "pending_records", "disk_chunks", "disk_bytes")


def sample(name, value, labels=None, kind="gauge", help_text="") -> Sample:
    """One pre-aggregated exposition sample."""
    return (name, kind, help_text, dict(labels or {}), float(value))


def cache_samples(request_stats=None, prediction_stats=None, labels=None):
    """Per-tier hit/miss/invalidate samples from the cache ``stats()`` docs."""
    labels = dict(labels or {})
    out: list[Sample] = []
    if request_stats:
        for tier in _REQUEST_TIERS:
            for event in ("hits", "misses"):
                key = f"{tier}_{event}"
                if key in request_stats:
                    out.append(
                        sample(
                            "repro_cache_events_total",
                            request_stats[key],
                            {
                                **labels,
                                "cache": "request",
                                "tier": tier,
                                "event": event,
                            },
                            "counter",
                            "Cache lookups by cache, tier, and outcome",
                        )
                    )
            entries_key = f"{tier}_entries"
            if entries_key in request_stats:
                out.append(
                    sample(
                        "repro_cache_entries",
                        request_stats[entries_key],
                        {**labels, "cache": "request", "tier": tier},
                        "gauge",
                        "Live cache entries by cache and tier",
                    )
                )
    if prediction_stats:
        plabels = {**labels, "cache": "prediction", "tier": "prediction"}
        for event in ("hits", "misses"):
            if event in prediction_stats:
                out.append(
                    sample(
                        "repro_cache_events_total",
                        prediction_stats[event],
                        {**plabels, "event": event},
                        "counter",
                    )
                )
        if "entries" in prediction_stats:
            out.append(
                sample("repro_cache_entries", prediction_stats["entries"], plabels)
            )
        for key in ("invalidations", "rejected_puts"):
            if key in prediction_stats:
                out.append(
                    sample(
                        f"repro_cache_{key}_total",
                        prediction_stats[key],
                        {**labels, "cache": "prediction"},
                        "counter",
                    )
                )
        if "hit_rate" in prediction_stats:
            out.append(
                sample(
                    "repro_cache_hit_rate",
                    prediction_stats["hit_rate"],
                    {**labels, "cache": "prediction"},
                )
            )
    return out


def breaker_samples(doc, labels=None):
    """One-hot state gauge + trip/probe counters from ``describe()``."""
    labels = dict(labels or {})
    state = doc.get("state", "closed")
    out = [
        sample(
            "repro_breaker_state",
            1.0 if state == known else 0.0,
            {**labels, "state": known},
            "gauge",
            "Circuit breaker state (one-hot)",
        )
        for known in BREAKER_STATES
    ]
    out.append(
        sample(
            "repro_breaker_trips_total",
            doc.get("trips", 0),
            labels,
            "counter",
            "Times the breaker opened",
        )
    )
    out.append(
        sample(
            "repro_breaker_probes_total",
            doc.get("probes", 0),
            labels,
            "counter",
            "Half-open probe requests admitted",
        )
    )
    out.append(sample("repro_breaker_window", doc.get("window", 0), labels))
    out.append(
        sample("repro_breaker_window_failures", doc.get("window_failures", 0), labels)
    )
    return out


def engine_samples(doc, labels=None):
    """Samples from a (Sharded/MicroBatch) engine ``describe()`` doc."""
    labels = dict(labels or {})
    out: list[Sample] = []
    stats = doc.get("stats") or {}
    for key, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if key == "busy_seconds":
            out.append(
                sample(
                    "repro_engine_busy_seconds_total",
                    value,
                    labels,
                    "counter",
                    "Seconds shard threads spent in joint forwards",
                )
            )
        elif key in _ENGINE_GAUGES:
            out.append(sample(f"repro_engine_{key}", value, labels))
        else:
            out.append(sample(f"repro_engine_{key}_total", value, labels, "counter"))
    if "queued" in doc:
        out.append(
            sample(
                "repro_engine_queue_depth",
                doc["queued"],
                labels,
                "gauge",
                "Requests waiting in shard queues",
            )
        )
    if "shards" in doc:
        out.append(sample("repro_engine_shards", doc["shards"], labels))
    if "restarts" in doc:
        out.append(
            sample("repro_engine_restarts_total", doc["restarts"], labels, "counter")
        )
    if "model_version" in doc:
        out.append(sample("repro_engine_model_version", doc["model_version"], labels))
    out.extend(
        cache_samples(doc.get("request_cache"), doc.get("prediction_cache"), labels)
    )
    if doc.get("breaker"):
        out.extend(breaker_samples(doc["breaker"], labels))
    if doc.get("fallback"):
        fallback = doc["fallback"]
        out.append(
            sample(
                "repro_fallback_served_total",
                fallback.get("served", 0),
                labels,
                "counter",
                "Degraded-tier answers served",
            )
        )
        out.append(
            sample(
                "repro_fallback_observations", fallback.get("observations", 0), labels
            )
        )
    return out


def health_samples(health):
    """One-hot health state + restart counter from a HealthMonitor."""
    state = health.state()
    out = [
        sample(
            "repro_health_state",
            1.0 if state == known else 0.0,
            {"state": known},
            "gauge",
            "Service health state (one-hot)",
        )
        for known in HEALTH_STATES
    ]
    out.append(
        sample("repro_health_restarts_total", health.restarts, None, "counter")
    )
    return out


def feedback_samples(stats, labels=None):
    """Counters/gauges from a FeedbackLog ``stats()`` doc."""
    labels = dict(labels or {})
    out: list[Sample] = []
    for key in _FEEDBACK_COUNTERS:
        if key in stats:
            out.append(
                sample(f"repro_feedback_{key}_total", stats[key], labels, "counter")
            )
    for key in _FEEDBACK_GAUGES:
        if key in stats:
            out.append(sample(f"repro_feedback_{key}", stats[key], labels))
    return out


def _sum_numeric(into: dict, src: dict | None) -> None:
    for key, value in (src or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        into[key] = into.get(key, 0) + value


def router_samples(router, include_workers: bool = True):
    """Routing counters, per-worker depths, and aggregated worker engines.

    ``include_workers=True`` asks every live worker for its engine
    snapshot (one ``stats`` frame each, 5s timeout) and sums the
    counters under ``scope="workers"`` — that is what surfaces the
    worker-side cache tiers and breaker through the front end's
    ``/metrics``.  Ratio-like keys (hit_rate, mean_batch_size, epoch)
    are dropped from the sums: a sum of ratios is not a ratio.
    """
    doc = router.describe(include_workers=include_workers)
    stats = doc.get("stats") or {}
    out = [
        sample(
            "repro_router_decisions_total",
            stats.get("affinity", 0),
            {"decision": "affinity"},
            "counter",
            "Per-request routing decisions (owner affinity vs spill)",
        ),
        sample(
            "repro_router_decisions_total",
            stats.get("spills", 0),
            {"decision": "spill"},
            "counter",
        ),
    ]
    for key in ("dispatched", "retries", "respawns", "unknown_resends", "promotions"):
        out.append(
            sample(f"repro_router_{key}_total", stats.get(key, 0), None, "counter")
        )
    out.append(sample("repro_router_workers", doc.get("workers", 0)))
    out.append(sample("repro_router_workers_alive", doc.get("alive", 0)))
    out.append(sample("repro_router_epoch", doc.get("epoch", 0)))
    out.append(
        sample(
            "repro_router_outstanding",
            doc.get("outstanding", 0),
            None,
            "gauge",
            "In-flight requests across all workers",
        )
    )
    for worker in doc.get("per_worker", ()):
        wlabels = {"worker": str(worker.get("worker_id"))}
        out.append(
            sample(
                "repro_router_worker_outstanding",
                worker.get("outstanding", 0),
                wlabels,
                "gauge",
                "In-flight requests per worker",
            )
        )
        out.append(
            sample(
                "repro_router_worker_alive",
                1.0 if worker.get("alive") else 0.0,
                wlabels,
            )
        )
        out.append(
            sample(
                "repro_router_worker_known_fps", worker.get("known_fps", 0), wlabels
            )
        )
    # the payload tier and fingerprint memo live in the router process
    out.extend(cache_samples(router.request_cache.stats(), None, {"scope": "frontend"}))
    deep = doc.get("worker_stats") or []
    if deep:
        stats_sum: dict = {}
        request_sum: dict = {}
        prediction_sum: dict = {}
        breaker_trips = 0
        breaker_probes = 0
        breaker_open = 0
        queued = 0
        restarts = 0
        for worker_doc in deep:
            engine = worker_doc.get("engine") or {}
            _sum_numeric(stats_sum, engine.get("stats"))
            _sum_numeric(request_sum, engine.get("request_cache"))
            _sum_numeric(prediction_sum, engine.get("prediction_cache"))
            queued += engine.get("queued", 0)
            restarts += engine.get("restarts", 0)
            breaker = engine.get("breaker") or {}
            breaker_trips += breaker.get("trips", 0)
            breaker_probes += breaker.get("probes", 0)
            if breaker.get("state") not in (None, "closed"):
                breaker_open += 1
        for ratio_key in ("mean_batch_size", "hit_rate", "epoch", "max_entries"):
            stats_sum.pop(ratio_key, None)
            request_sum.pop(ratio_key, None)
            prediction_sum.pop(ratio_key, None)
        request_sum.pop("max_graphs", None)
        aggregated = {
            "stats": stats_sum,
            "queued": queued,
            "restarts": restarts,
            "request_cache": request_sum,
            "prediction_cache": prediction_sum,
        }
        out.extend(engine_samples(aggregated, {"scope": "workers"}))
        wlabels = {"scope": "workers"}
        out.append(
            sample("repro_breaker_trips_total", breaker_trips, wlabels, "counter")
        )
        out.append(
            sample("repro_breaker_probes_total", breaker_probes, wlabels, "counter")
        )
        out.append(
            sample(
                "repro_breaker_open_workers",
                breaker_open,
                None,
                "gauge",
                "Workers whose breaker is not closed",
            )
        )
    return out


def serving_samples(engine=None, health=None, feedback=None, router=None):
    """The HTTP front end's scrape set.

    The scoring backend comes as an in-process ``engine`` or as a worker
    ``router``; the front end says which, so this module never imports
    :mod:`repro.serve`.
    """
    out: list[Sample] = []
    if engine is not None:
        out.extend(engine_samples(engine.describe()))
    if router is not None:
        out.extend(router_samples(router))
    if health is not None:
        out.extend(health_samples(health))
    if feedback is not None:
        out.extend(feedback_samples(feedback.stats()))
    return out
