"""Scrape-time samples bridging component counters into ``/metrics``.

Components that already keep their own cheap counters — the per-worker
``EngineStats`` merged on read, the cache tiers, the circuit breaker,
the feedback log — are *sampled* when ``/metrics`` is
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


def cache_samples(request_stats=None, prediction_stats=None):
    """Per-tier hit/miss/invalidate samples from the cache ``stats()`` docs."""
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
                            {"cache": "request", "tier": tier, "event": event},
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
                        {"cache": "request", "tier": tier},
                        "gauge",
                        "Live cache entries by cache and tier",
                    )
                )
    if prediction_stats:
        plabels = {"cache": "prediction", "tier": "prediction"}
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
                        {"cache": "prediction"},
                        "counter",
                    )
                )
        if "hit_rate" in prediction_stats:
            out.append(
                sample(
                    "repro_cache_hit_rate",
                    prediction_stats["hit_rate"],
                    {"cache": "prediction"},
                )
            )
    return out


def breaker_samples(doc):
    """One-hot state gauge + trip/probe counters from ``describe()``."""
    state = doc.get("state", "closed")
    out = [
        sample(
            "repro_breaker_state",
            1.0 if state == known else 0.0,
            {"state": known},
            "gauge",
            "Circuit breaker state (one-hot)",
        )
        for known in BREAKER_STATES
    ]
    out.append(
        sample(
            "repro_breaker_trips_total",
            doc.get("trips", 0),
            None,
            "counter",
            "Times the breaker opened",
        )
    )
    out.append(
        sample(
            "repro_breaker_probes_total",
            doc.get("probes", 0),
            None,
            "counter",
            "Half-open probe requests admitted",
        )
    )
    out.append(sample("repro_breaker_window", doc.get("window", 0)))
    out.append(sample("repro_breaker_window_failures", doc.get("window_failures", 0)))
    return out


def engine_samples(doc):
    """Samples from a :class:`~repro.serve.engine.ShardedEngine` ``describe()``."""
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
                    None,
                    "counter",
                    "Seconds shard threads spent in joint forwards",
                )
            )
        elif key in _ENGINE_GAUGES:
            out.append(sample(f"repro_engine_{key}", value))
        else:
            out.append(sample(f"repro_engine_{key}_total", value, None, "counter"))
    if "queued" in doc:
        out.append(
            sample(
                "repro_engine_queue_depth",
                doc["queued"],
                None,
                "gauge",
                "Requests waiting in the engine queue",
            )
        )
    if "shards" in doc:
        out.append(sample("repro_engine_shards", doc["shards"]))
    if "restarts" in doc:
        out.append(
            sample("repro_engine_restarts_total", doc["restarts"], None, "counter")
        )
    if "model_version" in doc:
        out.append(sample("repro_engine_model_version", doc["model_version"]))
    out.extend(cache_samples(doc.get("request_cache"), doc.get("prediction_cache")))
    if doc.get("breaker"):
        out.extend(breaker_samples(doc["breaker"]))
    if doc.get("fallback"):
        fallback = doc["fallback"]
        out.append(
            sample(
                "repro_fallback_served_total",
                fallback.get("served", 0),
                None,
                "counter",
                "Degraded-tier answers served",
            )
        )
        out.append(
            sample("repro_fallback_observations", fallback.get("observations", 0))
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


def feedback_samples(stats):
    """Counters/gauges from a FeedbackLog ``stats()`` doc."""
    out: list[Sample] = []
    for key in _FEEDBACK_COUNTERS:
        if key in stats:
            out.append(
                sample(f"repro_feedback_{key}_total", stats[key], None, "counter")
            )
    for key in _FEEDBACK_GAUGES:
        if key in stats:
            out.append(sample(f"repro_feedback_{key}", stats[key]))
    return out


def serving_samples(engine=None, health=None, feedback=None):
    """The HTTP front end's scrape set."""
    out: list[Sample] = []
    if engine is not None:
        out.extend(engine_samples(engine.describe()))
    if health is not None:
        out.extend(health_samples(health))
    if feedback is not None:
        out.extend(feedback_samples(feedback.stats()))
    return out
