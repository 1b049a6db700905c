"""Online serving: model registry, micro-batched inference, advisory API.

The paper's end state is a cost model a database consults *at
optimization time*; this package is that serving surface (DESIGN.md §9):

* :class:`ModelRegistry` — named, versioned trained models with
  fingerprinted metadata and an LRU of live instances;
* :class:`ShardedEngine` — the one scoring backend every serving
  component takes: ``REPRO_SERVE_SHARDS`` shard threads, each a
  :class:`MicroBatchEngine` that coalesces concurrent prediction
  requests into joint prepared-graph batches, behind fingerprint-keyed
  serving caches (:class:`PreparedRequestCache`,
  :class:`PredictionCache`);
* :class:`AdvisorService` — multi-client ``suggest_placement`` sessions
  scoring every placement alternative in one micro-batch;
* :mod:`repro.serve.http` — the stdlib JSON front end over all of it;
* :mod:`repro.serve.resilience` — deadlines, circuit breaker, degraded
  fallback and health states; their failures are scripted through
  :mod:`repro.faults`, the deterministic fault-injection registry
  (DESIGN.md §12).
"""

from repro.serve.advisor_service import (
    AdvisorService,
    AdvisorSession,
    SessionStats,
)
from repro.serve.cache import (
    PredictionCache,
    PreparedRequestCache,
    payload_fingerprint,
)
from repro.serve.codec import (
    decision_to_json,
    feedback_record_from_json,
    feedback_record_to_json,
    graph_from_json,
    graph_to_json,
    query_from_json,
    query_to_json,
)
from repro.serve.engine import (
    EngineStats,
    MicroBatchEngine,
    ScoreOutcome,
    ShardedEngine,
    default_queue_cap,
    default_shards,
)
from repro.serve.http import ServingServer, make_server
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.resilience import (
    CircuitBreaker,
    DegradedFallback,
    HealthMonitor,
)

__all__ = [
    "AdvisorService",
    "AdvisorSession",
    "CircuitBreaker",
    "DegradedFallback",
    "EngineStats",
    "HealthMonitor",
    "MicroBatchEngine",
    "ModelRegistry",
    "ModelVersion",
    "PredictionCache",
    "PreparedRequestCache",
    "ScoreOutcome",
    "ServingServer",
    "SessionStats",
    "ShardedEngine",
    "decision_to_json",
    "default_queue_cap",
    "default_shards",
    "feedback_record_from_json",
    "feedback_record_to_json",
    "graph_from_json",
    "graph_to_json",
    "make_server",
    "payload_fingerprint",
    "query_from_json",
    "query_to_json",
]
