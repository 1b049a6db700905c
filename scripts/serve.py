#!/usr/bin/env python
"""Launch the cost-model advisor service over a synthetic benchmark.

Trains (or reuses from the registry) a CostGNN for the chosen dataset,
publishes it as a registry version, and serves predictions + placement
advice over HTTP::

    PYTHONPATH=src python scripts/serve.py --dataset movielens --port 8080

    curl localhost:8080/healthz
    curl localhost:8080/models
    curl -X POST localhost:8080/advise -d '{"query": {...}}'

Scoring runs on an in-process sharded engine (``--shards`` threads)
with its fast-path caches, circuit breaker and degraded fallback armed.

See ``examples/serving_client.py`` for a full client round-trip.
"""

from __future__ import annotations

import argparse
import os
import signal

from repro import faults
from repro.bench import build_dataset_benchmark
from repro.eval import prepare_dataset_samples, training_placements
from repro.model import GNNConfig, GracefulModel, TrainConfig
from repro.serve import (
    AdvisorService,
    CircuitBreaker,
    DegradedFallback,
    ModelRegistry,
    PredictionCache,
    PreparedRequestCache,
    ShardedEngine,
    make_server,
)
from repro.stats import StatisticsCatalog, make_estimator


def build_service(args: argparse.Namespace):
    """(server, registry, model_version) for the parsed CLI options."""
    injector = faults.install_from_env()
    if injector is not None:
        print(f"fault injection armed: {injector.spec!r} (seed={injector.seed})")
    registry = ModelRegistry(args.registry_dir)
    model_name = args.model or f"costgnn-{args.dataset}"

    print(f"building {args.dataset} benchmark ({args.queries} queries)...")
    bench = build_dataset_benchmark(
        args.dataset, n_queries=args.queries, seed=args.seed
    )

    versions = registry.versions(model_name)
    if versions and not args.retrain:
        # crash-safe startup: a corrupt sidecar or truncated archive is
        # quarantined and the next-best candidate serves instead
        model, version = registry.load_serving(model_name)
        if registry.quarantined:
            print(f"quarantined artifacts: {registry.quarantined}")
        print(f"serving registry model {version.ref} ({version.dtype})")
    else:
        print(f"training {model_name} (epochs={args.epochs})...")
        samples = prepare_dataset_samples(
            bench, estimator_name="actual", placements=training_placements()
        )
        graceful = GracefulModel(
            GNNConfig(hidden_dim=args.hidden_dim),
            TrainConfig(epochs=args.epochs),
        )
        graceful.fit(samples)
        model = graceful.model
        version = registry.publish(
            model_name,
            model,
            metrics={"n_training_samples": len(samples)},
            description=f"trained by scripts/serve.py on {args.dataset}",
        )
        print(f"published {version.ref}")

    engine = ShardedEngine(
        model,
        shards=args.shards or None,  # None -> $REPRO_SERVE_SHARDS / cores
        max_batch_size=args.max_batch_size,
        max_wait_us=args.max_wait_us,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
        max_queue=args.queue_cap or None,  # None -> $REPRO_QUEUE_CAP
        breaker=CircuitBreaker(),
        fallback=DegradedFallback(),
    )
    print(
        f"inference engine: {engine.n_shards} shard(s), fast-path caches on, "
        f"breaker + degraded fallback armed"
    )
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(bench.database),
        estimator=make_estimator(args.estimator, bench.database),
        strategy=args.strategy,
    )
    server = make_server(
        service,
        registry=registry,
        host=args.host,
        port=args.port,
        model_ref=version.ref,
    )
    return server, registry, version


def _raise_keyboard_interrupt(signum, frame):
    """SIGTERM → the same clean-drain path as ctrl-c."""
    raise KeyboardInterrupt


def serve_until_signalled(server) -> None:
    """Serve until SIGTERM/SIGINT, then drain the backend cleanly.

    Container and CI deployments stop services with SIGTERM; without a
    handler the process would die mid-batch, dropping queued futures.
    The handler converts SIGTERM into the KeyboardInterrupt path so both
    signals shut down identically: stop accepting requests, then drain
    the engine's shard threads. (Runs on the main thread — signal
    handlers cannot be installed anywhere else.)
    """
    previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.drain()


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="movielens")
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--hidden-dim", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--model", default="", help="registry model name")
    parser.add_argument("--registry-dir", default=None)
    parser.add_argument(
        "--retrain", action="store_true", help="train even if a version exists"
    )
    parser.add_argument("--max-batch-size", type=int, default=64)
    parser.add_argument("--max-wait-us", type=float, default=2000.0)
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=0,
        help="per-shard admission bound (0 = $REPRO_QUEUE_CAP or 8192); "
        "submissions past it are shed with HTTP 503 + Retry-After",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="default per-request budget in ms (0 = $REPRO_DEADLINE_MS or "
        "none); clients override per call with an X-Deadline-Ms header",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=-1.0,
        help="arm the slow-request log: requests slower than this emit "
        "one JSON line with their span breakdown (negative = "
        "$REPRO_SLOW_MS or off)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="inference worker threads (0 = $REPRO_SERVE_SHARDS or one "
        "per core, capped at 4)",
    )
    parser.add_argument("--strategy", default="conservative")
    parser.add_argument("--estimator", default="actual")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    if args.deadline_ms > 0:
        # the HTTP layer reads the env per request, so the flag is just
        # a spelling of the env knob that wins over an inherited value
        os.environ["REPRO_DEADLINE_MS"] = str(args.deadline_ms)
    if args.slow_ms >= 0:
        # same pattern: tracing reads the env per request
        os.environ["REPRO_SLOW_MS"] = str(args.slow_ms)
    server, _, version = build_service(args)
    print(f"serving {version.ref} at {server.url} (SIGTERM/ctrl-c to stop)")
    print(f"metrics at {server.url}/metrics, stats at {server.url}/stats")
    serve_until_signalled(server)


if __name__ == "__main__":
    main()
