"""The serving process the benchmark drives.

Deploys the same tier as ``scripts/serve.py`` — ``make_server`` over a
``ShardedEngine`` (default shard count, request and prediction caches,
breaker + degraded fallback) and an ``AdvisorService`` — with a
``FeedbackLog`` attached so ``/feedback`` is live. The model comes from
the registry the benchmark published it to; the database is generated
here from its name, exactly as the benchmark generated it.

Control channel: one JSON command per line on stdin, one ``@@ {json}``
reply per line on stdout::

    {"cmd": "snapshot"}  -> CPU seconds, peak RSS, feedback counters, spans
    {"cmd": "reset"}     -> zero the span counters
    {"cmd": "drain"}     -> drain HTTP + engine, flush feedback, account, exit

End of stdin drains and exits as well, so the server never outlives the
benchmark process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, require_source  # noqa: E402

PROTOCOL_PREFIX = "@@ "


def say(**payload) -> None:
    sys.stdout.write(PROTOCOL_PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def feedback_counters(log) -> dict:
    return {
        "appended": log.appended,
        "flushed_chunks": log.flushed_chunks,
        "write_errors": log.write_errors,
        "poison_records": log.poison_records,
        "dropped_pending": log.dropped_pending,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--feedback", required=True)
    parser.add_argument("--database", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    require_source()

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer().install()

    from repro.bench.builder import prepare_full_database
    from repro.feedback import FeedbackLog
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
    from repro.storage import generator

    database = prepare_full_database(
        generator.generate_database(
            args.database, config=generator.GeneratorConfig(scale=args.scale)
        )
    )
    registry = ModelRegistry(args.registry)
    model, version = registry.load_serving(args.model)
    engine = ShardedEngine(
        model,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
        breaker=CircuitBreaker(),
        fallback=DegradedFallback(),
    )
    # capacity far above a run's records: nothing is pruned, so the
    # drain-time accounting must close exactly
    feedback = FeedbackLog(args.feedback, capacity=1 << 20)
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(database),
        estimator=make_estimator("actual", database),
        feedback=feedback,
    )
    server = make_server(service, registry=registry, model_ref=version.ref)
    server.serve_in_background()
    setup_spans = tracer.snapshot() if tracer is not None else None
    say(event="ready", port=server.server_address[1], shards=engine.n_shards,
        setup_spans=setup_spans)

    def snapshot() -> dict:
        return {
            "cpu_s": time.process_time(),
            "rss_mb": peak_rss_mb(),
            "feedback": feedback_counters(feedback),
            "spans": tracer.snapshot() if tracer is not None else None,
        }

    for line in sys.stdin:
        command = json.loads(line).get("cmd")
        if command == "snapshot":
            say(**snapshot())
        elif command == "reset":
            if tracer is not None:
                tracer.reset()
            say(ok=True)
        elif command == "drain":
            break
    server.drain()
    feedback.close()
    final = snapshot()
    replayable = len(feedback.replay())
    counters = final["feedback"]
    final["accounting"] = {
        "appended": counters["appended"],
        "replayable": replayable,
        "poison": counters["poison_records"],
        "dropped": counters["dropped_pending"],
        "closes": counters["appended"]
        == replayable + counters["poison_records"] + counters["dropped_pending"],
    }
    say(**final)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
