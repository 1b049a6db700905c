"""Serving demo: train, publish, serve, and query over HTTP.

End-to-end tour of the online subsystem (DESIGN.md §9):

1. build a small benchmark, train a cost model, publish it into a
   temporary model registry;
2. start the JSON serving front end on a free local port;
3. act as a remote client with nothing but stdlib ``urllib``: check
   ``/healthz``, list ``/models``, batch-predict joint graphs through
   ``/predict``, and ask ``/advise`` for UDF placement decisions;
4. show the engine's micro-batching statistics from ``/stats``.

Run:  PYTHONPATH=src python examples/serving_client.py
"""

import json
import tempfile
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.bench import build_dataset_benchmark
from repro.eval import prepare_dataset_samples, training_placements
from repro.model import GNNConfig, GracefulModel, TrainConfig
from repro.serve import (
    AdvisorService,
    ModelRegistry,
    ShardedEngine,
    graph_to_json,
    make_server,
    query_to_json,
)
from repro.sql.query import UDFRole
from repro.stats import StatisticsCatalog, make_estimator

N_QUERIES = 30


def call(url: str, payload: dict | None = None) -> dict:
    """POST ``payload`` (or GET when None) and decode the JSON response."""
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def main() -> None:
    print("building benchmark + training the cost model...")
    bench = build_dataset_benchmark("movielens", n_queries=N_QUERIES, seed=3)
    samples = prepare_dataset_samples(
        bench, estimator_name="actual", placements=training_placements()
    )
    graceful = GracefulModel(GNNConfig(hidden_dim=16), TrainConfig(epochs=30, lr=5e-3))
    graceful.fit(samples)

    with tempfile.TemporaryDirectory() as registry_root:
        registry = ModelRegistry(registry_root)
        version = registry.publish(
            "costgnn-movielens",
            graceful.model,
            metrics={"n_training_samples": len(samples)},
            description="serving_client demo model",
        )
        print(f"published {version.ref} "
              f"(config {version.config_fingerprint[:8]}...)")

        engine = ShardedEngine(graceful.model, shards=1, max_batch_size=32)
        service = AdvisorService(
            engine,
            catalog=StatisticsCatalog(bench.database),
            estimator=make_estimator("actual", bench.database),
        )
        server = make_server(service, registry=registry, model_ref=version.ref)
        server.serve_in_background()
        base = server.url
        print(f"serving at {base}\n")

        print("GET /healthz ->", call(f"{base}/healthz"))
        models = call(f"{base}/models")
        print("GET /models  ->", list(models["models"]))

        # -- batched prediction over the wire --------------------------
        graphs = [graph_to_json(s.joint_graph) for s in samples[:16]]
        predicted = call(f"{base}/predict", {"graphs": graphs})
        print(f"\nPOST /predict: {len(predicted['runtimes'])} runtimes, "
              f"first three = {[round(r, 5) for r in predicted['runtimes'][:3]]}")

        # -- concurrent placement advice -------------------------------
        udf_queries = [
            e.query
            for e in bench.entries
            if e.query.has_udf
            and e.query.udf.role is UDFRole.FILTER
            and e.query.num_joins > 0
        ]
        print(f"\nPOST /advise for {len(udf_queries)} UDF-filter queries "
              "(4 concurrent clients):")
        with ThreadPoolExecutor(max_workers=4) as pool:
            decisions = list(
                pool.map(
                    lambda pair: call(
                        f"{base}/advise",
                        {
                            "query": query_to_json(pair[1]),
                            "client": f"client-{pair[0] % 4}",
                        },
                    ),
                    enumerate(udf_queries),
                )
            )
        pulled = sum(d["pull_up"] for d in decisions)
        print(f"  -> {pulled}/{len(decisions)} pull-up recommendations")

        stats = call(f"{base}/stats")
        engine_stats = stats["engine"]["stats"]
        print("\nGET /stats (micro-batching at work):")
        print(f"  requests={engine_stats['requests']}  "
              f"batches={engine_stats['batches']}  "
              f"mean_batch_size={engine_stats['mean_batch_size']:.1f}")
        print(f"  sessions={list(stats['sessions'])}")

        server.shutdown()
        engine.close()


if __name__ == "__main__":
    main()
