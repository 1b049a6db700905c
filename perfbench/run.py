#!/usr/bin/env python3
"""GRACEFUL benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload advise --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload twice (untraced reference, then with the
per-layer wrappers of ``layers.py`` installed) and prints the per-layer
metrics and the attribution table. The last line of standard output is
the result object; the exit code is non-zero when a correctness check
fails. See ``perfbench/README.md`` for workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# One BLAS thread in this process and the server it starts: OpenBLAS
# workers spinning beside the engine's shard threads on a 2-core host
# doubled /advise p99 and made it swing from run to run. A fixed hash
# seed: with randomized str hashing, some server processes ran /advise
# 30% slower than others for the same inputs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

from common import emit, environment, isolated_run, require_source  # noqa: E402

WORKLOADS = ("advise", "predict", "train")


def main(argv: list[str] | None = None) -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # the hash seed is read at interpreter start: re-exec under it
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # SIGTERM unwinds like an error, so the server processes are killed
    # and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a seconds-long corpus for the smoke test",
    )
    parser.add_argument(
        "--plant-wrong-answer", action="store_true",
        help="corrupt one served value before checking (the smoke test "
        "proves the check catches it)",
    )
    args = parser.parse_args(argv)
    require_source()

    import serving
    import train

    tiny = args.size == "tiny"
    with isolated_run(f"{args.workload}-{args.seed}") as tmp:
        if args.workload == "train":
            res = train.run(
                args.seed, args.seconds, bool(args.trace), tiny, tmp, args.plant_wrong_answer
            )
            pipeline = res["pipeline"]
            failures = pipeline.failures + (res["traced"].failures if args.trace else [])
            props = dict(environment(args.seed, None), **train.properties(res))
            e2e = train.end_to_end(res)
            attempted = pipeline.queries + 2 * len(pipeline.decide_s)
            failed = 0
            layered = train.traced_layers if args.trace else None
        else:
            res = serving.run(
                args.workload, args.seed, args.seconds, bool(args.trace), tiny,
                tmp, args.plant_wrong_answer,
            )
            failures = res["verdict"].failures
            props = dict(
                environment(args.seed, res["shards"]),
                **serving.properties(args.workload, res),
            )
            e2e = serving.end_to_end(res)
            traffic = res["traffic"]
            attempted = traffic.primary.attempted + traffic.feedback.attempted
            failed = traffic.primary.failed + traffic.feedback.failed
            layered = serving.traced_layers if args.trace else None

    props["workload"] = args.workload
    print("properties " + json.dumps(props, sort_keys=True))
    if layered is not None:
        metrics, table = layered(res)
        print(f"traced run, {args.workload}, seed {args.seed}: self time per round")
        print(table)
    else:
        metrics = e2e
    for failure in failures:
        print(f"check failed: {failure}")
    correct = not failures
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
