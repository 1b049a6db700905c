#!/usr/bin/env python
"""Start, inspect, and resume distributed experiment sweeps (DESIGN.md §16).

A sweep decomposes an experiment into durable task files under one
directory; runner processes claim tasks under heartbeat-renewed leases,
retry with capped backoff, and quarantine poison tasks — so the sweep
always terminates with every task done or quarantined, never lost::

    PYTHONPATH=src python scripts/sweep.py start --tasks demo:24 \
        --dir /tmp/sweep0 --runners 4
    PYTHONPATH=src python scripts/sweep.py status --dir /tmp/sweep0
    PYTHONPATH=src python scripts/sweep.py resume --dir /tmp/sweep0 --runners 2

``--tasks`` selects the decomposition: ``demo:N`` (N deterministic
compute tasks — the chaos/CI workload, no dataset builds), ``folds``
(leave-one-out CV at ``--scale``), or ``ablation`` (Fig. 7 steps ×
seeds). ``folds``/``ablation`` merges land in the shared resultstore
under the same fingerprints the serial drivers use, so a distributed
sweep warms the exact cache entry ``run_folds``/``run_ablation`` reads.

**Chaos mode** (``--chaos quick|storm``) arms the scenario book: runner
processes are SIGKILLed while provably holding a lease and in-process
faults (injected errors, heartbeat freezes) are armed via
``repro.faults`` — then the report asserts the durability
contract: zero lost tasks, reclaims observed, and (for demo tasks)
results identical to a serial execution of the same task list::

    PYTHONPATH=src python scripts/sweep.py start --tasks demo:16 \
        --runners 2 --chaos quick --out BENCH_runner_smoke.json

Exit codes: 0 = terminal sweep, contract held; 2 = tasks lost or chaos
parity violated; 3 = sweep finished with quarantined tasks (inspect
``<dir>/quarantine/*.traceback.txt``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.eval.runner import (  # noqa: E402
    ChaosPlan,
    Sweep,
    SweepConfig,
    ablation_sweep_tasks,
    demo_sweep_tasks,
    folds_sweep_tasks,
    merge_ablation,
    merge_folds,
    run_sweep_local,
)

#: the chaos scenario book: driver-side kills + in-process fault specs.
#: ``quick`` is the CI smoke (2 kills, a sprinkle of claim errors);
#: ``storm`` piles on heartbeat freezes and task errors for local soak.
CHAOS_SCENARIOS = {
    "quick": ChaosPlan(
        kills=2,
        min_interval_s=0.2,
        fault_spec="seed=7;task.claim:error:0.02",
    ),
    "storm": ChaosPlan(
        kills=4,
        min_interval_s=0.3,
        fault_spec=(
            "seed=11;task.claim:error:0.05;"
            "runner.task:error:0.05;runner.heartbeat:delay:0.02:0.05"
        ),
    ),
}


def _build_tasks(args, sweep: Sweep) -> int:
    kind = args.tasks
    if kind.startswith("demo:"):
        n = int(kind.split(":", 1)[1])
        return sweep.add_tasks(
            demo_sweep_tasks(
                n,
                size=args.demo_size,
                reps=args.demo_reps,
                sleep_s=args.demo_sleep,
            )
        )
    import os

    from repro.eval.experiments import scale_from_env

    os.environ["REPRO_SCALE"] = args.scale
    scale = scale_from_env()
    with open(sweep.root / "config.pkl", "wb") as fh:
        pickle.dump(scale, fh)
    if kind == "folds":
        return sweep.add_tasks(folds_sweep_tasks(scale), dedupe=True)
    if kind == "ablation":
        return sweep.add_tasks(ablation_sweep_tasks(scale), dedupe=True)
    raise SystemExit(f"unknown --tasks {kind!r}; want demo:N, folds, or ablation")


def _serial_demo_results(sweep: Sweep) -> dict[int, bytes]:
    """Execute the sweep's demo tasks serially in-process; pickled
    results by index (the byte-identity reference for chaos parity)."""
    from repro.eval.runner import run_demo_task

    out: dict[int, bytes] = {}
    for spec in sweep.tasks():
        out[spec.index] = pickle.dumps(
            run_demo_task(spec.params), protocol=pickle.HIGHEST_PROTOCOL
        )
    return out


def _sweep_kind(sweep: Sweep) -> str:
    """The decomposition the sweep was started with (its description),
    so ``resume``/``status`` don't depend on re-passing ``--tasks``."""
    return (sweep.manifest() or {}).get("description", "")


def _merge(sweep: Sweep) -> None:
    kind = _sweep_kind(sweep)
    if kind in ("folds", "ablation"):
        scale = sweep.load_config()
        if scale is None:
            return
        if kind == "folds":
            merge_folds(sweep, scale)
        else:
            merge_ablation(sweep, scale)


def cmd_start(args) -> int:
    if args.dir:
        root = Path(args.dir)
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
    config = SweepConfig(
        lease_seconds=args.lease,
        heartbeat_seconds=max(0.05, args.lease / 5.0),
        max_attempts=args.max_attempts,
        max_reclaims=args.max_reclaims,
    )
    sweep = Sweep.create(root, config=config, description=args.tasks)
    added = _build_tasks(args, sweep)
    print(f"sweep {sweep.manifest()['sweep_id']} at {root}: {added} tasks")
    return _drive(args, sweep)


def cmd_resume(args) -> int:
    if not args.dir:
        raise SystemExit("resume requires --dir")
    sweep = Sweep.open(args.dir)
    status = sweep.status()
    print(f"resuming {sweep.manifest()['sweep_id']}: {status.to_json()}")
    if status.terminal:
        print("sweep already terminal")
        return _report(args, sweep, None, serial_ref=None)
    return _drive(args, sweep)


def cmd_status(args) -> int:
    if not args.dir:
        raise SystemExit("status requires --dir")
    sweep = Sweep.open(args.dir)
    status = sweep.status()
    doc = {"sweep": sweep.manifest(), "status": status.to_json()}
    for spec in sweep.tasks():
        if sweep.is_quarantined(spec.task_id):
            doc.setdefault("quarantined", []).append(
                sweep.quarantine_record(spec.task_id)
            )
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0 if status.lost == 0 else 2


def _drive(args, sweep: Sweep) -> int:
    chaos = CHAOS_SCENARIOS[args.chaos] if args.chaos else None
    serial_ref = None
    if chaos is not None and _sweep_kind(sweep).startswith("demo:"):
        serial_ref = _serial_demo_results(sweep)
    report = run_sweep_local(
        sweep,
        n_runners=args.runners,
        chaos=chaos,
        timeout=args.timeout,
    )
    return _report(args, sweep, report, serial_ref)


def _report(args, sweep: Sweep, report, serial_ref) -> int:
    status = sweep.status()
    doc = {
        "sweep": sweep.manifest(),
        "status": status.to_json(),
        "report": report.to_json() if report is not None else None,
        "chaos": args.chaos or "",
        "runners": args.runners,
    }
    code = 0
    if status.lost > 0:
        doc["verdict"] = "LOST TASKS"
        code = 2
    elif status.quarantined > 0:
        doc["verdict"] = "quarantined tasks (inspect sidecars)"
        code = 3
    else:
        doc["verdict"] = "ok"
    if serial_ref is not None and code == 0:
        results, _ = sweep.collect()
        mismatches = sum(
            1
            for index, ref in serial_ref.items()
            if pickle.dumps(results.get(index), protocol=pickle.HIGHEST_PROTOCOL) != ref
        )
        doc["serial_parity"] = {
            "compared": len(serial_ref),
            "mismatches": mismatches,
        }
        if mismatches:
            doc["verdict"] = "CHAOS PARITY VIOLATED"
            code = 2
        elif report is not None and report.kills > 0 and report.reclaims == 0:
            doc["verdict"] = "chaos kills produced no reclaims"
            code = 2
    if code == 0:
        try:
            _merge(sweep)
        except Exception as exc:  # merge failures should not mask the sweep
            doc["merge_error"] = str(exc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    print(json.dumps(doc["status"], sort_keys=True))
    print(f"verdict: {doc['verdict']}")
    if args.cleanup and code == 0:
        shutil.rmtree(sweep.root, ignore_errors=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "command",
        choices=("start", "status", "resume"),
        help="start a new sweep, inspect one, or resume an interrupted one",
    )
    parser.add_argument("--dir", default="", help="sweep directory (start: optional)")
    parser.add_argument(
        "--tasks",
        default="demo:16",
        help="decomposition: demo:N, folds, or ablation (default demo:16)",
    )
    parser.add_argument("--scale", default="quick", help="experiment scale name")
    parser.add_argument("--runners", type=int, default=2)
    parser.add_argument(
        "--chaos",
        default="",
        choices=("", *CHAOS_SCENARIOS),
        help="arm a chaos scenario (kills lease-holding runners mid-task)",
    )
    parser.add_argument("--lease", type=float, default=3.0)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--max-reclaims", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--out", default="", help="write the JSON report here")
    parser.add_argument(
        "--cleanup",
        action="store_true",
        help="remove the sweep directory after a clean terminal run",
    )
    parser.add_argument("--demo-size", type=int, default=50_000)
    parser.add_argument("--demo-reps", type=int, default=60)
    parser.add_argument("--demo-sleep", type=float, default=0.05)
    args = parser.parse_args(argv)
    started = time.time()
    code = {"start": cmd_start, "status": cmd_status, "resume": cmd_resume}[
        args.command
    ](args)
    print(f"elapsed: {time.time() - started:.2f}s (exit {code})")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
