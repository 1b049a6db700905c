"""Distributed-runner perf + chaos gates (DESIGN.md §16).

The gates are acceptance criteria, not raw throughput numbers:

* **scaling** — a sweep of sleep+compute demo tasks completes >= 1.8x
  faster with 2 runners than with 1 (the workload is latency-dominated,
  so the gate measures queue overhead — claim scans, leases, heartbeats
  — not host core count);
* **chaos durability** — with runner kills and injected claim errors
  armed, the sweep terminates with zero lost tasks, every killed
  runner's task reclaimed via lease expiry (reclaim count > 0), and
  results byte-identical to an in-process serial execution;
* **poison isolation** — a task that keeps raising is quarantined with
  its traceback while every healthy task still completes.

Marked ``perf``: the scaling ratio is timed, so the suite stays out of
tier-1 and runs in CI's ``python -m pytest -m perf`` step (pinned by
``tests/test_ci_config.py``). Run with ``-s`` to print the measurements.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.eval.runner import (
    ChaosPlan,
    Sweep,
    SweepConfig,
    TaskSpec,
    demo_sweep_tasks,
    register_task_kind,
    run_demo_task,
    run_sweep_local,
)

pytestmark = pytest.mark.perf

#: latency-dominated demo workload: the sleep parallelizes on any host
#: (CI runners included), the small compute keeps results non-trivial
SPEEDUP_TASKS = dict(n=10, size=20_000, reps=30, sleep_s=0.55)
CHAOS_TASKS = dict(n=16, size=20_000, reps=20, sleep_s=0.1)
SPEEDUP_GATE = 1.8


def _demo_sweep(root, config=None, **kwargs):
    sweep = Sweep.create(root, config=config)
    n = kwargs.pop("n")
    sweep.add_tasks(demo_sweep_tasks(n, **kwargs))
    return sweep


def _pickle(obj):
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _serial_pickles(sweep):
    """In-process serial execution — the byte-identity reference."""
    return {spec.index: _pickle(run_demo_task(spec.params)) for spec in sweep.tasks()}


def _timed_sweep(root, n_runners, **kwargs):
    sweep = _demo_sweep(root, **kwargs)
    start = time.perf_counter()
    report = run_sweep_local(sweep, n_runners=n_runners, timeout=300.0)
    elapsed = time.perf_counter() - start
    assert report.lost == 0 and report.quarantined == 0
    return elapsed


def _poison_kind(sweep, spec):
    raise ValueError("poison task: always fails")


register_task_kind("bench_poison", _poison_kind)


def test_runner_scaling_chaos_and_quarantine(tmp_path):
    results: dict[str, object] = {
        "workloads": {"speedup": SPEEDUP_TASKS, "chaos": CHAOS_TASKS},
    }

    # -- scaling gate: 1 runner vs 2 runners on the same task list -----
    # (retry shrinks flake from a loaded host; the workload itself is
    # sleep-dominated, so the ratio is stable across machines)
    speedup = 0.0
    for attempt in range(3):
        one = _timed_sweep(tmp_path / f"one{attempt}", 1, **SPEEDUP_TASKS)
        two = _timed_sweep(tmp_path / f"two{attempt}", 2, **SPEEDUP_TASKS)
        speedup = one / two
        if speedup >= SPEEDUP_GATE:
            break
    results["speedup"] = {
        "one_runner_s": round(one, 3),
        "two_runner_s": round(two, 3),
        "speedup": round(speedup, 2),
        "gate": SPEEDUP_GATE,
    }
    assert speedup >= SPEEDUP_GATE, (
        f"2-runner sweep only {speedup:.2f}x faster than 1 runner "
        f"(gate {SPEEDUP_GATE}x): 1r={one:.2f}s 2r={two:.2f}s"
    )

    # -- chaos gate: kills + claim errors, zero lost, byte parity ------
    chaos_config = SweepConfig(lease_seconds=0.5, heartbeat_seconds=0.1, max_reclaims=8)
    plan = ChaosPlan(
        kills=2, min_interval_s=0.2, fault_spec="seed=7;task.claim:error:0.02"
    )
    report = None
    mismatches = -1
    for attempt in range(3):
        sweep = _demo_sweep(
            tmp_path / f"chaos{attempt}", config=chaos_config, **CHAOS_TASKS
        )
        reference = _serial_pickles(sweep)
        report = run_sweep_local(sweep, n_runners=2, chaos=plan, timeout=300.0)
        collected, failures = sweep.collect()
        assert not failures
        mismatches = sum(
            1
            for index, ref in reference.items()
            if _pickle(collected.get(index)) != ref
        )
        # a kill can race the victim's final release (task already done,
        # nothing to reclaim) — retry until the kill provably orphaned a
        # lease, which is the scenario under test
        if report.lost == 0 and report.reclaims > 0 and report.kills > 0:
            break
    results["chaos"] = {
        **report.to_json(),
        "byte_identical": mismatches == 0,
        "mismatches": mismatches,
    }
    assert report.lost == 0, f"chaos sweep lost tasks: {report.to_json()}"
    assert report.kills > 0, "chaos plan never found a lease-holding victim"
    assert report.reclaims > 0, (
        f"killed runners must be recovered via lease expiry: {report.to_json()}"
    )
    assert mismatches == 0, (
        f"{mismatches} task result(s) differ from the serial reference"
    )

    # -- poison isolation: quarantined task never blocks the sweep -----
    poison_config = SweepConfig(max_attempts=2, backoff_base_seconds=0.02)
    sweep = Sweep.create(tmp_path / "poison", config=poison_config)
    specs = demo_sweep_tasks(3, size=2_000, reps=5)
    specs.append(
        TaskSpec(
            task_id="t00003",
            index=3,
            kind="bench_poison",
            fingerprint="p" * 16,
            params={},
        )
    )
    sweep.add_tasks(specs)
    report = run_sweep_local(sweep, n_runners=2, timeout=120.0)
    record = sweep.quarantine_record("t00003")
    results["quarantine"] = {
        "done": report.done,
        "quarantined": report.quarantined,
        "lost": report.lost,
        "reason": record["reason"] if record else None,
    }
    assert report.done == 3 and report.quarantined == 1 and report.lost == 0
    assert record and "poison" in record["reason"]
    tb = (sweep.quarantine_dir / record["traceback_file"]).read_text()
    assert "ValueError" in tb

    print()
    print(json.dumps(results, indent=2, sort_keys=True))
