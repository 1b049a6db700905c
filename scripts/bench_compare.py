#!/usr/bin/env python
"""Perf regression gate: fresh BENCH_*.json vs. recorded baselines.

The bench-smoke CI job regenerates every ``BENCH_*.json`` and uploads
them as artifacts; this script diffs the fresh working-tree numbers
against the recorded baselines and prints a markdown delta table for the
job summary::

    python scripts/bench_compare.py [--threshold 0.25] [--no-gate]

Two severity tiers:

* regressions beyond ``--threshold`` (default 25%) are flagged with
  GitHub ``::warning::`` annotations — informational, runners are noisy;
* regressions beyond ``--gate-threshold`` (default 30%) on a
  *directional* metric emit ``::error::`` and **fail the run** (exit 1).
  ``--no-gate`` downgrades them back to warnings — the escape hatch for
  an intentional re-baselining PR or a known-noisy host.

The gate compares against the last ``bench_history.jsonl`` entry when
one exists (the freshest recorded trajectory point), falling back to the
committed baselines (``git show HEAD:BENCH_x.json``). Metrics below the
measurement noise floor — sub-millisecond timings, microsecond knobs
under 1ms, sub-millisecond elapsed seconds — never gate: scheduler
jitter on shared runners swamps them. Neither does the
``runner_smoke`` artifact, whose timings are a liveness signal on
whatever machine ran it, not a perf trajectory.

Each run also appends one JSON line — commit, timestamp, and every
directional metric of every ``BENCH_*.json`` — to ``bench_history.jsonl``
(``--history`` to relocate, ``--no-history`` to skip). CI uploads the
file next to the ``BENCH_*.json`` artifacts, so the perf trajectory
accumulates run over run instead of living only in the latest snapshot.
"""

from __future__ import annotations

import argparse
import glob
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = ROOT / "bench_history.jsonl"

#: metric-name fragments where bigger numbers are better / worse
HIGHER_IS_BETTER = ("speedup", "per_second", "qps", "hit", "mean_batch_size")
LOWER_IS_BETTER = ("seconds", "_us", "_ms", "latency", "overhead", "samples")

#: path fragments that are configuration/run-shape, not perf: a changed
#: knob (loadtest max_wait_us, scenario duration, poll count) must never
#: be reported as a perf regression
#: (BENCH_obs's ``trace.*`` table is per-request attribution from a
#: handful of sampled traces — diagnostic, not a perf trajectory)
NOT_A_METRIC = (".config.", "stats_poll.samples", "trace.")

#: benches whose numbers are liveness smoke signals, not a perf
#: trajectory — warn, record in history, but never fail the run
NEVER_GATE_BENCHES = ("runner_smoke",)


def noise_floor(metric: str, baseline: float) -> bool:
    """Magnitudes too small to gate: scheduler jitter on shared CI
    runners swamps sub-millisecond timings, so a 30% swing there is
    measurement noise, not a regression."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.endswith("_ms") and baseline < 1.0:
        return True
    if leaf.endswith("_us") and baseline < 1000.0:
        return True
    if "seconds" in leaf and baseline < 1e-3:
        return True
    return False


def flatten(node, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested JSON document, dot-keyed."""
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[path] = float(value)
            else:
                out.update(flatten(value, path))
    return out


def direction(metric: str) -> int:
    """+1 when higher is better, -1 when lower is better, 0 unknown."""
    for fragment in NOT_A_METRIC:
        if fragment in metric:
            return 0
    leaf = metric.rsplit(".", 1)[-1]
    if "scenarios." in metric and leaf == "seconds":
        return 0  # a scenario's elapsed time is its configured duration
    for fragment in HIGHER_IS_BETTER:
        if fragment in leaf:
            return 1
    for fragment in LOWER_IS_BETTER:
        if fragment in leaf:
            return -1
    return 0


def judge(baseline: float, fresh: float, sign: int, threshold: float):
    """``(delta display, regressed?)`` for one metric.

    Relative deltas only make sense against a positive magnitude; for a
    zero or negative baseline (e.g. ``overhead_fraction``, where a noise
    floor lands below zero) the ratio flips sign and calls a regression
    an improvement — those metrics compare by absolute delta instead.
    """
    if baseline > 0:
        delta = fresh / baseline - 1.0
        display = f"{delta:+.1%}"
    else:
        delta = fresh - baseline
        display = f"{delta:+.3g} abs"
    if sign > 0:
        return display, delta < -threshold
    return display, delta > threshold


def committed_baseline(name: str) -> dict | None:
    """The HEAD version of one BENCH file, or None when untracked."""
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def last_history_entry(path: Path) -> dict | None:
    """The newest ``bench_history.jsonl`` record, or None."""
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        return json.loads(lines[-1]) if lines else None
    except (OSError, json.JSONDecodeError):
        return None


def compare(
    threshold: float, gate_threshold: float, history_path: Path
) -> tuple[list[str], list[str]]:
    """Print the delta table; return ``(warnings, gate failures)``.

    The warn tier always diffs against the committed baselines (the
    human-recorded numbers); the gate tier prefers the last history
    entry — the freshest point on the same machine's trajectory — and
    falls back to the committed value.
    """
    history = last_history_entry(history_path)
    warnings: list[str] = []
    failures: list[str] = []
    rows: list[tuple[str, str, str, str, str]] = []
    for path in sorted(glob.glob(str(ROOT / "BENCH_*.json"))):
        name = Path(path).name
        bench = name[len("BENCH_") : -len(".json")]
        with open(path) as fh:
            fresh = flatten(json.load(fh))
        baseline_doc = committed_baseline(name)
        if baseline_doc is None:
            rows.append((bench, "(new benchmark)", "-", "-", "no baseline"))
            continue
        baseline = flatten(baseline_doc)
        history_bench = (history or {}).get("benches", {}).get(bench, {})
        for metric in sorted(fresh):
            if metric not in baseline:
                continue
            sign = direction(metric)
            if sign == 0:
                continue  # counts/configs: not a perf trajectory
            display, regressed = judge(baseline[metric], fresh[metric], sign, threshold)
            marker = "REGRESSED" if regressed else "ok"
            rows.append(
                (
                    bench,
                    metric,
                    f"{baseline[metric]:.4g}",
                    f"{fresh[metric]:.4g}",
                    f"{display} {marker}",
                )
            )
            if not regressed:
                continue
            gate_base = history_bench.get(metric, baseline[metric])
            gate_display, gated = judge(
                gate_base, fresh[metric], sign, gate_threshold
            )
            if (
                gated
                and bench not in NEVER_GATE_BENCHES
                and not noise_floor(metric, gate_base)
            ):
                failures.append(
                    f"::error file={name}::{bench}.{metric} regressed "
                    f"{gate_display} vs recorded baseline "
                    f"({gate_base:.4g} -> {fresh[metric]:.4g})"
                )
            else:
                warnings.append(
                    f"::warning file={name}::{bench}.{metric} regressed "
                    f"{display} vs committed baseline "
                    f"({baseline[metric]:.4g} -> {fresh[metric]:.4g})"
                )
    print("### Benchmark deltas vs. committed baselines")
    print()
    print(f"(warn past {threshold:.0%}, fail past {gate_threshold:.0%})")
    print()
    print("| benchmark | metric | baseline | fresh | delta |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    if not rows:
        print("| - | no BENCH_*.json found | - | - | - |")
    return warnings, failures


def current_commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else ""


def append_history(path: Path) -> dict:
    """Append this run's directional metrics as one ``jsonl`` record.

    The record is the same shape run over run — ``{bench: {metric:
    value}}`` plus commit/timestamp — so the trajectory is greppable and
    trivially plottable across CI artifacts.
    """
    benches: dict[str, dict[str, float]] = {}
    for bench_path in sorted(glob.glob(str(ROOT / "BENCH_*.json"))):
        name = Path(bench_path).name[len("BENCH_") : -len(".json")]
        with open(bench_path) as fh:
            flat = flatten(json.load(fh))
        benches[name] = {
            metric: value
            for metric, value in sorted(flat.items())
            if direction(metric) != 0
        }
    entry = {
        "timestamp": time.time(),
        "commit": current_commit(),
        "benches": benches,
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative delta that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--history",
        default=str(HISTORY_PATH),
        help="bench_history.jsonl location (the CI perf-trajectory artifact)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending this run to the history file",
    )
    parser.add_argument(
        "--gate-threshold",
        type=float,
        default=0.30,
        help="relative regression on a directional metric that fails the "
        "run (default 0.30)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="downgrade gate failures to warnings (re-baselining PRs, "
        "known-noisy hosts)",
    )
    args = parser.parse_args(argv)
    warnings, failures = compare(
        args.threshold, args.gate_threshold, Path(args.history)
    )
    for line in warnings:
        print(line, file=sys.stderr)
    if args.no_gate and failures:
        print("(--no-gate: downgrading gate failures to warnings)")
        for line in failures:
            print(line.replace("::error", "::warning", 1), file=sys.stderr)
        failures = []
    for line in failures:
        print(line, file=sys.stderr)
    if not args.no_history:
        entry = append_history(Path(args.history))
        print()
        print(
            f"(appended {sum(len(b) for b in entry['benches'].values())} "
            f"metrics for commit {entry['commit'] or '?'} to {args.history})"
        )
    # small deltas only warn — noisy CI hardware must not fail the job on
    # a perf wobble — but a past-gate collapse of a directional metric
    # does fail it (``--no-gate`` to bypass)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
