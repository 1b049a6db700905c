#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny size (about two minutes).

Run from the repository root::

    python3 perfbench/check_smoke.py

Checks, for every workload in ``BENCHMARK.json``:

* ``--trace 0`` and ``--trace 1`` runs exit 0 and end with the result
  object, whose metric names and units are exactly the end-to-end
  (respectively per-layer) metrics of ``BENCHMARK.json``;
* a planted wrong answer fails the correctness check (exit 1,
  ``"correct": false``);
* no process a run started outlives it (this process adopts orphans as
  a Linux child subreaper, so even one that ends a moment later counts);

and that the command exits non-zero, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: from <linux/prctl.h>
PR_SET_CHILD_SUBREAPER = 36


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
        "--size", "tiny", *extra,
    ]
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen(command, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        proc.wait(timeout=300)
        assert not left_behind(), f"{workload} trace={trace}: a process outlived the run"
        out.seek(0)
        return proc.returncode, out.read()


def become_subreaper() -> None:
    """Adopt the orphans of every run: a process that a run leaves behind
    is re-parented to this one instead of init, so :func:`left_behind`
    sees it even when it ends a moment after the run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def left_behind() -> bool:
    """Whether any process outlived the run just waited for (reaps the
    ones that have ended since)."""
    found = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return found
        if pid == 0:
            return True  # an adopted process is still running
        found = True


def result_of(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and doc["failed"] >= 0
    return doc


def check_schema(workload: str, trace: int) -> None:
    code, stdout = run(workload, trace)
    assert code == 0, f"{workload} trace={trace} exited {code}:\n{stdout[-3000:]}"
    doc = result_of(stdout)
    assert doc["correct"] is True
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = doc["metrics"]
    names = [m["name"] for m in expected]
    assert list(got) == names, sorted(set(got) ^ set(names))
    for metric in expected:
        value = got[metric["name"]]
        assert set(value) == {"value", "unit"} and value["unit"] == metric["unit"], metric
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0, f"{workload}: {metric['name']} is 0"


def check_planted(workload: str) -> None:
    code, stdout = run(workload, 0, "--plant-wrong-answer")
    assert code != 0, f"{workload}: planted wrong answer passed"
    assert result_of(stdout)["correct"] is False


def check_bare_directory() -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    try:
        scratch.rmdir()
    except OSError:
        pass  # a run in progress still uses it
    assert code != 0, "ran without the program's source"
    assert '"metrics"' not in stdout


def main() -> int:
    become_subreaper()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_schema(workload, trace)
            print(f"ok  {workload} --trace {trace}: schema and metric names")
    for workload in ("advise", "train"):
        check_planted(workload)
        print(f"ok  {workload}: planted wrong answer fails the check")
    check_bare_directory()
    print("ok  bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
