"""Repo-wide pytest guard (loaded for tests/ AND benchmarks/ runs).

A committed `.bench_cache/` pickle ships stale experiment results to
every fresh checkout (the Fig. 7 poisoning incident, DESIGN.md §7) —
refuse to run rather than let paper-shape assertions test old code's
outputs. Lives at the repo root so benchmark-only invocations (e.g.
`python -m pytest benchmarks`) are protected too.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent


def pytest_configure(config):
    """Fail fast if cache blobs are tracked in git again."""
    try:
        proc = subprocess.run(
            ["git", "ls-files", ".bench_cache"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=15,
        )
    except (OSError, subprocess.TimeoutExpired):
        return  # no git available — nothing to check
    if proc.returncode == 0 and proc.stdout.strip():
        tracked = proc.stdout.strip().splitlines()
        raise pytest.UsageError(
            f"{len(tracked)} cache blob(s) are tracked in git under "
            f".bench_cache/ (e.g. {tracked[0]}); stale cached results must "
            "never ship with the repo. Run: git rm -r --cached .bench_cache"
        )
