"""Shared pieces of the benchmark: paths, isolation, HTTP client, stats."""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import resource
import shutil
import socket
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file a run writes lives under here (removed when the run ends)
TMP_ROOT = ROOT / ".perfbench_tmp"

#: a request that fails or times out counts as this slow in percentiles:
#: it misses any latency limit a reader might set
CLIENT_TIMEOUT_S = 30.0


def require_source() -> None:
    """Make ``repro`` importable from the checkout's ``src/``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def isolated_run(tag: str):
    """A fresh temp dir for caches, registry and feedback log of one run.

    ``REPRO_CACHE_DIR`` points into it, so nothing the run labels, prepares
    or trains is read from (or left in) a shared result cache.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path / "cache")
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, shards: int | None) -> dict:
    import numpy

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "shards": shards,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- statistics ----------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# -- HTTP client ----------------------------------------------------------
class Outcomes:
    """Every attempt, by outcome, with latencies (failures at the timeout)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.latencies: list[float] = []

    def add(self, outcome: str, seconds: float) -> None:
        self.counts[outcome] += 1
        self.latencies.append(seconds if outcome == "2xx" else CLIENT_TIMEOUT_S)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["2xx"]

    def merge(self, other: "Outcomes") -> None:
        self.counts.update(other.counts)
        self.latencies.extend(other.latencies)


def classify(status: int) -> str:
    if 200 <= status < 300:
        return "2xx"
    if status in (503, 504):
        return str(status)
    if 400 <= status < 500:
        return "4xx"
    return "5xx"


class Client:
    """One keep-nothing HTTP/1.0 connection slot (the server closes after
    each response, so every request opens a fresh local TCP connection)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def call(self, method: str, path: str, body: bytes | None = None):
        """``(outcome, seconds, decoded JSON or None)`` for one request."""
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - started
            outcome = classify(response.status)
            payload = json.loads(raw) if outcome == "2xx" and raw[:1] in (b"{", b"[") else None
            return outcome, elapsed, payload
        except socket.timeout:
            return "timeout", time.perf_counter() - started, None
        except (ConnectionError, OSError, http.client.HTTPException):
            return "conn_error", time.perf_counter() - started, None
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        outcome, _, payload = self.call("GET", path)
        if outcome != "2xx" or payload is None:
            raise RuntimeError(f"GET {path} failed: {outcome}")
        return payload

    def get_text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    doc = {
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)
