"""Process-local metrics registry with Prometheus-text exposition.

Three instrument kinds, one registry, zero dependencies:

* **counter** — monotonically increasing float, ``inc(amount)``;
* **gauge** — last-write-wins float, ``set(value)`` / ``inc(amount)``;
* **histogram** — fixed log-spaced buckets with Prometheus ``le``
  semantics (a sample equal to a bound lands *in* that bucket),
  ``observe(value)``.

Hot-path discipline (the engine merges per-shard ``EngineStats`` on
read precisely to keep its dispatch path lock-free; instrumentation
must not regress that): counters and histograms keep **one shard per
writing thread**, created under a lock once and then mutated without
any locking — the owning thread is the only writer, readers sum the
shards at scrape time.  A read can therefore tear *between* shards
(miss an in-flight increment), which is exactly the accuracy contract
Prometheus scrapes already have.

Labels are frozen tuples: ``family.labels("predict", "200")`` interns
one child per label-value tuple and returns the same child object on
every call, so call sites can also cache the child themselves.

The whole subsystem sits behind one switch: ``REPRO_OBS=off`` (or
``0``/``false``/``no``) turns every mutation into an early return, and
:func:`set_enabled` flips the same switch at runtime so the overhead
benchmark can measure instrumented-vs-bare throughput in one process.

Exposition is Prometheus text format 0.0.4 via :meth:`render`; scrape
points may pass *extra* pre-aggregated samples (see
:mod:`repro.obs.export`) for components that keep their own counters.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "enabled",
    "gauge",
    "histogram",
    "log_buckets",
    "render",
    "set_enabled",
]

_DISABLED_VALUES = ("off", "0", "false", "no")


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() not in _DISABLED_VALUES


class _State:
    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = _env_enabled()


_STATE = _State()


def enabled() -> bool:
    """True when instrumentation writes are live (the ``REPRO_OBS`` gate)."""
    return _STATE.enabled


def set_enabled(flag: bool) -> bool:
    """Flip the instrumentation gate at runtime; returns the previous value."""
    previous = _STATE.enabled
    _STATE.enabled = bool(flag)
    return previous


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> tuple[float, ...]:
    """Log-spaced bucket bounds from ``lo`` up to the first bound >= ``hi``.

    ``per_decade`` steps per factor of ten; bounds are rounded to six
    significant digits so the exposition stays readable.
    """
    if lo <= 0 or hi <= lo or per_decade < 1:
        raise ValueError("log_buckets needs 0 < lo < hi and per_decade >= 1")
    bounds: list[float] = []
    step = 0
    while True:
        bound = float(f"{lo * 10 ** (step / per_decade):.6g}")
        bounds.append(bound)
        if bound >= hi:
            return tuple(bounds)
        step += 1


#: 1-2.5-5 ladder from 100µs to 10s — wide enough for a cache hit
#: (~µs) and a cold, queued joint forward (~s) on the same chart
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape(v)}"' for n, v in zip(names, values))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_bound(bound: float) -> str:
    return f"{bound:.10g}"


class _CounterChild:
    """One label combination of a counter; per-thread shards, no lock."""

    __slots__ = ("_shards", "_lock")

    def __init__(self) -> None:
        self._shards: dict[int, list[float]] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        ident = threading.get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = [0.0]
            with self._lock:
                shard = self._shards.setdefault(ident, shard)
        shard[0] += amount

    @property
    def value(self) -> float:
        return sum(shard[0] for shard in list(self._shards.values()))


class _GaugeChild:
    """Last-write-wins value; sets are rare enough to take a lock."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    """Fixed-bucket histogram; per-thread shards merged at scrape time.

    Shard layout: one slot per finite bound, one overflow (``+Inf``)
    slot, then the running sum and count — five float adds per observe,
    no lock after the shard exists.
    """

    __slots__ = ("_bounds", "_shards", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._bounds = bounds
        self._shards: dict[int, list[float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not _STATE.enabled:
            return
        ident = threading.get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = [0.0] * (len(self._bounds) + 3)
            with self._lock:
                shard = self._shards.setdefault(ident, shard)
        # Prometheus ``le`` semantics: value == bound falls in that bucket
        shard[bisect_left(self._bounds, value)] += 1.0
        shard[-2] += value
        shard[-1] += 1.0

    def snapshot(self) -> tuple[list[float], float, float]:
        """(cumulative per-``le`` counts incl. ``+Inf``, sum, count)."""
        merged = [0.0] * (len(self._bounds) + 3)
        for shard in list(self._shards.values()):
            for i, slot in enumerate(shard):
                merged[i] += slot
        cumulative: list[float] = []
        acc = 0.0
        for count in merged[: len(self._bounds) + 1]:
            acc += count
            cumulative.append(acc)
        return cumulative, merged[-2], merged[-1]

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds


class _Family:
    """A named metric plus its per-label-tuple children."""

    kind = "untyped"
    _child_cls: type | None = None

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self.labels()  # label-less family: one default child

    def _make_child(self):
        return self._child_cls()

    def labels(self, *values):
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name!r} takes labels {self.labelnames!r}, "
                    f"got {key!r}"
                )
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} requires labels {self.labelnames!r}"
            )
        return self._children[()]

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        return sorted(self._children.items())

    def header_into(self, lines: list[str]) -> None:
        if self.help:
            lines.append(f"# HELP {self.name} {_escape(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")


class _CounterFamily(_Family):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def render_into(self, lines: list[str]) -> None:
        self.header_into(lines)
        for key, child in self.children():
            label_str = _label_str(self.labelnames, key)
            lines.append(f"{self.name}{label_str} {_fmt(child.value)}")


class _GaugeFamily(_Family):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def render_into(self, lines: list[str]) -> None:
        self.header_into(lines)
        for key, child in self.children():
            label_str = _label_str(self.labelnames, key)
            lines.append(f"{self.name}{label_str} {_fmt(child.value)}")


class _HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name, help_text, labelnames, buckets):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.buckets = bounds
        super().__init__(name, help_text, labelnames)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def snapshot(self):
        return self._default().snapshot()

    def render_into(self, lines: list[str]) -> None:
        self.header_into(lines)
        for key, child in self.children():
            cumulative, total, count = child.snapshot()
            for bound, cum in zip(self.buckets, cumulative):
                le = _label_str(
                    self.labelnames + ("le",), key + (_fmt_bound(bound),)
                )
                lines.append(f"{self.name}_bucket{le} {_fmt(cum)}")
            inf = _label_str(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{inf} {_fmt(cumulative[-1])}")
            label_str = _label_str(self.labelnames, key)
            lines.append(f"{self.name}_sum{label_str} {_fmt(total)}")
            lines.append(f"{self.name}_count{label_str} {_fmt(count)}")


class MetricsRegistry:
    """Named families, get-or-create, consistency-checked."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(self, cls, name, help_text, labelnames, **kwargs) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help_text, tuple(labelnames), **kwargs)
                    self._families[name] = family
        if type(family) is not cls or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.labelnames!r}"
            )
        return family

    def counter(self, name, help_text="", labelnames=()) -> _CounterFamily:
        return self._family(_CounterFamily, name, help_text, labelnames)

    def gauge(self, name, help_text="", labelnames=()) -> _GaugeFamily:
        return self._family(_GaugeFamily, name, help_text, labelnames)

    def histogram(
        self,
        name,
        help_text="",
        labelnames=(),
        buckets=DEFAULT_LATENCY_BUCKETS,
    ) -> _HistogramFamily:
        return self._family(
            _HistogramFamily, name, help_text, labelnames, buckets=buckets
        )

    def render(self, extra=()) -> str:
        """Prometheus text 0.0.4: registered families + ``extra`` samples.

        ``extra`` is an iterable of ``(name, kind, help, labels, value)``
        tuples (see :func:`repro.obs.export.sample`) for components that
        keep their own counters and are sampled at scrape time instead
        of double-counted into the registry.  Extra names must not
        collide with registered families.
        """
        lines: list[str] = []
        for name in sorted(self._families):
            self._families[name].render_into(lines)
        grouped: dict[str, tuple[str, str, list]] = {}
        for name, kind, help_text, labels, value in extra:
            bucket = grouped.setdefault(name, (kind, help_text, []))
            bucket[2].append((labels, value))
        for name, (kind, help_text, samples) in grouped.items():
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                items = tuple(labels.items())
                label_str = _label_str(
                    tuple(k for k, _ in items), tuple(str(v) for _, v in items)
                )
                lines.append(f"{name}{label_str} {_fmt(value)}")
        return "\n".join(lines) + "\n"


#: the process-wide registry every instrument in this repo lives in
REGISTRY = MetricsRegistry()


def counter(name, help_text="", labelnames=()) -> _CounterFamily:
    return REGISTRY.counter(name, help_text, labelnames)


def gauge(name, help_text="", labelnames=()) -> _GaugeFamily:
    return REGISTRY.gauge(name, help_text, labelnames)


def histogram(
    name, help_text="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
) -> _HistogramFamily:
    return REGISTRY.histogram(name, help_text, labelnames, buckets=buckets)


def render(extra=()) -> str:
    return REGISTRY.render(extra)
