"""Deterministic fault injection for the serving tier (DESIGN.md §12)
and the distributed experiment runner (DESIGN.md §16).

Robustness claims are only as good as the failures they were tested
against, so the resilience layer is built around *named fault sites* —
fixed points in the serving stack and the runner where tests (the chaos
scenarios of ``tests/test_load.py`` among them), ``scripts/sweep.py
--chaos``, and operators (via ``$REPRO_FAULTS``) can script failures:

====================  =================================================
site                  where it fires
====================  =================================================
``decode``            HTTP body decoding, before any parsing work
``forward``           inside the GNN forward (``_predict_joint``)
``registry.load``     :meth:`ModelRegistry.load`, before deserializing
``feedback.flush``    :meth:`FeedbackLog` chunk writes (disk failures)
``shard.worker``      the shard worker loop (thread death)
``store.write``       runner result publishing to the resultstore
``task.claim``        runner claim scans over the sweep's task files
``runner.heartbeat``  lease renewal beats (a delay here freezes the
                      holder past its lease — the reclaim scenario)
``runner.task``       task execution in :meth:`Runner.execute` (a
                      ``crash`` kills the runner process like an OOM)
====================  =================================================

A spec is a ``;``-separated list of rules plus an optional seed::

    REPRO_FAULTS="seed=42;forward:delay:0.6:0.03;shard.worker:crash:0.05:6"

Each rule is ``site:kind:probability[:param]``:

* ``error`` — raise :class:`InjectedFault` (param = max fires, 0 = ∞);
* ``delay`` — sleep ``param`` seconds (default 10ms);
* ``crash`` — raise :class:`WorkerCrash`, a ``BaseException`` that
  sails through per-request isolation and kills the worker thread —
  the supervisor's job is to notice (param = max fires, 0 = ∞).

Every rule draws from its own seeded counter-based stream, so a chaos
run's *decision sequence* per site is reproducible run to run (which
request observes the n-th decision still depends on thread scheduling;
tests needing exactness use probability 1.0 or capped fire counts).

The hot-path cost when nothing is installed is a single module-global
``None`` check per site. The module imports nothing from the packages
it instruments, so firing a site loads no serving code.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

import numpy as np

from repro.exceptions import ServingError

#: the sites the serving stack instruments; specs naming anything else
#: are rejected so a typo cannot silently disable a chaos scenario
KNOWN_SITES = (
    "decode",
    "forward",
    "registry.load",
    "feedback.flush",
    "shard.worker",
    "store.write",
    "task.claim",
    "runner.heartbeat",
    "runner.task",
)

_KINDS = ("error", "delay", "crash")


class InjectedFault(RuntimeError):
    """A scripted failure from the fault registry.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate unexpected infrastructure failures, so they must
    travel the same paths (per-request isolation, circuit breaker,
    structured 500s) as a genuinely unanticipated exception."""


class WorkerCrash(BaseException):
    """A scripted worker-thread death.

    Derives from ``BaseException`` so no ``except Exception`` safety net
    between the fault site and the thread's run loop can swallow it —
    the thread dies exactly as it would on an interpreter-level failure,
    and only the shard supervisor can clean up."""


class FaultRule:
    """One ``site:kind:probability[:param]`` rule with its own stream."""

    def __init__(
        self, site: str, kind: str, probability: float, param: float, seed: int
    ):
        if site not in KNOWN_SITES:
            raise ServingError(f"unknown fault site {site!r} (know {KNOWN_SITES})")
        if kind not in _KINDS:
            raise ServingError(f"unknown fault kind {kind!r} (know {_KINDS})")
        if not 0.0 <= probability <= 1.0:
            raise ServingError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        self.site = site
        self.kind = kind
        self.probability = probability
        self.param = param
        # each rule draws from its own deterministic stream: seed is
        # derived from (global seed, site, kind) by stable hashing so
        # adding a rule never perturbs another rule's sequence
        digest = hashlib.sha256(f"{seed}|{site}|{kind}|{param}".encode()).digest()
        self._rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        self.fired = 0
        self.draws = 0

    @property
    def max_fires(self) -> int:
        """For error/crash rules, ``param`` caps total fires (0 = ∞)."""
        return int(self.param) if self.kind in ("error", "crash") else 0

    def decide(self) -> bool:
        """Draw the next decision from the rule's stream (caller locks)."""
        self.draws += 1
        if self.max_fires and self.fired >= self.max_fires:
            return False
        if self.probability >= 1.0:
            fire = True
        else:
            fire = bool(self._rng.random() < self.probability)
        if fire:
            self.fired += 1
        return fire

    def describe(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "param": self.param,
            "draws": self.draws,
            "fired": self.fired,
        }


def _parse_spec(spec: str) -> tuple[list[tuple[str, str, float, float]], int]:
    rules: list[tuple[str, str, float, float]] = []
    seed = 0
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):])
            except ValueError as exc:
                raise ServingError(f"invalid fault seed in {part!r}") from exc
            continue
        fields = part.split(":")
        if len(fields) not in (3, 4):
            raise ServingError(
                f"invalid fault rule {part!r}; want site:kind:probability[:param]"
            )
        site, kind = fields[0], fields[1]
        try:
            probability = float(fields[2])
            param = float(fields[3]) if len(fields) == 4 else (
                0.010 if kind == "delay" else 0.0
            )
        except ValueError as exc:
            raise ServingError(f"invalid number in fault rule {part!r}") from exc
        rules.append((site, kind, probability, param))
    return rules, seed


class FaultInjector:
    """A parsed fault spec, ready to fire at instrumented sites."""

    def __init__(self, spec: str = "", seed: int | None = None):
        parsed, spec_seed = _parse_spec(spec)
        self.spec = spec
        self.seed = spec_seed if seed is None else seed
        self._lock = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        for site, kind, probability, param in parsed:
            rule = FaultRule(site, kind, probability, param, self.seed)
            self._rules.setdefault(site, []).append(rule)

    def fire(self, site: str) -> None:
        """Run ``site``'s rules: may sleep, raise, or do nothing."""
        rules = self._rules.get(site)
        if not rules:
            return
        delay = 0.0
        boom: BaseException | None = None
        with self._lock:
            for rule in rules:
                if not rule.decide():
                    continue
                if rule.kind == "delay":
                    delay += rule.param
                elif rule.kind == "error":
                    boom = InjectedFault(f"injected fault at {site!r}")
                else:
                    boom = WorkerCrash(f"injected crash at {site!r}")
        if delay > 0.0:
            time.sleep(delay)
        if boom is not None:
            raise boom

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {
                site: sum(rule.fired for rule in rules)
                for site, rules in self._rules.items()
            }

    def describe(self) -> dict:
        with self._lock:
            return {
                "spec": self.spec,
                "seed": self.seed,
                "rules": [
                    rule.describe()
                    for rules in self._rules.values()
                    for rule in rules
                ],
            }


#: the installed injector; ``None`` (the overwhelmingly common case)
#: makes every ``fire()`` a single global read + ``is None`` check
_INJECTOR: FaultInjector | None = None


def install(spec: str, seed: int | None = None) -> FaultInjector:
    """Install a fault spec globally; returns the injector."""
    global _INJECTOR
    injector = FaultInjector(spec, seed=seed)
    _INJECTOR = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector (all sites go inert)."""
    global _INJECTOR
    _INJECTOR = None


def install_from_env() -> FaultInjector | None:
    """Install from ``$REPRO_FAULTS`` when set (server and runner startup)."""
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    return install(spec)


def current() -> FaultInjector | None:
    return _INJECTOR


def fire(site: str) -> None:
    """Fire ``site`` on the installed injector; no-op when none is."""
    injector = _INJECTOR
    if injector is not None:
        injector.fire(site)


class injected:
    """Context manager for tests: install on enter, uninstall on exit."""

    def __init__(self, spec: str, seed: int | None = None):
        self.spec = spec
        self.seed = seed

    def __enter__(self) -> FaultInjector:
        return install(self.spec, seed=self.seed)

    def __exit__(self, *exc_info) -> None:
        uninstall()
