"""Versioned model registry for the serving layer (DESIGN.md §9).

The registry turns :mod:`repro.model.persistence` archives into *named,
versioned* serving artifacts::

    .model_registry/
        costgnn-imdb/
            v0001.npz          # weights + config (save_model format)
            v0001.json         # metadata sidecar
            v0002.npz
            v0002.json

Each published version records the model's config fingerprint (the same
SHA-256 discipline as :mod:`repro.eval.resultstore` — change any config
knob and the fingerprint moves), a fingerprint over the trained weights,
the dtype/parameter summary, and caller-supplied metrics (e.g. the
fold's q-error summary). ``load()`` keeps an LRU of live deserialized
models so concurrent advisors share one in-memory copy per version
instead of re-reading the archive per request.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.eval.resultstore import fingerprint, registry_dir
from repro.exceptions import ServingError
from repro.model.gnn import CostGNN
from repro.model.persistence import load_model, model_summary, save_model

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.-]*$")
_VERSION_RE = re.compile(r"^v(\d{4})\.npz$")


@dataclass(frozen=True)
class ModelVersion:
    """One published (name, version) artifact, described by its sidecar."""

    name: str
    version: int
    path: Path
    config_fingerprint: str
    weights_fingerprint: str
    dtype: str
    n_parameters: int
    created: float
    metrics: dict = field(default_factory=dict)
    description: str = ""
    #: False when the metadata sidecar is missing, truncated, or not
    #: JSON — the artifact may still deserialize, but a crash-safe
    #: startup (``load_serving``) refuses to guess and skips it
    intact: bool = True

    @property
    def ref(self) -> str:
        return f"{self.name}@v{self.version}"


def _weights_fingerprint(model: CostGNN) -> str:
    state = model.state_dict()
    return fingerprint({name: state[name] for name in sorted(state)})


class ModelRegistry:
    """Named, versioned cost models with an LRU of live instances."""

    def __init__(self, root: Path | str | None = None, max_live: int = 4):
        self.root = Path(root) if root is not None else registry_dir()
        self.max_live = max_live
        self._live: OrderedDict[tuple[str, int], CostGNN] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: ref -> reason for artifacts that failed to load or lost
        #: their sidecar; ``load_serving`` routes around them and
        #: ``describe()`` (the ``/stats`` payload) reports them
        self._quarantined: dict[str, str] = {}

    # -- publishing ----------------------------------------------------
    def publish(
        self,
        name: str,
        model: CostGNN,
        metrics: dict | None = None,
        description: str = "",
    ) -> ModelVersion:
        """Store ``model`` as the next version of ``name``."""
        if not _NAME_RE.match(name):
            raise ServingError(f"invalid model name {name!r}")
        with self._lock:
            existing = self.versions(name)
            version = existing[-1].version + 1 if existing else 1
            model_dir = self.root / name
            model_dir.mkdir(parents=True, exist_ok=True)
            # claim the version number with O_EXCL so concurrent
            # publishers (other processes share the same root) bump past
            # each other instead of overwriting a published artifact
            while True:
                path = model_dir / f"v{version:04d}.npz"
                try:
                    os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    version += 1
                    continue
                break
            save_model(model, path)
            meta = {
                "name": name,
                "version": version,
                "config_fingerprint": fingerprint(model.config),
                "weights_fingerprint": _weights_fingerprint(model),
                "created": time.time(),
                "metrics": dict(metrics or {}),
                "description": description,
                **model_summary(model),
            }
            tmp = path.with_suffix(f".jsontmp{os.getpid()}")
            with open(tmp, "w") as fh:
                json.dump(meta, fh, indent=1)
            os.replace(tmp, path.with_suffix(".json"))
            # serve the just-published weights without a disk round-trip
            self._remember((name, version), model)
            return self._version_from_meta(path, meta)

    def annotate(self, name: str, version: int, metrics: dict) -> ModelVersion:
        """Merge ``metrics`` into a published version's sidecar (atomic).

        This is how post-publication verdicts reach the registry: the
        canary promoter records its shadow-comparison outcome here, so a
        version's sidecar tells the whole story — what drifted, what it
        was retrained on, and whether it won promotion.
        """
        with self._lock:
            path = self.root / name / f"v{version:04d}.npz"
            if not path.exists():
                raise ServingError(f"model {name}@v{version} is not published")
            sidecar = path.with_suffix(".json")
            meta = {}
            try:
                with open(sidecar) as fh:
                    meta = json.load(fh)
            except (OSError, json.JSONDecodeError):
                pass
            meta.setdefault("metrics", {}).update(metrics)
            tmp = path.with_suffix(f".jsontmp{os.getpid()}")
            with open(tmp, "w") as fh:
                json.dump(meta, fh, indent=1)
            os.replace(tmp, sidecar)
            return self._version_from_meta(path, meta)

    # -- listing -------------------------------------------------------
    def models(self) -> list[str]:
        """All model names with at least one published version."""
        if not self.root.is_dir():
            return []
        return sorted(
            d.name
            for d in self.root.iterdir()
            if d.is_dir() and any(_VERSION_RE.match(p.name) for p in d.iterdir())
        )

    def versions(self, name: str) -> list[ModelVersion]:
        """All versions of ``name``, oldest first."""
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        out = []
        for path in sorted(model_dir.glob("v*.npz")):
            if not _VERSION_RE.match(path.name):
                continue
            meta = {}
            intact = True
            try:
                with open(path.with_suffix(".json")) as fh:
                    meta = json.load(fh)
            except (OSError, json.JSONDecodeError):
                intact = False
            out.append(self._version_from_meta(path, meta, intact=intact))
        return out

    def latest(self, name: str) -> ModelVersion:
        versions = self.versions(name)
        if not versions:
            raise ServingError(f"no published versions of model {name!r}")
        return versions[-1]

    def describe(self) -> dict:
        """Registry-wide summary for the serving ``/models`` endpoint."""
        # snapshot the in-memory state under the lock, but walk the
        # sidecars outside it: disk I/O must not stall load() callers
        with self._lock:
            live = [f"{n}@v{v}" for n, v in self._live]
            hits, misses = self.hits, self.misses
            quarantined = dict(self._quarantined)
        return {
            "root": str(self.root),
            "live": live,
            "hits": hits,
            "misses": misses,
            "quarantined": quarantined,
            "models": {
                name: [
                    {
                        "version": v.version,
                        "ref": v.ref,
                        "dtype": v.dtype,
                        "n_parameters": v.n_parameters,
                        "config_fingerprint": v.config_fingerprint,
                        "weights_fingerprint": v.weights_fingerprint,
                        "metrics": v.metrics,
                        "description": v.description,
                    }
                    for v in self.versions(name)
                ]
                for name in self.models()
            },
        }

    # -- loading -------------------------------------------------------
    def load(self, name: str, version: int | None = None) -> CostGNN:
        """A live model instance (LRU-cached); latest version by default."""
        with self._lock:
            if version is None:
                version = self.latest(name).version
            key = (name, version)
            live = self._live.get(key)
            if live is not None:
                self.hits += 1
                self._live.move_to_end(key)
                return live
            self.misses += 1
            path = self.root / name / f"v{version:04d}.npz"
            if not path.exists():
                raise ServingError(f"model {name}@v{version} is not published")
            faults.fire("registry.load")
            model = load_model(path)
            self._remember(key, model)
            return model

    def load_serving(self, name: str) -> tuple[CostGNN, ModelVersion]:
        """Crash-safe startup load: the best version that actually works.

        Candidates are tried in serving-preference order — newest
        promoted canary first, then the newest original, then anything
        else — and a candidate that is corrupt (unreadable sidecar,
        truncated archive, anything ``load_model`` rejects) is
        quarantined and *skipped* instead of taking down startup. Raises
        only when no published version of ``name`` is loadable at all.
        """
        candidates = self.serving_candidates(name)
        if not candidates:
            raise ServingError(f"no published versions of model {name!r}")
        for candidate in candidates:
            with self._lock:
                if candidate.ref in self._quarantined:
                    continue
            if not candidate.intact:
                self._quarantine(candidate.ref, "metadata sidecar unreadable")
                continue
            try:
                return self.load(name, candidate.version), candidate
            except Exception as exc:  # corrupt archive, injected fault, ...
                self._quarantine(candidate.ref, f"load failed: {exc}")
        raise ServingError(
            f"every published version of model {name!r} is quarantined"
        )

    def serving_candidates(self, name: str) -> list[ModelVersion]:
        """Versions of ``name`` in serving-preference order.

        The same policy as the feedback loop's
        ``select_serving_version``: promoted canaries (newest first),
        then versions that were not retrained from anything (newest
        first), then the rest — but returning *every* candidate so a
        recovery path exists when the preferred artifact is corrupt.
        """
        versions = self.versions(name)

        def is_promoted(v: ModelVersion) -> bool:
            canary = v.metrics.get("canary")
            return isinstance(canary, dict) and canary.get("promoted") is True

        promoted = [v for v in versions if is_promoted(v)]
        originals = [
            v
            for v in versions
            if not is_promoted(v) and "retrained_from" not in v.metrics
        ]
        rest = [
            v
            for v in versions
            if not is_promoted(v) and "retrained_from" in v.metrics
        ]
        return (
            list(reversed(promoted)) + list(reversed(originals)) + list(reversed(rest))
        )

    def _quarantine(self, ref: str, reason: str) -> None:
        with self._lock:
            self._quarantined.setdefault(ref, reason)

    @property
    def quarantined(self) -> dict[str, str]:
        with self._lock:
            return dict(self._quarantined)

    def _remember(self, key: tuple[str, int], model: CostGNN) -> None:
        self._live[key] = model
        self._live.move_to_end(key)
        while len(self._live) > self.max_live:
            self._live.popitem(last=False)

    @property
    def live_models(self) -> list[str]:
        with self._lock:
            return [f"{n}@v{v}" for n, v in self._live]

    # -- maintenance ---------------------------------------------------
    def delete(self, name: str, version: int | None = None) -> int:
        """Delete one version (or every version) of ``name``."""
        with self._lock:
            targets = self.versions(name)
            if version is not None:
                targets = [v for v in targets if v.version == version]
                if not targets:
                    raise ServingError(f"model {name}@v{version} is not published")
            for target in targets:
                self._live.pop((name, target.version), None)
                for path in (target.path, target.path.with_suffix(".json")):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            model_dir = self.root / name
            if model_dir.is_dir() and not any(model_dir.iterdir()):
                model_dir.rmdir()
            return len(targets)

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _version_from_meta(path: Path, meta: dict, intact: bool = True) -> ModelVersion:
        match = _VERSION_RE.match(path.name)
        version = int(match.group(1)) if match else int(meta.get("version", 0))
        return ModelVersion(
            intact=intact,
            name=meta.get("name", path.parent.name),
            version=version,
            path=path,
            config_fingerprint=meta.get("config_fingerprint", ""),
            weights_fingerprint=meta.get("weights_fingerprint", ""),
            dtype=meta.get("dtype", ""),
            n_parameters=int(meta.get("n_parameters", 0)),
            created=float(meta.get("created", 0.0)),
            metrics=meta.get("metrics", {}),
            description=meta.get("description", ""),
        )
