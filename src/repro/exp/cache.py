"""Content-addressed result cache over the artifact store.

A run is a cache hit when the store holds its record, the record's run
succeeded, and its ``meta`` matches on every component of the cache key:

* ``run_hash`` — content hash of (kind, params, seed), so editing one
  sweep axis value invalidates exactly the cells that contain it;
* ``seed`` — the sweep seed (also folded into the hash; checked
  explicitly as a defensive second factor);
* ``version`` — ``repro.__version__`` plus a digest of the imported
  package's ``*.py`` sources (:func:`source_fingerprint`, computed once per
  process), so bumping the library *or editing any of its code* re-runs
  everything: simulator behaviour may have changed under the same spec and
  the same version string.

Failed runs never hit: a sweep re-attempts its previous failures.  The
cache records hit/miss reasons so ``status`` output and the sweep report
can explain *why* a cell re-ran.

:meth:`ResultCache.decide` judges a whole sweep's cells (the sweep's,
and ``status`` / ``rollup``'s) against one listing of ``runs/``: an
unlisted hash is ``absent`` without an ``open()``, and only listed records
are read and validated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

import repro
from repro.exp.grid import RunSpec
from repro.exp.store import ArtifactStore

#: Lookup outcomes (``CacheDecision.reason``).
HIT = "hit"
MISS_ABSENT = "absent"
MISS_VERSION = "version-changed"
MISS_FAILED = "failed-previously"
MISS_TIMEOUT = "timed-out-previously"
MISS_STALE = "stale-metadata"
MISS_FORCED = "forced"


def source_fingerprint(root: Path) -> str:
    """Digest of every ``*.py`` file under ``root``: relative paths and
    bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


@lru_cache(maxsize=None)
def _package_fingerprint() -> str:
    return source_fingerprint(Path(repro.__file__).parent)


@dataclass(frozen=True)
class CacheDecision:
    """One lookup verdict: hit/miss, why, and the cached result if any."""

    hit: bool
    reason: str
    result: Optional[Dict[str, Any]] = None
    meta: Optional[Dict[str, Any]] = None


class ResultCache:
    """Cache keyed by (run content hash, seed, library version and code)."""

    def __init__(self, store: ArtifactStore, version: Optional[str] = None) -> None:
        self.store = store
        if version is None:
            version = f"{repro.__version__}+{_package_fingerprint()}"
        self.version = version

    def decide(self, runs: Sequence[RunSpec], force: bool = False) -> List[CacheDecision]:
        """One verdict per run, in order, from one listing of the store."""
        if force:
            return [CacheDecision(hit=False, reason=MISS_FORCED)] * len(runs)
        listed = self.store.run_hashes()
        return [self._decide(run, listed) for run in runs]

    def _decide(self, run: RunSpec, listed: Set[str]) -> CacheDecision:
        run_hash = run.run_hash
        record = self.store.try_read_json(run_hash) if run_hash in listed else None
        if record is None:
            return CacheDecision(hit=False, reason=MISS_ABSENT)
        meta = record["meta"]
        if meta.get("status") == "timeout":
            return CacheDecision(hit=False, reason=MISS_TIMEOUT, meta=meta)
        if meta.get("status") != "ok":
            return CacheDecision(hit=False, reason=MISS_FAILED, meta=meta)
        if meta.get("version") != self.version:
            return CacheDecision(hit=False, reason=MISS_VERSION, meta=meta)
        if meta.get("run_hash") != run_hash or meta.get("seed") != run.seed:
            return CacheDecision(hit=False, reason=MISS_STALE, meta=meta)
        return CacheDecision(hit=True, reason=HIT, result=record["result"], meta=meta)

    def commit(
        self,
        run: RunSpec,
        status: str,
        attempts: int,
        wall_sec: float,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Persist one executed run as one record; returns its ``meta``.

        The record's ``result`` is there only for successful runs and holds
        the experiment output alone — timing and attempt counts go to
        ``meta`` so cached and live results stay byte-identical.
        """
        run_hash = run.run_hash
        meta: Dict[str, Any] = {
            "run_hash": run_hash,
            "seed": run.seed,
            "version": self.version,
            "status": status,
            "attempts": attempts,
            "wall_sec": wall_sec,
        }
        if error is not None:
            meta["error"] = error
        record: Dict[str, Any] = {
            "spec": {
                **run.canonical(),  # kind, params, seed
                "name": run.name,
                "axes": run.axes,
                "derived_seed": run.derived_seed,
                "run_hash": run_hash,
            },
            "meta": meta,
        }
        if status == "ok":
            record["result"] = result
        self.store.write_json(run_hash, record)
        return meta


__all__ = [
    "CacheDecision",
    "ResultCache",
    "source_fingerprint",
    "HIT",
    "MISS_ABSENT",
    "MISS_FAILED",
    "MISS_FORCED",
    "MISS_STALE",
    "MISS_TIMEOUT",
    "MISS_VERSION",
]
