"""On-disk artifact store: ``runs/<run-hash>/{spec,result,meta,trace}``.

The store is the durable half of the orchestrator.  Every executed run
lands as one directory named by its content hash:

* ``spec.json`` — the resolved run (kind, params, seed, axes, hashes);
* ``result.json`` — canonical JSON of the experiment function's return
  value, and nothing else: no timestamps, no worker ids, no attempt
  counts.  Byte-identical across pool sizes and re-runs by construction.
* ``meta.json`` — everything about *how* the run went: library version,
  status, attempts, wall seconds (from the injected clock), failure info.
* ``trace.jsonl`` — optional tracepoint capture (one event per line,
  :mod:`repro.obs.trace` format, replayable).

Writes are atomic (temp file + ``os.replace`` in the same directory) so
a killed sweep never leaves a half-written result that a later sweep
would mistake for a cache hit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.exp.spec import canonical_json

SPEC_FILE = "spec.json"
RESULT_FILE = "result.json"
META_FILE = "meta.json"
TRACE_FILE = "trace.jsonl"


class StoreError(RuntimeError):
    """Raised for unusable store state (bad root, unreadable artifacts)."""


def _write_atomic(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def write_json(path: Path, payload: Any) -> Path:
    """Write ``payload`` as canonical JSON (stable bytes) plus newline.

    The one atomic JSON writer: run artifacts, the sweep report and the
    fleet plan / rollup / migration documents all land through here.
    """
    return _write_atomic(path, canonical_json(payload) + "\n")


class ArtifactStore:
    """Filesystem artifact store rooted at ``<root>/runs``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.runs_root = self.root / "runs"

    # -- paths ---------------------------------------------------------------

    def run_dir(self, run_hash: str) -> Path:
        if not run_hash or "/" in run_hash or run_hash.startswith("."):
            raise StoreError(f"invalid run hash {run_hash!r}")
        return self.runs_root / run_hash

    def path(self, run_hash: str, filename: str) -> Path:
        return self.run_dir(run_hash) / filename

    def has(self, run_hash: str, filename: str) -> bool:
        return self.path(run_hash, filename).is_file()

    # -- writes (atomic) -----------------------------------------------------

    def write_json(self, run_hash: str, filename: str, payload: Any) -> Path:
        return write_json(self.path(run_hash, filename), payload)

    def write_lines(
        self, run_hash: str, filename: str, lines: Iterable[str]
    ) -> Path:
        return _write_atomic(
            self.path(run_hash, filename),
            "".join(line + "\n" for line in lines),
        )

    # -- reads ---------------------------------------------------------------

    def try_read_json(self, run_hash: str, filename: str) -> Optional[Any]:
        """Parse one artifact, or ``None`` if absent/corrupt.

        A corrupt artifact (interrupted machine, manual edit) reads as a
        cache miss, not an error: the runner will simply re-execute.
        """
        path = self.path(run_hash, filename)
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def read_json(self, run_hash: str, filename: str) -> Any:
        payload = self.try_read_json(run_hash, filename)
        if payload is None:
            raise StoreError(f"missing or unreadable {filename} for {run_hash}")
        return payload

    def result_bytes(self, run_hash: str) -> bytes:
        """Raw ``result.json`` bytes — what determinism tests compare."""
        path = self.path(run_hash, RESULT_FILE)
        if not path.is_file():
            raise StoreError(f"no result for {run_hash}")
        return path.read_bytes()

    # -- enumeration ---------------------------------------------------------

    def list_runs(self) -> List[str]:
        """Hashes of every run directory, sorted."""
        if not self.runs_root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.runs_root.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def collect(self) -> List[Dict[str, Any]]:
        """Merge every stored run into one machine-readable listing."""
        collected: List[Dict[str, Any]] = []
        for run_hash in self.list_runs():
            entry: Dict[str, Any] = {
                "run": run_hash,
                "spec": self.try_read_json(run_hash, SPEC_FILE),
                "meta": self.try_read_json(run_hash, META_FILE),
                "result": self.try_read_json(run_hash, RESULT_FILE),
            }
            collected.append(entry)
        return collected


__all__ = [
    "ArtifactStore",
    "StoreError",
    "META_FILE",
    "RESULT_FILE",
    "SPEC_FILE",
    "TRACE_FILE",
    "write_json",
]
