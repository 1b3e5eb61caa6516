"""On-disk artifact store: one record per run, ``runs/<run-hash>.json``.

The store is the durable half of the orchestrator.  Every executed run
lands as one file named by its content hash, holding three documents:

* ``spec`` — the resolved run (kind, params, seed, axes, hashes);
* ``meta`` — everything about *how* the run went: library version,
  status, attempts, wall seconds (from the injected clock), failure info;
* ``result`` — the experiment function's return value and nothing else,
  present exactly when the status is ``"ok"``.  Its canonical bytes
  (:meth:`ArtifactStore.result_bytes`) are identical across pool sizes and
  re-runs by construction.

An optional tracepoint capture (one event per line, :mod:`repro.obs.trace`
format, replayable) lands beside the record as ``<run-hash>.trace.jsonl``.

A file is written whole (its own temp file + ``os.replace``), so a killed
sweep never leaves half a record that a later sweep would mistake for a
cache hit, and two sweeps sharing a store may commit one run at once.

A sweep lists ``runs/`` once (:meth:`ArtifactStore.run_hashes`) and opens
only the records listed, so a record that a concurrent sweep commits after
the listing is a miss: the run executes again and commits identical
``spec`` and ``result`` bytes, as two sweeps that both looked first did.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.exp.spec import canonical_json

_RECORD = ".json"
_TRACE = ".trace.jsonl"


class StoreError(RuntimeError):
    """Raised for unusable store state (bad root, unreadable records)."""


_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def _write_atomic(path: Path, text: str) -> Path:
    # A temp name of this writer's own, which no reader lists: with one fixed
    # name, a second writer's half-written file could be renamed into place.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, _CREATE, 0o666)
    except FileNotFoundError:  # the directory's first file
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, _CREATE, 0o666)
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:  # a short write is finished, never dropped
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


def write_json(path: Path, payload: Any) -> Path:
    """Write ``payload`` as canonical JSON (stable bytes) plus newline.

    The one atomic JSON writer: run records, the sweep report and the
    fleet plan / rollup / migration documents all land through here.
    """
    return _write_atomic(path, canonical_json(payload) + "\n")


class ArtifactStore:
    """Filesystem artifact store rooted at ``<root>/runs``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.runs_root = self.root / "runs"

    # -- paths ---------------------------------------------------------------

    def _file(self, run_hash: str, suffix: str) -> Path:
        if not run_hash or "/" in run_hash or run_hash.startswith("."):
            raise StoreError(f"invalid run hash {run_hash!r}")
        return self.runs_root / (run_hash + suffix)

    def path(self, run_hash: str) -> Path:
        """The run's record, ``runs/<run-hash>.json``."""
        return self._file(run_hash, _RECORD)

    def trace_path(self, run_hash: str) -> Path:
        return self._file(run_hash, _TRACE)

    # -- writes (atomic) -----------------------------------------------------

    def write_json(self, run_hash: str, record: Dict[str, Any]) -> Path:
        return write_json(self.path(run_hash), record)

    def write_trace(self, run_hash: str, lines: Iterable[str]) -> Path:
        return _write_atomic(
            self.trace_path(run_hash), "".join(line + "\n" for line in lines)
        )

    # -- reads ---------------------------------------------------------------

    def try_read_json(self, run_hash: str) -> Optional[Dict[str, Any]]:
        """The run's record, or ``None`` if absent, corrupt or no record:
        one needs ``spec`` and ``meta`` objects, and a ``result`` exactly
        when the run succeeded.  Such a file (interrupted machine, manual
        edit) reads as a cache miss, not an error: the run re-executes.
        """
        try:
            record = json.loads(self.path(run_hash).read_bytes())
        except (OSError, ValueError):
            return None
        meta = record.get("meta") if isinstance(record, dict) else None
        if not isinstance(meta, dict) or not isinstance(record.get("spec"), dict):
            return None
        return record if ("result" in record) == (meta.get("status") == "ok") else None

    def read_json(self, run_hash: str) -> Dict[str, Any]:
        record = self.try_read_json(run_hash)
        if record is None:
            raise StoreError(f"missing or unreadable record for {run_hash}")
        return record

    def result_bytes(self, run_hash: str) -> bytes:
        """Canonical bytes of the record's ``result`` — what determinism
        tests compare."""
        record = self.read_json(run_hash)
        if "result" not in record:
            raise StoreError(f"no result for {run_hash}")
        return canonical_json(record["result"]).encode()

    # -- enumeration ---------------------------------------------------------

    def run_hashes(self) -> Set[str]:
        """Hashes of every record (not traces or temp files), from one
        listing of ``runs/``: what a lookup may open."""
        try:
            names = os.listdir(self.runs_root)
        except FileNotFoundError:  # nothing committed yet
            return set()
        return {n[: -len(_RECORD)] for n in names if n.endswith(_RECORD) and n[0] != "."}

    def list_runs(self) -> List[str]:
        """Hashes of every record, sorted (not traces or temp files)."""
        return sorted(self.run_hashes())

    def collect(self) -> List[Dict[str, Any]]:
        """Merge every record into one machine-readable listing (``None``
        documents for a record that does not read)."""
        collected: List[Dict[str, Any]] = []
        for run_hash in self.list_runs():
            record = self.try_read_json(run_hash) or {}
            collected.append({
                "run": run_hash,
                **{name: record.get(name) for name in ("spec", "meta", "result")},
            })
        return collected


__all__ = [
    "ArtifactStore",
    "StoreError",
    "write_json",
]
