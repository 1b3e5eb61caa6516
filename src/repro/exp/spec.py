"""Declarative experiment specs: parse, validate, canonicalise, hash.

An :class:`ExperimentSpec` describes a whole sweep — the experiment kind
(a registered function in :mod:`repro.exp.experiments`), the base
parameter tree handed to that function, the machine seed, and the sweep
axes.  Two axis families exist, mirroring fio's job expansion and every
hyper-parameter search tool since:

* ``grid`` — the Cartesian product of every axis (2 devices x 2
  controllers x 2 weights = 8 cells);
* ``zip`` — axes iterated in lockstep (paired values, one cell per row).

Axis names are dotted paths into ``base`` (``"device"``,
``"qos.read_lat_target"``, ``"workloads.0.depth"``), applied by
:func:`repro.exp.grid.set_by_path`.

Hashing is content-addressed: :func:`canonical_json` renders any spec or
run to one byte string (sorted keys, compact separators, ``allow_nan``
off so a NaN can never silently poison a cache key) and
:func:`content_hash` digests it.  Everything downstream — the artifact
store layout, the result cache, per-run seeds — keys off these hashes,
which is what makes re-running a sweep after editing one axis re-execute
only the changed cells.

Specs load from plain dicts, JSON files, or TOML files (TOML needs
``tomllib``, Python >= 3.11, or a ``tomli`` backport; JSON always works).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union


class SpecError(ValueError):
    """Raised for malformed experiment specs or sweep axes."""


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, compact, no NaN.

    The byte string is the content-addressed identity of specs, runs and
    results, so it must be stable across processes, Python versions and
    dict insertion orders.
    """
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec is not canonically serialisable: {exc}") from exc


def content_key(obj: Any) -> bytes:
    """The first 8 bytes of the SHA-256 of ``obj``'s canonical JSON: what
    :func:`content_hash` and :func:`seed_entropy` both read."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).digest()[:8]


def content_hash(obj: Any) -> str:
    """Hex content hash (sha256, 16 hex chars) of ``obj``'s canonical JSON."""
    return content_key(obj).hex()


def seed_entropy(obj: Any) -> int:
    """Derive deterministic ``SeedSequence`` entropy from ``obj``'s content.

    Independent of scheduling, worker count, and sweep-cell order: the
    entropy depends only on what the run *is*.
    """
    return int.from_bytes(content_key(obj), "big")


def _check_axes(axes: Mapping[str, Any], family: str) -> Dict[str, Tuple[Any, ...]]:
    out: Dict[str, Tuple[Any, ...]] = {}
    for name, values in axes.items():
        if not isinstance(name, str) or not name:
            raise SpecError(f"{family} axis names must be non-empty strings")
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(
                f"{family} axis {name!r} must be a non-empty list of values"
            )
        out[name] = tuple(values)
    return out


def parse_int(value: Any, what: str) -> int:
    """A spec document's integer field: ``inf``, ``"abc"`` and ``1.7``
    (which ``int()`` would truncate to 1) are a :class:`SpecError`."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{what} must be an int, got {value!r}") from None
    if number != value and isinstance(value, float):
        raise SpecError(f"{what} must be an int, got {value!r}")
    return number


def _table(data: Mapping[str, Any], key: str) -> Dict[str, Any]:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        raise SpecError(f"{key!r} must be a table, got {value!r}")
    return dict(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative sweep: kind + base params + seed + axes.

    ``name`` is presentation-only (reports, CLI); it is deliberately
    excluded from content hashes so renaming a sweep never invalidates
    its cache.
    """

    name: str
    kind: str = "testbed"
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    zip_axes: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("spec needs a non-empty name")
        if not self.kind:
            raise SpecError("spec needs an experiment kind")
        if not isinstance(self.seed, int):
            raise SpecError("seed must be an int")
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(self, "grid", _check_axes(self.grid, "grid"))
        object.__setattr__(self, "zip_axes", _check_axes(self.zip_axes, "zip"))
        overlap = set(self.grid) & set(self.zip_axes)
        if overlap:
            raise SpecError(f"axes in both grid and zip: {sorted(overlap)}")
        lengths = {len(values) for values in self.zip_axes.values()}
        if len(lengths) > 1:
            raise SpecError(
                "zip axes must all have the same length, got "
                f"{sorted(lengths)}"
            )
        # Fail early if any part cannot be content-addressed.
        canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain mapping (the TOML/JSON document shape)."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec document must be a mapping, got {type(data).__name__}")
        known = {"name", "kind", "base", "grid", "zip", "seed"}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        if "name" not in data:
            raise SpecError("spec document needs a 'name'")
        return cls(
            name=str(data["name"]),
            kind=str(data.get("kind", "testbed")),
            base=_table(data, "base"),
            grid=_table(data, "grid"),
            zip_axes=_table(data, "zip"),
            seed=parse_int(data.get("seed", 0), "seed"),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The round-trippable document form (``zip_axes`` back to ``zip``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "base": dict(self.base),
            "grid": {name: list(values) for name, values in self.grid.items()},
            "zip": {name: list(values) for name, values in self.zip_axes.items()},
            "seed": self.seed,
        }

    @property
    def sweep_hash(self) -> str:
        """Content hash of the whole sweep (name excluded — see class doc)."""
        doc = self.to_dict()
        del doc["name"]
        return content_hash(doc)


def _load_toml(path: Path) -> Dict[str, Any]:
    try:
        import tomllib as toml_reader  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
        try:
            import tomli as toml_reader  # type: ignore[no-redef]
        except ImportError:
            raise SpecError(
                f"cannot read {path}: TOML support needs Python >= 3.11 "
                "(tomllib) or the 'tomli' package; use a .json spec instead"
            ) from None
    with path.open("rb") as handle:
        try:
            return toml_reader.load(handle)
        except toml_reader.TOMLDecodeError as exc:
            raise SpecError(f"{path}: {exc}") from None


def load_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a ``.toml``/``.json`` spec document into a plain mapping.

    The shared front door for every declarative spec format in the repo:
    experiment sweeps here, cluster specs in :mod:`repro.fleet.spec`.
    """
    path = Path(path)
    if not path.is_file():
        raise SpecError(f"no such spec file: {path}")
    if path.suffix == ".toml":
        return _load_toml(path)
    if path.suffix == ".json":
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: {exc}") from None
        if not isinstance(document, dict):
            raise SpecError(f"{path}: spec document must be a JSON object")
        return document
    raise SpecError(
        f"unsupported spec extension {path.suffix!r} (want .toml or .json)"
    )


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load a spec document from a ``.toml`` or ``.json`` file."""
    document = load_document(path)
    try:
        return ExperimentSpec.from_dict(document)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


__all__ = [
    "ExperimentSpec",
    "SpecError",
    "canonical_json",
    "content_hash",
    "content_key",
    "load_document",
    "load_spec",
    "parse_int",
    "seed_entropy",
]
