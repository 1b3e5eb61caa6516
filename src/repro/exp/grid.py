"""Sweep expansion: spec -> ordered list of concrete runs.

:func:`expand` turns one :class:`~repro.exp.spec.ExperimentSpec` into the
flat list of :class:`RunSpec` cells the runner executes.  Expansion is
fully deterministic: grid axes iterate in sorted-name order (outermost
first), values in the order the spec gives them, and zip rows — all zip
axes advanced in lockstep — form the innermost loop.  The cell order
therefore never depends on dict insertion order or worker count, which
the byte-identical-results contract relies on.

Each cell's identity is its content: ``run_hash`` digests ``(kind,
params, seed)`` after overrides are applied, so editing one axis value
changes exactly the hashes of the cells that contain it.  The per-run RNG
entropy derives from the same content (see
:func:`repro.exp.spec.seed_entropy`), making every run reproducible in
isolation — the cache and the pool can replay or skip cells in any order.
A cell canonicalises and digests its content once, when it is made:
``run_hash`` and ``derived_seed`` are the same first 8 bytes of one
SHA-256, kept on the instance, so its params must not change afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, MutableMapping, Sequence, Tuple

from repro.exp.spec import ExperimentSpec, SpecError, content_key


def set_by_path(tree: MutableMapping[str, Any], path: str, value: Any) -> None:
    """Set ``tree[a][b][c] = value`` for dotted ``path`` ``"a.b.c"``.

    Intermediate mappings are created on demand; an integer-looking
    segment indexes a list (``"workloads.0.depth"``).  A segment that
    lands on a non-container raises :class:`SpecError` rather than
    silently clobbering structure the experiment function expects.
    """
    parts = path.split(".")
    node: Any = tree
    for index, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            node = _index_list(node, part, path)
        elif isinstance(node, MutableMapping):
            if part not in node:
                node[part] = {}
            node = node[part]
        else:
            raise SpecError(
                f"axis path {path!r}: segment {'.'.join(parts[:index + 1])!r} "
                f"traverses a {type(node).__name__}, not a mapping/list"
            )
    leaf = parts[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, path)] = value
    elif isinstance(node, MutableMapping):
        node[leaf] = value
    else:
        raise SpecError(
            f"axis path {path!r} lands inside a {type(node).__name__}, "
            "not a mapping/list"
        )


def _list_index(node: List[Any], part: str, path: str) -> int:
    try:
        index = int(part)
    except ValueError:
        raise SpecError(
            f"axis path {path!r}: list segment {part!r} is not an index"
        ) from None
    if not -len(node) <= index < len(node):
        raise SpecError(f"axis path {path!r}: index {index} out of range")
    return index


def _index_list(node: List[Any], part: str, path: str) -> Any:
    return node[_list_index(node, part, path)]


@dataclass(frozen=True)
class RunSpec:
    """One concrete sweep cell: fully-resolved params plus provenance."""

    name: str
    kind: str
    params: Dict[str, Any]
    axes: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: ``content_key`` of :meth:`canonical`, taken once at creation.
    _key: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", content_key(self.canonical()))

    def canonical(self) -> Dict[str, Any]:
        """The content that *is* this run — what the hash and seed digest.

        Axes are provenance (already folded into ``params``), the name is
        presentation; neither belongs in the identity.
        """
        return {"kind": self.kind, "params": self.params, "seed": self.seed}

    @property
    def run_hash(self) -> str:
        return self._key.hex()

    @property
    def derived_seed(self) -> int:
        """Per-run RNG entropy, a pure function of the run's content."""
        return int.from_bytes(self._key, "big")

    def describe(self) -> str:
        """Short human label: the axis values, or the hash when axis-free."""
        if not self.axes:
            return self.run_hash
        return " ".join(f"{key}={self.axes[key]}" for key in sorted(self.axes))


def _copy(tree: Any) -> Any:
    """A deep copy of a JSON-shaped tree (dicts, lists, tuples, scalars):
    what a spec's base and axis values are, as canonical JSON requires."""
    if isinstance(tree, dict):
        return {key: _copy(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_copy(value) for value in tree]
    if isinstance(tree, tuple):
        return tuple(_copy(value) for value in tree)
    return tree


def expand(spec: ExperimentSpec) -> List[RunSpec]:
    """Expand a spec into its ordered list of concrete runs.

    Grid axes form a Cartesian product (sorted axis names, outermost
    first); zip axes advance together as the innermost loop.  A spec with
    no axes expands to exactly one run.
    """
    grid_names = sorted(spec.grid)
    grid_values: Sequence[Tuple[Any, ...]] = [spec.grid[n] for n in grid_names]
    zip_names = sorted(spec.zip_axes)
    if zip_names:
        zip_rows = list(zip(*(spec.zip_axes[n] for n in zip_names)))
    else:
        zip_rows = [()]

    runs: List[RunSpec] = []
    for cell in itertools.product(*grid_values):
        for row in zip_rows:
            params = _copy(dict(spec.base))
            axes: Dict[str, Any] = {}
            for axis, value in itertools.chain(
                zip(grid_names, cell), zip(zip_names, row)
            ):
                set_by_path(params, axis, _copy(value))
                axes[axis] = value
            runs.append(
                RunSpec(
                    name=spec.name,
                    kind=spec.kind,
                    params=params,
                    axes=axes,
                    seed=spec.seed,
                )
            )
    return runs


__all__ = ["RunSpec", "expand", "set_by_path"]
