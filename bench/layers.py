"""The file -> layer map, and cProfile output folded onto it.

Layers are the repository's modules.  ``PACKAGE_LAYERS`` names every
top-level package (or module) under ``src/repro`` explicitly, so a new
package fails ``bench/tests`` instead of silently landing in ``other``.
Packages that are split across layers list their exceptional files in
``FILE_LAYERS``; everything else in the package takes the package's layer.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

LAYERS: Tuple[str, ...] = (
    "sim", "block.device", "block.layer",
    "core.controller", "core.hierarchy", "core.donation", "core.other",
    "controllers", "cgroup", "workloads", "mm", "fs", "obs", "analysis",
    "testbed", "exp", "fleet", "faults", "sanitize", "other",
)

#: Top-level name under ``src/repro`` -> layer of its files by default.
PACKAGE_LAYERS: Dict[str, str] = {
    "sim": "sim",
    "block": "block.layer",
    "core": "core.other",
    "controllers": "controllers",
    "cgroup": "cgroup",
    "workloads": "workloads",
    "mm": "mm",
    "fs": "fs",
    "obs": "obs",
    "analysis": "analysis",
    "testbed.py": "testbed",
    "exp": "exp",
    "fleet": "fleet",
    "faults.py": "faults",
    "sanitize": "sanitize",
    # Developer tools (simlint, engine_bench, ...) and the package root are
    # not a layer of the simulated stack.
    "tools": "other",
    "__init__.py": "other",
}

#: Files whose layer differs from their package's default.
FILE_LAYERS: Dict[str, str] = {
    "block/device.py": "block.device",
    "block/device_models.py": "block.device",
    "core/controller.py": "core.controller",
    "core/hierarchy.py": "core.hierarchy",
    "core/donation.py": "core.donation",
}


def repro_root() -> str:
    """Directory of the imported ``repro`` package, with a trailing slash."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str, root: str) -> str:
    """The layer a profiled function's file belongs to (``root`` is
    :func:`repro_root`); files outside the package — stdlib, numpy, the
    benchmark itself, C builtins — are ``other``."""
    if not filename.startswith(root):
        return "other"
    relative = filename[len(root):].replace(os.sep, "/")
    if relative in FILE_LAYERS:
        return FILE_LAYERS[relative]
    return PACKAGE_LAYERS.get(relative.split("/", 1)[0], "other")


def fold_profile(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Per layer: profiled self seconds and call count of its functions."""
    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    root = repro_root()
    for (filename, _lineno, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        calls, _primitive, tottime = row[0], row[1], row[2]
        entry = folded[layer_of(filename, root)]
        entry["self_s"] += tottime
        entry["calls"] += calls
    return folded
