"""Shared helpers for the paper-regeneration benchmark harness.

Every module in this directory regenerates one table or figure from the
paper: it runs the (scaled-down) experiment inside the pytest-benchmark
fixture, prints the same rows/series the paper reports, and asserts the
qualitative *shape* — who wins, by roughly what factor — rather than
absolute numbers (the substrate is a simulator, not Meta's testbed).

A simulated figure is a sweep: its module's ``SPEC`` is an
:class:`~repro.exp.ExperimentSpec` whose kind is the figure's own
per-configuration function (``fn(params, seed)``, by dotted path) and
whose axes are the configurations its table prints.  :func:`run_figure`
runs it under pytest-benchmark, one worker per CPU, through one persistent
content-addressed store, :data:`STORE` (``.benchmarks/store`` at the
repository root, gitignored; one ``runs/<hash>.json`` record per cell,
Figs 18/19's task-duration cells included).  A cell is read back, not
simulated, while its spec and the ``repro`` and ``benchmarks`` sources
are unchanged: a second run of an unchanged tree executes no cell
(docs/EXPERIMENTS_RUNNER.md, "Figures are sweeps").

Run with:  pytest benchmarks/ -s
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

from repro.exp import ArtifactStore, ExperimentSpec, canonical_json, run_sweep

#: The figures' one result store, beside pytest-benchmark's .benchmarks.
STORE = ArtifactStore(Path(__file__).resolve().parent.parent / ".benchmarks" / "store")
WORKERS = os.cpu_count() or 1


def run_figure(benchmark, spec: ExperimentSpec) -> Dict[Any, Dict[str, Any]]:
    """Run ``spec`` once under pytest-benchmark through :data:`STORE`.

    Returns each cell's result in sweep order, keyed by its axis value (by
    the tuple of its values in sorted axis-name order when there are
    several, ``()`` when there are none).  A result reads as it does from
    the store whether the cell ran now or before, so a cached figure
    prints the same table.  A failed cell fails the figure.
    """
    report = benchmark.pedantic(
        run_sweep, args=(spec, STORE), kwargs={"workers": WORKERS},
        rounds=1, iterations=1,
    )
    failed = [outcome for outcome in report.outcomes if not outcome.ok]
    if failed:
        raise RuntimeError("; ".join(
            f"{spec.name} [{outcome.run.describe()}]: {outcome.error}"
            for outcome in failed
        ))
    results = {}
    for outcome in report.outcomes:
        key = tuple(outcome.run.axes[name] for name in sorted(outcome.run.axes))
        results[key[0] if len(key) == 1 else key] = json.loads(
            canonical_json(outcome.result)
        )
    return results
