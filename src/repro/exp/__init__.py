"""Declarative experiment orchestration: spec -> expand -> run -> collect.

``repro.exp`` turns the hand-rolled "build a Testbed, run it, print a
table" pattern into a declarative pipeline:

* :mod:`repro.exp.spec` — the sweep document (kind, base params, seed,
  grid/zip axes) with canonical-JSON content hashing;
* :mod:`repro.exp.grid` — deterministic expansion into concrete runs,
  each with a content-derived RNG seed;
* :mod:`repro.exp.experiments` — the experiment-kind registry
  (``testbed``, ``profile_device``, ``vrate_phases``, ``mechanism_2to1``,
  or any dotted-path function);
* :mod:`repro.exp.runner` — process-pool execution with result caching,
  one retry, structured failures and the :class:`SweepReport`;
* :mod:`repro.exp.store` / :mod:`repro.exp.cache` — the on-disk artifact
  store (one record per run, ``runs/<hash>.json``) and the
  (content, seed, version)-keyed result cache over it;
* :mod:`repro.exp.cli` — ``python -m repro.exp run/status/collect``.

See ``docs/EXPERIMENTS_RUNNER.md`` for the spec format and cache layout,
and ``examples/sweep_qos_grid.py`` for a runnable sweep.
"""

from repro.exp.cache import CacheDecision, ResultCache
from repro.exp.experiments import ExperimentError, experiment, resolve
from repro.exp.grid import RunSpec, expand, set_by_path
from repro.exp.runner import (
    RunOutcome,
    RunnerError,
    SweepReport,
    run_sweep,
    write_bench_json,
    zero_clock,
)
from repro.exp.spec import (
    ExperimentSpec,
    SpecError,
    canonical_json,
    content_hash,
    load_spec,
)
from repro.exp.store import ArtifactStore, StoreError

__all__ = [
    "ArtifactStore",
    "CacheDecision",
    "ExperimentError",
    "ExperimentSpec",
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "RunnerError",
    "SpecError",
    "StoreError",
    "SweepReport",
    "canonical_json",
    "content_hash",
    "expand",
    "experiment",
    "load_spec",
    "resolve",
    "run_sweep",
    "set_by_path",
    "write_bench_json",
    "zero_clock",
]
