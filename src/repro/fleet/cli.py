"""``python -m repro.fleet`` — run, inspect, and roll up fleet simulations.

Four subcommands over one artifact store (shared with ``repro.exp`` —
fleet host runs are ordinary content-addressed runs):

* ``run SPEC`` — place the fleet, shard host simulations across the
  worker pool, write ``fleet_rollup.json`` + ``fleet_plan.json`` and the
  same ``BENCH_sweep.json`` sweep report ``repro.exp run`` writes (one row
  per host).  ``--min-hit-rate`` turns the cache hit rate into an exit
  code for CI's run-twice check.
* ``status SPEC`` — per-host cache verdicts without executing anything.
* ``rollup SPEC`` — recompute the rollup from cached host results only.
* ``migrate SPEC`` — the Figures 18/19 staged-migration reproduction;
  writes ``fleet_migration.json`` and prints the weekly failure table.

``run``, ``status`` and ``rollup`` all place the fleet through
:func:`repro.fleet.runner.placed`, so they talk about the same cached hosts.

Everything that is not fleet-specific — argument groups, the run and
status tables, the report writer, and the dispatcher that turns a bad spec
or runner option into a one-line exit — is :mod:`repro.exp.cli`'s; this
module is the four handlers and the migration table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.analysis.report import Table
from repro.exp.cache import ResultCache
from repro.exp.cli import (
    add_report_args,
    add_runner_args,
    add_spec_args,
    dispatch,
    finish_run,
    print_status,
    runner_kwargs,
)
from repro.exp.grid import RunSpec, expand
from repro.exp.spec import canonical_json
from repro.exp.store import ArtifactStore, write_json
from repro.fleet.rollup import fleet_rollup
from repro.fleet.runner import (
    fleet_sweep_spec,
    placed,
    run_fleet_sweep,
    run_staged_migration,
)
from repro.fleet.spec import load_fleet_spec

PROG = "repro.fleet"
ROLLUP_FILE = "fleet_rollup.json"
PLAN_FILE = "fleet_plan.json"
MIGRATION_FILE = "fleet_migration.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Cluster-scale simulation: run, status, rollup, migrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="simulate the fleet (cache-aware)")
    add_spec_args(run_cmd, "fleet")
    add_runner_args(run_cmd)
    add_report_args(run_cmd)

    status_cmd = sub.add_parser("status", help="per-host cache verdicts")
    add_spec_args(status_cmd, "fleet")

    rollup_cmd = sub.add_parser(
        "rollup", help="recompute the rollup from cached host results"
    )
    add_spec_args(rollup_cmd, "fleet")
    rollup_cmd.add_argument(
        "--output", default=None, help="write here instead of stdout"
    )

    migrate_cmd = sub.add_parser(
        "migrate", help="staged-migration reproduction (Figures 18/19)"
    )
    add_spec_args(migrate_cmd, "fleet")
    add_runner_args(migrate_cmd)
    return parser


def _host_id(run: RunSpec) -> str:
    return str(run.params["host"]["id"])


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_fleet_spec(args.spec)
    store = ArtifactStore(args.out)
    report = run_fleet_sweep(spec, store, **runner_kwargs(args))
    rollup_path = write_json(store.root / ROLLUP_FILE, report.rollup)
    write_json(store.root / PLAN_FILE, report.plan)
    code = finish_run(
        report.sweep, args,
        f"Fleet {report.fleet} [{report.fleet_hash}] — "
        f"{report.hosts_total} hosts, {args.workers} worker(s)",
        "host", _host_id,
    )
    if not args.quiet:
        print(f"rollup: {rollup_path}")
    return code


def _cmd_status(args: argparse.Namespace) -> int:
    spec = load_fleet_spec(args.spec)
    scheduler = placed(spec)
    return print_status(
        f"Fleet {spec.name} [{spec.fleet_hash}]",
        expand(fleet_sweep_spec(spec, scheduler)),
        ArtifactStore(args.out), "host", _host_id,
    )


def _cmd_rollup(args: argparse.Namespace) -> int:
    spec = load_fleet_spec(args.spec)
    cache = ResultCache(ArtifactStore(args.out))
    scheduler = placed(spec)
    results: Dict[str, Dict[str, Any]] = {}
    for run in expand(fleet_sweep_spec(spec, scheduler)):
        decision = cache.lookup(run)
        if decision.hit and decision.result is not None:
            results[_host_id(run)] = decision.result
    rollup = fleet_rollup(scheduler.plan(), results, spec.percentiles)
    if args.output:
        write_json(Path(args.output), rollup)
    else:
        print(canonical_json(rollup))
    missing = rollup["hosts"]["missing"]
    if missing:
        # stderr: stdout must stay parseable as the JSON document alone.
        print(f"{PROG}: {len(missing)} host(s) not cached yet", file=sys.stderr)
        return 1
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    spec = load_fleet_spec(args.spec)
    store = ArtifactStore(args.out)
    report = run_staged_migration(spec, store, **runner_kwargs(args))
    path = write_json(store.root / MIGRATION_FILE, report.to_dict())
    if not args.quiet:
        table = Table(
            f"Staged migration {report.from_controller} -> {report.to_controller} "
            f"({report.task}, deadline {report.deadline:g}s)",
            ["week", "scheduled", "hosts migrated", "attempts", "failures", "rate"],
        )
        for week in report.weeks:
            table.add_row(
                week.week,
                f"{week.scheduled_fraction:.0%}",
                week.migrated_hosts,
                week.attempts,
                week.failures,
                f"{week.failure_rate:.2%}",
            )
        table.print()
        print(f"\nmigration report: {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(
        build_parser(),
        {
            "run": _cmd_run,
            "status": _cmd_status,
            "rollup": _cmd_rollup,
            "migrate": _cmd_migrate,
        },
        argv,
    )


__all__ = [
    "MIGRATION_FILE",
    "PLAN_FILE",
    "ROLLUP_FILE",
    "build_parser",
    "main",
]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
