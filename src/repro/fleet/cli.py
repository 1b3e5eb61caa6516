"""``python -m repro.fleet`` — run, inspect, and roll up fleet simulations.

Four subcommands over one artifact store (shared with ``repro.exp`` —
fleet host runs are ordinary content-addressed runs):

* ``run SPEC`` — place the fleet, shard host simulations across the
  worker pool, write ``fleet_rollup.json`` + ``fleet_plan.json``, and
  append a schema-versioned entry to the ``BENCH_fleet.json`` trajectory
  (hosts/sec).  ``--min-hit-rate`` turns the cache hit rate into an exit
  code for CI's run-twice check.
* ``status SPEC`` — per-host cache verdicts without executing anything.
* ``rollup SPEC`` — recompute the rollup from cached host results only.
* ``migrate SPEC`` — the Figures 18/19 staged-migration reproduction;
  writes ``fleet_migration.json`` and prints the weekly failure table.

Like ``repro.exp.cli``, this front-end is the only wall-clock consumer in
the package: it injects the real clock into the clock-free runner.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import Table
from repro.exp.cache import ResultCache
from repro.exp.cli import sweep_exit_code, wall_clock
from repro.exp.grid import expand
from repro.exp.spec import SpecError, canonical_json
from repro.exp.store import ArtifactStore
from repro.fleet.rollup import fleet_rollup
from repro.fleet.runner import (
    FleetReport,
    FleetRunnerError,
    MigrationReport,
    fleet_sweep_spec,
    run_fleet_sweep,
    run_staged_migration,
)
from repro.fleet.scheduler import FleetScheduler, group_capacities
from repro.fleet.spec import FleetSpec, load_fleet_spec

ROLLUP_FILE = "fleet_rollup.json"
PLAN_FILE = "fleet_plan.json"
MIGRATION_FILE = "fleet_migration.json"
BENCH_FILE = "BENCH_fleet.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.fleet",
        description="Cluster-scale simulation: run, status, rollup, migrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("spec", help="path to a .toml or .json fleet spec")
        cmd.add_argument(
            "--out", default=".",
            help="artifact store root (host runs land under <out>/runs/)",
        )

    run_cmd = sub.add_parser("run", help="simulate the fleet (cache-aware)")
    common(run_cmd)
    run_cmd.add_argument("--workers", type=int, default=1)
    run_cmd.add_argument(
        "--force", action="store_true", help="re-simulate every host"
    )
    run_cmd.add_argument("--retries", type=int, default=1)
    run_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-host wall-clock limit (expired hosts are killed)",
    )
    run_cmd.add_argument(
        "--policy-pass", action="append", default=[],
        choices=["consolidate", "balance"], dest="policy_passes",
        help="rebalancing pass(es) applied after placement, in order",
    )
    run_cmd.add_argument(
        "--bench-json", default=None,
        help=f"trajectory path to append to (default <out>/{BENCH_FILE})",
    )
    run_cmd.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="exit non-zero unless cache hit rate >= this fraction",
    )
    run_cmd.add_argument("--quiet", action="store_true")

    status_cmd = sub.add_parser("status", help="per-host cache verdicts")
    common(status_cmd)

    rollup_cmd = sub.add_parser(
        "rollup", help="recompute the rollup from cached host results"
    )
    common(rollup_cmd)
    rollup_cmd.add_argument(
        "--output", default=None, help="write here instead of stdout"
    )

    migrate_cmd = sub.add_parser(
        "migrate", help="staged-migration reproduction (Figures 18/19)"
    )
    common(migrate_cmd)
    migrate_cmd.add_argument("--workers", type=int, default=1)
    migrate_cmd.add_argument("--force", action="store_true")
    migrate_cmd.add_argument("--retries", type=int, default=1)
    migrate_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SEC"
    )
    migrate_cmd.add_argument("--quiet", action="store_true")
    return parser


def _load(path: str) -> FleetSpec:
    try:
        return load_fleet_spec(path)
    except SpecError as exc:
        raise SystemExit(f"repro.fleet: {exc}")


def _write_json(path: Path, payload: Any) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(canonical_json(payload) + "\n")
    tmp.replace(path)
    return path


def append_bench_entry(path: Path, entry: Dict[str, Any]) -> Path:
    """Append one entry to a trajectory file (a JSON list, like
    ``BENCH_engine.json``)."""
    history: List[Any] = []
    if path.is_file():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except json.JSONDecodeError:
            history = []
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def _print_fleet_report(report: FleetReport) -> None:
    table = Table(
        f"Fleet {report.fleet} [{report.fleet_hash}] — "
        f"{report.hosts_total} hosts, {report.sweep.workers} worker(s)",
        ["host", "status", "source", "wall"],
    )
    for outcome in report.sweep.outcomes:
        host = outcome.run.params["host"]
        table.add_row(
            host["id"],
            outcome.status,
            "cache" if outcome.cached else "executed",
            f"{outcome.wall_sec:.2f}s",
        )
    table.print()
    rate = report.hosts_per_sec
    print(
        f"\n{report.sweep.runs_total} hosts: {report.sweep.cache_hits} cached, "
        f"{report.sweep.executed} executed, {report.sweep.failures} failed; "
        f"elapsed {report.sweep.elapsed_wall_sec:.2f}s"
        + (f", {rate:.1f} hosts/s" if rate is not None else "")
    )


def _print_migration_report(report: MigrationReport) -> None:
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


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    try:
        report = run_fleet_sweep(
            spec,
            store,
            workers=args.workers,
            clock=wall_clock,
            force=args.force,
            retries=args.retries,
            timeout_sec=args.timeout,
            policies=tuple(args.policy_passes),
        )
    except FleetRunnerError as exc:
        raise SystemExit(f"repro.fleet: {exc}")
    rollup_path = _write_json(store.root / ROLLUP_FILE, report.rollup)
    _write_json(store.root / PLAN_FILE, report.plan)
    bench_path = append_bench_entry(
        Path(args.bench_json) if args.bench_json else store.root / BENCH_FILE,
        report.to_bench_dict(),
    )
    if not args.quiet:
        _print_fleet_report(report)
        print(f"rollup: {rollup_path}")
        print(f"trajectory: {bench_path}")
    return sweep_exit_code(
        report.sweep, args.min_hit_rate, lambda run: run.params["host"]["id"]
    )


def _scheduled(spec: FleetSpec) -> FleetScheduler:
    scheduler = FleetScheduler(spec, group_capacities(spec))
    scheduler.place()
    return scheduler


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    cache = ResultCache(store)
    scheduler = _scheduled(spec)
    table = Table(
        f"Fleet {spec.name} [{spec.fleet_hash}] — cache status",
        ["host", "run", "verdict"],
    )
    hits = 0
    runs = expand(fleet_sweep_spec(spec, scheduler))
    for run in runs:
        decision = cache.lookup(run)
        hits += 1 if decision.hit else 0
        table.add_row(
            run.params["host"]["id"],
            run.run_hash,
            "cached" if decision.hit else f"pending ({decision.reason})",
        )
    table.print()
    print(f"\n{hits}/{len(runs)} hosts cached")
    return 0


def _cmd_rollup(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    cache = ResultCache(store)
    scheduler = _scheduled(spec)
    results: Dict[str, Dict[str, Any]] = {}
    for run in expand(fleet_sweep_spec(spec, scheduler)):
        decision = cache.lookup(run)
        if decision.hit and decision.result is not None:
            results[str(run.params["host"]["id"])] = decision.result
    rollup = fleet_rollup(scheduler.plan(), results, spec.percentiles)
    document = canonical_json(rollup)
    if args.output:
        _write_json(Path(args.output), rollup)
    else:
        print(document)
    missing = rollup["hosts"]["missing"]
    if missing:
        print(f"repro.fleet: {len(missing)} host(s) not cached yet")
        return 1
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    try:
        report = run_staged_migration(
            spec,
            store,
            workers=args.workers,
            clock=wall_clock,
            force=args.force,
            retries=args.retries,
            timeout_sec=args.timeout,
        )
    except FleetRunnerError as exc:
        raise SystemExit(f"repro.fleet: {exc}")
    path = _write_json(store.root / MIGRATION_FILE, report.to_dict())
    if not args.quiet:
        _print_migration_report(report)
        print(f"\nmigration report: {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    handlers = {
        "run": _cmd_run,
        "status": _cmd_status,
        "rollup": _cmd_rollup,
        "migrate": _cmd_migrate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # stdout piped into a pager/head that quit
        return 0


__all__ = [
    "BENCH_FILE",
    "MIGRATION_FILE",
    "PLAN_FILE",
    "ROLLUP_FILE",
    "append_bench_entry",
    "build_parser",
    "main",
]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
