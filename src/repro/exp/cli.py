"""``python -m repro.exp`` — run, inspect, and collect experiment sweeps.

Three subcommands over one artifact store:

* ``run SPEC`` — expand the sweep, execute misses across a worker pool,
  print the per-cell table, and emit the ``BENCH_sweep.json`` perf
  trajectory (per-run wall seconds, cache-hit rate, parallel speedup).
  ``--min-hit-rate`` turns the hit rate into an exit-code assertion so CI
  can verify that a second invocation was served from cache.
* ``status SPEC`` — cache verdict per cell without executing anything.
* ``collect`` — merge every stored run into one JSON document.

This module is the only place in :mod:`repro.exp` that touches the wall
clock: it injects a real clock into the otherwise clock-free runner.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro.analysis.report import Table
from repro.exp.cache import ResultCache
from repro.exp.grid import RunSpec, expand
from repro.exp.runner import SweepReport, run_sweep, write_bench_json
from repro.exp.spec import ExperimentSpec, SpecError, load_spec
from repro.exp.store import ArtifactStore

BENCH_FILE = "BENCH_sweep.json"


def wall_clock() -> float:
    """Real elapsed-seconds clock, injected into the runner by the CLI.

    The one sanctioned wall-clock read in this package: front-ends may
    measure real time (same carve-out as ``repro.tools``).
    """
    return time.perf_counter()  # CLI timing only - simlint: disable=no-wallclock


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.exp",
        description="Declarative experiment sweeps: run, status, collect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a sweep (cache-aware)")
    run_cmd.add_argument("spec", help="path to a .toml or .json sweep spec")
    run_cmd.add_argument("--workers", type=int, default=1)
    run_cmd.add_argument(
        "--out", default=".",
        help="artifact store root (runs land under <out>/runs/)",
    )
    run_cmd.add_argument(
        "--force", action="store_true", help="re-execute every cell"
    )
    run_cmd.add_argument("--retries", type=int, default=1)
    run_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-run wall-clock limit; expired runs are killed and "
             "recorded with status 'timeout'",
    )
    run_cmd.add_argument(
        "--bench-json", default=None,
        help=f"perf-trajectory path (default <out>/{BENCH_FILE})",
    )
    run_cmd.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="exit non-zero unless cache hit rate >= this fraction",
    )
    run_cmd.add_argument("--quiet", action="store_true")

    status_cmd = sub.add_parser("status", help="cache verdict per sweep cell")
    status_cmd.add_argument("spec")
    status_cmd.add_argument("--out", default=".")

    collect_cmd = sub.add_parser("collect", help="merge stored runs to JSON")
    collect_cmd.add_argument("--out", default=".")
    collect_cmd.add_argument(
        "--output", default=None, help="write here instead of stdout"
    )
    return parser


def _load(path: str) -> ExperimentSpec:
    try:
        return load_spec(path)
    except SpecError as exc:
        raise SystemExit(f"repro.exp: {exc}")


def _print_report(report: SweepReport) -> None:
    table = Table(
        f"Sweep {report.name} [{report.sweep_hash}] — "
        f"{report.workers} worker(s)",
        ["cell", "status", "source", "attempts", "wall"],
    )
    for outcome in report.outcomes:
        table.add_row(
            outcome.run.describe(),
            outcome.status,
            "cache" if outcome.cached else "executed",
            outcome.attempts,
            f"{outcome.wall_sec:.2f}s",
        )
    table.print()
    speedup = report.speedup_vs_serial
    print(
        f"\n{report.runs_total} runs: {report.cache_hits} cached, "
        f"{report.executed} executed, {report.failures} failed"
        + (f" ({report.timeouts} timed out)" if report.timeouts else "")
        + f"; elapsed {report.elapsed_wall_sec:.2f}s"
        + (f", speedup vs serial {speedup:.2f}x" if speedup is not None else "")
    )


def sweep_exit_code(
    report: SweepReport, min_hit_rate: Optional[float], label: Callable[[RunSpec], str]
) -> int:
    """Exit code of a finished sweep; when it is not 0, stderr says why
    (``--quiet`` silences the report, never the reason for a failure)."""
    if report.failures:
        for outcome in report.outcomes:
            if not outcome.ok and outcome.error is not None:
                print(
                    f"FAILED {label(outcome.run)}: "
                    f"{outcome.error['type']}: {outcome.error['message']}",
                    file=sys.stderr,
                )
        return 1
    if min_hit_rate is not None and report.hit_rate < min_hit_rate:
        print(
            f"cache hit rate {report.hit_rate:.0%} below required {min_hit_rate:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    report = run_sweep(
        spec,
        store,
        workers=args.workers,
        clock=wall_clock,
        force=args.force,
        retries=args.retries,
        timeout_sec=args.timeout,
    )
    bench_path = (
        Path(args.bench_json) if args.bench_json else store.root / BENCH_FILE
    )
    write_bench_json(report, bench_path)
    if not args.quiet:
        _print_report(report)
        print(f"perf trajectory: {bench_path}")
    return sweep_exit_code(report, args.min_hit_rate, RunSpec.describe)


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    store = ArtifactStore(args.out)
    cache = ResultCache(store)
    table = Table(
        f"Sweep {spec.name} [{spec.sweep_hash}] — cache status",
        ["cell", "run", "verdict"],
    )
    hits = 0
    runs = expand(spec)
    for run in runs:
        decision = cache.lookup(run)
        hits += 1 if decision.hit else 0
        table.add_row(
            run.describe(),
            run.run_hash,
            "cached" if decision.hit else f"pending ({decision.reason})",
        )
    table.print()
    print(f"\n{hits}/{len(runs)} cells cached")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.out)
    document = json.dumps(store.collect(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(document + "\n")
    else:
        print(document)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    handlers = {"run": _cmd_run, "status": _cmd_status, "collect": _cmd_collect}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # stdout piped into a pager/head that quit
        return 0


__all__: List[Any] = ["build_parser", "main", "wall_clock", "BENCH_FILE"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
