"""``python -m repro.exp`` — run, inspect, and collect experiment sweeps.

Three subcommands over one artifact store:

* ``run SPEC`` — expand the sweep, execute misses across a worker pool,
  print the per-cell table, and write the ``BENCH_sweep.json`` sweep report
  (per-run status, cache verdict and wall seconds; hit rate; parallel
  speedup).  ``--min-hit-rate`` turns the hit rate into an exit-code
  assertion so CI can verify that a second invocation was served from
  cache.
* ``status SPEC`` — cache verdict per cell without executing anything.
* ``collect`` — merge every run record (``runs/<hash>.json``) into one JSON.

This module is also the CLI skeleton ``python -m repro.fleet`` is built
from (a fleet is a sweep whose cells are hosts): the argument groups, the
error exit, the run and status tables and the dispatcher exist once, here.
It is the only place in :mod:`repro.exp` that touches the wall clock: it
injects a real clock into the otherwise clock-free runner.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.analysis.report import Table
from repro.exp.cache import ResultCache
from repro.exp.grid import RunSpec, expand
from repro.exp.runner import RunnerError, SweepReport, run_sweep, write_bench_json
from repro.exp.spec import SpecError, load_spec
from repro.exp.store import ArtifactStore

BENCH_FILE = "BENCH_sweep.json"


def wall_clock() -> float:
    """Real elapsed-seconds clock, injected into the runner by the CLI.

    The one sanctioned wall-clock read in this package: front-ends may
    measure real time (same carve-out as ``repro.tools``).
    """
    return time.perf_counter()  # CLI timing only - simlint: disable=no-wallclock


# -- the skeleton shared with repro.fleet.cli --------------------------------


def add_spec_args(cmd: argparse.ArgumentParser, what: str) -> None:
    cmd.add_argument("spec", help=f"path to a .toml or .json {what} spec")
    cmd.add_argument(
        "--out", default=".",
        help="artifact store root (runs land under <out>/runs/)",
    )


def add_runner_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--workers", type=int, default=1)
    cmd.add_argument(
        "--force", action="store_true", help="re-execute every run"
    )
    cmd.add_argument("--retries", type=int, default=1)
    cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-run wall-clock limit; expired runs are killed and "
             "recorded with status 'timeout'",
    )
    cmd.add_argument("--quiet", action="store_true")


def add_report_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--bench-json", default=None,
        help=f"sweep report path (default <out>/{BENCH_FILE})",
    )
    cmd.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="exit non-zero unless cache hit rate >= this fraction",
    )


def runner_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """The :func:`add_runner_args` flags as ``run_sweep`` keywords."""
    return {
        "workers": args.workers,
        "clock": wall_clock,
        "force": args.force,
        "retries": args.retries,
        "timeout_sec": args.timeout,
    }


def finish_run(
    report: SweepReport,
    args: argparse.Namespace,
    title: str,
    noun: str,
    label: Callable[[RunSpec], str],
) -> int:
    """The tail of every ``run``: write the sweep report, print the table
    (unless ``--quiet``), and turn failures / ``--min-hit-rate`` into the
    exit code.  When that is not 0, stderr says why — ``--quiet`` silences
    the report, never the reason for a failure."""
    bench_path = write_bench_json(
        report, args.bench_json or Path(args.out) / BENCH_FILE
    )
    if not args.quiet:
        table = Table(title, [noun, "status", "source", "attempts", "wall"])
        for outcome in report.outcomes:
            table.add_row(
                label(outcome.run),
                outcome.status,
                "cache" if outcome.cached else "executed",
                outcome.attempts,
                f"{outcome.wall_sec:.2f}s",
            )
        table.print()
        speedup = report.speedup_vs_serial
        summary = (
            f"\n{report.runs_total} runs: {report.cache_hits} cached, "
            f"{report.executed} executed, {report.failures} failed"
            + (f" ({report.timeouts} timed out)" if report.timeouts else "")
            + f"; elapsed {report.elapsed_wall_sec:.2f}s"
        )
        if speedup is not None:
            rate = report.executed / report.elapsed_wall_sec
            summary += f", {rate:.1f} {noun}s/s, speedup vs serial {speedup:.2f}x"
        print(summary)
        print(f"sweep report: {bench_path}")
    if report.failures:
        for outcome in report.outcomes:
            if not outcome.ok and outcome.error is not None:
                print(
                    f"FAILED {label(outcome.run)}: "
                    f"{outcome.error['type']}: {outcome.error['message']}",
                    file=sys.stderr,
                )
        return 1
    if args.min_hit_rate is not None and report.hit_rate < args.min_hit_rate:
        print(
            f"cache hit rate {report.hit_rate:.0%} below required "
            f"{args.min_hit_rate:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def print_status(
    title: str,
    runs: Sequence[RunSpec],
    store: ArtifactStore,
    noun: str,
    label: Callable[[RunSpec], str],
) -> int:
    """The cache verdict of every run, without executing anything."""
    cache = ResultCache(store)
    table = Table(f"{title} — cache status", [noun, "run", "verdict"])
    hits = 0
    for run, decision in zip(runs, cache.decide(runs)):
        hits += 1 if decision.hit else 0
        table.add_row(
            label(run),
            run.run_hash,
            "cached" if decision.hit else f"pending ({decision.reason})",
        )
    table.print()
    print(f"\n{hits}/{len(runs)} {noun}s cached")
    return 0


def dispatch(
    parser: argparse.ArgumentParser,
    handlers: Mapping[str, Callable[[argparse.Namespace], int]],
    argv: Optional[Sequence[str]],
) -> int:
    """Parse ``argv`` and run the subcommand's handler.

    This is every handler's ``or_exit``: a bad spec or unusable runner
    options (:class:`SpecError` / :class:`RunnerError` out of any load or
    run call) end the process as one ``prog: message`` line, not a
    traceback.
    """
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return handlers[args.command](args)
    except (SpecError, RunnerError) as exc:
        raise SystemExit(f"{parser.prog}: {exc}") from None
    except BrokenPipeError:  # stdout piped into a pager/head that quit
        return 0


# -- python -m repro.exp -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.exp",
        description="Declarative experiment sweeps: run, status, collect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a sweep (cache-aware)")
    add_spec_args(run_cmd, "sweep")
    add_runner_args(run_cmd)
    add_report_args(run_cmd)

    status_cmd = sub.add_parser("status", help="cache verdict per sweep cell")
    add_spec_args(status_cmd, "sweep")

    collect_cmd = sub.add_parser("collect", help="merge stored runs to JSON")
    collect_cmd.add_argument("--out", default=".")
    collect_cmd.add_argument(
        "--output", default=None, help="write here instead of stdout"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    report = run_sweep(spec, ArtifactStore(args.out), **runner_kwargs(args))
    return finish_run(
        report, args,
        f"Sweep {spec.name} [{spec.sweep_hash}] — {report.workers} worker(s)",
        "cell", RunSpec.describe,
    )


def _cmd_status(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    return print_status(
        f"Sweep {spec.name} [{spec.sweep_hash}]", expand(spec),
        ArtifactStore(args.out), "cell", RunSpec.describe,
    )


def _cmd_collect(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.out)
    document = json.dumps(store.collect(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(document + "\n")
    else:
        print(document)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(
        build_parser(),
        {"run": _cmd_run, "status": _cmd_status, "collect": _cmd_collect},
        argv,
    )


__all__ = [
    "BENCH_FILE",
    "add_report_args",
    "add_runner_args",
    "add_spec_args",
    "build_parser",
    "dispatch",
    "finish_run",
    "main",
    "print_status",
    "runner_kwargs",
    "wall_clock",
]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
