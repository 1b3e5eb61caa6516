"""The sweep runner: expand, consult the cache, execute, persist, report.

Execution model: a pool of up to ``workers`` long-lived worker processes
(fork context), because a simulated machine is CPU-bound pure Python and
processes sidestep the GIL.  Each worker reads payloads from its own
``Pipe``; the parent waits on all the pipes, keeps verdicts in sweep
order, and alone writes the artifact store: one record per run
(:mod:`repro.exp.store`).  With ``workers=1`` and no deadline the cells
run in-process instead, with no crash isolation: a cell that kills its
process kills the sweep.

Determinism contract: a run's RNG entropy derives from its content hash
(:attr:`~repro.exp.grid.RunSpec.derived_seed`), never from scheduling or
from what its worker ran before, so in-process, 2-worker and 8-worker
sweeps store byte-identical results.  Wall-clock never enters the runner
directly — callers inject a ``clock`` callable (the CLI passes a real one;
library users and tests may pass none and get zeros), keeping this module
simlint-clean and the cached/live artifact bytes identical.

Failures don't abort the sweep: each run is retried once (configurable)
inside its worker, then recorded as a structured failure in its record's
``meta`` and the report; :class:`SweepReport` carries the per-sweep counts
(runs completed, cache hits, failures, timeouts, wall seconds).  A worker
that dies (an OOM kill, ``os._exit``) fails only its own run, as
``WorkerDied``, and a fresh worker takes the next run.

Timeouts: ``timeout_sec`` is a per-run deadline on the parent's wait,
measured with the injected ``clock`` (so it needs a real one).  A run
past it has its worker terminated and is recorded with status
``"timeout"`` — a structured failure like any other, but distinguishable
so the cache can report ``timed-out-previously`` on the next sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exp.cache import ResultCache
from repro.exp.experiments import TRACE_KEY, resolve
from repro.exp.grid import RunSpec, expand
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore, write_json

Clock = Callable[[], float]


def zero_clock() -> float:
    """The no-timing clock: every interval measures as zero seconds."""
    return 0.0


class RunnerError(RuntimeError):
    """Raised for unusable runner configuration."""


@dataclass(frozen=True)
class RunOutcome:
    """How one sweep cell went: cached, executed-ok, or failed."""

    run: RunSpec
    status: str  # "ok" | "failed" | "timeout"
    cached: bool
    cache_reason: str
    attempts: int
    wall_sec: float
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepReport:
    """Everything a sweep produced, plus the aggregate perf numbers."""

    name: str
    sweep_hash: str
    kind: str
    workers: int
    outcomes: List[RunOutcome] = field(default_factory=list)
    elapsed_wall_sec: float = 0.0
    version: str = ""

    @property
    def runs_total(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed(self) -> int:
        return self.runs_total - self.cache_hits

    @property
    def failures(self) -> int:
        """Runs that did not succeed — exceptions *and* timeouts."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def timeouts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "timeout")

    @property
    def hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.cache_hits / self.runs_total

    @property
    def executed_wall_sec(self) -> float:
        """Summed per-run worker wall seconds — the serial-cost estimate."""
        return sum(o.wall_sec for o in self.outcomes if not o.cached)

    @property
    def speedup_vs_serial(self) -> Optional[float]:
        """Parallel speedup estimate: serial cost over observed elapsed."""
        if self.elapsed_wall_sec <= 0 or self.executed == 0:
            return None
        return self.executed_wall_sec / self.elapsed_wall_sec

    def results_by_axes(self) -> List[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]]:
        """(axes, result) pairs in sweep order — the figure-friendly view."""
        return [(dict(o.run.axes), o.result) for o in self.outcomes]

    def to_bench_dict(self) -> Dict[str, Any]:
        """The ``BENCH_sweep.json`` payload: one row per run plus totals."""
        return {
            "schema": "repro.exp.sweep/1",
            "name": self.name,
            "sweep_hash": self.sweep_hash,
            "kind": self.kind,
            "version": self.version,
            "workers": self.workers,
            "runs": [
                {
                    "run": outcome.run.run_hash,
                    "axes": outcome.run.axes,
                    "status": outcome.status,
                    "cached": outcome.cached,
                    "cache_reason": outcome.cache_reason,
                    "attempts": outcome.attempts,
                    "wall_sec": outcome.wall_sec,
                }
                for outcome in self.outcomes
            ],
            "totals": {
                "runs": self.runs_total,
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": self.hit_rate,
                "failures": self.failures,
                "timeouts": self.timeouts,
                "executed_wall_sec": self.executed_wall_sec,
                "elapsed_wall_sec": self.elapsed_wall_sec,
                "speedup_vs_serial": self.speedup_vs_serial,
            },
        }


# -- worker side -------------------------------------------------------------

#: Payload shipped to a worker: (kind, params, derived_seed, retries, clock).
_Payload = Tuple[str, Dict[str, Any], int, int, Clock]
#: What comes back: (status, result, error, attempts, wall_sec).
_Verdict = Tuple[str, Optional[Dict[str, Any]], Optional[Dict[str, str]], int, float]


def _execute(payload: _Payload) -> _Verdict:
    """Run one cell (in a worker process), retrying on failure.

    Never raises: an experiment that keeps failing is reported as a
    structured failure so the rest of the sweep proceeds.
    """
    kind, params, derived_seed, retries, clock = payload
    error: Optional[Dict[str, str]] = None
    start = clock()
    for attempt in range(1, retries + 2):
        try:
            fn = resolve(kind)
            result = fn(params, derived_seed)
        except Exception as exc:  # noqa: BLE001 - the sweep must survive
            error = {"type": type(exc).__name__, "message": str(exc)}
        else:
            return "ok", result, None, attempt, clock() - start
    return "failed", None, error, retries + 1, clock() - start


#: The verdict of a run whose worker exited without sending one (an
#: ``os._exit``, an OOM kill): a structured failure like any other.
_WORKER_DIED: _Verdict = (
    "failed",
    None,
    {"type": "WorkerDied", "message": "worker exited without a verdict"},
    1,
    0.0,
)


def _serve(conn: Any) -> None:
    """A pool worker's life: execute every payload the parent sends and
    send its verdict back, until the parent terminates the worker."""
    while True:
        conn.send(_execute(conn.recv()))


def _mp_context() -> Any:
    """The fork context when the platform has fork (registry and
    ``sys.path`` state inherit into workers), else the platform default."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def _stop(conn: Any, proc: Any) -> None:
    proc.terminate()
    proc.join()
    conn.close()


def _run_pool(
    payloads: List[_Payload],
    workers: int,
    timeout_sec: Optional[float],
    clock: Clock,
) -> List[_Verdict]:
    """Execute payloads on up to ``workers`` long-lived worker processes.

    Each worker reads payloads from its own ``Pipe``.  A worker that dies
    without a verdict fails only its own run (``WorkerDied``); a run whose
    verdict has not arrived within ``timeout_sec`` (by ``clock``) has its
    worker terminated and is recorded with status ``"timeout"``.  Either
    way the next run gets a fresh worker.  Verdicts come back indexed, so
    sweep order is preserved regardless of completion order.
    """
    ctx = _mp_context()
    verdicts: List[Optional[_Verdict]] = [None] * len(payloads)
    idle: List[Tuple[Any, Any]] = []  # (parent's pipe end, process)
    #: parent's pipe end -> (process, payload index, absolute deadline).
    busy: Dict[Any, Tuple[Any, int, float]] = {}
    next_index = 0
    try:
        while next_index < len(payloads) or busy:
            while next_index < len(payloads) and len(busy) < workers:
                if idle:
                    conn, proc = idle.pop()
                else:
                    conn, child_end = ctx.Pipe()
                    proc = ctx.Process(target=_serve, args=(child_end,))
                    proc.start()
                    child_end.close()  # EOF reaches us once the worker is gone
                conn.send(payloads[next_index])
                deadline = inf if timeout_sec is None else clock() + timeout_sec
                busy[conn] = (proc, next_index, deadline)
                next_index += 1
            wait_for = None
            if timeout_sec is not None:
                nearest = min(deadline for _, _, deadline in busy.values())
                wait_for = max(0.0, nearest - clock())
            ready = _connection_wait(list(busy), timeout=wait_for)
            for conn in ready:
                proc, index, _ = busy.pop(conn)
                try:
                    verdicts[index] = conn.recv()
                except EOFError:  # died without a verdict (OOM-kill, crash)
                    verdicts[index] = _WORKER_DIED
                    _stop(conn, proc)
                else:
                    idle.append((conn, proc))
            if ready or timeout_sec is None:
                continue
            now = clock()
            # A verdict may have landed between the wait and now — prefer
            # it over a kill.
            expired = [
                conn
                for conn, (_, _, deadline) in busy.items()
                if deadline <= now and not conn.poll()
            ]
            for conn in expired:
                proc, index, _ = busy.pop(conn)
                _stop(conn, proc)
                message = f"run exceeded the {timeout_sec:g}s wall-clock limit and was killed"
                error = {"type": "TimeoutError", "message": message}
                verdicts[index] = ("timeout", None, error, 1, timeout_sec)
    finally:  # finished or interrupted, a sweep leaves no live worker
        for conn, proc in idle + [(conn, proc) for conn, (proc, _, _) in busy.items()]:
            _stop(conn, proc)
    return [v for v in verdicts if v is not None]


# -- parent side -------------------------------------------------------------


def run_sweep(
    spec: ExperimentSpec,
    store: Union[ArtifactStore, str, Path],
    workers: int = 1,
    clock: Optional[Clock] = None,
    force: bool = False,
    retries: int = 1,
    timeout_sec: Optional[float] = None,
) -> SweepReport:
    """Execute one sweep: cache-aware, parallel, failure-tolerant.

    ``clock`` must be a picklable zero-argument callable (it travels into
    worker processes); ``None`` disables timing.  ``force`` bypasses the
    cache and re-executes every cell.  Cells run on up to ``workers``
    worker processes, or in-process (no crash isolation) when ``workers``
    is 1 and there is no deadline.  ``timeout_sec`` bounds each run's
    wall-clock; it requires a real ``clock`` (deadlines cannot be measured
    with the zero clock), and a run past it has its worker terminated.
    """
    if workers < 1:
        raise RunnerError("workers must be >= 1")
    if retries < 0:
        raise RunnerError("retries must be >= 0")
    if timeout_sec is not None and timeout_sec <= 0:
        raise RunnerError("timeout_sec must be positive")
    if timeout_sec is not None and (clock is None or clock is zero_clock):
        raise RunnerError(
            "timeout_sec needs a real clock (pass e.g. repro.exp.cli.wall_clock)"
        )
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    clock = zero_clock if clock is None else clock
    cache = ResultCache(store)
    runs = expand(spec)

    report = SweepReport(
        name=spec.name,
        sweep_hash=spec.sweep_hash,
        kind=spec.kind,
        workers=workers,
        version=cache.version_for(spec.kind),
    )
    start = clock()

    outcomes: List[Optional[RunOutcome]] = [None] * len(runs)
    pending: List[Tuple[int, RunSpec, str]] = []
    for index, (run, decision) in enumerate(zip(runs, cache.decide(runs, force))):
        if decision.hit:
            meta = decision.meta or {}
            outcomes[index] = RunOutcome(
                run=run,
                status="ok",
                cached=True,
                cache_reason=decision.reason,
                attempts=int(meta.get("attempts", 1)),
                wall_sec=0.0,
                result=decision.result,
            )
        else:
            pending.append((index, run, decision.reason))

    payloads: List[_Payload] = [
        (run.kind, run.params, run.derived_seed, retries, clock)
        for _, run, _ in pending
    ]
    if workers == 1 and timeout_sec is None:
        verdicts = [_execute(payload) for payload in payloads]
    else:
        verdicts = _run_pool(payloads, workers, timeout_sec, clock)

    for (index, run, reason), verdict in zip(pending, verdicts):
        status, result, error, attempts, wall_sec = verdict
        trace_lines: Optional[List[str]] = None
        if result is not None and TRACE_KEY in result:
            trace_lines = list(result.pop(TRACE_KEY))
        cache.commit(
            run,
            status=status,
            attempts=attempts,
            wall_sec=wall_sec,
            result=result,
            error=error,
        )
        if trace_lines is not None:
            store.write_trace(run.run_hash, trace_lines)
        outcomes[index] = RunOutcome(
            run=run,
            status=status,
            cached=False,
            cache_reason=reason,
            attempts=attempts,
            wall_sec=wall_sec,
            result=result,
            error=error,
        )

    report.outcomes = [outcome for outcome in outcomes if outcome is not None]
    report.elapsed_wall_sec = clock() - start
    return report


def write_bench_json(report: SweepReport, path: Union[str, Path]) -> Path:
    """Write the sweep report (``BENCH_sweep.json``), replacing any old one."""
    return write_json(Path(path), report.to_bench_dict())


__all__ = [
    "Clock",
    "RunOutcome",
    "RunnerError",
    "SweepReport",
    "run_sweep",
    "write_bench_json",
    "zero_clock",
]
