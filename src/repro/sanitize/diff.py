"""``python -m repro.sanitize diff`` — instrumentation differential harness.

The profiler and the sanitizers hook the engine's one dispatch loop, the
block layer and the controller; they are *supposed* to observe a run
without changing it.  This harness runs the fixed closed-loop rig of
:func:`repro.tools.engine_bench.run_fixed_load` twice — once with all
instrumentation off, once with the profiler *and* every runtime sanitizer
on — records the full tracepoint stream of each run, and **byte-diffs**
the two JSONL traces.  Identical bytes means identical event names,
timestamps, bio ids, costs, and field values in identical order: the
strongest equivalence the observability layer can express.  The
instrumented run also passes every invariant in
:class:`repro.sanitize.Sanitizer` on the way through.

Wall-clock time is irrelevant here; only the simulated traces matter.
"""

from __future__ import annotations

import io
from typing import Optional, Tuple

from repro.block.bio import reset_bio_ids
from repro.obs.prof import PROF
from repro.obs.trace import TRACE, TraceBuffer
from repro.sanitize import SANITIZE
from repro.tools.engine_bench import run_fixed_load

DEFAULT_BIOS = 50_000
DEFAULT_DEPTH = 64

#: Trace-ring headroom per bio: submit/throttle/issue/complete plus the
#: periodic planning events.  Sized so the ring never drops (a dropped
#: event would make the byte-diff vacuous, so dropping is an error).
_EVENTS_PER_BIO = 12


def run_traced(bios: int, depth: int, instrumented: bool) -> str:
    """One rig run with full tracing; returns the JSONL trace text.

    ``instrumented=True`` enables the profiler and the sanitizers for the
    run; ``instrumented=False`` switches both off, even when the ambient
    process is sanitized (REPRO_SANITIZE=1 CI) — otherwise the byte-diff
    would compare an instrumented run against itself.
    """
    reset_bio_ids()
    prof_was, san_was = PROF.enabled, SANITIZE.enabled
    if instrumented:
        PROF.reset()
        SANITIZE.reset()
    PROF.enabled = SANITIZE.enabled = instrumented
    buffer = TraceBuffer(capacity=bios * _EVENTS_PER_BIO + 4096)
    buffer.attach(TRACE)
    try:
        run_fixed_load(bios, depth)
    finally:
        buffer.detach()
        if instrumented:
            PROF.reset()
        PROF.enabled = prof_was
        # The instrumented run's check counters stay readable; only the
        # flag is restored to its ambient state.
        SANITIZE.enabled = san_was
    if buffer.dropped:
        raise RuntimeError(
            f"trace ring dropped {buffer.dropped} events; the byte-diff "
            "would be vacuous (raise the capacity)"
        )
    out = io.StringIO()
    buffer.save(out)
    return out.getvalue()


def first_divergence(
    plain: str, instrumented: str
) -> Optional[Tuple[int, Optional[str], Optional[str]]]:
    """First differing line as (1-based line number, plain line,
    instrumented line); None when the traces are byte-identical."""
    if plain == instrumented:
        return None
    plain_lines = plain.splitlines()
    inst_lines = instrumented.splitlines()
    for index in range(max(len(plain_lines), len(inst_lines))):
        a = plain_lines[index] if index < len(plain_lines) else None
        b = inst_lines[index] if index < len(inst_lines) else None
        if a != b:
            return (index + 1, a, b)
    # Same lines but different bytes: trailing-newline difference.
    return (max(len(plain_lines), len(inst_lines)) + 1, None, None)


def run_diff(bios: int = DEFAULT_BIOS, depth: int = DEFAULT_DEPTH) -> dict:
    """Run both variants and compare; returns a JSON-able report."""
    plain = run_traced(bios, depth, instrumented=False)
    instrumented = run_traced(bios, depth, instrumented=True)
    divergence = first_divergence(plain, instrumented)
    report = {
        "bios": bios,
        "depth": depth,
        "events": plain.count("\n"),
        "identical": divergence is None,
        "sanitize_checks": SANITIZE.snapshot(),
        "plain_trace": plain,
        "instrumented_trace": instrumented,
    }
    if divergence is not None:
        line, plain_line, inst_line = divergence
        report["divergence"] = {
            "line": line,
            "plain": plain_line,
            "instrumented": inst_line,
        }
    return report
