"""How much work one bio costs, in counts that do not depend on the runner.

Wall time is measured by ``bench/run.py``; what tier-1 pins is the fixed
rig's work in exact integers, on any machine: the self-profiler's event,
heap and pump counts, and the number of Python calls ``cProfile`` sees
per additional bio while TRACE, PROF and SANITIZE are all off.  Run this
file after touching anything between ``BlockLayer.submit`` and
``_finish``.  A PR that removes work lowers the numbers here.
"""

import cProfile
import gc
import pstats
import sys

import pytest

from repro.block.layer import BlockLayer
from repro.obs.prof import PROF
from repro.obs.trace import TRACE
from repro.sanitize import SANITIZE
from repro.tools.engine_bench import run_fixed_load

BIOS = 5000
DEPTH = 64

#: ``PROF.snapshot()`` of ``run_fixed_load(BIOS, DEPTH)``, exactly.
PROF_COUNTS = {
    "events_dispatched": 11044,
    "heap_pushes": 13060,
    "heap_pops": 13060,
    "pump_calls": 11044,
    "bios_submitted": BIOS,
    "bios_issued": BIOS,
    "bios_completed": BIOS,
    "plan_ticks": 0,
    "emits_by_point": {},
}

#: Python + C calls per additional bio with every guard off: 60.002 on
#: CPython 3.11 (the .002 is one sector-chunk refill per 4096 bios).
CALLS_PER_BIO_CEILING = 60.01

#: cProfile's C-call accounting differs between minor versions.
needs_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call ceiling was counted on CPython 3.11",
)


@pytest.fixture(autouse=True)
def everything_off():
    TRACE.reset()
    PROF.disable().reset()
    with SANITIZE.suspended():
        yield
    PROF.disable().reset()


def _calls(bios):
    profiler = cProfile.Profile()
    # A collection inside the profile would count whatever sits in
    # gc.callbacks (hypothesis installs one) as calls of the run.
    gc.disable()
    try:
        profiler.enable()
        run_fixed_load(bios, DEPTH)
        profiler.disable()
    finally:
        gc.enable()
    return pstats.Stats(profiler).total_calls


def marginal_calls_per_bio():
    """Calls of a 2×BIOS run minus a BIOS run: set-up and drain cancel."""
    run_fixed_load(DEPTH, DEPTH)  # first-use imports and caches
    return (_calls(2 * BIOS) - _calls(BIOS)) / BIOS


def test_prof_counts_are_exact():
    with PROF:
        run_fixed_load(BIOS, DEPTH)
    assert PROF.snapshot() == PROF_COUNTS


@needs_cpython_311
def test_calls_per_bio_with_everything_disabled():
    assert marginal_calls_per_bio() <= CALLS_PER_BIO_CEILING


@needs_cpython_311
def test_ceiling_catches_a_payload_built_before_the_guard(monkeypatch):
    """The guard has a subject (cf. tests/tools/test_simlint_seeded.py):
    ``submit`` building its ``bio_submit`` payload before checking
    ``enabled`` — the mistake a disabled-overhead bound is named for —
    slows the rig by a quarter and is caught here."""
    submit = BlockLayer.submit

    def eager_submit(self, bio, on_done=None):
        _payload = {  # the tracepoint's fields, built although nobody listens
            "dev": self.dev,
            "id": bio.id,
            "cgroup": bio.cgroup.path,
            "op": bio.op.value,
            "nbytes": bio.nbytes,
            "sector": bio.sector,
            "flags": bio.flags.value,
            "prio": bio.prio,
        }
        submit(self, bio, on_done)

    monkeypatch.setattr(BlockLayer, "submit", eager_submit)
    assert marginal_calls_per_bio() > CALLS_PER_BIO_CEILING
