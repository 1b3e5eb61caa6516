"""Discrete-event simulation engine.

This subpackage provides the time substrate for the whole reproduction: a
deterministic event-heap simulator (:class:`~repro.sim.engine.Simulator`),
generator-based cooperative processes (:class:`~repro.sim.engine.Process`),
waitable one-shot signals (:class:`~repro.sim.engine.Signal`), and the one
derivation of label-keyed RNG seed material
(:func:`~repro.sim.streams.labeled_seed`).

The engine plays the role that real wall-clock time plays in the paper's
testbed.  Every latency the paper measures on hardware is, here, the
difference of two simulated timestamps.
"""

from repro.sim.engine import (
    Event,
    Process,
    Signal,
    SimulationError,
    Simulator,
)
from repro.sim.streams import labeled_seed

__all__ = [
    "Event",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "labeled_seed",
]
