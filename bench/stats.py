"""The statistics run.py, ladder.py, compare.py and the tests share.

Quartiles are the ones ``statistics.quantiles(values, n=4)`` gives, so a
spread computed here matches what an outside harness computes from the
same values.  ``undisturbed`` is the noise filter for host times (README,
"Noise protocol"): other tenants of the machine only ever add time, for
seconds at a stretch, so what a piece of work took when the machine was at
full speed is the best estimate of what the code itself costs.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own three quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(statistics.median(values)), float(q3)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """The shape every metric is stored in: median, quartiles, the samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def undisturbed(
    times: Sequence[Sequence[float]],
    spins: Optional[Sequence[Sequence[Optional[float]]]] = None,
    fastest_spin: Optional[float] = None,
) -> float:
    """Host seconds of a timed section at the machine's undisturbed speed.

    ``times[r][k]`` is what slice ``k`` — the same work on every repeat —
    took on repeat ``r``; ``spins[r][k]`` is what the calibration loop took
    beside it (None where a slice has none).  A slice whose loop ran slower
    than ``fastest_spin`` (default: the fastest loop of this run) is scaled
    back by that ratio; then each slice contributes the fastest of its
    repeats.  Interference has to slow the same slice on every repeat, and
    the loop beside it by less, to get through.
    """
    if not times or len({len(slices) for slices in times}) != 1 or not times[0]:
        raise ValueError("every repeat must time the same, non-empty list of slices")
    if spins is not None:
        taken = [spin for row in spins for spin in row if spin is not None]
        if taken:
            fastest = min(taken) if fastest_spin is None else min(fastest_spin, *taken)
            times = [
                [time if spin is None else time * fastest / spin for time, spin in zip(row, spin_row)]
                for row, spin_row in zip(times, spins)
            ]
    return float(sum(min(column) for column in zip(*times)))
