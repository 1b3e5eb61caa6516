"""The median / quartile helper matches ``statistics.quantiles``."""

import statistics

import pytest

from bench.stats import quartiles, spread, summarize, undisturbed


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values) == expected[1]
    assert spread(values) == (q3 - q1) / median


def test_a_single_sample_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    summary = summarize([2.5])
    assert (summary["median"], summary["n"], summary["values"]) == (2.5, 1, [2.5])


def test_empty_and_zero_median():
    with pytest.raises(ValueError):
        quartiles([])
    assert spread([0.0, 0.0, 0.0]) == 0.0


def test_undisturbed_keeps_each_slices_fastest_time():
    repeats = [[1.0, 2.0, 9.0], [5.0, 2.5, 3.0], [1.5, 8.0, 3.5]]
    assert undisturbed(repeats) == 1.0 + 2.0 + 3.0
    assert undisturbed([[4.0]]) == 4.0
    for bad in ([], [[]], [[1.0, 2.0], [1.0]]):
        with pytest.raises(ValueError):
            undisturbed(bad)


def test_undisturbed_scales_a_slice_by_the_calibration_loop_beside_it():
    # One repeat, the whole of it on a machine running at half speed for
    # the second slice: the loop beside that slice took twice as long.
    assert undisturbed([[1.0, 2.0]], [[0.005, 0.010]]) == 1.0 + 1.0
    # A slice without a loop beside it is taken as it came; with no loops
    # at all nothing is scaled.
    assert undisturbed([[1.0, 2.0]], [[0.005, None]]) == 3.0
    assert undisturbed([[1.0, 2.0]], [[None, None]]) == 3.0
    # Scaling first, then the fastest repeat of each slice.
    times = [[1.0, 4.0], [3.0, 2.0]]
    spins = [[0.005, 0.010], [0.015, 0.005]]
    assert undisturbed(times, spins) == 1.0 + 2.0


def test_undisturbed_against_a_faster_loop_seen_on_an_earlier_run():
    # The whole run sat in a slow stretch: its own fastest loop (10 ms) is
    # twice what the machine has been seen to do.
    assert undisturbed([[2.0, 4.0]], [[0.010, 0.020]], fastest_spin=0.005) == 1.0 + 1.0
    # A stale, slower reference never makes a run look slower than it was.
    assert undisturbed([[2.0, 4.0]], [[0.010, 0.020]], fastest_spin=0.050) == 2.0 + 2.0
