import inspect
import math
import tracemalloc
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import withinperfect
from withinperfect import (CheckpointSeries, DiophantineProblem, SolutionTable,
                           ThresholdSpec, empirical_cdf)
from withinperfect.errors import SigmaOverflowError
from withinperfect.types import checkpoint_column


def test_checkpoint_column_sorts_and_keeps_duplicates():
    got = checkpoint_column([1000, 10, 1e4, np.int64(10), 10**3])
    assert got.dtype == np.int64 and got.tolist() == [10, 10, 1000, 1000, 10000]
    assert checkpoint_column(np.array([3.0, 2.0])).tolist() == [2, 3]


def test_checkpoint_column_reads_a_range_as_arange():
    assert checkpoint_column(range(2, 7)).tolist() == [2, 3, 4, 5, 6]
    assert checkpoint_column(range(1000, 9, -495)).tolist() == [10, 505, 1000]
    assert checkpoint_column(range(5, 6, 3)).tolist() == [5]


@pytest.mark.parametrize("values", [
    [100.5], [Fraction(201, 2)], np.array([1000.9]), [10, math.nan], [math.inf],
    ["100"], [0], [-3], [], range(5, 5), range(0, 3)])
def test_checkpoint_column_refuses_what_it_would_round(values):
    with pytest.raises(ValueError):
        checkpoint_column(values)


def test_checkpoint_column_bounds():
    assert checkpoint_column([2**63 - 1]).tolist() == [2**63 - 1]
    for values in ([2**63], [1e30], range(1, 2**64, 2**62)):
        with pytest.raises(SigmaOverflowError, match="exceeds the domain cap"):
            checkpoint_column(values)
    assert checkpoint_column([10, 100], limit=100).tolist() == [10, 100]
    with pytest.raises(ValueError, match="checkpoint 101 exceeds the limit 100"):
        checkpoint_column([101, 10], limit=100)


#: A value for each other parameter a statistic that takes checkpoints needs.
_ARGUMENTS = {
    "target": "2",
    "threshold": ThresholdSpec.power("1/2"),
    "thresholds": [ThresholdSpec.power("1/2"), ThresholdSpec.x_over_log(at_limit=True)],
    "limit": 10**4,
    "problem": DiophantineProblem(2, 1, 12, 10**4),
    "regime": "sublinear",
    "b": 1,
    "k": 12,
}


def _statistics():
    """Every public function of the package with a checkpoints parameter, its
    other required parameters bound, plus empirical_cdf, whose limit is one."""
    found = {}
    for name, fn in sorted(vars(withinperfect).items()):
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters
        if "checkpoints" in params:
            found[name] = partial(fn, **{p: _ARGUMENTS[p] for p, spec in params.items()
                                         if p != "checkpoints"
                                         and spec.default is inspect.Parameter.empty})
    found["empirical_cdf"] = lambda checkpoints: empirical_cdf(*checkpoints, ["3/2", "2"])
    return found


STATISTICS = _statistics()


def _plain(value):
    """value with its columns as lists and NaN as a string, comparable by ==."""
    if isinstance(value, CheckpointSeries):
        return [value.label, value.checkpoints, value.counts, _plain(value.quotients)]
    if isinstance(value, SolutionTable):
        return list(value)
    if is_dataclass(value):
        return [_plain(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def test_every_statistic_with_checkpoints_is_found():
    assert len(STATISTICS) >= 9
    assert {"series", "count_thresholds", "enumerate_perfect"} <= set(STATISTICS)


@pytest.mark.parametrize("statistic", list(STATISTICS))
@pytest.mark.parametrize("bad", [[100.5], [Fraction(201, 2)], np.array([1000.9])],
                         ids=["float", "fraction", "array"])
def test_a_fractional_checkpoint_is_refused(statistic, bad):
    with pytest.raises(ValueError, match="is not an integer"):
        STATISTICS[statistic](checkpoints=bad)


@pytest.mark.parametrize("statistic", list(STATISTICS))
def test_checkpoints_are_read_by_one_rule(statistic):
    def run(checkpoints):
        return _plain(STATISTICS[statistic](checkpoints=checkpoints))

    if statistic == "empirical_cdf":  # one limit: 1e4 is the integer 10000
        assert run([1e4]) == run([10**4])
        return
    assert run([1e4, 100]) == run([100, 10**4])
    assert run(range(1000, 9, -495)) == run([10, 505, 1000])


@pytest.mark.parametrize("bad", [[100.5], np.array([1000.9]), [Fraction(201, 2)],
                                 [10, math.nan]])
def test_checkpoint_series_refuses_a_fractional_x(bad):
    with pytest.raises(ValueError, match="not an integer"):
        CheckpointSeries(bad, [1] * len(bad))


def test_checkpoint_series_keeps_an_integral_float_x():
    series = CheckpointSeries([1e3, 1e4], [3, 7])
    assert series.x.dtype == np.int64 and series.checkpoints == [1000, 10000]
    assert series == CheckpointSeries([1000, 10000], [3, 7])


def test_checkpoint_series_may_be_empty():
    series = CheckpointSeries([], [])
    assert len(series) == 0 and series.x.dtype == np.int64


def test_checkpoint_series_stays_ascending_and_paired_by_position():
    with pytest.raises(ValueError, match="ascending"):
        CheckpointSeries([1e4, 1e3], [1, 2])
    series = CheckpointSeries([10.0, 10.0, 20.0], [4, 5, 6])
    assert series.rows()[:2] == [(10, 4, series.quotients[0]), (10, 5, series.quotients[1])]
    assert series.counts == [4, 5, 6]


def test_checkpoint_series_quotients_take_three_columns_above_the_inputs():
    # count / (x / log x) in place: the NaN-filled quotients, x and log x
    x = np.arange(1, 10**6 + 1, dtype=np.int64)
    count = np.arange(10**6, dtype=np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = CheckpointSeries(x, count)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 10**6
    assert series.quotient[1] == 1 / (2 / math.log(2))


def test_checkpoint_counter_keeps_a_carry_per_row():
    # the counts at the checkpoints each block completes, from a carry per row
    # and the pending at-limit hits: no grid over the 10^8 checkpoints of the
    # range, whose column is never built either
    from withinperfect.exact import _CheckpointCounter

    checkpoints = checkpoint_column(range(10**8, 0, -1), lazy=True)
    assert checkpoints == range(1, 10**8 + 1)
    tracemalloc.start()
    try:
        counter = _CheckpointCounter(checkpoints, 3)
        for lo, first, sign in ((1, [5, 70000, 70000, 10**8], 1), (2**16 + 1, [100000], -1)):
            n = np.arange(lo, lo + 2**16, dtype=np.int64)
            counter.block(n)
            counter.add(0, n % 3 == 0)
            counter.add(1, np.flatnonzero(n % 3 == 0))
            counter.add_from(2, np.array(first), sign)  # index 10^8 is no checkpoint
            x, counts = counter.done()
            assert np.array_equal(x, n)
            assert np.array_equal(counts[:2], np.tile(x // 3, (2, 1)))
            want = (x >= 6).astype(int) + 2 * (x >= 70001) - (x >= 100001)
            assert np.array_equal(counts[2], want)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a grid over the range would take 2.4 GB
