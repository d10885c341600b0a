"""The columnar CSV renderer against the per-row f-string it replaces, and
the columns of a CheckpointSeries."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from withinperfect.emit import series_csv
from withinperfect.exact import enumerate_perfect
from withinperfect.types import CheckpointSeries, normalized_quotient


def per_row_csv(xs, counts, quotients) -> str:
    """The reference rendering: one f-string per row."""
    return "x,count,quotient\n" + "".join(
        f"{x},{c},{q:.6f}\n" for x, c, q in zip(xs, counts, quotients))


def half_point(k: int) -> float:
    """The double nearest (k + 1/2)/10^6, where the sixth decimal is a coin toss."""
    return float(Fraction(2 * k + 1, 2 * 10**6))


_HALF = st.one_of(st.integers(0, 10**7), st.integers(0, 2**53)).map(half_point)
_QUOTIENT = st.one_of(
    _HALF,
    _HALF.map(lambda q: float(np.nextafter(q, -math.inf))),
    _HALF.map(lambda q: float(np.nextafter(q, math.inf))),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(-1e17, 1e17),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_series_csv_is_the_per_row_rendering(data):
    xs = sorted(data.draw(st.lists(st.one_of(st.just(1), st.integers(1, 2**62)),
                                   max_size=30)))
    counts = data.draw(st.lists(st.integers(0, 2**62), min_size=len(xs), max_size=len(xs)))
    if data.draw(st.booleans()):
        quotients = data.draw(st.lists(_QUOTIENT, min_size=len(xs), max_size=len(xs)))
        series = CheckpointSeries(xs, counts, quotients)
    else:  # count/(x/log x), NaN at x = 1
        series = CheckpointSeries(xs, counts)
        quotients = [normalized_quotient(c, x) for c, x in zip(counts, xs)]
    assert series_csv(series) == per_row_csv(xs, counts, quotients)


def test_series_csv_across_block_edges():
    rng = np.random.default_rng(7)
    xs = list(range(1, 70_001))
    counts = rng.integers(0, 10**6, len(xs)).tolist()
    quotients = (rng.random(len(xs)) * 10.0**rng.integers(-3, 10, len(xs))).tolist()
    for i in (0, 1, 65_534, 65_535, 65_536, 65_537, 69_999):  # half points on the edge
        quotients[i] = half_point(int(rng.integers(0, 10**9)))
    for i in (2, 65_533, 69_998):
        quotients[i] = math.nan
    text = series_csv(CheckpointSeries(xs, counts, quotients))
    assert text == per_row_csv(xs, counts, quotients)
    # the default quotients over the same rows (NaN at x = 1)
    text = series_csv(CheckpointSeries(range(1, 70_001), counts))
    assert text == per_row_csv(xs, counts, [normalized_quotient(c, x)
                                            for c, x in zip(counts, xs)])


def test_quotients_are_math_log_bit_for_bit():
    # np.log differs from math.log by one ulp at 54 of these x on AVX-512 hosts
    x = np.arange(2, 10**6 + 1)
    counts = x // 3 + x % 7
    got = np.array(CheckpointSeries(range(2, 10**6 + 1), counts).quotients)
    expected = np.array([c / (v / math.log(v)) for c, v in zip(counts.tolist(), x.tolist())])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_series_compare_by_value():
    # the result dataclasses that hold a series (PerfectCensus, ...) compare through it
    a = CheckpointSeries(range(1, 4), [0, 1, 2], label="s")
    assert a == CheckpointSeries([1, 2, 3], np.array([0, 1, 2]), label="s")  # NaN at x = 1
    assert a != CheckpointSeries([1, 2, 3], [0, 1, 3], label="s")
    assert a != CheckpointSeries([1, 2, 3], [0, 1, 2], [math.nan, 1.0, 2.0], label="s")
    assert a != CheckpointSeries([1, 2, 3], [0, 1, 2])
    assert enumerate_perfect("2", 10**4) == enumerate_perfect("2", 10**4)
    assert repr(a).startswith("CheckpointSeries(x=array([1, 2, 3]), count=array([0, 1, 2])")
