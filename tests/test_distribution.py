import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from withinperfect.distribution import (empirical_cdf, phase_experiment,
                                        sigma_approx_probe)
from withinperfect.sieve import SigmaSource, sigma_oracle
from withinperfect.types import RationalTarget, ThresholdSpec
from withinperfect.within import count_thresholds

from conftest import trial_is_prime


def test_cdf_small_frozen_values():
    cdf = empirical_cdf(10, ["0.5", "1", "1.9", "2"])
    assert cdf.values == (0.0, 0.1, 0.9, 1.0)  # ratio 2 at n=6 counts inclusively
    assert cdf.counts == (0, 1, 9, 10)


def test_cdf_exclusive_variant():
    cdf = empirical_cdf(10, ["1.9", "2"], inclusive=False)
    assert cdf.values == (0.9, 0.9)  # n=6 sits exactly at 2


def test_cdf_zero_below_one_and_one_at_infinity():
    cdf = empirical_cdf(1000, ["0.25", "0.99", "1000000"])
    assert cdf.values[0] == 0.0 and cdf.values[1] == 0.0
    assert cdf.values[-1] == 1.0


def test_cdf_monotone_in_u():
    cdf = empirical_cdf(10**4, ["1.2", "1.5", "1.8", "2", "2.5", "3"])
    assert list(cdf.values) == sorted(cdf.values)
    assert all(0.0 <= v <= 1.0 for v in cdf.values)


def test_cdf_exact_tie_handling():
    # sigma(20)/20 = 42/20 = 21/10 exactly
    expected = sum(1 for n in range(1, 21)
                   if Fraction(sigma_oracle(n), n) <= Fraction(21, 10))
    cdf = empirical_cdf(20, [Fraction(21, 10)])
    assert cdf.counts == (expected,)
    open_cdf = empirical_cdf(20, [Fraction(21, 10)], inclusive=False)
    assert open_cdf.counts == (expected - 1,)


def test_cdf_validation():
    with pytest.raises(ValueError):
        empirical_cdf(100, ["2", "1.5"])  # grid must ascend
    with pytest.raises(ValueError):
        empirical_cdf(0, ["2"])


def test_phase_sublinear_decreasing():
    report = phase_experiment("2", "sublinear", [10**3, 10**4])
    assert report.c == Fraction(1, 2)
    assert report.densities[1] < report.densities[0]
    assert report.trend_ok


def test_phase_linear_matches_cdf_window():
    report = phase_experiment("2", "linear", [10**4], c="0.1")
    cdf = empirical_cdf(10**4, ["1.9", "2.1"])
    assert report.references[0] == pytest.approx(cdf.values[1] - cdf.values[0])
    assert report.deviations[0] < 1e-3


def test_phase_superlinear_rises_to_one():
    report = phase_experiment("2", "superlinear", [10**3, 10**4])
    assert report.densities[-1] > 0.9
    assert report.trend_ok


def test_phase_linear_window_is_the_linear_threshold():
    # the window |sigma(n)/n - l| < c is the within count for k(y) = c*y,
    # decided per 1024-element segment; checkpoints sit on segment edges
    source = SigmaSource(segment_length=1024)
    checkpoints = [1, 1023, 1024, 1025, 2048, 2049, 5000]
    for target, c in (("2", "1/10"), ("3/2", "1/4"), ("7/2", "3/5")):
        report = phase_experiment(target, "linear", checkpoints, source, c=c)
        counts = count_thresholds(RationalTarget.parse(target),
                                  [ThresholdSpec.linear(c)], checkpoints, source)
        assert report.densities == [s / x for s, x in zip(counts.strict[0], checkpoints)]


def test_phase_validation():
    with pytest.raises(ValueError):
        phase_experiment("2", "linear", [100])  # slope required
    with pytest.raises(ValueError):
        phase_experiment("2", "warp", [100])


def test_probe_exact_hit():
    report = sigma_approx_probe("2", 3, 100)
    last = report.records[-1]
    assert (last.m, last.ratio, last.distance) == (6, Fraction(2), Fraction(0))


def test_probe_matches_exhaustive_argmin():
    limit = 10**4
    best = min((abs(Fraction(17, 10) - Fraction(sigma_oracle(m), m)), m)
               for m in range(2, limit + 1))
    report = sigma_approx_probe("1.7", 5, limit)
    assert report.records[-1].m == best[1]
    assert report.records[-1].distance == best[0]
    dists = [r.distance for r in report.records]
    assert dists == sorted(dists, reverse=True)  # nonincreasing by construction


def test_probe_finds_an_improvement_below_float_rounding():
    # l sits 1e-9 of the half-gap from the midpoint of the ratios of the primes
    # 19993 and 19997, on the side of 19997: the two float distances differ by
    # less than their rounding, and the exact argmin over every m is 19997
    r1, r2 = (Fraction(sigma_oracle(p), p) for p in (19993, 19997))
    mid = (r1 + r2) / 2
    report = sigma_approx_probe(mid + (r2 - mid) / 10**9, 2, 20000)
    assert [r.m for r in report.records] == [19993, 19997]


def test_probe_picks_the_nearer_of_two_adjacent_ratios(oracle_sigma):
    # between two value-adjacent ratios of m <= limit the nearer one is the
    # exact argmin, reached first at the least m with that ratio
    limit = 2 * 10**4
    first = {Fraction(oracle_sigma[m], m): m for m in range(limit, 1, -1)}
    ratios = sorted(first)
    rng = random.Random(20000)
    source = SigmaSource()
    for i in rng.sample(range(len(ratios) - 1), 100):
        mid = (ratios[i] + ratios[i + 1]) / 2
        for scale in (10**6, 10**9, 10**12):
            near = ratios[i + rng.randrange(2)]
            report = sigma_approx_probe(mid + (near - mid) / scale, 1, limit, source)
            assert report.records[-1].m == first[near], (ratios[i], scale)


@st.composite
def _near_ratio_targets(draw):
    """A target at or within 10^-j of some sigma(m)/m, and a limit."""
    limit = draw(st.integers(2, 400))
    m = draw(st.integers(2, limit))
    offset = Fraction(draw(st.integers(-3, 3)), 10 ** draw(st.integers(0, 30)))
    return max(Fraction(sigma_oracle(m), m) + offset, Fraction(1001, 1000)), limit


@settings(max_examples=60, deadline=None)
@given(case=_near_ratio_targets())
def test_probe_records_every_exact_improvement(oracle_sigma, case):
    ell, limit = case
    improvements, best = [], None
    for m in range(2, limit + 1):
        dist = abs(ell - Fraction(oracle_sigma[m], m))
        if best is None or dist < best:
            improvements.append((m, dist))
            best = dist
            if dist == 0:
                break
    report = sigma_approx_probe(ell, limit, limit)
    assert [(r.m, r.distance) for r in report.records] == improvements


def test_probe_near_one_lands_on_large_prime():
    report = sigma_approx_probe("1.000001", 5, 10**4)
    last = report.records[-1]
    assert last.m == 9973  # largest prime <= 1e4: ratios 1 + 1/p chase targets near 1
    assert trial_is_prime(last.m)
    assert last.meets_log_bound  # 1/9973 - 1e-6 < 1/log(9973)


def test_probe_exhausted_notice():
    report = sigma_approx_probe("3", 50, 10)
    assert report.exhausted
    assert report.improvements_found < 50
    assert len(report.records) == report.improvements_found


def test_probe_validation():
    with pytest.raises(ValueError):
        sigma_approx_probe("1", 3, 100)  # target must exceed 1
    with pytest.raises(ValueError):
        sigma_approx_probe("2", 0, 100)


def test_two_scale_stability():
    grid = ["1.5", "2", "2.5", "3"]
    a = empirical_cdf(10**6, grid)
    b = empirical_cdf(10**7, grid)
    assert all(abs(x - y) < 0.01 for x, y in zip(a.values, b.values))


def test_query_points_parse_like_every_other_rational():
    # one parser for exact fractions: floats are refused, malformed text is a ValueError
    with pytest.raises(TypeError):
        empirical_cdf(10, [1.5])
    with pytest.raises(ValueError):
        empirical_cdf(10, ["1/0"])
    with pytest.raises(TypeError):
        phase_experiment("2", "linear", [100], c=0.1)


def test_cdf_counts_across_segments_match_exact_brute_force():
    # 1024-element segments share one ratio array per segment; the grid holds
    # 2 (hit by 6, 28 and 496), points inside the guard band on either side
    # of it, and 7/4 (hit by 4), so the band fallback and the tie both run
    limit = 5000
    grid = ["3/2", "7/4", "1999999999999/1000000000000", "2",
            "2000000000001/1000000000000", "3"]
    ratios = [Fraction(sigma_oracle(n), n) for n in range(1, limit + 1)]
    source = SigmaSource(segment_length=1024)
    for inclusive in (True, False):
        cdf = empirical_cdf(limit, grid, source, inclusive=inclusive)
        expected = tuple(sum(1 for r in ratios if (r <= Fraction(u) if inclusive
                                                   else r < Fraction(u)))
                         for u in grid)
        assert cdf.counts == expected
    assert cdf.counts[3] + 3 == empirical_cdf(limit, grid, source).counts[3]
