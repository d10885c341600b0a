"""Block edges, the one-stream rule and the sieve's dtype boundary.

Every statistic reads SigmaSource.blocks, the int64 columns (n, sigma(n)) of
at most BLOCK_LENGTH elements cut from each segment; none reads ``segments``
itself.  Results must
not depend on where segments and blocks end, so each statistic is run at the
default segment length, at 1024 and (for the counting engine) at an unaligned
5000, with checkpoints and limits just before, at and after multiples of
BLOCK_LENGTH.  _sigma_block returns u32 up to U32_SIGMA_LIMIT and u64 above,
and blocks are int64 on both sides; both sides are checked against the oracle.
"""

import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from withinperfect.congruence import CongruenceProblem, census, sporadic_growth_report
from withinperfect.distribution import empirical_cdf, phase_experiment, sigma_approx_probe
from withinperfect.exact import (DiophantineProblem, enumerate_perfect, gcd_sum,
                                 series_partial_sums, solve_diophantine,
                                 wirsing_count_check)
from withinperfect.sieve import (BLOCK_LENGTH, DEFAULT_SEGMENT_LENGTH, U32_SIGMA_LIMIT,
                                 SigmaSource, _sigma_block, factor, sieve_segment,
                                 sigma_oracle)
from withinperfect.types import RationalTarget, ThresholdSpec
from withinperfect.within import count_thresholds, theorem_limit_check

from conftest import brute_census, brute_diophantine

LENGTHS = (DEFAULT_SEGMENT_LENGTH, 1024, 5000)

#: Every threshold kind.
THRESHOLDS = (ThresholdSpec.power("1/2"), ThresholdSpec.power("7/10"),
              ThresholdSpec.constant("5/2"), ThresholdSpec.linear("1/10"),
              ThresholdSpec.x_over_log(), ThresholdSpec.x_log_x())

#: Query points hit exactly: 7/4 by 4, 2 by the perfect numbers, 21/10 by 20,
#: 3 by 120 and 672; the two beside 2 sit inside its guard band.
GRID = ("3/2", "7/4", "1999999999999/1000000000000", "2",
        "2000000000001/1000000000000", "21/10", "3")


@st.composite
def block_checkpoints(draw):
    """Ascending checkpoints holding k*BLOCK_LENGTH - 1, k*BLOCK_LENGTH and
    k*BLOCK_LENGTH + 1 for k = 1..K, and a few more anywhere below the last."""
    blocks = draw(st.integers(1, 2))
    edges = [k * BLOCK_LENGTH + d for k in range(1, blocks + 1) for d in (-1, 0, 1)]
    more = draw(st.lists(st.integers(1, edges[-1]), max_size=4))
    return sorted(set(edges + more))


@settings(max_examples=8, deadline=None)
@given(checkpoints=block_checkpoints(), target=st.sampled_from(("2", "3/2", "7/2")),
       include_one=st.booleans())
def test_counts_do_not_depend_on_block_edges(checkpoints, target, include_one):
    target = RationalTarget.parse(target)
    limit = checkpoints[-1]
    runs = []
    for length in LENGTHS:
        source = SigmaSource(segment_length=length)
        counts = count_thresholds(target, list(THRESHOLDS), checkpoints, source,
                                  include_one)
        cdfs = [empirical_cdf(limit, GRID, source, inclusive).counts
                for inclusive in (True, False)]
        phase = phase_experiment(target, "linear", checkpoints, source, c="1/4")
        runs.append((counts.strict.tolist(), counts.ties.tolist(), cdfs,
                     phase.densities, phase.references))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def _threshold_floor(spec, b, x):
    """(floor of b*k(x), whether b*k(x) is that integer) from the definition,
    or None where b*k(x) is +inf (y/log y at x = 1)."""
    if spec.kind in ("constant", "linear"):
        t = b * spec.param * (x if spec.kind == "linear" else 1)
        return t.numerator // t.denominator, t.denominator == 1
    if spec.kind == "power":  # b*x^(p/q) is the q-th root of b^q * x^p
        p, q = spec.param.numerator, spec.param.denominator
        v = b**q * x**p
        r = int(round(v ** (1.0 / q)))
        while r**q > v:
            r -= 1
        while (r + 1) ** q <= v:
            r += 1
        return r, r**q == v
    if x == 1:  # log 1 = 0
        return (None, False) if spec.kind == "x_over_log" else (0, True)
    with mpmath.workdps(40):  # irrational for x >= 2
        power = -1 if spec.kind == "x_over_log" else 1
        return int(mpmath.floor(b * x * mpmath.log(x) ** power)), False


@st.composite
def at_limit_checkpoints(draw):
    """1, 2, 3, 4, some of BLOCK_LENGTH - 1, BLOCK_LENGTH, BLOCK_LENGTH + 1, a
    few more anywhere, and duplicates of some of them, ascending."""
    edges = [BLOCK_LENGTH + d for d in (-1, 0, 1)]
    chosen = [1, 2, 3, 4] + draw(st.lists(st.sampled_from(edges), max_size=3))
    chosen += draw(st.lists(st.integers(1, BLOCK_LENGTH + 1), max_size=3))
    return sorted(chosen + draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=3)))


@settings(max_examples=10, deadline=None)
@given(checkpoints=at_limit_checkpoints(), target=st.sampled_from(("2", "3/2", "7/2")),
       include_one=st.booleans(), length=st.sampled_from((DEFAULT_SEGMENT_LENGTH, 1024)))
def test_at_limit_rows_match_brute_force(oracle_sigma, checkpoints, target,
                                         include_one, length):
    # n <= x counts at x when D(n) < b*k(x) (ties: D(n) = b*k(x)), for every kind
    target = RationalTarget.parse(target)
    a, b = target.a, target.b
    top = checkpoints[-1]
    D = np.abs(b * np.array(oracle_sigma[1:top + 1]) - a * np.arange(1, top + 1))
    specs = [replace(spec, at_limit=True) for spec in THRESHOLDS]
    got = count_thresholds(target, specs, checkpoints, SigmaSource(segment_length=length),
                           include_one)
    for i, spec in enumerate(specs):
        strict, ties = [], []
        for x in checkpoints:
            d = D[(0 if include_one else 1):x]
            floor, exact = _threshold_floor(spec, b, x)
            if floor is None:
                strict.append(len(d))
                ties.append(0)
            else:
                strict.append(int(np.count_nonzero(d < floor if exact else d <= floor)))
                ties.append(int(np.count_nonzero(d == floor)) if exact else 0)
        assert got.strict[i].tolist() == strict, spec
        assert got.ties[i].tolist() == ties, spec


@pytest.mark.parametrize("include_one", [True, False])
def test_block_edges_match_brute_force(oracle_sigma, include_one):
    # D < n^(1/2) and D = n^(1/2) for l = 2, and sigma(n)/n <= 2, decided per n
    checkpoints = [1, BLOCK_LENGTH - 1, BLOCK_LENGTH, BLOCK_LENGTH + 1, 10**5]
    strict, ties, below = [], [], []
    s = t = c = 0
    n = 0
    for x in checkpoints:
        while n < x:
            n += 1
            c += oracle_sigma[n] <= 2 * n
            if n == 1 and not include_one:
                continue
            D2 = (oracle_sigma[n] - 2 * n) ** 2
            s += D2 < n
            t += D2 == n
        strict.append(s)
        ties.append(t)
        below.append(c)
    got = count_thresholds("2", [ThresholdSpec.power("1/2")], checkpoints,
                           include_one=include_one)
    assert (got.strict[0].tolist(), got.ties[0].tolist()) == (strict, ties)
    assert empirical_cdf(checkpoints[-1], ["2"]).counts == (below[-1],)


def test_blocks_cut_each_segment():
    source = SigmaSource(segment_length=BLOCK_LENGTH + 1000)
    limit = 3 * BLOCK_LENGTH
    blocks = list(source.blocks(limit))
    assert [(n[0], n[-1]) for n, _ in blocks] == [
        (1, BLOCK_LENGTH), (BLOCK_LENGTH + 1, BLOCK_LENGTH + 1000),
        (BLOCK_LENGTH + 1001, 2 * BLOCK_LENGTH + 1000),
        (2 * BLOCK_LENGTH + 1001, 2 * BLOCK_LENGTH + 2000),
        (2 * BLOCK_LENGTH + 2001, limit)]
    assert all(n.dtype == sigma.dtype == np.int64 and len(n) == len(sigma)
               for n, sigma in blocks)
    assert np.array_equal(np.concatenate([n for n, _ in blocks]), np.arange(1, limit + 1))
    whole = sieve_segment(1, limit).sigma
    assert np.array_equal(np.concatenate([sigma for _, sigma in blocks]), whole)


def test_blocks_identical_at_every_segment_length():
    # the default length and 2^22 sieve by 2-adic parts and cut the same
    # blocks, the others by the step-1 pairs; every block is the int64
    # columns (n, sigma) either way
    limit = 2**22 + 2**20 + 12345
    whole = sieve_segment(1, limit).sigma
    edges = {}
    for length, threads in ((DEFAULT_SEGMENT_LENGTH, 1), (2**22, 2), (1024, 2),
                            (3 * BLOCK_LENGTH - 1, 1), (3 * BLOCK_LENGTH + 1, 2)):
        blocks = list(SigmaSource(segment_length=length, threads=threads).blocks(limit))
        assert all(n.dtype == sigma.dtype == np.int64 and len(n) == len(sigma)
                   for n, sigma in blocks)
        n = np.concatenate([n for n, _ in blocks])
        assert np.array_equal(n, np.arange(1, limit + 1))
        assert np.array_equal(np.concatenate([sigma for _, sigma in blocks]), whole)
        edges[length] = [int(n[-1]) for n, _ in blocks]
    assert edges[DEFAULT_SEGMENT_LENGTH] == edges[2**22]


@pytest.mark.parametrize("hi", [U32_SIGMA_LIMIT, U32_SIGMA_LIMIT + 1024])
def test_sigma_block_at_the_u32_boundary(hi):
    # u32 sigma ends at hi = 2^27; one element past it the block is u64
    lo = hi - 4095
    sig = _sigma_block(lo, hi)
    assert sig.dtype == (np.uint32 if hi <= U32_SIGMA_LIMIT else np.uint64)
    assert sig.tolist() == [factor(n).sigma for n in range(lo, hi + 1)]
    rng = random.Random(hi)
    for i in rng.sample(range(len(sig)), 30) + [0, len(sig) - 1, int(np.argmax(sig))]:
        assert int(sig[i]) == sigma_oracle(lo + i)


class _BlocksOnlySource(SigmaSource):
    """A source whose segments may be taken only by its own blocks."""

    calls = 0

    def segments(self, limit):
        caller = sys._getframe(1).f_code
        assert caller is SigmaSource.blocks.__code__, f"segments read by {caller.co_name}"
        self.calls += 1
        return super().segments(limit)


#: Every statistic, run on a given source across several 1024-element segments.
STATISTICS = {
    "census": lambda s: census(CongruenceProblem(1, 12, 3000), s),
    "sporadic_growth_report": lambda s: sporadic_growth_report(1, 12, [100, 3000], s),
    "solve_diophantine": lambda s: solve_diophantine(DiophantineProblem(2, 1, 12, 3000), s),
    "enumerate_perfect": lambda s: enumerate_perfect("2", 3000, s),
    "wirsing_count_check": lambda s: wirsing_count_check("2", [10, 3000], s),
    "series_partial_sums": lambda s: series_partial_sums("2", 3000, s),
    "theorem_limit_check": lambda s: theorem_limit_check(
        "2", ThresholdSpec.power("1/2"), [100, 3000], s),
    "gcd_sum": lambda s: gcd_sum(10**5, s).value,  # the exact sum streams again
    "sigma_approx_probe": lambda s: sigma_approx_probe("1.7", 3, 3000, s),
    "empirical_cdf": lambda s: empirical_cdf(3000, ["2"], s),
    "phase_experiment": lambda s: phase_experiment("2", "linear", [3000], s, c="1/10"),
    "count_thresholds": lambda s: count_thresholds(
        "2", [ThresholdSpec.power("1/2")], [3000], s),
}


@pytest.mark.parametrize("statistic", list(STATISTICS))
def test_every_statistic_reads_blocks(statistic):
    source = _BlocksOnlySource(segment_length=1024)
    STATISTICS[statistic](source)
    assert source.calls >= 1


#: Limits one past and one short of three blocks.
EDGE_LIMITS = (3 * BLOCK_LENGTH - 1, 3 * BLOCK_LENGTH + 1)

_SMALL = SigmaSource(segment_length=1024)


def _rows(table, upto=None):
    return [r for r in table if upto is None or r.n <= upto]


@pytest.mark.parametrize("limit", EDGE_LIMITS)
@pytest.mark.parametrize("k", [1, 12])
def test_census_across_block_edges(oracle_sigma, limit, k):
    problem = CongruenceProblem(1, k, limit)
    got = census(problem)
    assert _rows(got) == _rows(census(problem, _SMALL))
    top = min(limit, len(oracle_sigma) - 1)  # the census stops at limit, the oracle at 10^5
    assert ({r.n: (r.classification, r.witnesses) for r in _rows(got, top)}
            == brute_census(1, k, top, oracle_sigma))


@pytest.mark.parametrize("limit", EDGE_LIMITS)
def test_diophantine_and_perfect_across_block_edges(oracle_sigma, limit):
    checkpoints = [BLOCK_LENGTH - 1, BLOCK_LENGTH, BLOCK_LENGTH + 1, limit]
    problem = DiophantineProblem(2, 1, 12, limit)
    got = solve_diophantine(problem, checkpoints=checkpoints)
    small = solve_diophantine(problem, _SMALL, checkpoints)
    assert _rows(got.records) == _rows(small.records)
    assert got.series == small.series
    top = min(limit, len(oracle_sigma) - 1)  # the census stops at limit, the oracle at 10^5
    assert ({r.n: r.classification for r in _rows(got.records, top)}
            == brute_diophantine(2, 1, 12, top, oracle_sigma))
    for target in ("2", "3", "3/2"):
        perfect = enumerate_perfect(target, limit, checkpoints=checkpoints)
        assert perfect.members == enumerate_perfect(target, limit, _SMALL).members
        assert perfect.counting == enumerate_perfect(target, limit, _SMALL,
                                                     checkpoints).counting


@pytest.mark.parametrize("m_hi", EDGE_LIMITS)
def test_gcd_sum_window_across_block_edges(m_hi):
    x = math.isqrt(m_hi**3 - 1) + 1  # the least x with x^2 >= m_hi^3
    got = gcd_sum(x)  # the window (x^(1/3), x^(2/3)] crosses one and two BLOCK_LENGTH
    assert got.m_lo < BLOCK_LENGTH and got.m_hi == m_hi
    small = gcd_sum(x, _SMALL)
    assert (got.m_lo, got.m_hi, got.rounded) == (small.m_lo, small.m_hi, small.rounded)


@pytest.mark.parametrize("limit", EDGE_LIMITS)
@pytest.mark.parametrize("target", ["1.7", "2.718281828", "1.00001"])
def test_probe_across_block_edges(limit, target):
    got = sigma_approx_probe(target, 8, limit)
    assert got == sigma_approx_probe(target, 8, limit, _SMALL)


@pytest.mark.parametrize("c", ["1/2", "1"])
def test_linear_phase_window_at_tie_points(oracle_sigma, c):
    # l - c = 3/2 is sigma(2)/2 and l - c = 1 is sigma(1)/1; l + c = 3 is
    # sigma(120)/120: ties at both ends, left out of the open window
    # |sigma(n)/n - 2| < c and counted by the inclusive CDF difference
    ell, cf = Fraction(2), Fraction(c)
    checkpoints = [1, 2, 3, BLOCK_LENGTH - 1, BLOCK_LENGTH, BLOCK_LENGTH + 1,
                   len(oracle_sigma) - 1]
    window, reference = [], []
    w = r = 0
    n = 0
    for x in checkpoints:
        while n < x:
            n += 1
            ratio = Fraction(oracle_sigma[n], n)
            w += abs(ratio - ell) < cf
            r += (ratio <= ell + cf) - (ratio <= ell - cf)
        window.append(w / x)
        reference.append(r / x)
    report = phase_experiment("2", "linear", checkpoints, c=c)
    assert (report.densities, report.references) == (window, reference)
