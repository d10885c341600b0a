"""Property tests for the counting kernels of count_thresholds.

The checkpoint accumulator and the log-space power decide are compared with
a brute force over sigma_oracle that decides every n by the exact integer
comparison D^q vs b^q * n^p, for random segment layouts, checkpoints (before
a segment, at its first and last n, inside it) and exponents p/q, q <= 10.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from withinperfect.sieve import SigmaSource
from withinperfect.types import RationalTarget, ThresholdSpec
from withinperfect.within import (_decide_power, _decide_segment, _exponents,
                                  _power_compare, _xlog_compare, count_thresholds)

TARGETS = ("2", "3/2", "7/2", "3", "5/4")


def brute_counts(target, c, checkpoints, include_one, sigma):
    """(strict, tie) counts of n <= x per checkpoint x, decided exactly."""
    a, b = target.a, target.b
    p, q = c.numerator, c.denominator
    strict, ties = [], []
    s = t = 0
    n = 0
    for x in checkpoints:
        while n < x:
            n += 1
            if n == 1 and not include_one:
                continue
            lhs = abs(b * sigma[n] - a * n) ** q
            rhs = b**q * n**p
            s += lhs < rhs
            t += lhs == rhs
        strict.append(s)
        ties.append(t)
    return strict, ties


@st.composite
def layouts(draw):
    """(segment_length, checkpoints) with every checkpoint <= the last one."""
    length = draw(st.integers(1024, 2600))
    segments = draw(st.integers(1, 3))
    limit = draw(st.integers(length * (segments - 1) + 1, length * segments))
    edges = [1, limit] + [length * k + d for k in range(1, segments) for d in (0, 1)]
    picks = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(1, limit)),
                          max_size=8))
    return length, sorted(set(picks) | {limit})


exponents = st.builds(Fraction, st.integers(1, 9), st.integers(2, 10)).filter(
    lambda c: 0 < c < 1)


@settings(max_examples=40, deadline=None)
@given(layout=layouts(), target=st.sampled_from(TARGETS),
       cs=st.lists(exponents, min_size=1, max_size=3), include_one=st.booleans())
def test_count_thresholds_matches_brute_force(oracle_sigma, layout, target, cs,
                                              include_one):
    length, checkpoints = layout
    target = RationalTarget.parse(target)
    got = count_thresholds(target, [ThresholdSpec.power(c) for c in cs], checkpoints,
                           SigmaSource(segment_length=length), include_one)
    assert got.checkpoints.tolist() == checkpoints
    for i, c in enumerate(cs):
        strict, ties = brute_counts(target, c, checkpoints, include_one, oracle_sigma)
        assert got.strict[i].tolist() == strict, (c, "strict")
        assert got.ties[i].tolist() == ties, (c, "ties")


@pytest.mark.parametrize("include_one", [True, False])
def test_ties_at_one_and_at_a_perfect_cube(oracle_sigma, include_one):
    # l = 2: D(1) = |1 - 2| = 1 = 1^c is a tie for every c; D(2) = 1 < 2^c
    cs = [Fraction(p, q) for q in range(2, 11) for p in range(1, q)]
    got = count_thresholds("2", [ThresholdSpec.power(c) for c in cs], [1, 2],
                           include_one=include_one)
    assert got.strict.tolist() == [[0, 1]] * len(cs)
    assert got.ties.tolist() == [[1, 1] if include_one else [0, 0]] * len(cs)
    # l = 7/2, c = 2/3: n = 27000 = 30^3 has D = |2*sigma(n) - 7n| = 1800 = 2 * 30^2
    checkpoints = [1, 26999, 27000, 27001]
    got = count_thresholds("7/2", [ThresholdSpec.power("2/3")], checkpoints,
                           SigmaSource(segment_length=27000), include_one)
    assert got.ties[0].tolist() == [0, 0, 1, 1]
    strict, ties = brute_counts(RationalTarget(7, 2), Fraction(2, 3), checkpoints,
                                include_one, oracle_sigma)
    assert (got.strict[0].tolist(), got.ties[0].tolist()) == (strict, ties)


def test_power_decide_near_the_threshold_up_to_the_domain_cap():
    # D just below, at and above b*n^c for n up to 2^55, perfect powers included
    rng = np.random.default_rng(5)
    for c in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 10), Fraction(9, 10)):
        p, q = c.numerator, c.denominator
        roots = rng.integers(2, int(2 ** (55 / q)), size=40).tolist()
        ns = [m**q for m in roots] + rng.integers(2, 2**55, size=40).tolist() + [1, 2, 3]
        for b in (1, 3):
            Ds, nn = [], []
            for n in ns:
                r = int(round((b**q * n**p) ** (1.0 / q)))
                while r**q > b**q * n**p:
                    r -= 1
                while (r + 1) ** q <= b**q * n**p:
                    r += 1
                for d in (r - 1, r, r + 1):
                    Ds.append(max(d, 0))
                    nn.append(n)
            D = np.array(Ds, dtype=np.int64)
            n = np.array(nn, dtype=np.int64)
            inside, ties = _decide_power(c, b, D, n, _exponents(D, b, n))
            want = [_power_compare(d, b, m, c) for d, m in zip(Ds, nn)]
            assert inside.tolist() == [s < 0 for s in want]
            assert ties.tolist() == [i for i, s in enumerate(want) if s == 0]
            assert np.all(np.diff(ties) > 0)
            assert any(s == 0 for s in want)


def test_xlog_decide_near_the_threshold_up_to_the_domain_cap():
    # D just below and above b*n/log n for n up to 2^55; the band sends
    # every large D to the exact sign.  n = 1 reads k(1) as +inf.
    rng = np.random.default_rng(7)
    ns = rng.integers(4, 2**55, size=60).tolist() + [2, 3]
    for b in (1, 3):
        Ds, nn = [], []
        with mpmath.workdps(50):
            for n in ns:
                r = int(mpmath.floor(mpmath.mpf(b * n) / mpmath.log(n)))
                Ds += [r - 1, r, r + 1]
                nn += [n] * 3
        Ds += [0, 1, 2**53]
        nn += [1] * 3
        D = np.array(Ds, dtype=np.int64)
        n = np.array(nn, dtype=np.int64)
        inside, ties = _decide_segment(ThresholdSpec.x_over_log(), b, D, n)
        want = [-1 if m == 1 else _xlog_compare(d, b, m) for d, m in zip(Ds, nn)]
        assert inside.tolist() == [s < 0 for s in want]
        assert ties.tolist() == [i for i, s in enumerate(want) if s == 0] == []
        assert want.count(1) == len(ns)  # r + 1 is outside for every n >= 2


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 2**55), b=st.integers(1, 64), offset=st.integers(-2, 2))
@example(n=27141237679848073, b=1, offset=0)  # n/log n is 3.1e-6 above an integer,
@example(n=27141237679848073, b=1, offset=1)  # so 64 bits cannot place it
def test_xlog_compare_is_a_certified_sign(n, b, offset):
    # b*n/log n is irrational for n >= 2, so the sign is never 0; D is drawn
    # beside floor(b*n/log n), as close to it as an integer gets
    with mpmath.workdps(60):
        t = mpmath.mpf(b * n) / mpmath.log(n)
        D = max(int(mpmath.floor(t)) + offset, 0)
        want = 1 if D > t else -1
    assert _xlog_compare(D, b, n) == want
