"""Property tests for the counting kernels of count_thresholds.

The checkpoint accumulator and the log-space power decide are compared with
a brute force over sigma_oracle that decides every n by the exact integer
comparison D^q vs b^q * n^p, for random segment layouts, checkpoints (before
a segment, at its first and last n, inside it) and exponents p/q, q <= 10.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from withinperfect import within
from withinperfect.sieve import SigmaSource, sigma_oracle
from withinperfect.types import RationalTarget, ThresholdSpec
from withinperfect.within import (_above, _counted, _power_compare, _xlog_compare,
                                  count_thresholds)

from conftest import decide_segment

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
            inside, ties = decide_segment(ThresholdSpec.power(c), b, D, n)
            want = [_power_compare(d, b, m, c) for d, m in zip(Ds, nn)]
            assert inside.tolist() == [s < 0 for s in want]
            assert ties.tolist() == [i for i, s in enumerate(want) if s == 0]
            assert np.all(np.diff(ties) > 0)
            assert any(s == 0 for s in want)


def test_ratio_decide_near_the_threshold_up_to_the_domain_cap():
    # D just below, at and above b*k0 (constant) and b*c*n (linear) for n up
    # to 2^55 and n = 1, with k's denominator up to 2^61 + 1 and its numerator
    # past 2^63; every D stays below 2^62, as _guard_linear keeps it, and
    # 2^62 - 1 is inside every b*k(n) of 2^62 or more
    rng = np.random.default_rng(11)
    ns = rng.integers(2, 2**55, size=30).tolist() + [1, 2, 3, 2**55]
    ks = [Fraction(1), Fraction(1, 10), Fraction(1, 7), Fraction(10**15 + 37, 10**15),
          Fraction(3, 10**15), Fraction(2**63 + 5, 2**61 + 1), Fraction(2**64 + 1, 3),
          Fraction(2**61 + 1, 2**61 + 3)]
    seen_tie = False
    for kind, k, b in itertools.product(("constant", "linear"), ks, (1, 3)):
        Ds, nn = [], []
        for n in ns:
            t = b * k * (n if kind == "linear" else 1)
            r = math.floor(t)
            for d in (r - 1, r, r + 1, 2**62 - 1):
                if 0 <= d < 2**62:
                    Ds.append(d)
                    nn.append(n)
        D = np.array(Ds, dtype=np.int64)
        n = np.array(nn, dtype=np.int64)
        inside, ties = decide_segment(ThresholdSpec(kind, k), b, D, n)
        t = [b * k * (m if kind == "linear" else 1) for m in nn]
        assert inside.tolist() == [d < x for d, x in zip(Ds, t)], (kind, k, b)
        assert ties.tolist() == [i for i, (d, x) in enumerate(zip(Ds, t)) if d == x]
        seen_tie |= len(ties) > 0
    assert seen_tie


def test_xlog_decide_near_the_threshold_up_to_the_domain_cap():
    # D just below and above b*n*log(n)^power for n up to 2^55, for y/log y
    # (power -1) and y*log y (+1); the band sends every large D to the exact
    # sign.  At n = 1, y/log y is read as +inf and y*log y is 0, which D = 0 ties.
    rng = np.random.default_rng(7)
    ns = rng.integers(4, 2**55, size=60).tolist() + [2, 3]
    for (kind, power), b in itertools.product((("x_over_log", -1), ("x_log_x", 1)), (1, 3)):
        Ds, nn = [], []
        with mpmath.workdps(50):
            for n in ns:
                r = int(mpmath.floor(b * n * mpmath.log(n) ** power))
                Ds += [r - 1, r, r + 1]
                nn += [n] * 3
        Ds += [0, 1, 2**53]
        nn += [1] * 3
        D = np.array(Ds, dtype=np.int64)
        n = np.array(nn, dtype=np.int64)
        inside, ties = decide_segment(ThresholdSpec(kind), b, D, n)
        want = [-1 if m == 1 and power < 0 else _xlog_compare(d, b, m, power)
                for d, m in zip(Ds, nn)]
        assert inside.tolist() == [s < 0 for s in want]
        assert ties.tolist() == [i for i, s in enumerate(want) if s == 0]
        assert ties.tolist() == ([] if power < 0 else [len(Ds) - 3])
        assert want.count(1) == len(ns) + (0 if power < 0 else 2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 2**55), b=st.integers(1, 64), offset=st.integers(-2, 2),
       power=st.sampled_from((-1, 1)))
@example(n=27141237679848073, b=1, offset=0, power=-1)  # n/log n is 3.1e-6 above an
@example(n=27141237679848073, b=1, offset=1, power=-1)  # integer: 64 bits cannot place it
def test_xlog_compare_is_a_certified_sign(n, b, offset, power):
    # b*n*log(n)^(+-1) is irrational for n >= 2, so the sign is never 0; D is
    # drawn beside its floor, as close to it as an integer gets
    with mpmath.workdps(60):
        t = b * n * mpmath.log(n) ** power
        D = max(int(mpmath.floor(t)) + offset, 0)
        want = 1 if D > t else -1
    assert _xlog_compare(D, b, n, power) == want


def test_xlog_compare_at_one():
    # 1*log 1 = 0 exactly, so the y*log y sign at n = 1 is that of D
    assert [_xlog_compare(d, 3, 1, 1) for d in (0, 1, 5)] == [0, 1, 1]
    with pytest.raises(ValueError):
        _xlog_compare(0, 1, 1)


# --- the candidate prefilter of _counted ---

_THRESHOLDS = st.one_of(
    exponents.map(ThresholdSpec.power),
    st.sampled_from([Fraction(1, 3), Fraction(7), Fraction(10**9 + 7, 3),
                     Fraction(2**62)]).map(ThresholdSpec.constant),  # 2^62: T clamps
    st.sampled_from([Fraction(1, 1000), Fraction(2, 7), Fraction(3),
                     Fraction(2**7 + 1, 3)]).map(ThresholdSpec.linear),  # b*k near 2^62 at 2^55
    st.sampled_from([ThresholdSpec.x_over_log(), ThresholdSpec.x_log_x()]))


def _floor_bk(threshold: ThresholdSpec, b: int, n: int) -> int:
    """floor(b*k(n)) exactly, for n >= 2."""
    kind, c = threshold.kind, threshold.param
    if kind in ("constant", "linear"):
        return math.floor(b * c * (n if kind == "linear" else 1))
    if kind == "power":
        q, big = c.denominator, b**c.denominator * n**c.numerator
        r = int(big ** (1.0 / q))
        while r**q > big:
            r -= 1
        while (r + 1) ** q <= big:
            r += 1
        return r
    with mpmath.workdps(60):
        return int(mpmath.floor(b * n * mpmath.log(n) ** (-1 if kind == "x_over_log" else 1)))


def _above_exactly(threshold: ThresholdSpec, b: int, n: int, T: int) -> bool:
    """Whether T > b*k(n), decided on integers (n >= 2)."""
    kind, c = threshold.kind, threshold.param
    if kind == "power":
        return T**c.denominator > b**c.denominator * n**c.numerator
    if kind in ("constant", "linear"):
        return T > b * c * (n if kind == "linear" else 1)
    return _xlog_compare(T, b, n, -1 if kind == "x_over_log" else 1) > 0


@settings(max_examples=300, deadline=None)
@given(threshold=_THRESHOLDS, b=st.integers(1, 2**20),
       n=st.one_of(st.integers(3, 2**55), st.sampled_from([3, 4, 2**55])))
def test_above_is_an_integer_just_above_b_k_n(threshold, b, n):
    T = _above(threshold, b)(n)
    assert isinstance(T, int) and T <= 2**62
    if T < 2**62 or _above_exactly(threshold, b, n, 2**62):
        assert _above_exactly(threshold, b, n, T)
        # and no looser than its float margin: a far smaller T is not above
        assert not _above_exactly(threshold, b, n, max(T - 2 - T // 10**8, 0))


def _blocks_of(target: RationalTarget, n: np.ndarray, D: np.ndarray):
    """The one block (n, sigma) whose D = |b*sigma - a*n| is D moved down to
    the nearest value with b | a*n + D (up by b where that is below 0)."""
    a, b = target.a, target.b
    D = D - (a * n + D) % b
    D[D < 0] += b
    return D, [(n, (a * n + D) // b)]


@settings(max_examples=60, deadline=None)
@given(thresholds=st.lists(_THRESHOLDS, min_size=1, max_size=3),
       target=st.sampled_from(["5/3", "7/2", "3/2", "11/4", "2"]),
       n0=st.one_of(st.sampled_from([1, 2, 3, 4, 2**55 - 4095]),
                    st.integers(5, 2**55 - 4095)),
       length=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1),
       far=st.booleans())
@example(thresholds=[ThresholdSpec.power(Fraction(1, 2))], target="5/3", n0=2**40,
         length=1000, seed=0, far=True)  # no candidates
@example(thresholds=[ThresholdSpec.constant(2**62), ThresholdSpec.power(Fraction(9, 10))],
         target="3/2", n0=2**55 - 4095, length=4096, seed=1, far=False)  # T clamped
def test_the_prefilter_counts_as_deciding_every_n(thresholds, target, n0, length, seed, far):
    # D is drawn at, beside and across b*k(n) of one of the thresholds, at 0,
    # or (far) at or above the loosest b*k of the block: the filtered pass of
    # _counted counts, at every n, what decide_segment gives for all of them
    target = RationalTarget.parse(target)
    b = target.b
    n = np.arange(n0, n0 + length, dtype=np.int64)
    rng = np.random.default_rng(seed)
    if far:
        top = max(_floor_bk(t, b, max(n0 + length - 1, 2)) for t in thresholds) + 1
        D = rng.integers(min(top, 2**61), 2**61, length, endpoint=True)
    else:
        which = rng.integers(0, len(thresholds), length)
        bk = np.array([float(b * (t.param if t.kind == "constant" else 1)) for t in thresholds])
        with np.errstate(divide="ignore"):
            nf, logn = n.astype(np.float64), np.log(n.astype(np.float64))
            k = {"power": lambda t: nf ** float(t.param), "constant": lambda t: np.ones(length),
                 "linear": lambda t: nf * float(t.param), "x_over_log": lambda t: nf / logn,
                 "x_log_x": lambda t: nf * logn}
            v = np.stack([bk[i] * k[t.kind](t) for i, t in enumerate(thresholds)])
        v = np.minimum(v[which, np.arange(length)], 2.0**61)
        D = (v * rng.random(length) * 3).astype(np.int64)
        D[rng.random(length) < 0.1] = 0
        for i in rng.choice(length, min(length, 40), replace=False).tolist():
            m = int(n[i])
            if m >= 2:
                D[i] = min(_floor_bk(thresholds[which[i]], b, m) + int(rng.integers(-1, 2)), 2**61)
    # every D stays below 2^62, as _guard_linear keeps it
    D, blocks = _blocks_of(target, n, np.clip(D, 0, 2**61))
    [(x, strict, ties)] = _counted(target, thresholds, range(n0, n0 + length), blocks, True)
    assert x.tolist() == n.tolist()
    for i, t in enumerate(thresholds):
        inside, tie = decide_segment(t, b, D, n)
        assert strict[i].tolist() == np.cumsum(inside).tolist(), t
        assert ties[i].tolist() == np.cumsum(np.isin(np.arange(length), tie)).tolist(), t


def test_the_prefilter_decides_only_its_candidates(monkeypatch):
    # a block of far D from n = 2^40 decides no n; one whose loosest T clamps
    # at 2^62, and blocks from n = 1 and 2, decide every n
    lengths = []
    decider = within._decider

    def counted(thresholds, b):  # the n each kind's one decide per block is given
        decide = decider(thresholds, b)
        return lambda D, n: lengths.append(len(D)) or decide(D, n)

    monkeypatch.setattr(within, "_decider", counted)
    target = RationalTarget(3, 2)
    loose = [ThresholdSpec.power(Fraction(1, 2)), ThresholdSpec.x_over_log(),
             ThresholdSpec.linear(Fraction(1, 1000))]
    n = np.arange(2**40, 2**40 + 1000, dtype=np.int64)
    _, blocks = _blocks_of(target, n, np.full(1000, 2**50))
    [(_, strict, ties)] = _counted(target, loose, range(2**40, 2**40 + 1000), blocks, True)
    assert lengths == [0, 0, 0] and not strict.any() and not ties.any()
    lengths.clear()
    clamped = loose + [ThresholdSpec.constant(Fraction(2**62))]
    [(_, strict, ties)] = _counted(target, clamped, range(2**40, 2**40 + 1000), blocks, True)
    assert lengths == [1000] * 4 and strict[3].tolist() == list(range(1, 1001))
    for n0 in (1, 2):
        lengths.clear()
        n = np.arange(n0, n0 + 1000, dtype=np.int64)
        _, blocks = _blocks_of(target, n, np.full(1000, 2**50))
        list(_counted(target, loose, range(n0, n0 + 1000), blocks, True))
        assert lengths == [1000] * 3
    # y/log y falls from n = 2 to 3: D = 14 at n = 2 is below 5*2/log 2 = 14.43
    # but not below 5*3/log 3 = 13.65, so a block from 2 is decided whole
    target = RationalTarget(8, 5)
    D, blocks = _blocks_of(target, np.array([2, 3]), np.array([14, 2**40]))
    assert D[0] == 14
    [(_, strict, _)] = _counted(target, [ThresholdSpec.x_over_log()], range(2, 4), blocks, True)
    assert strict.tolist() == [[1, 1]]


# --- one broadcast decide per kind ---

def _exact_sign(threshold: ThresholdSpec, b: int, D: int, n: int) -> int:
    """The sign of D - b*k(n) on integers, for power, constant and linear."""
    c = threshold.param
    if threshold.kind == "power":
        return _power_compare(D, b, n, c)
    return (D > b * c * n) - (D < b * c * n) if threshold.kind == "linear" else (
        (D > b * c) - (D < b * c))


_KINDS = {"power": exponents,
          "constant": st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 1000)),
          "linear": st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))}


@st.composite
def _one_kind(draw):
    """(b, thresholds of one kind, D, n) with D at, beside and far from b*k(n)
    of each threshold, n = 1 (where every power and D = b tie) among the n,
    and perfect q-th powers n = m^q, where D = b*m^p ties y^(p/q)."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    params = draw(st.lists(_KINDS[kind], min_size=1, max_size=8, unique=True))
    thresholds = [ThresholdSpec(kind, c) for c in params]
    b = draw(st.integers(1, 5))
    Ds, ns = [b, 0, b - 1, b + 1], [1, 1, 1, 1]
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.sampled_from(thresholds))
        if t.kind == "power" and draw(st.booleans()):
            q = t.param.denominator
            m = draw(st.integers(2, int(2 ** (40 / q))))
            n = m**q
        else:
            n = draw(st.integers(2, 2**40))
        r = _floor_bk(t, b, n)
        Ds += [max(r + d, 0) for d in (-1, 0, 1)] + [b * t.param.numerator * n]
        ns += [n] * 4
    return b, thresholds, np.array(Ds, dtype=np.int64), np.array(ns, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(_one_kind())
def test_one_decide_per_kind_equals_one_per_threshold(case):
    # every row of the broadcast decide is the one-threshold decide and the
    # exact sign, ties (n = 1, n = m^q) and band cells included
    b, thresholds, D, n = case
    inside, ties = within._decider(thresholds, b)(D, n)
    assert inside.shape == (len(thresholds), len(n))
    assert np.all(np.diff(ties) > 0)
    rows, offsets = np.divmod(ties, len(n))
    for r, t in enumerate(thresholds):
        alone, alone_ties = decide_segment(t, b, D, n)
        assert inside[r].tolist() == alone.tolist()
        assert offsets[rows == r].tolist() == alone_ties.tolist()
        want = [_exact_sign(t, b, d, m) for d, m in zip(D.tolist(), n.tolist())]
        assert alone.tolist() == [s < 0 for s in want], t
        assert alone_ties.tolist() == [i for i, s in enumerate(want) if s == 0], t


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.one_of(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2),
                                                  Fraction(3), Fraction(7, 3)]),
                                 st.builds(Fraction, st.integers(1, 400), st.integers(1, 100))),
                       min_size=1, max_size=6),
       lo=st.integers(1, 8000), length=st.integers(1, 1000))
def test_one_ratio_decide_equals_one_per_point(points, lo, length):
    # sigma(n)/n < u for every u at once, as distribution decides a block: the
    # row of u is the decide of u alone and the exact comparison, with ties at
    # n = 1 (u = 1), n = 2 (u = 3/2), the perfect numbers (u = 2), 120 (u = 3)
    n = np.arange(lo, lo + length, dtype=np.int64)
    sigma = np.array([sigma_oracle(m) for m in n.tolist()], dtype=np.int64)
    inside, ties = within._ratio_below(points)(sigma / n, sigma, n)
    rows, offsets = np.divmod(ties, len(n))
    for r, u in enumerate(points):
        alone, alone_ties = within._ratio_below([u])(sigma / n, sigma, n)
        assert inside[r].tolist() == alone[0].tolist()
        assert offsets[rows == r].tolist() == alone_ties.tolist()
        ratio = [Fraction(s, m) for s, m in zip(sigma.tolist(), n.tolist())]
        assert alone[0].tolist() == [x < u for x in ratio]
        assert alone_ties.tolist() == [i for i, x in enumerate(ratio) if x == u]


def test_ratio_ties_at_one_two_and_the_perfect_numbers():
    n = np.arange(1, 8129, dtype=np.int64)
    sigma = np.array([sigma_oracle(m) for m in n.tolist()], dtype=np.int64)
    _, ties = within._ratio_below([Fraction(1), Fraction(3, 2), Fraction(2)])(sigma / n, sigma, n)
    rows, offsets = np.divmod(ties, len(n))
    assert [(n[offsets[rows == r]]).tolist() for r in range(3)] == [[1], [2], [6, 28, 496, 8128]]
