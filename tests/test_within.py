import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from withinperfect.errors import CapabilityError, InvalidThresholdError
from withinperfect.exact import enumerate_perfect, solve_diophantine, DiophantineProblem
from withinperfect.sieve import SigmaSource, sieve_segment
from withinperfect.types import ThresholdSpec
from withinperfect.within import (REFERENCE_QUOTIENTS, count_at_limit,
                                  count_thresholds, count_within, series,
                                  table1_reproduce, theorem_limit_check,
                                  _decide_segment)


def test_constant_threshold_reduces_to_perfect():
    result = count_within("2", ThresholdSpec.constant(1), 100)
    assert result.counts == [2]  # {6, 28}: |sigma - 2n| < 1 forces equality


def test_power_half_at_30():
    result = count_within("2", ThresholdSpec.power("0.5"), 30)
    assert result.counts == [9]  # {2,4,6,8,10,16,18,20,28}


def test_tie_at_one_separates_conventions():
    strict = count_within("2", ThresholdSpec.power("1/2"), 10)
    loose = count_within("2", ThresholdSpec.power("1/2", strict=False), 10)
    assert strict.counts == [5]  # {2,4,6,8,10}
    assert loose.counts == [6]   # n=1 is the exact tie |sigma(1)-2| = 1 = 1^c
    dropped = count_within("2", ThresholdSpec.power("1/2", strict=False), 10,
                           include_one=False)
    assert dropped.counts == [5]


def test_nesting_in_exponent():
    counts = [count_within("2", ThresholdSpec.power(Fraction(c, 10)), 10**4).counts[0]
              for c in range(2, 10)]
    assert counts == sorted(counts)


def test_perfect_members_always_inside():
    census = enumerate_perfect("2", 10**4)
    for c in ("0.2", "0.5", "0.9"):
        result = series("2", ThresholdSpec.power(c), [6, 28, 496, 8128])
        assert all(result.counts[i] >= i + 1 for i in range(4))
    assert census.members == [6, 28, 496, 8128]


def test_exact_comparison_against_high_precision():
    seg = sieve_segment(1, 10**4)
    n = seg.n_values()
    D = np.abs(seg.sigma.view(np.int64) - 2 * n)
    Df = D.astype(np.float64)
    logn = np.log(n.astype(np.float64))
    with mpmath.workdps(50):
        for c in (Fraction(c10, 10) for c10 in range(2, 10)):
            strict, tie = _decide_segment(ThresholdSpec.power(c), 1, D, n, Df, logn)
            cf = mpmath.mpf(c.numerator) / c.denominator
            for i in range(0, 10**4, 7):  # dense sample
                ref = mpmath.power(int(n[i]), cf)
                d = int(D[i])
                if abs(d - ref) > mpmath.mpf(10) ** -30:
                    assert bool(strict[i]) == (d < ref), (int(n[i]), c)
                    assert not tie[i]
                else:
                    assert tie[i]


def test_series_matches_pointwise_counts():
    checkpoints = [10, 100, 1000, 5000]
    spec = ThresholdSpec.power("0.3")
    multi = series("2", spec, checkpoints)
    singles = [count_within("2", spec, x).counts[0] for x in checkpoints]
    assert multi.counts == singles
    assert multi.quotients[1] == pytest.approx(singles[1] / (100 / math.log(100)))


def test_segmentation_invariance():
    spec = ThresholdSpec.power("0.7")
    a = series("2", spec, [10**4], SigmaSource(segment_length=2**10))
    b = series("2", spec, [10**4], SigmaSource(segment_length=2**14, threads=4))
    assert a.counts == b.counts


def test_consistency_with_diophantine_union():
    # |sigma(n) - 2n| < 3 is exactly the union of offsets k in {-2,...,2}
    x = 10**4
    total = count_within("2", ThresholdSpec.constant(3), x).counts[0]
    parts = len(enumerate_perfect("2", x).members)
    for k in (-2, -1, 1, 2):
        parts += len(solve_diophantine(DiophantineProblem(2, 1, k, x)).records)
    assert total == parts


def test_consistency_with_diophantine_union_fractional():
    # l = 3/2: |2*sigma(n) - 3n| < 2*2 covers k in {-3,...,3}
    x = 5 * 10**3
    total = count_within("3/2", ThresholdSpec.constant(2), x).counts[0]
    parts = len(enumerate_perfect("3/2", x).members)
    for k in (-3, -2, -1, 1, 2, 3):
        parts += len(solve_diophantine(DiophantineProblem(3, 2, k, x)).records)
    assert total == parts


def test_threshold_at_limit_variant():
    # |sigma(n) - 2n| < sqrt(100) = 10 over n <= 100 (brute-checked: 26)
    spec = ThresholdSpec.power("0.5", at_limit=True)
    result = count_within("2", spec, 100)
    assert result.counts == [26]
    assert count_at_limit("2", ThresholdSpec.power("0.5"), [100]).strict[0] == [26]


def test_x_over_log_series_defined_everywhere():
    result = series("2", ThresholdSpec.x_over_log(), list(range(2, 101)))
    assert len(result.counts) == 99
    assert result.counts[0] == 2  # n=1 (k(1) = +inf) and n=2
    assert all(q > 0 for q in result.quotients)
    assert all(b >= a for a, b in zip(result.counts, result.counts[1:]))


def test_custom_threshold():
    spec = ThresholdSpec.custom(lambda y: 5.0 * np.ones_like(y))
    got = count_within("2", spec, 100)
    want = count_within("2", ThresholdSpec.constant(5), 100)
    assert got.counts == want.counts
    clipped = ThresholdSpec.custom(lambda y: y * 0.0, floor=5.0)
    assert count_within("2", clipped, 100).counts == want.counts


def test_threshold_validation():
    with pytest.raises(InvalidThresholdError):
        ThresholdSpec.power(0)
    with pytest.raises(InvalidThresholdError):
        ThresholdSpec.power(1)
    with pytest.raises(InvalidThresholdError):
        ThresholdSpec.power("1/16")  # denominator above the exact-compare cap
    with pytest.raises(InvalidThresholdError):
        ThresholdSpec.constant(0)
    with pytest.raises(InvalidThresholdError):
        ThresholdSpec.parse("nope:1")
    assert ThresholdSpec.parse("pow:3/10").param == Fraction(3, 10)
    assert ThresholdSpec.parse("pow:0.3").param == Fraction(3, 10)
    assert ThresholdSpec.parse("xlog").kind == "x_over_log"


def test_table_capability_error():
    with pytest.raises(CapabilityError):
        table1_reproduce(limit=10**6)


def test_reference_grid_is_complete():
    assert len(REFERENCE_QUOTIENTS) == 24
    assert REFERENCE_QUOTIENTS[(Fraction(9, 10), 10**6)] == 3.661860
    assert REFERENCE_QUOTIENTS[(Fraction(5, 10), 2 * 10**7)] == 0.255962
    assert REFERENCE_QUOTIENTS[(Fraction(3, 10), 10**7)] == 0.247837


def test_one_published_cell_at_small_checkpoint():
    got = series("2", ThresholdSpec.power("0.9"), [10**6])
    quotient = got.quotients[0]
    assert abs(quotient - 3.661860) <= 5e-4


def test_limit_check_branches():
    inside = theorem_limit_check("2", ThresholdSpec.power("0.3"), [10**4, 10**5])
    assert inside.branch == "limit"
    partial = 1 / 6 + 1 / 28 + 1 / 496 + 1 / 8128
    assert inside.partial_limits[-1] == pytest.approx(partial)
    assert inside.deviations[-1] == pytest.approx(
        abs(inside.quotients[-1] - partial))

    outside = theorem_limit_check("5/4", ThresholdSpec.power("0.3"), [10**4, 10**5])
    assert outside.branch == "bound"  # no 5/4-perfect numbers that low
    assert outside.bounded is not None
    assert outside.normalized == [pytest.approx(c / x ** (2 / 3 + 0.3))
                                  for c, x in zip(outside.counts, outside.checkpoints)]
    with pytest.raises(InvalidThresholdError):
        theorem_limit_check("2", ThresholdSpec.constant(1), [100])


def test_count_thresholds_shares_one_pass():
    specs = [ThresholdSpec.power(Fraction(c, 10)) for c in (2, 5, 9)]
    bundle = count_thresholds("2", specs, [10**3, 10**4])
    for i, spec in enumerate(specs):
        alone = series("2", spec, [10**3, 10**4])
        assert [bundle.resolved(i, j, True) for j in range(2)] == alone.counts
