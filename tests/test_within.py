import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from withinperfect.errors import CapabilityError, InvalidThresholdError
from withinperfect.exact import enumerate_perfect, solve_diophantine, DiophantineProblem
from withinperfect.sieve import SigmaSource, sieve_segment
from withinperfect.types import ThresholdSpec
from withinperfect.within import (REFERENCE_QUOTIENTS, count_thresholds, series,
                                  table1_reproduce, theorem_limit_check,
                                  _decide_segment)


def test_constant_threshold_reduces_to_perfect():
    result = series("2", ThresholdSpec.constant(1), [100])
    assert result.counts == [2]  # {6, 28}: |sigma - 2n| < 1 forces equality


def test_power_half_at_30():
    result = series("2", ThresholdSpec.power("0.5"), [30])
    assert result.counts == [9]  # {2,4,6,8,10,16,18,20,28}


def test_tie_at_one_separates_conventions():
    strict = series("2", ThresholdSpec.power("1/2"), [10])
    loose = series("2", ThresholdSpec.power("1/2", strict=False), [10])
    assert strict.counts == [5]  # {2,4,6,8,10}
    assert loose.counts == [6]   # n=1 is the exact tie |sigma(1)-2| = 1 = 1^c
    dropped = series("2", ThresholdSpec.power("1/2", strict=False), [10],
                     include_one=False)
    assert dropped.counts == [5]


def test_nesting_in_exponent():
    counts = [series("2", ThresholdSpec.power(Fraction(c, 10)), [10**4]).counts[0]
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
    n = np.arange(seg.lo, seg.hi + 1)
    D = np.abs(seg.sigma.astype(np.int64) - 2 * n)
    with mpmath.workdps(50):
        for c in (Fraction(c10, 10) for c10 in range(2, 10)):
            inside, ties = _decide_segment(ThresholdSpec.power(c), 1, D, n)
            assert ties.dtype == np.int64 and np.all(np.diff(ties) > 0)
            tie_set = set(ties.tolist())
            cf = mpmath.mpf(c.numerator) / c.denominator
            for i in range(0, 10**4, 7):  # dense sample
                ref = mpmath.power(int(n[i]), cf)
                d = int(D[i])
                if abs(d - ref) > mpmath.mpf(10) ** -30:
                    assert bool(inside[i]) == (d < ref), (int(n[i]), c)
                    assert i not in tie_set
                else:
                    assert i in tie_set and not inside[i]


def test_series_matches_pointwise_counts():
    checkpoints = [10, 100, 1000, 5000]
    spec = ThresholdSpec.power("0.3")
    multi = series("2", spec, checkpoints)
    singles = [series("2", spec, [x]).counts[0] for x in checkpoints]
    assert multi.counts == singles
    assert multi.quotients[1] == pytest.approx(singles[1] / (100 / math.log(100)))


def test_segmentation_invariance():
    spec = ThresholdSpec.power("0.7")
    a = series("2", spec, [10**4], SigmaSource(segment_length=2**10))
    b = series("2", spec, [10**4], SigmaSource(segment_length=2**14, threads=2))
    assert a.counts == b.counts


def test_consistency_with_diophantine_union():
    # |sigma(n) - 2n| < 3 is exactly the union of offsets k in {-2,...,2}
    x = 10**4
    total = series("2", ThresholdSpec.constant(3), [x]).counts[0]
    parts = len(enumerate_perfect("2", x).members)
    for k in (-2, -1, 1, 2):
        parts += len(solve_diophantine(DiophantineProblem(2, 1, k, x)).records)
    assert total == parts


def test_consistency_with_diophantine_union_fractional():
    # l = 3/2: |2*sigma(n) - 3n| < 2*2 covers k in {-3,...,3}
    x = 5 * 10**3
    total = series("3/2", ThresholdSpec.constant(2), [x]).counts[0]
    parts = len(enumerate_perfect("3/2", x).members)
    for k in (-3, -2, -1, 1, 2, 3):
        parts += len(solve_diophantine(DiophantineProblem(3, 2, k, x)).records)
    assert total == parts


def test_threshold_at_limit_variant():
    # |sigma(n) - 2n| < sqrt(100) = 10 over n <= 100 (brute-checked: 26)
    spec = ThresholdSpec.power("0.5", at_limit=True)
    result = series("2", spec, [100])
    assert result.counts == [26]
    frozen = replace(ThresholdSpec.power("0.5"), at_limit=True)
    assert count_thresholds("2", [frozen], [100]).strict[0].tolist() == [26]


@pytest.mark.parametrize("at_limit", [False, True], ids=["at_n", "at_limit"])
def test_checkpoints_in_any_order(at_limit):
    # a list, a descending range or an array of checkpoints is counted in ascending order
    specs = [ThresholdSpec.power("1/2", at_limit=at_limit)]
    for checkpoints in ([1000, 10, 100], range(1000, 9, -495), np.array([100, 1000, 10])):
        ascending = sorted(int(x) for x in checkpoints)
        got = count_thresholds("2", specs, checkpoints)
        want = count_thresholds("2", specs, ascending)
        assert got.checkpoints.tolist() == ascending
        assert (got.strict.tolist(), got.ties.tolist()) == (want.strict.tolist(), want.ties.tolist())


def test_mixed_at_n_and_at_limit_rows_equal_separate_calls():
    specs = [ThresholdSpec.power("1/2"), ThresholdSpec.power("1/2", at_limit=True),
             ThresholdSpec.x_over_log(at_limit=True), ThresholdSpec.x_over_log(),
             ThresholdSpec.constant(2), ThresholdSpec.linear("1/10", at_limit=True),
             ThresholdSpec.x_log_x(at_limit=True)]
    checkpoints = [1, 2, 2, 3, 4, 100, 1025, 5000, 5000, 70000]
    for include_one in (True, False):
        source = SigmaSource(segment_length=1024)
        mixed = count_thresholds("3/2", specs, checkpoints, source, include_one)
        for i, spec in enumerate(specs):
            alone = count_thresholds("3/2", [spec], checkpoints, source, include_one)
            assert mixed.strict[i].tolist() == alone.strict[0].tolist()
            assert mixed.ties[i].tolist() == alone.ties[0].tolist()


def test_linear_guard_reads_the_largest_x():
    # at-limit rows decide each n at its own checkpoint, so x is not ascending
    spec = ThresholdSpec.linear(2**59, at_limit=True)
    D = np.array([1, 1], dtype=np.int64)
    with pytest.raises(CapabilityError):
        _decide_segment(spec, 1, D, np.array([8, 3], dtype=np.int64))
    inside, ties = _decide_segment(spec, 1, D, np.array([7, 3], dtype=np.int64))
    assert inside.tolist() == [True, True] and ties.tolist() == []


def test_x_over_log_series_defined_everywhere():
    result = series("2", ThresholdSpec.x_over_log(), list(range(2, 101)))
    assert len(result.counts) == 99
    assert result.counts[0] == 2  # n=1 (k(1) = +inf) and n=2
    assert all(q > 0 for q in result.quotients)
    assert all(b >= a for a, b in zip(result.counts, result.counts[1:]))


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
        assert bundle.strict[i].tolist() == alone.counts
