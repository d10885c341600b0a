import json
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from withinperfect import exact
from withinperfect.cli import main
from withinperfect.errors import CapabilityError, InvalidProblemError
from withinperfect.exact import (DiophantineProblem, enumerate_perfect, gcd_sum,
                                 regular_family_anchor, series_partial_sums,
                                 solve_diophantine, wirsing_count_check)
from withinperfect.sieve import SigmaSource, sigma_oracle
from withinperfect.types import RationalTarget

from conftest import brute_diophantine, trial_is_prime


def test_classical_perfect_census():
    census = enumerate_perfect("2", 10**4)
    assert census.members == [6, 28, 496, 8128]
    for m in census.members:
        assert sigma_oracle(m) == 2 * m


def test_triperfect_census():
    assert enumerate_perfect("3", 10**3).members == [120, 672]


def test_fractional_target_census():
    assert enumerate_perfect("3/2", 10).members == [2]  # sigma(2) = 3 = (3/2)*2


def test_census_counting_function():
    census = enumerate_perfect("2", 10**4, checkpoints=[5, 10, 100, 500, 10**4])
    assert census.counting.counts == [0, 1, 2, 3, 4]
    assert 28 in census and 29 not in census


def test_rational_target_validation():
    with pytest.raises(ValueError):
        RationalTarget(2, 2)
    with pytest.raises(ValueError):
        RationalTarget(4, 2)
    with pytest.raises(TypeError):
        RationalTarget.parse(1.5)  # floats are rejected, pass "3/2"
    assert RationalTarget.parse("1.25") == RationalTarget(5, 4)


def test_wirsing_small_counts():
    assert wirsing_count_check("2", [5]).series.counts == [0]
    assert wirsing_count_check("5/4", [10]).series.counts == [0]
    report = wirsing_count_check("2", [10**3, 10**4])
    assert report.series.counts == [3, 4]
    assert report.ratios[0] == pytest.approx(
        math.log(3) / (math.log(10**3) / math.log(math.log(10**3))))
    assert not math.isnan(report.ratios[1])


def test_series_partial_sums_small():
    empty = series_partial_sums("2", 5)
    assert empty.reciprocal == 0
    two = series_partial_sums("2", 30)
    assert two.reciprocal == Fraction(1, 6) + Fraction(1, 28) == Fraction(17, 84)
    with mpmath.workdps(50):
        expected = mpmath.log(6) / 6 + mpmath.log(28) / 28
        assert abs(two.log_weighted - expected) < mpmath.mpf(10) ** -40


def test_gcd_sum_smallest():
    report = gcd_sum(8)  # m in {3, 4}: gcd(3,4)/9 + gcd(4,7)/16
    assert report.value == Fraction(1, 9) + Fraction(1, 16) == Fraction(25, 144)
    assert (report.m_lo, report.m_hi) == (3, 4)


def test_gcd_sum_matches_oracle():
    report = gcd_sum(27)
    assert (report.m_lo, report.m_hi) == (4, 9)
    expected = sum((Fraction(math.gcd(m, sigma_oracle(m)), m * m) for m in range(4, 10)),
                   Fraction(0))
    assert report.value == expected


def test_gcd_sum_range_matches_brute_force():
    bounds = {}
    m_lo = m_hi = 1
    for x in range(7, 5002):
        while m_lo**3 <= x:
            m_lo += 1
        while (m_hi + 1) ** 3 <= x * x:
            m_hi += 1
        bounds[x] = (m_lo, m_hi)
    # every x in 8..5000 where a bound is about to change or has just changed
    edges = [x for x in range(8, 5001) if not bounds[x - 1] == bounds[x] == bounds[x + 1]]
    assert len(edges) > 500
    for x in edges:
        report = gcd_sum(x)
        assert (report.m_lo, report.m_hi) == bounds[x], x


def test_gcd_sum_scaled_stays_bounded():
    for x in (10**3, 10**4, 10**5, 10**6):
        assert gcd_sum(x).scaled <= 10.0


_SEGMENTED = SigmaSource(segment_length=1024)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(8, 10**5), st.integers(8, 10**7)))
@example(10**7)
def test_gcd_sum_rounded_is_the_exact_sum_rounded(x):
    exact_value = float(gcd_sum(x).value)
    assert gcd_sum(x).rounded == exact_value
    assert gcd_sum(x, _SEGMENTED).rounded == exact_value


class _CutSource(SigmaSource):
    """Segments [1, cut] and [cut + 1, limit]."""

    def __init__(self, cut):
        super().__init__()
        self.cut = cut

    def ranges(self, limit):
        return iter([(1, self.cut), (self.cut + 1, limit)])


def test_gcd_sum_window_edges_on_segment_edges():
    # x = 1000 sums m in [11, 100]: cut just below, at and just above m_lo
    whole = gcd_sum(1000)
    for cut in (10, 11, 12, 99):
        report = gcd_sum(1000, _CutSource(cut))
        assert report.value == whole.value, cut
        assert report.rounded == whole.rounded, cut


def test_gcd_sum_falls_back_when_the_interval_straddles(monkeypatch):
    # with one limb of fractional bits the certified interval is far wider
    # than an ulp, so the exact Fraction has to decide the rounding
    calls = []
    fallback = exact._exact_gcd_sum
    monkeypatch.setattr(exact, "_exact_gcd_sum",
                        lambda *args: calls.append(args) or fallback(*args))
    monkeypatch.setattr(exact, "_GCD_SUM_BITS", 1)
    for x in (27, 1000, 10**6):
        calls.clear()
        report = gcd_sum(x)
        assert calls, x  # the interval straddled a rounding boundary
        assert report.rounded == float(report.value)


def test_gcd_sum_refuses_x_beyond_the_fixed_point_range(monkeypatch, capsys):
    def no_sieving(self, limit):
        raise AssertionError("sieved before the range check")

    monkeypatch.setattr(SigmaSource, "segments", no_sieving)
    assert main(["gcdsum", "--x", str(2**43)]) == 2
    assert "2^42" in capsys.readouterr().err
    with pytest.raises(CapabilityError):
        gcd_sum(2**42)


def test_diophantine_regular_family(oracle_sigma):
    problem = DiophantineProblem(2, 1, 12, 10**3)
    solution = solve_diophantine(problem)
    assert solution.regular_family and solution.family_anchor == 6
    assert solution.predicted_density == Fraction(2, 12)
    regular = {r.n for r in solution.records if r.classification == "regular"}
    expected = {6 * p for p in range(2, 10**3 // 6 + 1)
                if trial_is_prime(p) and p not in (2, 3)}
    assert regular == expected
    for r in solution.records:
        assert 1 * oracle_sigma[r.n] == 2 * r.n + 12
        assert r.q == 2
        if r.classification == "regular":
            p, m = r.witnesses[0]
            assert r.n == p * m and m == 6 and trial_is_prime(p) and m % p != 0


def test_diophantine_all_sporadic_when_a_misses_k(oracle_sigma):
    solution = solve_diophantine(DiophantineProblem(2, 1, 1, 10**4))
    assert not solution.regular_family
    assert all(r.classification == "sporadic" for r in solution.records)
    brute = brute_diophantine(2, 1, 1, 10**4, oracle_sigma)
    assert {r.n for r in solution.records} == set(brute)


def test_diophantine_b_greater_one(oracle_sigma):
    solution = solve_diophantine(DiophantineProblem(3, 2, 6, 10**3))
    # 2*sigma(2p) = 6(p+1) = 3*(2p) + 6, so the family is n = 2p
    assert solution.regular_family and solution.family_anchor == 2
    brute = brute_diophantine(3, 2, 6, 10**3, oracle_sigma)
    assert {r.n: r.classification for r in solution.records} == brute


def test_diophantine_brute_equality(oracle_sigma):
    for a, b, k in ((2, 1, 12), (2, 1, -1), (5, 2, 10)):
        got = {r.n: r.classification
               for r in solve_diophantine(DiophantineProblem(a, b, k, 10**4)).records}
        assert got == brute_diophantine(a, b, k, 10**4, oracle_sigma)


def test_diophantine_checkpoints():
    solution = solve_diophantine(DiophantineProblem(2, 1, 12, 10**3),
                                 checkpoints=[50, 100, 10**3])
    assert solution.series.counts == [3, 6, 39]  # 24,30,42 then 54,66,78 ...
    assert solution.series.quotients[-1] == pytest.approx(39 / (10**3 / math.log(10**3)))


def test_invalid_problems():
    with pytest.raises(InvalidProblemError):
        DiophantineProblem(3, 2, 0, 100)  # k = 0 is the perfect census
    with pytest.raises(InvalidProblemError):
        DiophantineProblem(4, 2, 12, 100)  # not coprime
    with pytest.raises(InvalidProblemError):
        DiophantineProblem(2, 3, 12, 100)  # a <= b


def test_regular_family_anchor_conditions():
    assert regular_family_anchor(2, 1, 12) == 6
    assert regular_family_anchor(2, 1, 11) is None   # a does not divide k
    assert regular_family_anchor(2, 1, -12) is None  # negative k
    assert regular_family_anchor(2, 1, 16) is None   # sigma(8) = 15 != 16
    assert regular_family_anchor(3, 2, 6) == 2


def test_diophantine_refuses_k_outside_int64(capsys):
    # np.int64(k) used to end this in an uncaught OverflowError traceback
    k = 100000000000000000001
    with pytest.raises(CapabilityError):
        solve_diophantine(DiophantineProblem(2, 1, k, 10))
    assert main(["dioph", "--a", "2", "--b", "1", "--k", str(k), "--limit", "10"]) == 2
    assert "int64" in capsys.readouterr().err


def test_dioph_prime_anchor_near_2_56_is_fast(capsys):
    # k/a = 36028797018963913 is prime, so a trial-division sigma of it takes seconds
    start = time.perf_counter()
    assert main(["dioph", "--a", "2", "--b", "1", "--k", "72057594037927826",
                 "--limit", "10"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        '{\n  "a": 2,\n  "b": 1,\n  "k": 72057594037927826,\n  "limit": 10,\n'
        '  "regular_family": false,\n  "family_anchor": null,\n'
        '  "predicted_density": null,\n  "records": []\n}\n')


def test_dioph_anchor_above_the_sieve_cap(capsys):
    # k/a above 2^55 is valid input; its sigma comes from the factorization
    q = 16777259  # the least prime above 2^24
    assert trial_is_prime(q) and trial_is_prime(2**31 - 1)
    m0 = (2**31 - 1) * q
    assert m0 > 2**55 and 2**31 * (q + 1) != 2 * m0  # sigma(m0) != k/b
    # 2^5 3^4 7^2 11^2 19^4 151 911, a 4-perfect number
    perfect4 = 2**5 * 3**4 * 7**2 * 11**2 * 19**4 * 151 * 911
    assert all(trial_is_prime(p) for p in (19, 151, 911))
    assert perfect4 > 2**55
    assert 63 * 121 * 57 * 133 * 137561 * 152 * 912 == 4 * perfect4  # sigma of each factor
    for a, m, family in ((2, m0, False), (4, perfect4, True)):
        assert main(["dioph", "--a", str(a), "--b", "1", "--k", str(a * m),
                     "--limit", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regular_family"] is family
        assert out["family_anchor"] == (m if family else None)


def test_diophantine_records_table_contract(oracle_sigma):
    from withinperfect.emit import dioph_json, records_ndjson
    from withinperfect.types import SolutionRecord, SolutionTable

    for a, b, k in ((2, 1, 12), (3, 2, 6), (2, 1, 1), (2, 1, -1)):
        solution = solve_diophantine(DiophantineProblem(a, b, k, 10**4))
        records = solution.records
        # regular rows with 3 and 1 sporadic ones, no rows, and only sporadic rows
        assert dioph_json(solution) == json.dumps({
            "a": a, "b": b, "k": k, "limit": 10**4,
            "regular_family": solution.regular_family,
            "family_anchor": solution.family_anchor,
            "predicted_density": (str(solution.predicted_density)
                                  if solution.predicted_density is not None else None),
            "records": [r.to_json_dict() for r in records]}, indent=2) + "\n"
        m0 = k // a
        expected = [SolutionRecord(n, oracle_sigma[n], c,
                                   ((n // m0, m0),) if c == "regular" else (), a)
                    for n, c in sorted(brute_diophantine(a, b, k, 10**4, oracle_sigma).items())]
        assert isinstance(records, SolutionTable)
        assert len(records) == len(expected) and list(records) == expected
        if expected:
            assert records[0] == expected[0] and records[-1] == expected[-1]
            assert list(records[1:4]) == expected[1:4]
        text = records_ndjson(records)
        assert text == records_ndjson(expected) == "".join(
            json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in expected)
