import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from withinperfect.cli import main
from withinperfect.congruence import (CongruenceProblem, census,
                                      sporadic_growth_report)
from withinperfect.emit import records_json, records_ndjson
from withinperfect.errors import CapabilityError
from withinperfect.exact import (DiophantineProblem, _witnesses, enumerate_perfect,
                                 solve_diophantine)
from withinperfect.sieve import SigmaSource, sigma_oracle
from withinperfect.types import SolutionRecord, SolutionTable

from conftest import brute_census, brute_diophantine, trial_is_prime


def test_census_frozen_small_case():
    records = {r.n: r for r in census(CongruenceProblem(1, 12, 50))}
    assert sorted(records) == [1, 6, 11, 24, 30, 42]
    assert records[42].classification == "regular"
    assert records[42].witnesses == ((7, 6),)
    assert records[24].classification == "sporadic"  # 24 = 3*8 fails sigma(8)=15
    assert records[30].witnesses == ((5, 6),)
    assert records[1].classification == "sporadic"
    assert records[1].q is None  # (sigma(1) - 12)/1 < 0
    assert records[6].q == 0 and records[42].q == 2


def test_census_all_sporadic_when_b_misses_k():
    records = census(CongruenceProblem(2, 1, 100))
    assert records and all(r.classification == "sporadic" for r in records)


def test_census_primes_regular_for_k_equal_one():
    records = {r.n: r for r in census(CongruenceProblem(1, 1, 10**3))}
    primes = [n for n in range(2, 10**3 + 1) if trial_is_prime(n)]
    assert sorted(records) == [1] + primes  # only quasiperfects could join, none exist
    assert records[1].classification == "sporadic"
    for p in primes:
        assert records[p].classification == "regular"
        assert records[p].witnesses == ((p, 1),)


def test_census_matches_brute_force(oracle_sigma):
    for b, k in ((1, 12), (2, 2), (3, 6), (1, -6)):
        got = {r.n: (r.classification, r.witnesses)
               for r in census(CongruenceProblem(b, k, 10**4))}
        assert got == brute_census(b, k, 10**4, oracle_sigma)


def test_regular_witnesses_reverify_all_clauses():
    for b, k, limit in ((1, 12, 10**4), (2, 6, 10**4)):
        for r in census(CongruenceProblem(b, k, limit)):
            assert (b * r.sigma_n - k) % r.n == 0
            if r.classification != "regular":
                continue
            for p, m in r.witnesses:
                assert r.n == p * m
                assert trial_is_prime(p)
                assert m % p != 0
                assert (b * sigma_oracle(m)) % m == 0
                assert sigma_oracle(m) == k // b


def test_census_monotone_in_limit():
    small = [r.n for r in census(CongruenceProblem(1, 12, 50))]
    large = [r.n for r in census(CongruenceProblem(1, 12, 500))]
    assert large[: len(small)] == small


def test_multiply_perfect_cross_module():
    records = census(CongruenceProblem(1, 0, 10**5))
    assert all(r.classification == "sporadic" for r in records)  # sigma(m) = 0 impossible
    union = {1}
    for ell in (2, 3, 4, 5, 6):
        union |= set(enumerate_perfect(str(ell), 10**5).members)
    assert [r.n for r in records] == sorted(union)
    assert [r.n for r in records] == [1, 6, 28, 120, 496, 672, 8128, 30240, 32760]


def test_diophantine_solutions_appear_in_census():
    # a solution of b*sigma(n) = a*n + k also solves the congruence, and under
    # the regular-family conditions the classifications coincide
    from withinperfect.exact import DiophantineProblem, solve_diophantine

    dioph = solve_diophantine(DiophantineProblem(2, 1, 12, 10**4))
    cong = {r.n: r.classification for r in census(CongruenceProblem(1, 12, 10**4))}
    for r in dioph.records:
        assert cong[r.n] == r.classification


def test_census_witnesses_use_the_expected_anchors(oracle_sigma):
    # the anchors are the m with sigma(m) = k/b and m | b*sigma(m)
    expected = {
        (1, 12): {6},   # sigma(6) = 12, 6 | 12; sigma(11) = 12 but 11 does not divide 12
        (1, 1): {1},
        (2, 1): set(),  # b does not divide k
        (1, 0): set(),
        (2, 6): {2},    # sigma(2) = 3 = 6/2, 2 | 2*3
        (1, -5): set(),
    }
    for (b, k), anchors in expected.items():
        records = census(CongruenceProblem(b, k, 2000))
        assert {r.n: (r.classification, r.witnesses) for r in records} \
            == brute_census(b, k, 2000, oracle_sigma)
        assert {m for r in records for _, m in r.witnesses} == anchors, (b, k)


def test_uniform_range_flag():
    assert CongruenceProblem(1, 12, 10**4).in_uniform_range
    assert not CongruenceProblem(1, 10**6, 10**4).in_uniform_range


def test_problem_validation():
    with pytest.raises(ValueError):
        CongruenceProblem(0, 12, 100)
    with pytest.raises(ValueError):
        CongruenceProblem(1, 12, 0)


def test_sporadic_growth_report():
    report = sporadic_growth_report(1, 12, [10**3, 10**4])
    records = census(CongruenceProblem(1, 12, 10**4))
    expected = [sum(1 for r in records if r.classification == "sporadic" and r.n <= x)
                for x in (10**3, 10**4)]
    assert report.series.counts == expected
    for x, count, ratio, slack in zip(report.series.checkpoints, report.series.counts,
                                      report.ratios, report.slack_ratios):
        assert ratio == pytest.approx(count / x ** (2 / 3))
        assert slack == pytest.approx(count / x ** (2 / 3 + 0.05))
    assert isinstance(report.bounded, bool)
    assert len(report.sqrt_shape_ratios) == 2


def test_census_refuses_k_that_would_wrap_int64(capsys):
    # b*sigma(n) - k with k near -2^63 used to wrap silently and list 1, 6, 10;
    # the true solutions up to 200 are 1, 17, 20, 104, 111.
    k = -(2**63 - 10)
    assert sorted(brute_census(1, k, 200, [0] + [sigma_oracle(n) for n in range(1, 201)])) \
        == [1, 17, 20, 104, 111]
    with pytest.raises(CapabilityError):
        census(CongruenceProblem(1, k, 200))
    assert main(["census", "--b", "1", "--k", str(k), "--limit", "200"]) == 2
    capsys.readouterr()


def test_census_exact_for_large_k_inside_int64_range(oracle_sigma):
    for b, k in ((1, -(2**62 - 2**20)), (2, 2**61 + 1)):
        got = {r.n: (r.classification, r.witnesses)
               for r in census(CongruenceProblem(b, k, 200))}
        assert got == brute_census(b, k, 200, oracle_sigma)


def test_census_anchors_cross_segments(oracle_sigma):
    # with 1024-element segments, anchors such as m = 6 (k = 12) or m = 1
    # (k = 1) are collected in an earlier segment than most of their n = p*m
    source = SigmaSource(segment_length=1024)
    for b, k in ((1, 12), (2, 6), (1, 1)):
        got = {r.n: (r.classification, r.witnesses)
               for r in census(CongruenceProblem(b, k, 10**4), source)}
        assert got == brute_census(b, k, 10**4, oracle_sigma)


def test_census_large_positive_k_needs_no_anchor_scan(oracle_sigma):
    # b | k and k inside the int64 guard: a scan for anchors over every m < k
    # would not finish; the census takes its anchors from the solutions it sieves
    k = 2**62 - 2**20 - 1
    got = {r.n: (r.classification, r.witnesses)
           for r in census(CongruenceProblem(1, k, 200))}
    assert got == brute_census(1, k, 200, oracle_sigma)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(-60, 60), st.integers(1, 3000))
def test_census_property_against_brute_force(oracle_sigma, b, k, limit):
    # 1024-element segments, so anchors and solutions fall in different segments
    brute = brute_census(b, k, limit, oracle_sigma)
    # at most one witness per solution: the invariant the int64 columns rely on
    assert all(len(witnesses) <= 1 for _, witnesses in brute.values())
    got = census(CongruenceProblem(b, k, limit), SigmaSource(segment_length=1024))
    assert {r.n: (r.classification, r.witnesses) for r in got} == brute


#: (b, k) with an anchor m <= 1000: b*sigma(m) = k and m | k.
ANCHORED = sorted({(b, b * sigma_oracle(m)) for b in range(1, 5) for m in range(1, 1001)
                   if b * sigma_oracle(m) % m == 0})


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(ANCHORED),
                 st.tuples(st.integers(1, 4), st.integers(-30, 120)).map(
                     lambda bj: (bj[0], bj[0] * bj[1]))),
       st.integers(1, 3000), st.sampled_from((1024, 3 * 2**16 - 1, 3 * 2**16 + 1)))
def test_census_witnesses_from_sigma_against_brute_force(oracle_sigma, bk, limit,
                                                         segment_length):
    # k is b*sigma(m) for an anchor m, or a multiple of b that mostly has none
    b, k = bk
    got = census(CongruenceProblem(b, k, limit), SigmaSource(segment_length=segment_length))
    assert {r.n: (r.classification, r.witnesses) for r in got} \
        == brute_census(b, k, limit, oracle_sigma)


#: (a, b, k) in the regular family: coprime a > b >= 1 and k = a*m for an
#: m <= 1000 with b*sigma(m) = a*m, so ab | k and sigma(k/a) = k/b.
FAMILIES = [(a, b, a * m) for a in range(2, 8) for b in range(1, a) if math.gcd(a, b) == 1
            for m in range(1, 1001) if b * sigma_oracle(m) == a * m]


def _ks(ab):
    """(a, b, k) with k < 0, a k in [1, 200] (often not a multiple of b), or ab | k."""
    a, b = ab
    return st.one_of(st.integers(-40, -1), st.integers(1, 200),
                     st.integers(1, 30).map(lambda j: a * b * j)).map(lambda k: (a, b, k))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(FAMILIES),
                 st.tuples(st.integers(2, 7), st.integers(1, 6)).filter(
                     lambda ab: ab[0] > ab[1] and math.gcd(*ab) == 1).flatmap(_ks)),
       st.integers(1, 3000), st.sampled_from((1024, 3 * 2**16 - 1, 3 * 2**16 + 1)))
@example((2, 1, -1), 3000, 1024)     # k < 0
@example((3, 2, 7), 3000, 1024)      # b does not divide k
@example((2, 1, 24), 3000, 1024)     # ab | k, but sigma(12) = 28 != 24
@example((2, 1, 12), 3000, 1024)     # ab | k and sigma(6) = 12: the regular family
def test_perfect_and_dioph_are_the_census_rows_with_q_equal_a(oracle_sigma, abk, limit,
                                                              segment_length):
    a, b, k = abk
    source = SigmaSource(segment_length=segment_length)
    rows = [r for r in census(CongruenceProblem(b, k, limit), source) if r.q == a]
    assert list(solve_diophantine(DiophantineProblem(a, b, k, limit), source).records) == rows
    assert {r.n: r.classification for r in rows} \
        == brute_diophantine(a, b, k, limit, oracle_sigma)
    members = [r.n for r in census(CongruenceProblem(b, 0, limit), source) if r.q == a]
    assert enumerate_perfect(f"{a}/{b}", limit, source).members == members
    assert members == [n for n in range(1, limit + 1) if b * oracle_sigma[n] == a * n]


def test_witnesses_rule_on_hand_built_rows():
    # b = 2, k = 6: the anchor m = 2 has sigma(2) = 3 = s
    n = np.array([1, 2, 3, 4, 6, 8, 9, 10, 12], dtype=np.int64)
    sigma = np.array([sigma_oracle(v) for v in n.tolist()], dtype=np.int64)
    p, m = _witnesses(n, sigma, np.array([2], dtype=np.int64), 3)
    # 1, 2, 3: floor(sigma/3) - 1 <= 0; 4: p = 1, but m = 4 is no anchor;
    # 8: sigma(8) = 15 = (4 + 1)*3, but gcd(4, 2) = 2; 9: p = 3 divides 9,
    # but m = 3 is no anchor; 12: p = 8 does not divide 12
    assert p.tolist() == [0, 0, 0, 0, 3, 0, 0, 5, 0]
    assert m.tolist() == [0, 0, 0, 0, 2, 0, 0, 2, 0]
    # no anchor: every solution sporadic, whatever s is
    for s in (0, -4, 3):
        p, m = _witnesses(n, sigma, np.empty(0, dtype=np.int64), s)
        assert not p.any() and not m.any()


def _brute_records(b, k, limit, sigma):
    """The SolutionRecords census should give, built from brute_census."""
    out = []
    for n, (classification, witnesses) in sorted(brute_census(b, k, limit, sigma).items()):
        lhs = b * sigma[n] - k
        out.append(SolutionRecord(n, sigma[n], classification, witnesses,
                                  lhs // n if lhs >= 0 else None))
    return out


def test_solution_table_is_a_sequence_of_records(oracle_sigma):
    for b, k in ((1, 12), (2, 6), (1, -6), (3, 1)):
        table = census(CongruenceProblem(b, k, 10**4))
        expected = _brute_records(b, k, 10**4, oracle_sigma)
        assert isinstance(table, SolutionTable)
        assert len(table) == len(expected)
        assert list(table) == expected
        assert table[0] == expected[0] and table[-1] == expected[-1]
        assert table[len(table) // 2] == expected[len(expected) // 2]
        assert list(table[3:11]) == expected[3:11]
        assert list(table[-5:]) == expected[-5:]
        assert isinstance(table[2:4], SolutionTable)
        with pytest.raises(IndexError):
            table[len(table)]
    table = census(CongruenceProblem(1, 12, 50))
    assert table[0].q is None and table[0].witnesses == ()  # sigma(1) - 12 < 0
    assert table[-1] == SolutionRecord(42, 96, "regular", ((7, 6),), 2)


def test_solution_table_ndjson_is_the_record_rendering():
    table = census(CongruenceProblem(1, 1, 10**5))
    records = list(table)
    text = records_ndjson(table)
    assert text == records_ndjson(records)
    assert text == "".join(json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n"
                           for r in records)
    for table in (table, census(CongruenceProblem(1, 12, 10**4)), table[:0]):
        # 1 and 9 sporadic rows among the regular ones, then the empty table
        assert records_json(table) == json.dumps(
            [r.to_json_dict() for r in table], indent=2) + "\n"
