"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The phase-transition criterion pins the sublinear (k = y^(1/2)) density at
x = 1e6 to the paper's Table 1 cell: density * log x must lie within 5e-4 (the
grid's per-cell tolerance) of the published 0.276559, i.e. 20018 hits. An
earlier one-sided bound, density < 0.01 at 1e6, could not hold for any correct
count: at the published quotient it needs log x > 27.7, i.e. x near 1e12.
"""

import math
import time
from fractions import Fraction

import numpy as np

from withinperfect.cache import read_segment, write_segment
from withinperfect.cli import main
from withinperfect.congruence import CongruenceProblem, census, sporadic_growth_report
from withinperfect.distribution import phase_experiment
from withinperfect.exact import (DiophantineProblem, enumerate_perfect,
                                 series_partial_sums, solve_diophantine)
from withinperfect.sieve import DEFAULT_SEGMENT_LENGTH, SigmaSource, sieve_segment, sigma_oracle

from conftest import ORACLE_LIMIT, brute_census, brute_diophantine, trial_is_prime


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_table1_reproduction(tmp_path, capsys):
    target = tmp_path / "table1.csv"
    t0 = time.monotonic()
    code = main(["table1", "--limit", "20000000", "--format", "csv",
                 "--out", str(target)])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    convention = next(line for line in lines if line.startswith("# convention"))
    worst = max(float(r[5]) for r in rows)
    ok = code == 0 and len(rows) == 24 and worst <= 5e-4 and elapsed <= 120.0
    _report("table1", ok,
            f"cells={len(rows)} max_dev={worst:.6f} elapsed={elapsed:.1f}s "
            f"({convention.lstrip('# ')}, single-threaded)")


def test_series_constant():
    sums = series_partial_sums("2", 10**7)
    expected = Fraction(1, 6) + Fraction(1, 28) + Fraction(1, 496) + Fraction(1, 8128)
    rounded = round(float(sums.reciprocal), 4)
    twelve_digits = abs(float(sums.reciprocal) - float(expected)) < 1e-12
    ok = rounded == 0.2045 and sums.reciprocal == expected and twelve_digits
    _report("series-constant", ok,
            f"sum={float(sums.reciprocal):.12f} rounds_to={rounded}")


def test_perfect_censuses():
    two = enumerate_perfect("2", 10**7)
    three = enumerate_perfect("3", 10**6)
    ok = two.members == [6, 28, 496, 8128]
    ok = ok and {120, 672, 523776} <= set(three.members)
    for m in two.members:
        ok = ok and sigma_oracle(m) == 2 * m
    for m in three.members:
        ok = ok and sigma_oracle(m) == 3 * m
    _report("perfect-censuses", ok,
            f"l=2@1e7: {two.members}, l=3@1e6: {three.members}")


def test_oracle_equivalence(oracle_sigma):
    limit = ORACLE_LIMIT
    mismatches = 0
    for seg in SigmaSource().segments(limit):
        expected = np.array(oracle_sigma[seg.lo : seg.hi + 1], dtype=np.uint64)
        mismatches += int(np.count_nonzero(seg.sigma != expected))

    census_ok = True
    for b, k in ((1, 12), (2, 2), (2, 1)):
        got = {r.n: (r.classification, r.witnesses)
               for r in census(CongruenceProblem(b, k, limit))}
        census_ok = census_ok and got == brute_census(b, k, limit, oracle_sigma)

    dioph_ok = True
    for a, b, k in ((2, 1, 12), (2, 1, 1), (3, 2, 6)):
        got = {r.n: r.classification
               for r in solve_diophantine(DiophantineProblem(a, b, k, limit)).records}
        dioph_ok = dioph_ok and got == brute_diophantine(a, b, k, limit, oracle_sigma)

    witness_ok = True
    for r in census(CongruenceProblem(1, 12, limit)):
        if r.classification != "regular":
            continue
        for p, m in r.witnesses:
            witness_ok = witness_ok and (
                r.n == p * m and trial_is_prime(p) and m % p != 0
                and oracle_sigma[m] == 12 and (1 * oracle_sigma[m]) % m == 0)

    ok = mismatches == 0 and census_ok and dioph_ok and witness_ok
    _report("oracle-equivalence", ok,
            f"sigma_mismatches={mismatches} census={census_ok} "
            f"dioph={dioph_ok} witnesses={witness_ok}")


def test_sporadic_bound_trend():
    checkpoints = [10**4, 10**5, 10**6]
    details = []
    ok = True
    for b, k in ((1, 12), (1, 1), (2, 2)):
        report = sporadic_growth_report(b, k, checkpoints)
        slack = report.slack_ratios
        nonincreasing = all(y <= x + 1e-12 for x, y in zip(slack, slack[1:]))
        this_ok = nonincreasing or max(slack) <= 10.0
        ok = ok and this_ok
        details.append(f"(b={b},k={k}): counts={report.series.counts} "
                       f"slack_max={max(slack):.4f}")
    _report("sporadic-bound-trend", ok, "; ".join(details))


def test_phase_transition():
    sub = phase_experiment("2", "sublinear", [10**4, 10**6])
    # paper's Table 1 cell c = 0.5, x = 10^6: count / (x / log x) = 0.276559
    sub_quotient = sub.densities[1] * math.log(10**6)
    sub_published = abs(sub_quotient - 0.276559) <= 5e-4
    sub_decreasing = sub.densities[1] < sub.densities[0]

    lin = phase_experiment("2", "linear", [10**7], c="0.1")
    lin_ok = lin.deviations[0] < 1e-3

    sup = phase_experiment("2", "superlinear", [10**6])
    sup_ok = sup.densities[0] > 0.9

    ok = sub_published and sub_decreasing and lin_ok and sup_ok
    _report("phase-transition", ok,
            f"sublinear@1e6={sub.densities[1]:.6f} quotient@1e6={sub_quotient:.6f} "
            f"(published 0.276559: {sub_published}, "
            f"decreasing: {sub_decreasing}); linear dev={lin.deviations[0]:.2e} "
            f"({lin_ok}); superlinear@1e6={sup.densities[0]:.6f} ({sup_ok})")


def test_figure1_data(tmp_path, capsys):
    out = tmp_path / "figure1.csv"
    code = main(["figure1", "--limit", "10000", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    ok = code == 0 and lines[0] == "x,count,quotient"
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    ok = ok and xs == list(range(2, 10**4 + 1))
    last_q = float(lines[-1].split(",")[2])
    ok = ok and math.isfinite(last_q) and last_q > 0
    _report("figure1-data", ok, f"rows={len(lines) - 1} quotient@1e4={last_q:.6f}")


def test_determinism_and_cache(tmp_path, capsys):
    outputs = set()
    for length in ("1024", "65536", str(DEFAULT_SEGMENT_LENGTH)):
        for run in range(2):
            target = tmp_path / f"run_{length}_{run}.csv"
            code = main(["--segment-length", length, "count", "--ell", "2",
                         "--threshold", "pow:0.5", "--limit", "300000",
                         "--out", str(target)])
            assert code == 0
            outputs.add(target.read_bytes())
    capsys.readouterr()
    deterministic = len(outputs) == 1

    seg = sieve_segment(1, 4096)
    write_segment(seg, str(tmp_path / "seg.sgma"))
    back = read_segment(str(tmp_path / "seg.sgma"))
    roundtrip = np.array_equal(back.sigma, seg.sigma)

    ok = deterministic and roundtrip
    _report("determinism-and-cache", ok,
            f"distinct_outputs={len(outputs)} cache_bit_exact={roundtrip}")
