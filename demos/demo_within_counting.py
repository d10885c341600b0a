#!/usr/bin/env python3
"""Counting n with |sigma(n) - l*n| < k(n) under different thresholds."""

from fractions import Fraction

from withinperfect import ThresholdSpec, series, theorem_limit_check

# A constant threshold below 1 forces equality, so only perfect numbers pass.
print("k = 1:   ", series("2", ThresholdSpec.constant(1), [10**4]).counts)
print("k = y^.5:", series("2", ThresholdSpec.power("0.5"), [10**4]).counts)
print("k = y/log y:", series("2", ThresholdSpec.x_over_log(), [10**4]).counts)

# A miniature of the published quotient grid: count/(x/log x) for power
# thresholds.  (The full 8x3 grid at 2e7 is the table1 subcommand.)
checkpoints = [10**4, 10**5, 10**6]
print("\nquotients count/(x/log x) for l = 2:")
print(f"{'k(y)':>8} | " + "  ".join(f"{x:>9}" for x in checkpoints))
for c10 in (9, 5, 3, 2):
    spec = ThresholdSpec.power(Fraction(c10, 10))
    result = series("2", spec, checkpoints)
    print(f"{'y^0.' + str(c10):>8} | " +
          "  ".join(f"{q:9.6f}" for q in result.quotients))

# For power thresholds the quotient converges to the reciprocal sum over
# perfect numbers (0.2045...); the limit check reports the gap.
report = theorem_limit_check("2", ThresholdSpec.power("0.3"), checkpoints)
print("\nlimit check at c = 0.3 (branch:", report.branch + "):")
for x, q, p, d in zip(report.checkpoints, report.quotients,
                      report.partial_limits, report.deviations):
    print(f"  x={x:>8}  quotient={q:.6f}  partial_sum={p:.6f}  gap={d:.6f}")
print("trend:", report.trend)

# A target with no perfect numbers below the cap lands in the bound branch.
report = theorem_limit_check("5/4", ThresholdSpec.power("0.3"), checkpoints)
print(f"\nl = 5/4 engages the {report.branch} branch; "
      f"count/x^(2/3+c) = {[f'{v:.4f}' for v in report.normalized]}")
