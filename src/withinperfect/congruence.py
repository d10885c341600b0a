"""Census of the congruence b*sigma(n) = k (mod n): regular vs sporadic solutions.

The congruence means n | (b*sigma(n) - k), with k allowed negative and never
reduced beforehand.  A solution is regular (for b | k) when n = p*m with p
prime, p not dividing m, m | b*sigma(m), and sigma(m) = k/b; every other
solution, and every solution when b does not divide k, is sporadic.  n = 1
divides everything, so it is a solution for every (b, k); it has no p*m
decomposition and is classified sporadic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exact import _counts_upto, _guard_linear
from .sieve import SigmaSource, _witnesses
from .types import CheckpointSeries, SolutionTable


@dataclass(frozen=True)
class CongruenceProblem:
    """b*sigma(n) = k (mod n) for n <= limit."""

    b: int
    k: int
    limit: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")

    @property
    def in_uniform_range(self) -> bool:
        """Whether |k| < b * limit^(2/3), the range the sporadic bound covers."""
        return abs(self.k) < self.b * self.limit ** (2.0 / 3.0)


def census(problem: CongruenceProblem, source: Optional[SigmaSource] = None) -> SolutionTable:
    """Exhaustively list and classify the solutions n <= limit, ascending.

    The anchors are the solutions m with b*sigma(m) = k and m | k.  A regular
    n = p*m has m <= n/2, so collecting each segment's anchors before
    classifying its solutions has every anchor of n in hand.
    """
    source = source or SigmaSource()
    b, k, limit = problem.b, problem.k, problem.limit
    _guard_linear(1, b, limit, k)
    anchors: list[int] = []
    parts = []
    for seg in source.segments(limit):
        sig = seg.sigma.view(np.int64)
        rem = sig * np.int64(b)
        rem -= np.int64(k)
        np.remainder(rem, seg.n_values(), out=rem)
        idx = np.flatnonzero(rem == 0)
        del rem
        ns = idx + seg.lo
        sigma_n = sig[idx]
        del seg, sig  # the segment goes before the next one is sieved (peak RSS)
        value = sigma_n * np.int64(b) - np.int64(k)
        anchors += [m for m in ns[value == 0].tolist() if k % m == 0]
        q = np.where(value >= 0, value // ns, -1)
        parts.append((ns, sigma_n, q, *_witnesses(ns, anchors)))
    return SolutionTable.concat(parts)


@dataclass
class SporadicGrowthReport:
    """Sporadic counts against the b^2 * x^(2/3) shape (with o(1) slack)."""

    b: int
    k: int
    series: CheckpointSeries           # sporadic counts per checkpoint
    ratios: list[float]                # count / (b^2 * x^(2/3))
    slack_ratios: list[float]          # count / (b^2 * x^(2/3) * x^0.05)
    sqrt_shape_ratios: list[float]     # count / x^0.55, reported but never asserted
    bounded: bool


def sporadic_growth_report(b: int, k: int, checkpoints,
                           source: Optional[SigmaSource] = None) -> SporadicGrowthReport:
    """Count sporadic solutions at each checkpoint and flag growth.

    bounded holds when the slack-adjusted ratios are nonincreasing or never
    exceed 10 (the empirical stand-in for the x^(2/3+o(1)) bound).
    """
    checkpoints = sorted(int(x) for x in checkpoints)
    table = census(CongruenceProblem(b, k, checkpoints[-1]), source)
    counts = _counts_upto(table.n[table.p == 0], checkpoints).tolist()
    ratios, slack, sqrt_shape = [], [], []
    for x, c in zip(checkpoints, counts):
        ratios.append(c / (b * b * x ** (2.0 / 3.0)))
        slack.append(c / (b * b * x ** (2.0 / 3.0) * x**0.05))
        sqrt_shape.append(c / x**0.55)
    nonincreasing = all(s2 <= s1 + 1e-12 for s1, s2 in zip(slack, slack[1:]))
    bounded = nonincreasing or max(slack) <= 10.0
    series = CheckpointSeries(checkpoints, counts, quotients=ratios,
                              label=f"sporadic b={b} k={k}")
    return SporadicGrowthReport(b, k, series, ratios, slack, sqrt_shape, bounded)
