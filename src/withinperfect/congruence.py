"""Census of the congruence b*sigma(n) = k (mod n): regular vs sporadic solutions.

The congruence means n | (b*sigma(n) - k), with k allowed negative and never
reduced beforehand.  A solution is regular (for b | k) when n = p*m with p
prime, p not dividing m, m | b*sigma(m), and sigma(m) = k/b; every other
solution, and every solution when b does not divide k, is sporadic.  n = 1
divides everything, so it is a solution for every (b, k); it has no p*m
decomposition and is classified sporadic.  The census streams
SigmaSource.blocks, and census_stream yields the solutions of each block as
they are classified, so a writer holds one block of records at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .exact import _guard_linear
from .sieve import SigmaSource, _witnesses
from .types import CheckpointSeries, SolutionTable, checkpoint_column


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


def census_stream(problem: CongruenceProblem,
                  source: Optional[SigmaSource] = None) -> Iterator[SolutionTable]:
    """The solutions n <= limit of each block of source.blocks, classified,
    as one SolutionTable per block in ascending order; checked at the call.

    The anchors are the solutions m with b*sigma(m) = k and m | k, so each has
    sigma(m) = k/b, and the witness of a regular n is read off sigma(n)
    (sieve._witnesses).  A regular n = p*m has m <= n/2, so adding each
    block's anchors before classifying its solutions has every anchor of n in
    hand.
    """
    source = source or SigmaSource()
    b, k, limit = problem.b, problem.k, problem.limit
    _guard_linear(1, b, limit, k)
    return _classified(b, k, source.blocks(limit))


def _classified(b: int, k: int, blocks) -> Iterator[SolutionTable]:
    anchors = np.empty(0, dtype=np.int64)
    for n, sigma in blocks:
        value = sigma * np.int64(b) - np.int64(k)
        idx = np.flatnonzero(value % n == 0)
        ns, sigma_n, value = n[idx], sigma[idx], value[idx]
        new = ns[value == 0]
        anchors = np.concatenate([anchors, new[k % new == 0]])
        q = np.where(value >= 0, value // ns, -1)
        yield SolutionTable(ns, sigma_n, q, *_witnesses(ns, sigma_n, anchors, k // b))


def census(problem: CongruenceProblem, source: Optional[SigmaSource] = None) -> SolutionTable:
    """Exhaustively list and classify the solutions n <= limit, ascending:
    the concatenation of census_stream."""
    return SolutionTable.concat(census_stream(problem, source))


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
    checkpoints = checkpoint_column(checkpoints).tolist()
    table = census(CongruenceProblem(b, k, checkpoints[-1]), source)
    counts = np.searchsorted(table.n[table.p == 0], checkpoints, side="right").tolist()
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
