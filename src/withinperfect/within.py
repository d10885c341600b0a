"""Counting within-perfect numbers: n <= x with |b*sigma(n) - a*n| < b*k(n).

The comparison clears the denominator b first, so everything is decided on
integers D = |b*sigma(n) - a*n|.  Constant and linear thresholds are int64
compares.  Power, y/log y and y*log y thresholds (and distribution's
sigma(n)/n <= u) share one exact decide, _banded: a float64 prefilter with a
guard band, then an exact sign for the values inside it.  A power n^(p/q) is
prefiltered on one effective exponent e(n) = log(D/b)/log(n) per n for every
exponent, and its sign compares D^q with b^q * n^p.  Ties come back as
offsets, so the strict and non-strict conventions share a single pass.

count_thresholds decides SigmaSource.blocks, the int64 columns (n, sigma(n))
of at most 2^16 n, whose working arrays stay in L2, and counts hits up to each
checkpoint through exact._CheckpointCounter, thresholds frozen at the
checkpoint (at_limit) too.
Checkpoints in any order are read by types.checkpoint_column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapabilityError, InvalidThresholdError
from .exact import _CheckpointCounter, _fraction_sum, _guard_linear, enumerate_perfect
from .sieve import SigmaSource
from .types import (CheckpointSeries, RationalTarget, ThresholdSpec, checkpoint_column,
                    normalized_quotient)

#: Relative width of the float64 guard band around b*n/log n.
_BAND = 1e-9

#: Absolute width of the guard band around a power exponent c.  The error of a
#: computed e(n) is below 1e-13 for 2 <= n <= 2^55 (log n >= log 2, |log D| < 44).
_EXPONENT_BAND = 1e-9


def _power_compare(D: int, b: int, n: int, c: Fraction) -> int:
    """Exact sign of D - b*n^c for rational c = p/q: -1 below, 0 tie, +1 above."""
    lhs = D ** c.denominator
    rhs = (b ** c.denominator) * (n ** c.numerator)
    return (lhs > rhs) - (lhs < rhs)


def _xlog_compare(D: int, b: int, n: int, power: int = -1) -> int:
    """Certified sign of D - b*n*log(n)^power for power -1 (y/log y) or +1
    (y*log y): -1 below, +1 above, 0 only at n = 1, where y*log y is 0.

    log n is transcendental for n >= 2, so b*n*log(n)^power is irrational and
    never ties the integer D.  It is enclosed in [lo, hi] by rounding log n and
    the quotient or product outward, and the precision doubles until D lies
    outside.
    """
    # deferred: mpmath is about a fifth of the CLI's import time
    from mpmath.libmp import (from_int, mpf_cmp, mpf_div, mpf_log, mpf_mul,
                              round_ceiling, round_floor)

    if n == 1 and power > 0:
        return (D > 0) - (D < 0)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d, bn, m = from_int(D), from_int(b * n), from_int(n)
    op, down, up = ((mpf_div, round_ceiling, round_floor) if power < 0
                    else (mpf_mul, round_floor, round_ceiling))
    prec = 64
    while True:
        lo = op(bn, mpf_log(m, prec, down), prec, round_floor)
        hi = op(bn, mpf_log(m, prec, up), prec, round_ceiling)
        if mpf_cmp(d, hi) > 0:
            return 1
        if mpf_cmp(d, lo) < 0:
            return -1
        prec *= 2


def _exponents(D: np.ndarray, b: int, n: np.ndarray) -> np.ndarray:
    """Effective exponents e(n) = (log D - log b)/log n, so D < b*n^c exactly
    when e < c, up to float rounding (see _decide_power).

    D = 0 gives e = -inf (inside every power threshold).  n = 1, which can
    only be n[0] of the ascending n, gives NaN: there n^c = 1 for every c, so
    the sign of D - b is the whole answer and _banded sends it to the exact
    comparison.
    """
    e = D.astype(np.float64)
    with np.errstate(divide="ignore"):
        np.log(e, out=e)
    if b != 1:
        e -= math.log(b)
    logn = n.astype(np.float64)
    np.log(logn, out=logn)
    with np.errstate(divide="ignore", invalid="ignore"):
        e /= logn
    if n[0] == 1:
        e[0] = np.nan
    return e


def _banded(x: np.ndarray, lo, hi, sign) -> tuple[np.ndarray, np.ndarray]:
    """Decide "inside" per element from a float64 value and its guard band.

    x < lo is inside and x > hi is outside; everything else, NaN included, is
    decided by the exact sign(i) of offset i: -1 inside, 0 a tie, +1 outside.
    Returns the inside mask and the ascending int64 offsets of the ties.
    """
    inside = x < lo
    band = ~(inside | (x > hi))  # NaN fails both compares, so it lands here
    ties = []
    for i in np.flatnonzero(band).tolist():
        s = sign(i)
        if s < 0:
            inside[i] = True
        elif s == 0:
            ties.append(i)
    return inside, np.array(ties, dtype=np.int64)


def _decide_power(c: Fraction, b: int, D: np.ndarray, n: np.ndarray,
                  e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inside, ties) for k(y) = y^c from the effective exponents.

    Rounding moves e by far less than _EXPONENT_BAND for every n <= 2^55, so
    only e within the band of c (and the NaN at n = 1) is decided exactly.
    """
    cf = float(c)
    return _banded(e, cf - _EXPONENT_BAND, cf + _EXPONENT_BAND,
                   lambda i: _power_compare(int(D[i]), b, int(n[i]), c))


def _decide_segment(threshold: ThresholdSpec, b: int, D: np.ndarray,
                    n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inside, ties) for D < b*k(n) over one block: a bool mask and the
    ascending int64 offsets where D = b*k(n), decided exactly for every kind.
    n need not be ascending (at-limit rows pass one checkpoint per element)."""
    kind = threshold.kind
    if kind == "power":
        return _decide_power(threshold.param, b, D, n, _exponents(D, b, n))
    if kind in ("constant", "linear"):
        k = b * threshold.param  # D < k or D < k*n, cleared of k's denominator
        linear = kind == "linear"
        if max(int(D.max(initial=0)) * k.denominator,
               k.numerator * (int(n.max(initial=0)) if linear else 1)) >= 2**62:
            raise CapabilityError(  # the compares below live in int64
                "threshold parameters at this limit exceed the int64 working range")
        lhs = D * np.int64(k.denominator)
        rhs = np.int64(k.numerator) * (n if linear else 1)
        return lhs < rhs, np.flatnonzero(lhs == rhs)
    if kind in ("x_over_log", "x_log_x"):  # k(1) is +inf for y/log y, 0 for y*log y
        nf = n.astype(np.float64)
        logn = np.log(nf)
        power = -1 if kind == "x_over_log" else 1
        t = (np.divide(b * nf, logn, out=np.full(len(n), np.inf), where=logn > 0)
             if power < 0 else b * nf * logn)
        return _banded(D.astype(np.float64), t * (1.0 - _BAND), t * (1.0 + _BAND),
                       lambda i: _xlog_compare(int(D[i]), b, int(n[i]), power))
    raise InvalidThresholdError(f"unsupported threshold kind {kind!r}")


def _bisect(threshold: ThresholdSpec, b: int, D: np.ndarray, start: np.ndarray,
            cks: np.ndarray, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the least checkpoint index j >= start with D < b*k(cks[j])
    (<= unless strict), len(cks) if none, and whether D = b*k(cks[j]) there.
    k is nondecreasing over checkpoints >= 3, so each round decides every open
    element exactly at the middle of its own index range."""
    lo, hi = start.copy(), np.full_like(start, len(cks))
    tie = np.zeros(len(lo), dtype=bool)  # whether the decide at hi was a tie
    active = np.flatnonzero(lo < hi)
    while len(active):
        mid = (lo[active] + hi[active]) // 2
        inside, ties = _decide_segment(threshold, b, D[active], cks[mid])
        at = np.zeros(len(active), dtype=bool)
        at[ties] = not strict
        inside |= at
        hi[active[inside]] = mid[inside]
        tie[active[inside]] = at[inside]
        lo[active[~inside]] = mid[~inside] + 1
        active = active[lo[active] < hi[active]]
    return lo, tie


@dataclass(eq=False)
class ThresholdCounts:
    """Strict and tie counts per (threshold, checkpoint) from one pass: the
    ascending int64 checkpoints and int64 [threshold, checkpoint] grids."""

    target: RationalTarget
    thresholds: list[ThresholdSpec]
    checkpoints: np.ndarray
    strict: np.ndarray
    ties: np.ndarray


def count_thresholds(target, thresholds: list[ThresholdSpec], checkpoints,
                     source: Optional[SigmaSource] = None,
                     include_one: bool = True) -> ThresholdCounts:
    """One streaming pass over [1, max checkpoint] for several thresholds at once.

    An at_limit threshold counts n at x when n <= x and D(n) < b*k(x).  From
    x = 3 on every kind is nondecreasing, so n counts from the first such
    checkpoint on (_bisect) and ties are the <= first indices less the < ones.
    """
    target = RationalTarget.parse(target)
    cks = checkpoint_column(checkpoints)
    limit = int(cks[-1])
    source = source or SigmaSource()
    _guard_linear(target.a, target.b, limit)

    a, b = target.a, target.b
    rows = len(thresholds)  # strict counts in rows [0, rows), ties in [rows, 2*rows)
    counter = _CheckpointCounter(cks, 2 * rows)
    at_limit = any(t.at_limit for t in thresholds)
    for n, sigma in source.blocks(limit):
        D = np.abs(np.int64(b) * sigma - np.int64(a) * n)
        skip = int(not include_one and n[0] == 1)  # leaves out n = 1
        e = None  # effective exponents, shared by every power threshold
        start = np.searchsorted(cks, np.maximum(n[skip:], 3)) if at_limit else None
        counter.block(n)
        for i, threshold in enumerate(thresholds):
            if threshold.at_limit:  # from the first checkpoint >= max(n, 3)
                loose, tie = _bisect(threshold, b, D[skip:], start, cks, strict=False)
                strict, t = loose.copy(), np.flatnonzero(tie)  # only a tie moves on
                strict[t] = _bisect(threshold, b, D[skip:][t], loose[t] + 1, cks, True)[0]
                counter.add_from(i, strict)
                counter.add_from(rows + i, loose)
                counter.add_from(rows + i, strict, -1)
                if n[0] == 1:  # y/log y falls up to e: x = 1, 2 (x > skip) directly
                    for j in range(*np.searchsorted(cks, (1 + skip, 3))):
                        x = int(cks[j])
                        inside, ties = _decide_segment(threshold, b, D[skip:x],
                                                       np.full(x - skip, x))
                        counter.partial[[i, rows + i], j] += np.count_nonzero(inside), len(ties)
                continue
            if threshold.kind == "power":
                e = _exponents(D, b, n) if e is None else e
                inside, ties = _decide_power(threshold.param, b, D, n, e)
            else:
                inside, ties = _decide_segment(threshold, b, D, n)
            if skip:
                inside[0] = False
                ties = ties[ties > 0]
            counter.add(i, inside)
            counter.add(rows + i, ties)
    counts = counter.counts()
    return ThresholdCounts(target, list(thresholds), cks, counts[:rows], counts[rows:])


def series(target, threshold: ThresholdSpec, checkpoints,
           source: Optional[SigmaSource] = None,
           include_one: bool = True) -> CheckpointSeries:
    """Within-perfect counts and quotients count/(x/log x) at each checkpoint."""
    target = RationalTarget.parse(target)
    counts = count_thresholds(target, [threshold], checkpoints, source, include_one)
    resolved = counts.strict[0] + (0 if threshold.strict else counts.ties[0])
    return CheckpointSeries(
        counts.checkpoints, resolved,
        label=f"within l={target} k={threshold.describe()}")


# --- reproduction of the published quotient grid for l = 2 ---

#: Exponents of the published grid, largest first (matching its row order).
TABLE_EXPONENTS = tuple(Fraction(c, 10) for c in range(9, 1, -1))

#: Checkpoints of the published grid.
TABLE_CHECKPOINTS = (10**6, 10**7, 2 * 10**7)

#: Published values of the normalized quotient for l = 2 (row: exponent,
#: column: checkpoint), used as the diff reference.
REFERENCE_QUOTIENTS: dict[tuple[Fraction, int], float] = {
    (Fraction(9, 10), 10**6): 3.661860, (Fraction(9, 10), 10**7): 3.305180, (Fraction(9, 10), 2 * 10**7): 3.196040,
    (Fraction(8, 10), 10**6): 1.141480, (Fraction(8, 10), 10**7): 0.945623, (Fraction(8, 10), 2 * 10**7): 0.908751,
    (Fraction(7, 10), 10**6): 0.494278, (Fraction(7, 10), 10**7): 0.435395, (Fraction(7, 10), 2 * 10**7): 0.426470,
    (Fraction(6, 10), 10**6): 0.311567, (Fraction(6, 10), 10**7): 0.274586, (Fraction(6, 10), 2 * 10**7): 0.267904,
    (Fraction(5, 10), 10**6): 0.276559, (Fraction(5, 10), 10**7): 0.259482, (Fraction(5, 10), 2 * 10**7): 0.255962,
    (Fraction(4, 10), 10**6): 0.264968, (Fraction(4, 10), 10**7): 0.252956, (Fraction(4, 10), 2 * 10**7): 0.250063,
    (Fraction(3, 10), 10**6): 0.225980, (Fraction(3, 10), 10**7): 0.247837, (Fraction(3, 10), 2 * 10**7): 0.247299,
    (Fraction(2, 10), 10**6): 0.151238, (Fraction(2, 10), 10**7): 0.195911, (Fraction(2, 10), 2 * 10**7): 0.197430,
}

#: The four counting conventions the reproduction sweeps.
CONVENTIONS = ("strict,n>=1", "non-strict,n>=1", "strict,n>=2", "non-strict,n>=2")


@dataclass
class TableOneReport:
    """The published 8x3 quotient grid recomputed under all four conventions."""

    limit: int
    exponents: tuple[Fraction, ...]
    checkpoints: tuple[int, ...]
    counts: dict[str, list[list[int]]]       # convention -> grid of counts
    quotients: dict[str, list[list[float]]]  # convention -> grid of quotients
    reference: dict[tuple[Fraction, int], float]
    max_deviation: dict[str, float]
    best_convention: str
    elapsed_seconds: float

    def deviation_grid(self, convention: Optional[str] = None) -> list[list[float]]:
        convention = convention or self.best_convention
        grid = self.quotients[convention]
        return [[abs(grid[i][j] - self.reference[(c, x)])
                 for j, x in enumerate(self.checkpoints)]
                for i, c in enumerate(self.exponents)]


def table1_reproduce(source: Optional[SigmaSource] = None,
                     limit: int = 2 * 10**7) -> TableOneReport:
    """Recompute the full 8x3 quotient grid for l = 2 in one sieve pass.

    Sweeps all four counting conventions (strict/non-strict inequality,
    first n = 1 or 2) and reports the one with the smallest worst-case
    deviation from the published values.
    """
    if limit < TABLE_CHECKPOINTS[-1]:
        raise CapabilityError(
            f"the grid needs sieve capability {TABLE_CHECKPOINTS[-1]}, got {limit}")
    t0 = time.monotonic()
    thresholds = [ThresholdSpec.power(c) for c in TABLE_EXPONENTS]
    counts = count_thresholds(RationalTarget(2, 1), thresholds,
                              TABLE_CHECKPOINTS, source, include_one=True)

    strict, ties = counts.strict, counts.ties
    # n = 1 (D = a - b = 1 = k(1)) is a tie for every exponent; the n>=2 grids drop it
    one = np.array([[_power_compare(1, 1, 1, c)] for c in TABLE_EXPONENTS])

    count_grids: dict[str, list[list[int]]] = {}
    quot_grids: dict[str, list[list[float]]] = {}
    max_dev: dict[str, float] = {}
    for convention in CONVENTIONS:
        strict_mode = convention.startswith("strict")
        grid = strict if strict_mode else strict + ties
        if convention.endswith("n>=2"):
            grid = grid - (one < 0 if strict_mode else one <= 0)
        count_grids[convention] = grid = grid.tolist()
        quot_grids[convention] = qgrid = [
            [normalized_quotient(v, x) for v, x in zip(row, TABLE_CHECKPOINTS)]
            for row in grid]
        max_dev[convention] = max(
            abs(q - REFERENCE_QUOTIENTS[(c, x)])
            for c, row in zip(TABLE_EXPONENTS, qgrid) for q, x in zip(row, TABLE_CHECKPOINTS))
    best = min(CONVENTIONS, key=lambda name: max_dev[name])
    return TableOneReport(
        limit=limit, exponents=TABLE_EXPONENTS, checkpoints=TABLE_CHECKPOINTS,
        counts=count_grids, quotients=quot_grids, reference=dict(REFERENCE_QUOTIENTS),
        max_deviation=max_dev, best_convention=best,
        elapsed_seconds=time.monotonic() - t0)


@dataclass
class LimitCheckReport:
    """Checkpointed comparison of the quotient against its expected scale.

    branch "limit": perfect members exist below the top checkpoint, so the
    quotient is compared with the partial sums of 1/m.  branch "bound": no
    members, so count/x^(2/3+c) is reported with a boundedness flag.
    """

    target: RationalTarget
    exponent: Fraction
    checkpoints: list[int]
    branch: str
    counts: list[int]
    quotients: list[float]
    partial_limits: list[float]
    deviations: list[float]
    trend: str
    normalized: list[float]
    bounded: Optional[bool]


def theorem_limit_check(target, threshold: ThresholdSpec, checkpoints,
                        source: Optional[SigmaSource] = None) -> LimitCheckReport:
    """Check the quotient against the reciprocal-sum limit (or the power bound)."""
    if threshold.kind != "power":
        raise InvalidThresholdError("the limit check applies to power thresholds")
    target = RationalTarget.parse(target)
    checkpoints = checkpoint_column(checkpoints).tolist()
    source = source or SigmaSource()
    census = enumerate_perfect(target, checkpoints[-1], source, checkpoints)
    within_counts = series(target, threshold, checkpoints, source)
    c = threshold.param

    if census.members:
        partials = [float(_fraction_sum([Fraction(1, m) for m in census.members if m <= x]))
                    for x in checkpoints]
        deviations = [abs(q - p) for q, p in zip(within_counts.quotients, partials)]
        trend = ("n/a" if len(deviations) < 2 else
                 "narrowing" if deviations[-1] <= deviations[0] else "widening")
        return LimitCheckReport(target, c, checkpoints, "limit",
                                within_counts.counts, within_counts.quotients,
                                partials, deviations, trend, [], None)

    expo = 2.0 / 3.0 + float(c)
    normalized = [count / x**expo for count, x in zip(within_counts.counts, checkpoints)]
    nonincreasing = all(b2 <= b1 + 1e-12 for b1, b2 in zip(normalized, normalized[1:]))
    bounded = nonincreasing or (max(normalized) <= 10.0 if normalized else True)
    return LimitCheckReport(target, c, checkpoints, "bound",
                            within_counts.counts, within_counts.quotients,
                            [], [], "n/a", normalized, bounded)
