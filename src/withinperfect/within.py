"""Counting within-perfect numbers: n <= x with |b*sigma(n) - a*n| < b*k(n).

The comparison clears the denominator b first, so everything is decided on
integers D = |b*sigma(n) - a*n|.  Every kind shares one exact decide, _banded:
a float64 prefilter with a guard band, then an exact sign for the values
inside it.  Constant and linear thresholds, D < b*k0 and D/n < b*c, are the
ratio test s/n < u of _ratio_below, as is distribution's sigma(n)/n < u.  A
power n^(p/q) is prefiltered on one effective exponent e(n) = log(D/b)/log(n)
per n for every exponent, and its sign compares D^q with b^q * n^p.  Ties come
back as offsets, so the strict and non-strict conventions share a single pass.
The thresholds of one kind that share a per-n value (e, D/n or D) are the rows
of one broadcast _banded per block (_decider), their bounds computed once per
run; y/log y and y*log y, whose bounds are per n, are decided one at a time.

count_stream decides SigmaSource.blocks, the int64 columns (n, sigma(n)) of
at most BLOCK_LENGTH = 2^15 n (from n = 3 on, only the n whose D is below
_above(last n), a sixth or so), and counts hits up to each checkpoint through
one grid of exact._CheckpointCounter, thresholds frozen at the checkpoint
(at_limit) too.  It yields the counts at the checkpoints each block completes
as soon as the block is decided, so memory is set by the block: a range of
checkpoints (figure1) is never built as a column.  count_thresholds and
series are the concatenation of that stream, and series_stream is the stream
a writer renders.
Checkpoints in any order are read by types.checkpoint_column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from typing import Iterator, Optional

import numpy as np

from .errors import CapabilityError, InvalidThresholdError
from .exact import _CheckpointCounter, _fraction_sum, _guard_linear, enumerate_perfect
from .sieve import SigmaSource
from .types import (CheckpointSeries, RationalTarget, ThresholdSpec, checkpoint_column,
                    checkpoint_index, checkpoint_values, normalized_quotient)

#: Relative width of the float64 guard band around b*n*log(n)^(+-1) and u.
_BAND = 1e-9

#: Absolute width of the guard band around a power exponent c.  The error of a
#: computed e(n) is below 1e-13 for 2 <= n <= 2^55 (log n >= log 2, |log D| < 44).
_EXPONENT_BAND = 1e-9


def _compare(lhs: int, rhs: int) -> int:
    """-1, 0 or +1 as lhs is below, equal to or above rhs."""
    return (lhs > rhs) - (lhs < rhs)


def _power_compare(D: int, b: int, n: int, c: Fraction) -> int:
    """Exact sign of D - b*n^c for rational c = p/q: -1 below, 0 tie, +1 above."""
    return _compare(D ** c.denominator, b ** c.denominator * n ** c.numerator)


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
        return _compare(D, 0)
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
    when e < c, up to float rounding (see _decider).

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
    if len(n) and n[0] == 1:
        e[0] = np.nan
    return e


def _banded(x: np.ndarray, lo, hi, sign) -> tuple[np.ndarray, np.ndarray]:
    """Decide "inside" per cell from a float64 value and its guard band.

    x, lo and hi broadcast to the cells [row, n]: one x per n against a
    column lo[:, None] of scalar bounds per row, or against one bound per n.
    x < lo is inside and x > hi is outside; every other cell, NaN included,
    is decided by the exact sign(row, i) of its row and offset: -1 inside, 0
    a tie, +1 outside.  Returns the inside mask and the ascending int64 flat
    indices of the ties.
    """
    inside = x < lo
    decided = x > hi
    decided |= inside  # NaN fails both compares, so it is left to the sign
    ties = []
    if not decided.all():
        band = np.flatnonzero(~decided)
        rows, offsets = np.divmod(band, inside.shape[-1])
        for cell, row, i in zip(band.tolist(), rows.tolist(), offsets.tolist()):
            s = sign(row, i)
            if s < 0:
                inside.flat[cell] = True
            elif s == 0:
                ties.append(cell)
    return inside, np.array(ties, dtype=np.int64)


def _ratio_below(us):
    """The exact test s/n < u for each u of us, as a function of x, the
    float64 s/n of int64 s and n (n = 1 where n is None), that gives the
    (inside, ties) of _banded over the cells [u, n].  The bounds are taken
    here, once for every block they decide.

    Every s is below 2^62 (D by _guard_linear, sigma(n) < 2^61 for n <= 2^55)
    and n >= 1, so s/n lies in [0, 2^62); u is clamped to that range, and the
    band's exact sign reads the true u.  With u' = 2^-53, the conversions and
    the division round once each, so |x - s/n| <= 3.01u' * s/n, and uf is
    within u' of the clamped u.  As _BAND >> 4u', x < uf*(1 - _BAND) gives
    s/n < u and x > uf*(1 + _BAND) gives s/n above the clamped u, and so above
    u.  A zero or subnormal uf is below every s/n >= 2^-55 of an s >= 1.
    """
    uf = np.array([float(min(max(u, 0), 2**62)) for u in us])[:, None]
    lo, hi = uf * (1.0 - _BAND), uf * (1.0 + _BAND)

    def below(x, s, n=None):
        return _banded(x, lo, hi, lambda r, i: _compare(
            int(s[i]) * us[r].denominator, us[r].numerator * (1 if n is None else int(n[i]))))
    return below


def _above(threshold: ThresholdSpec, b: int):
    """A function of n >= 3 that gives an integer T > b*k(n), clamped at 2^62
    (above every D, by _guard_linear): exact for constant and linear; otherwise
    from the float64 b*k(n) times 1 + _BAND, as that float is off by a factor
    within 1 +- 2^-46 (rounding c moves n^c by at most 2^-53*log n < 2^-47.7
    for n <= 2^55).  c is read here, once for every block."""
    kind, c = threshold.kind, threshold.param
    if kind in ("constant", "linear"):
        p, q = b * c.numerator, c.denominator
        return lambda n: min(p * (n if kind == "linear" else 1) // q + 1, 2**62)
    cf = float(c) if kind == "power" else None

    def above(n: int) -> int:
        k = (n ** cf if kind == "power" else
             n / math.log(n) if kind == "x_over_log" else n * math.log(n))
        return min(int(b * k * (1.0 + _BAND)) + 1, 2**62)
    return above


def _decider(thresholds: list[ThresholdSpec], b: int):
    """The exact decide of D < b*k(n) for thresholds of one kind: a function
    of the int64 D and n of a block that gives (inside, ties), a bool
    [threshold, n] mask and the ascending int64 flat indices of its cells where
    D = b*k(n).  Every threshold is a row of one broadcast _banded, its bounds
    taken here; y/log y and y*log y, whose bounds are per n, come one at a
    time.  n need not be ascending (at-limit rows pass one checkpoint per
    element).

    A power n^c is decided on e(n) of _exponents, shared by every exponent,
    against c -+ _EXPONENT_BAND.  Constant and linear are the ratio test
    D/n < b*c of _ratio_below (D/1 < b*k0 for a constant).
    """
    kind, cs = thresholds[0].kind, [t.param for t in thresholds]
    if kind == "power":
        cf = np.array([float(c) for c in cs])[:, None]
        lo, hi = cf - _EXPONENT_BAND, cf + _EXPONENT_BAND
        return lambda D, n: _banded(_exponents(D, b, n), lo, hi, lambda r, i: _power_compare(
            int(D[i]), b, int(n[i]), cs[r]))
    if kind in ("constant", "linear"):
        below = _ratio_below([b * c for c in cs])
        if kind == "linear":
            return lambda D, n: below(D / n, D, n)
        return lambda D, n: below(D.astype(np.float64), D)
    if kind in ("x_over_log", "x_log_x"):
        power = -1 if kind == "x_over_log" else 1

        def decide(D, n):  # k(1) is +inf for y/log y, 0 for y*log y
            nf = n.astype(np.float64)
            logn = np.log(nf)
            t = (np.divide(b * nf, logn, out=np.full(len(n), np.inf), where=logn > 0)
                 if power < 0 else b * nf * logn)[None]
            return _banded(D.astype(np.float64), t * (1.0 - _BAND), t * (1.0 + _BAND),
                           lambda r, i: _xlog_compare(int(D[i]), b, int(n[i]), power))
        return decide
    raise InvalidThresholdError(f"unsupported threshold kind {kind!r}")


def _bisect(decide, D: np.ndarray, start: np.ndarray, cks: np.ndarray,
            strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the least checkpoint index j >= start with D < b*k(cks[j])
    (<= unless strict), len(cks) if none, and whether D = b*k(cks[j]) there.
    k is nondecreasing over checkpoints >= 3, so each round decides every open
    element exactly at the middle of its own index range, by the one-threshold
    decide of _decider.  cks is a column or range of checkpoint_column."""
    lo, hi = start.copy(), np.full_like(start, len(cks))
    tie = np.zeros(len(lo), dtype=bool)  # whether the decide at hi was a tie
    # 2^13 at a time, so that a round's temporaries stay under glibc's trim threshold
    for first in range(0, len(lo), 1 << 13):
        active = first + np.flatnonzero(lo[first:first + (1 << 13)] < hi[first:first + (1 << 13)])
        while len(active):
            mid = (lo[active] + hi[active]) // 2
            (inside,), ties = decide(D[active], checkpoint_values(cks, mid))
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


def count_stream(target, thresholds: list[ThresholdSpec], checkpoints,
                 source: Optional[SigmaSource] = None, include_one: bool = True
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One streaming pass over [1, max checkpoint] for several thresholds at
    once.  For each block that completes checkpoints, it yields them, x (int64,
    ascending), with the int64 [threshold, x] strict and tie counts.  The
    arguments, the limit and the run's cost are checked at the call, before
    any sieving.

    An at_limit threshold counts n at x when n <= x and D(n) < b*k(x).  From
    x = 3 on every kind is nondecreasing, so n counts from the first such
    checkpoint on (_bisect) and ties are the <= first indices less the < ones.
    """
    target = RationalTarget.parse(target)
    cks = checkpoint_column(checkpoints, lazy=True)
    limit = int(cks[-1])
    source = source or SigmaSource()
    _guard_linear(target.a, target.b, limit)
    return _counted(target, list(thresholds), cks, source.blocks(limit), include_one)


def _counted(target: RationalTarget, thresholds: list[ThresholdSpec], cks, blocks,
             include_one: bool) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    a, b = target.a, target.b
    rows = len(thresholds)  # strict counts in rows [0, rows), ties in [rows, 2*rows)
    counter = _CheckpointCounter(cks, 2 * rows)
    kinds: dict = {}  # the rows of one kind are decided together, y/log y and y*log y alone
    for i, t in enumerate(thresholds):
        if not t.at_limit:
            kinds.setdefault(t.kind if t.param is not None else i, []).append(i)
    at_n = [(np.array(g), _decider([thresholds[i] for i in g], b)) for g in kinds.values()]
    at_limit = [(i, _decider([t], b)) for i, t in enumerate(thresholds) if t.at_limit]
    tops = [_above(t, b) for t in thresholds if not t.at_limit]

    def count(n, sigma):  # its temporaries are freed before the next block is sieved
        D = np.abs(np.int64(b) * sigma - np.int64(a) * n)
        skip = int(not include_one and n[0] == 1)  # leaves out n = 1
        start = checkpoint_index(cks, np.maximum(n[skip:], 3)) if at_limit else None
        counter.block(n)
        # k is nondecreasing from n = 3 on: decide only D below the loosest _above(n[-1])
        cand = (np.flatnonzero(D < max(top(int(n[-1])) for top in tops))
                if tops and n[0] >= 3 else None)
        Dc, nc = (D, n) if cand is None else (D[cand], n[cand])
        for g, decide in at_n:
            inside, ties = decide(Dc, nc)
            if skip:  # only where n[0] = 1, so cand is None
                inside[:, 0] = False
                ties = ties[ties % len(n) > 0]
            counter.add(g, inside, cand)
            counter.add(rows + g, ties, cand)
        for i, decide in at_limit:  # from the first checkpoint >= max(n, 3)
            loose, tie = _bisect(decide, D[skip:], start, cks, strict=False)
            strict, t = loose.copy(), np.flatnonzero(tie)  # only a tie moves on
            strict[t] = _bisect(decide, D[skip:][t], loose[t] + 1, cks, True)[0]
            counter.add_from(i, strict)
            counter.add_from(rows + i, loose[t])  # and only it is a tie, from loose to strict
            counter.add_from(rows + i, strict[t], -1)
            if n[0] == 1:  # y/log y falls up to e: x = 1, 2 (x > skip) directly
                for j in range(*checkpoint_index(cks, (1 + skip, 3)).tolist()):
                    x = int(cks[j])
                    inside, ties = decide(D[skip:x], np.full(x - skip, x))
                    counter.add_at([i, rows + i], j, (np.count_nonzero(inside), len(ties)))
        return counter.done()

    for x, counts in starmap(count, blocks):
        if len(x):
            yield x, counts[:rows], counts[rows:]
        del counts  # the consumer's alone while the next block is counted


def count_thresholds(target, thresholds: list[ThresholdSpec], checkpoints,
                     source: Optional[SigmaSource] = None,
                     include_one: bool = True) -> ThresholdCounts:
    """The counts of count_stream at every checkpoint, from its one pass."""
    target = RationalTarget.parse(target)
    parts = count_stream(target, thresholds, checkpoints, source, include_one)
    x, strict, ties = (np.concatenate(column, axis=-1) for column in zip(*parts))
    return ThresholdCounts(target, list(thresholds), x, strict, ties)


def series_stream(target, threshold: ThresholdSpec, checkpoints,
                  source: Optional[SigmaSource] = None,
                  include_one: bool = True) -> Iterator[CheckpointSeries]:
    """series as one CheckpointSeries per block of count_stream, checked at
    the call, so that a writer can render each part as it comes."""
    target = RationalTarget.parse(target)
    label = f"within l={target} k={threshold.describe()}"
    parts = count_stream(target, [threshold], checkpoints, source, include_one)
    # unlike a generator, starmap holds no part's counts while the next is counted
    return starmap(lambda x, strict, ties: CheckpointSeries(
        x, strict[0] + (0 if threshold.strict else ties[0]), label=label), parts)


def series(target, threshold: ThresholdSpec, checkpoints,
           source: Optional[SigmaSource] = None,
           include_one: bool = True) -> CheckpointSeries:
    """Within-perfect counts and quotients count/(x/log x) at each checkpoint."""
    return CheckpointSeries.concat(list(series_stream(target, threshold, checkpoints,
                                                      source, include_one)))


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
    if limit > TABLE_CHECKPOINTS[-1]:  # rather than ignored
        raise ValueError(f"the published grid stops at {TABLE_CHECKPOINTS[-1]}, "
                         f"got limit {limit}")
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
