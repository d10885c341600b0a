"""Exact sigma-equations: perfect censuses, convergent series, gcd sums,
and the linear Diophantine equation b*sigma(n) = a*n + k.  The perfect census,
that equation and the congruence census are one classified stream, _solutions.
Each streams SigmaSource.blocks, so its per-n temporaries are one block long.
Checkpoints are read by types.checkpoint_column, which refuses one past a
census's limit."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from .errors import CapabilityError, InvalidProblemError
from .sieve import SigmaSource, _icbrt, factor
from .types import (CheckpointSeries, RationalTarget, SolutionTable, checkpoint_column,
                    checkpoint_index, checkpoint_values)

if TYPE_CHECKING:
    import mpmath


def _guard_linear(a: int, b: int, limit: int, k: int = 0) -> None:
    """b*sigma(n) - k and a*n must stay well inside int64 for vectorized masks."""
    sigma_max = limit * (1 + math.log(limit)) if limit > 1 else 1
    if max(b * sigma_max + abs(k), a * float(limit)) >= 2**62:
        raise CapabilityError(
            f"coefficients a={a}, b={b}{f', k={k}' if k else ''} at limit {limit} "
            f"exceed the int64 working range"
        )


def _fraction_sum(terms: list[Fraction]) -> Fraction:
    """Balanced pairwise sum; keeps intermediate denominators small."""
    if not terms:
        return Fraction(0)
    work = list(terms)
    while len(work) > 1:
        work = [work[i] + work[i + 1] if i + 1 < len(work) else work[i]
                for i in range(0, len(work), 2)]
    return work[0]


class _CheckpointCounter:
    """Rows of hit counts up to each ascending checkpoint, an int64 column or
    a range of checkpoint_column (whose column is never built), over the
    ascending blocks of consecutive n that cover [1, last checkpoint].

    A block completes the checkpoints up to its last n.  block() finds them,
    the add methods place the block's hits in a grid with one column per
    completed checkpoint and one for the rest, and done() sums it in place to
    the counts at them and keeps each row's total as its carry.  A hit counted
    from a later checkpoint on (add_from, the at-limit rows) is pending in its
    row until the block that completes that checkpoint.  So memory is one grid
    of one block's checkpoints and the pending hits, never a grid of every
    checkpoint (figure1 has 10^6 or more).
    """

    def __init__(self, checkpoints, rows: int):
        self.checkpoints = checkpoints
        self.carry = np.zeros(rows, dtype=np.int64)
        self.pending: list[list] = [[] for _ in range(rows)]  # (ascending indices, sign)
        # a pending index is below len(checkpoints): int32 holds it up to 2^31
        self._index = np.int32 if len(checkpoints) < 2**31 else np.int64

    def block(self, n: np.ndarray) -> None:
        """Start counting the hits of the block of consecutive n."""
        self.j0, self.j1 = checkpoint_index(self.checkpoints, (n[0], n[-1] + 1)).tolist()
        self.x = checkpoint_values(self.checkpoints, slice(self.j0, self.j1))
        self._upto = self.x - n[0]  # as offsets into n
        self._length = len(n)
        self._first = np.zeros((len(self.carry), len(self.x) + 1), dtype=np.int64)

    def add(self, rows, hits: np.ndarray, offsets: Optional[np.ndarray] = None) -> None:
        """Count hits of the current block in rows, one row or one per row of
        hits: a bool mask [row,] n over the block's n or over the given
        ascending offsets, or the ascending int64 indices of its True cells
        in the flattened mask."""
        rows = np.atleast_1d(rows)
        width = self._length if offsets is None else len(offsets)
        if not len(self._upto):  # no checkpoint in the block: no offset is read
            # count_nonzero per row: with an axis it takes five times as long
            self._first[rows, 0] += ([np.count_nonzero(row) for row in hits.reshape(len(rows), -1)]
                                     if hits.dtype == bool
                                     else np.bincount(hits // width, minlength=len(rows)))
            return
        if hits.dtype == bool:
            hits = np.flatnonzero(hits)
        row, i = np.divmod(hits, width) if len(rows) > 1 else (0, hits)
        # the index of each hit among the block's checkpoints, in its row
        local = np.searchsorted(self._upto, i if offsets is None else offsets[i])
        cells = len(self._upto) + 1
        counts = np.bincount(row * cells + local, minlength=len(rows) * cells)
        for r, part in zip(rows.tolist(), counts.reshape(len(rows), cells)):
            self._first[r] += part  # in place, where a fancy index would copy the rows

    def add_at(self, rows, j: int, hits) -> None:
        """Count hits at checkpoint index j, one the block completes, alone."""
        self._first[rows, j - self.j0] += hits
        self._first[rows, j - self.j0 + 1] -= hits

    def add_from(self, row: int, first: np.ndarray, sign: int = 1) -> None:
        """Count sign hits at each checkpoint index of first, none below the
        block's, and at every later one (an index of len(checkpoints) is none)."""
        due = first < self.j1
        self._first[row] += sign * np.bincount(first[due] - self.j0, minlength=len(self.x) + 1)
        later = first[~due]
        later = later[later < len(self.checkpoints)].astype(self._index)
        later.sort()
        if len(later):
            self.pending[row].append((later, sign))

    def done(self) -> tuple[np.ndarray, np.ndarray]:
        """The int64 checkpoints x the block completes and the int64
        [row, x] counts of the hits up to each."""
        for chunks, row in zip(self.pending, self._first):
            for i, (later, sign) in enumerate(chunks):
                due = np.searchsorted(later, self.j1)
                np.add.at(row, later[:due] - self.j0, sign)
                # a copy once any is due, or the view keeps the whole chunk
                chunks[i] = (later[due:].copy() if due else later), sign
            chunks[:] = [chunk for chunk in chunks if len(chunk[0])]
        counts, self._first = self._first, None  # summed in place, then the caller's
        np.cumsum(counts, axis=1, out=counts)
        counts += self.carry[:, None]
        self.carry = counts[:, -1].copy()  # not a view, which would keep the grid
        return self.x, counts[:, :-1]


def _witnesses(n: np.ndarray, sigma: np.ndarray, anchors: np.ndarray,
               s: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness (p, m) of each solution in the int64 column n, whose sigma
    is the int64 column sigma, as two int64 columns: n = p*m with m one of the
    anchors (an ascending int64 column) and p a prime not dividing m, and
    p = m = 0 where n has none (a sporadic solution).

    Every anchor m has the same sigma(m) = s = k/b, as b*sigma(m) = k (see
    _solutions).  With p = floor(sigma(n)/s) - 1, n has the witness (p, n/p)
    exactly when p >= 1, p divides n, m = n/p is an anchor and gcd(p, m) = 1:

    (=>) p is prime and does not divide m, so gcd(p, m) = 1 and sigma(n) =
    (p + 1)*s, whence floor(sigma(n)/s) - 1 is that p.
    (<=) gcd(p, m) = 1 gives sigma(n) = sigma(p)*sigma(m) = sigma(p)*s, so s
    divides sigma(n), the floor is exact and sigma(p) = p + 1, which holds
    only for a prime p (sigma(1) = 1).  p does not divide m, by the gcd.

    So p, and with it m, is fixed by sigma(n): a solution has at most one
    witness, and primality needs no sieve of its own.  (p + 1)*s is never
    formed, since s may come near 2^62; the gcd is taken only on the rows that
    pass the other checks.
    """
    wp = np.zeros(len(n), dtype=np.int64)
    wm = np.zeros(len(n), dtype=np.int64)
    if len(anchors) == 0:  # then s may be anything, zero included
        return wp, wm
    p = sigma // s - 1
    idx = np.flatnonzero(p >= 1)
    p = p[idx]
    m, rem = np.divmod(n[idx], p)
    # the anchors ascend, so each m is an anchor when it is the one searchsorted finds
    keep = (rem == 0) & (anchors[np.searchsorted(anchors, m).clip(max=len(anchors) - 1)] == m)
    idx, p, m = idx[keep], p[keep], m[keep]
    keep = np.gcd(p, m) == 1
    wp[idx[keep]], wm[idx[keep]] = p[keep], m[keep]
    return wp, wm


def _solutions(b: int, k: int, blocks, a: Optional[int] = None) -> Iterator[SolutionTable]:
    """The solutions n of b*sigma(n) - k = q*n in the blocks of (n, sigma), one
    classified SolutionTable per block: q = a (b*sigma(n) = a*n + k, the perfect
    census at k = 0), or any integer q when a is None (the congruence; q = -1
    where b*sigma(n) < k).

    The anchors are the n with b*sigma(n) = k and n | k, so sigma(n) = k/b, and
    a regular n = p*m has m <= n/2: each block adds its anchors before its
    witnesses are read off sigma (_witnesses).  For the equation, b*sigma(p*m)
    = (p + 1)*k = a*p*m + k gives m = k/a, and k/a is an anchor exactly when
    regular_family_anchor returns it: an integer k/a >= 1 divides k, and
    b*sigma(k/a) = k with a, b coprime is ab | k and sigma(k/a) = k/b.
    """
    anchors = np.empty(0, dtype=np.int64)
    for n, sigma in blocks:
        value = sigma * np.int64(b) - np.int64(k)
        if int(n[0]) * b <= k:  # b*sigma(n) = k needs n <= sigma(n) = k/b
            new = n[value == 0]
            anchors = np.concatenate([anchors, new[k % new == 0]])
        idx = np.flatnonzero(value % n == 0 if a is None else value == np.int64(a) * n)
        ns, sigma_n, value = n[idx], sigma[idx], value[idx]
        q = np.where(value >= 0, value // ns, -1)
        yield SolutionTable(ns, sigma_n, q, *_witnesses(ns, sigma_n, anchors, k // b))


@dataclass
class PerfectCensus:
    """All m <= limit with b*sigma(m) = a*m, plus the counting function."""

    target: RationalTarget
    limit: int
    members: list[int]
    counting: CheckpointSeries

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self.members, n)
        return i > 0 and self.members[i - 1] == n


def enumerate_perfect(target, limit: int, source: Optional[SigmaSource] = None,
                      checkpoints: Optional[list[int]] = None) -> PerfectCensus:
    """Exhaustively list all m <= limit with b*sigma(m) = a*m (one streaming pass)."""
    target = RationalTarget.parse(target)
    source = source or SigmaSource()
    _guard_linear(target.a, target.b, limit)
    cks = checkpoint_column([limit] if checkpoints is None else checkpoints, limit)
    members = SolutionTable.concat(
        _solutions(target.b, 0, source.blocks(limit), target.a)).n.tolist()
    counting = CheckpointSeries(cks, np.searchsorted(members, cks, side="right"))
    return PerfectCensus(target, limit, members, counting)


@dataclass
class WirsingReport:
    """Cumulative perfect counts against the log P / (log x / log log x) scale."""

    target: RationalTarget
    series: CheckpointSeries
    ratios: list[float]
    grew: bool


def wirsing_count_check(target, checkpoints, source: Optional[SigmaSource] = None) -> WirsingReport:
    """Count b*sigma(m) = a*m solutions at checkpoints and report the growth ratio.

    ratio(x) = log P(x) / (log x / log log x); NaN where the count is zero or
    x < 3.  grew flags a net increase from the first to the last finite ratio
    (an empirical consistency check, nothing more).
    """
    target = RationalTarget.parse(target)
    checkpoints = checkpoint_column(checkpoints).tolist()
    census = enumerate_perfect(target, checkpoints[-1], source, checkpoints)
    ratios = [math.nan if count < 1 or x < 3 else
              math.log(count) / (math.log(x) / math.log(math.log(x)))
              for x, count in zip(checkpoints, census.counting.counts)]
    finite = [r for r in ratios if not math.isnan(r)]
    grew = len(finite) >= 2 and finite[-1] > finite[0] + 1e-12
    return WirsingReport(target, census.counting, ratios, grew)


@dataclass
class SeriesSums:
    """Partial sums over the perfect members m <= limit."""

    target: RationalTarget
    limit: int
    members: list[int]
    reciprocal: Fraction          # sum of 1/m, exact
    log_weighted: mpmath.mpf      # sum of log(m)/m at 50 digits


def series_partial_sums(target, limit: int, source: Optional[SigmaSource] = None) -> SeriesSums:
    """Sum 1/m (exact rational) and log(m)/m (50 digits) over m <= limit with
    b*sigma(m) = a*m."""
    import mpmath

    target = RationalTarget.parse(target)
    census = enumerate_perfect(target, limit, source)
    reciprocal = _fraction_sum([Fraction(1, m) for m in census.members])
    with mpmath.workdps(50):
        log_weighted = mpmath.fsum(mpmath.log(m) / m for m in census.members)
    return SeriesSums(target, limit, census.members, reciprocal, log_weighted)


#: Fractional bits the fixed-point gcd sum carries at least.
_GCD_SUM_BITS = 128


def _gcd_terms(m_lo: int, m_hi: int,
               source: SigmaSource) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The int64 columns (gcd(m, sigma(m)), m) of each block's part of
    [m_lo, m_hi], streamed from source."""
    for n, sigma in source.blocks(m_hi):
        i = np.searchsorted(n, m_lo)
        if i < len(n):
            yield np.gcd(n[i:], sigma[i:]), n[i:]


def _exact_gcd_sum(m_lo: int, m_hi: int, source: SigmaSource) -> Fraction:
    return _fraction_sum([Fraction(g, m * m) for gs, ms in _gcd_terms(m_lo, m_hi, source)
                          for g, m in zip(gs.tolist(), ms.tolist())])


@dataclass
class GcdSumReport:
    """The sum of gcd(m, sigma(m))/m^2 over the middle range (x^(1/3), x^(2/3)]."""

    x: int
    m_lo: int  # smallest m included
    m_hi: int  # largest m included
    rounded: float      # the exact sum, correctly rounded to float64
    bound: float        # 3 * x^(-1/3)
    bound_ratio: float  # rounded / bound
    scaled: float       # rounded * x^(1/3)
    source: SigmaSource = field(repr=False, compare=False)

    @cached_property
    def value(self) -> Fraction:
        """The exact sum, built on first read by streaming the window again."""
        return _exact_gcd_sum(self.m_lo, self.m_hi, self.source)


def gcd_sum(x: int, source: Optional[SigmaSource] = None) -> GcdSumReport:
    """Evaluate sum_{x^(1/3) < m <= x^(2/3)} gcd(m, sigma(m))/m^2, correctly rounded.

    Each term g/m^2 (g <= m < m^2, so its integer part is 0) is expanded to
    B >= _GCD_SUM_BITS fractional bits in limbs of b bits, with b as large as
    keeps the remainder shifted by b inside u64.  The truncated expansions sum
    to S, and the c terms with a nonzero final remainder each lose less than
    2^-B, so the exact sum lies in [S, S + c] / 2^B.  Rounding to nearest is
    monotone: when both ends round to the same double, so does the exact sum.
    Otherwise the exact Fraction decides.
    """
    if x < 8:
        raise ValueError("need x >= 8 so the range (x^(1/3), x^(2/3)] is nonempty")
    m_lo = _icbrt(x) + 1          # smallest m with m^3 > x
    m_hi = _icbrt(x * x)          # largest m with m^3 <= x^2
    if m_hi >= 1 << 28:
        raise CapabilityError(
            f"x={x} puts m^2 beyond the 2^56 the fixed-point gcd sum works in "
            f"(m up to {m_hi}; x must be below 2^42)")
    source = source or SigmaSource()
    b = 64 - (m_hi * m_hi).bit_length()
    steps = -(-_GCD_SUM_BITS // b)
    shift = np.uint64(b)
    total = inexact = 0
    for g, m in _gcd_terms(m_lo, m_hi, source):
        m2 = (m * m).view(np.uint64)
        r = g.view(np.uint64)  # the remainders, updated in place
        q = np.empty_like(r)
        part = 0
        for _ in range(steps):
            # r < m^2 < 2^(64-b), so r << b fits u64; q < 2^b < 2^64 / m_hi^2 and
            # a block holds at most m_hi terms, so the u64 sum of q cannot wrap
            r <<= shift
            np.divmod(r, m2, out=(q, r))
            part = (part << b) + int(q.sum())
        total += part
        inexact += int(np.count_nonzero(r))
    scale = 1 << (b * steps)
    rounded = total / scale
    if rounded != (total + inexact) / scale:
        rounded = float(_exact_gcd_sum(m_lo, m_hi, source))
    bound = 3.0 * x ** (-1.0 / 3.0)
    return GcdSumReport(x, m_lo, m_hi, rounded, bound,
                        rounded / bound, rounded * x ** (1.0 / 3.0), source)


@dataclass(frozen=True)
class DiophantineProblem:
    """b*sigma(n) = a*n + k for n <= limit, with a > b >= 1 coprime and k != 0."""

    a: int
    b: int
    k: int
    limit: int

    def __post_init__(self):
        if self.b < 1 or self.a <= self.b:
            raise InvalidProblemError(f"need a > b >= 1, got a={self.a}, b={self.b}")
        if math.gcd(self.a, self.b) != 1:
            raise InvalidProblemError(f"a={self.a}, b={self.b} are not coprime")
        if self.k == 0:
            raise InvalidProblemError("k must be nonzero (k = 0 is the perfect census)")
        if self.limit < 1:
            raise InvalidProblemError("limit must be >= 1")


@dataclass
class DiophantineSolution:
    problem: DiophantineProblem
    records: SolutionTable
    series: CheckpointSeries
    regular_family: bool          # the regular-family branch conditions hold
    family_anchor: Optional[int]  # m0 = k/a when they do
    predicted_density: Optional[Fraction]  # a/k when they do


def regular_family_anchor(a: int, b: int, k: int) -> Optional[int]:
    """m0 = k/a when the regular-family branch applies: k >= 1, ab | k,
    sigma(k/a) = k/b.  Otherwise None (every solution is then sporadic).
    sigma(k/a) comes from factoring k/a, exact for k/a < 2^64."""
    if k < 1 or k % (a * b) != 0:
        return None
    m0 = k // a
    if factor(m0).sigma != k // b:
        return None
    return m0


def solve_diophantine(problem: DiophantineProblem, source: Optional[SigmaSource] = None,
                      checkpoints: Optional[list[int]] = None) -> DiophantineSolution:
    """Exhaustively solve b*sigma(n) = a*n + k for n <= limit and classify.

    When the regular-family branch holds (k >= 1, ab | k, sigma(k/a) = k/b),
    a solution is regular exactly when n = p*(k/a) with p prime and
    p not dividing k/a; otherwise every solution is sporadic.
    """
    source = source or SigmaSource()
    a, b, k, limit = problem.a, problem.b, problem.k, problem.limit
    _guard_linear(a, b, limit, k)
    cks = checkpoint_column([limit] if checkpoints is None else checkpoints, limit)
    m0 = regular_family_anchor(a, b, k)
    records = SolutionTable.concat(_solutions(b, k, source.blocks(limit), a))
    series = CheckpointSeries(cks, np.searchsorted(records.n, cks, side="right"))
    return DiophantineSolution(
        problem=problem, records=records, series=series,
        regular_family=m0 is not None, family_anchor=m0,
        predicted_density=Fraction(a, k) if m0 is not None else None)
