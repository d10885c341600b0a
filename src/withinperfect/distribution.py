"""Empirical distribution of the abundancy ratio sigma(n)/n.

The limiting distribution of sigma(n)/n is continuous and strictly
increasing on [1, oo); here we estimate it at finite x, run the
density phase-transition experiments for sublinear/linear/superlinear
thresholds, and probe how well a target ratio can be approximated by
abundancy ratios.

Every per-n predicate is decided exactly by the counting engine's decide:
sigma(n)/n <= u goes through within._banded (a float64 prefilter with a
relative guard band, then exact cross-multiplication for the candidates), and
the windows of the phase experiments are within thresholds.  Ratios equal to
a query point u count as <= u (inclusive convention).  The CDF and the linear
phase experiment stream SigmaSource.blocks, so one block's sigma/n and masks
are all that is held per n, and count through exact._CheckpointCounter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exact import _CheckpointCounter
from .sieve import SigmaSource
from .types import RationalTarget, ThresholdSpec, as_exact_fraction, int64_column
from .within import _banded, _decide_segment, count_thresholds

_BAND = 1e-12


def _ratio_compare(s: int, n: int, u: Fraction) -> int:
    """Exact sign of s/n - u: -1 below, 0 tie, +1 above."""
    lhs, rhs = s * u.denominator, u.numerator * n
    return (lhs > rhs) - (lhs < rhs)


def _ratio_below(ratio: np.ndarray, sigma: np.ndarray, n: np.ndarray,
                 u: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """(below, ties) of sigma(n)/n against u, decided exactly; ratio is the
    float64 sigma/n of the block, computed once for every query point."""
    uf = float(u)
    return _banded(ratio, uf * (1.0 - _BAND), uf * (1.0 + _BAND),
                   lambda i: _ratio_compare(int(sigma[i]), int(n[i]), u))


@dataclass
class EmpiricalCDF:
    """F_x(u) = (1/x) * #{n <= x : sigma(n)/n <= u} on an ascending grid."""

    limit: int
    grid: tuple[Fraction, ...]
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    inclusive: bool = True

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(c / self.limit for c in self.counts)


def empirical_cdf(limit: int, grid, source: Optional[SigmaSource] = None,
                  inclusive: bool = True) -> EmpiricalCDF:
    """Estimate the abundancy distribution at the given query points (one pass)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    labels = tuple(str(u) for u in grid)
    fracs = tuple(as_exact_fraction(u, "query point") for u in grid)
    if list(fracs) != sorted(fracs):
        raise ValueError("grid must be ascending")
    source = source or SigmaSource()
    counter = _CheckpointCounter(int64_column([limit]), len(fracs))
    for blk in source.blocks(limit):
        n = blk.n_values()
        sig = blk.sigma.view(np.int64)
        ratio = sig / n
        counter.block(blk)
        for i, u in enumerate(fracs):
            below, ties = _ratio_below(ratio, sig, n, u)
            counter.add(i, below)
            if inclusive:
                counter.add(i, ties)
    return EmpiricalCDF(limit, fracs, labels, tuple(counter.counts()[:, 0].tolist()),
                        inclusive)


@dataclass
class PhaseReport:
    """Density of the within-window per checkpoint, with the regime's reference.

    sublinear expects the density to fall toward 0, superlinear to rise
    toward 1; linear compares against the same-pass CDF difference
    F_x(l+c) - F_x(l-c).
    """

    regime: str
    target: RationalTarget
    c: Optional[Fraction]
    checkpoints: list[int]
    densities: list[float]
    references: list[float]
    deviations: list[float]
    trend_ok: Optional[bool]


def phase_experiment(target, regime: str, checkpoints,
                     source: Optional[SigmaSource] = None, c=None) -> PhaseReport:
    """Run the density experiment for one threshold regime.

    regime: "sublinear" (k = y^c, default c = 1/2), "linear" (k = c*y), or
    "superlinear" (k = y*log y).
    """
    target = RationalTarget.parse(target)
    checkpoints = sorted(int(x) for x in checkpoints)
    source = source or SigmaSource()

    if regime in ("sublinear", "superlinear"):  # the density tends to 0 or to 1
        if regime == "sublinear":
            cf = Fraction(1, 2) if c is None else ThresholdSpec.power(c).param
            spec, goal = ThresholdSpec.power(cf), 0.0
        else:
            cf, spec, goal = None, ThresholdSpec.x_log_x(), 1.0
        counts = count_thresholds(target, [spec], checkpoints, source)
        densities = [s / x for s, x in zip(counts.strict[0].tolist(), checkpoints)]
        deviations = [abs(d - goal) for d in densities]
        trend_ok = all(e2 <= e1 + 1e-12 for e1, e2 in zip(deviations, deviations[1:]))
        return PhaseReport(regime, target, cf, checkpoints, densities,
                           [goal] * len(checkpoints), deviations, trend_ok)

    if regime != "linear":
        raise ValueError(f"unknown regime {regime!r}")
    if c is None:
        raise ValueError("linear regime needs the slope c")
    spec = ThresholdSpec.linear(c)  # |sigma/n - l| < c is D < b*c*n, c > 0
    cf, ell = spec.param, target.fraction

    # one pass: the open window and the CDF counts at l + c and l - c
    counter = _CheckpointCounter(int64_column(checkpoints), 3)
    for blk in source.blocks(checkpoints[-1]):
        n = blk.n_values()
        sig = blk.sigma.view(np.int64)
        counter.block(blk)
        D = np.abs(np.int64(target.b) * sig - np.int64(target.a) * n)
        counter.add(0, _decide_segment(spec, target.b, D, n)[0])
        ratio = sig / n
        for row, u in ((1, ell + cf), (2, ell - cf)):
            below, ties = _ratio_below(ratio, sig, n, u)
            counter.add(row, below)
            counter.add(row, ties)
    window, cdf_hi, cdf_lo = counter.counts().tolist()
    densities = [w / x for w, x in zip(window, checkpoints)]
    references = [(h - l) / x for h, l, x in zip(cdf_hi, cdf_lo, checkpoints)]
    deviations = [abs(d - r) for d, r in zip(densities, references)]
    return PhaseReport("linear", target, cf, checkpoints, densities,
                       references, deviations, None)


@dataclass(frozen=True)
class ProbeRecord:
    """One best-so-far approximation of the target by an abundancy ratio."""

    m: int
    ratio: Fraction
    distance: Fraction
    meets_log_bound: bool  # distance < 1/log(m)


@dataclass
class ProbeReport:
    target: Fraction
    search_limit: int
    depth: int
    records: list[ProbeRecord]   # the last `depth` strict improvements, ascending m
    improvements_found: int
    exhausted: bool              # fewer than `depth` improvements existed


def sigma_approx_probe(target_value, depth: int, search_limit: int,
                       source: Optional[SigmaSource] = None) -> ProbeReport:
    """Scan 2 <= m <= search_limit for successively better approximations
    |target - sigma(m)/m|, keeping the last `depth` strict improvements.

    m = 1 is excluded: its ratio is the trivial endpoint 1, and targets just
    above 1 should be chased by genuine ratios (primes give 1 + 1/p).
    Distances are compared exactly; each record notes whether it beats the
    concrete envelope 1/log(m).  exhausted is set when the scan ran out of
    improvements before reaching the requested depth.
    """
    if depth < 1 or search_limit < 2:
        raise ValueError("depth must be >= 1 and search_limit >= 2")
    ell = as_exact_fraction(target_value, "target")
    if ell <= 1:
        raise ValueError("target must exceed 1")
    source = source or SigmaSource()
    ellf = float(ell)

    records: list[ProbeRecord] = []
    best: Optional[Fraction] = None
    for seg in source.segments(search_limit):
        n = seg.n_values()
        dist_f = np.abs(seg.sigma.astype(np.float64) / n.astype(np.float64) - ellf)
        if seg.lo == 1:
            dist_f[0] = np.inf
        if best is not None:
            candidates = np.flatnonzero(dist_f <= max(float(best), 1e-300) * (1.0 + 1e-9))
        else:
            floor = np.minimum.accumulate(dist_f)
            candidates = np.flatnonzero(dist_f <= floor * (1.0 + 1e-9) + 1e-300)
        for i in candidates:
            m = int(n[i])
            if m == 1:
                continue
            ratio = Fraction(int(seg.sigma[i]), m)
            dist = abs(ell - ratio)
            if best is None or dist < best:
                best = dist
                meets = float(dist) < 1.0 / math.log(m)
                records.append(ProbeRecord(m, ratio, dist, meets))
                if dist == 0:
                    break
        if best == 0:
            break
    found = len(records)
    return ProbeReport(ell, search_limit, depth, records[-depth:], found, found < depth)
