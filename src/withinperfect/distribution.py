"""Empirical distribution of the abundancy ratio sigma(n)/n.

The limiting distribution of sigma(n)/n is continuous and strictly
increasing on [1, oo); here we estimate it at finite x, run the
density phase-transition experiments for sublinear/linear/superlinear
thresholds, and probe how well a target ratio can be approximated by
abundancy ratios.

Every per-n predicate is decided exactly: sigma(n)/n < u and = u go through
within._ratio_below, as constant and linear thresholds do (a float64 prefilter
with a guard band, then exact cross-multiplication).  Ratios equal to a query
point u count as <= u (inclusive convention).  The linear window
|sigma(n)/n - l| < c is the open interval (l - c, l + c), a difference of the
counts the CDF takes at l +- c; the sublinear and superlinear windows are
within thresholds.  The probe's float64 margin is a proved rounding bound.
Every statistic here streams SigmaSource.blocks, and types.checkpoint_column
reads its checkpoints (the CDF's limit is one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exact import _CheckpointCounter
from .sieve import SigmaSource
from .types import RationalTarget, ThresholdSpec, as_exact_fraction, checkpoint_column
from .within import _ratio_below, count_thresholds


def _abundancy_counts(checkpoints, points,
                      source: SigmaSource) -> tuple[np.ndarray, np.ndarray]:
    """(below, ties): the int64 [point, checkpoint] counts of n <= x with
    sigma(n)/n < u and with sigma(n)/n = u, from one pass over source.blocks.
    The float64 sigma/n of a block is computed once for every point."""
    rows = len(points)
    counter = _CheckpointCounter(checkpoint_column(checkpoints), 2 * rows)
    parts = []
    for n, sigma in source.blocks(int(counter.checkpoints[-1])):
        ratio = sigma / n
        counter.block(n)
        for i, u in enumerate(points):
            below, ties = _ratio_below(ratio, sigma, n, u)
            counter.add(i, below)
            counter.add(rows + i, ties)
        parts.append(counter.done()[1])
    counts = np.concatenate(parts, axis=1)
    return counts[:rows], counts[rows:]


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
    (limit,) = checkpoint_column([limit]).tolist()
    labels = tuple(str(u) for u in grid)
    fracs = tuple(as_exact_fraction(u, "query point") for u in grid)
    if not fracs:
        raise ValueError("need at least one query point")
    if list(fracs) != sorted(fracs):
        raise ValueError("grid must be ascending")
    below, ties = _abundancy_counts([limit], fracs, source or SigmaSource())
    counts = below[:, 0] + ties[:, 0] if inclusive else below[:, 0]
    return EmpiricalCDF(limit, fracs, labels, tuple(counts.tolist()), inclusive)


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
    checkpoints = checkpoint_column(checkpoints).tolist()
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
    cf = ThresholdSpec.linear(c).param  # validates c > 0
    # |sigma/n - l| < c is l - c < sigma/n < l + c, so the open window and the
    # inclusive F_x(l+c) - F_x(l-c) are differences of the counts at l +- c
    below, ties = _abundancy_counts(checkpoints, (target.fraction + cf,
                                                  target.fraction - cf), source)
    window = (below[0] - below[1] - ties[1]).tolist()
    reference = (below[0] + ties[0] - below[1] - ties[1]).tolist()
    densities = [w / x for w, x in zip(window, checkpoints)]
    references = [r / x for r, x in zip(reference, checkpoints)]
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

    The exact Fraction pass sees every m whose float64 distance d~ is within
    tol = 2E of the running minimum, E = 8u*(l + max d~ of the block) with
    u = 2^-53.  E bounds |d~ - d|, d the exact distance: sigma/m is within
    4u*r of r = sigma(m)/m (two conversions, exact below 2^53, and a division),
    l within u*l and the subtraction within 2u*d~; r <= l + d then gives
    |d~ - d| < 7u*(l + d~) < E.  So an m with d below every earlier d_j has
    d~ < d~_j + 2E, and d~ < float(best) + 2E, as best (at most m = 2's
    distance, below l) rounds by at most u*l.
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
    for n, sigma in source.blocks(search_limit):
        dist_f = np.abs(sigma / n - ellf)
        tol = 2.0**-49 * (float(dist_f.max()) + ellf)  # 2E = 16u*(l + max d~)
        if n[0] == 1:
            dist_f[0] = np.inf
        floor = np.minimum.accumulate(dist_f)  # an improvement is a running minimum
        if best is not None:
            np.minimum(floor, float(best), out=floor)
        candidates = np.flatnonzero(dist_f <= floor + tol)
        for i in candidates:
            m = int(n[i])
            if m == 1:
                continue
            ratio = Fraction(int(sigma[i]), m)
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
