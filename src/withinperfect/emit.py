"""Deterministic text emitters: CSV (comma, LF, no BOM) and JSON/NDJSON.

Field order is fixed and quotients print with 6 decimals so identical runs
produce byte-identical artifacts.  The long outputs (a checkpoint series as
CSV, solution records as JSON or NDJSON) are rendered from their numpy
columns in blocks of _BLOCK rows, with the bytes the per-row f-string or
json.dumps gives.  The series CSV is built in numpy (digits by integer
division, the sixth decimal by rint with an exact per-row fallback in a
guard band, see _series_block).
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Optional

import numpy as np

from .congruence import SporadicGrowthReport
from .distribution import EmpiricalCDF, PhaseReport, ProbeReport
from .exact import DiophantineSolution, GcdSumReport, PerfectCensus, WirsingReport
from .types import CheckpointSeries, SolutionRecord, SolutionTable
from .within import TableOneReport


def fmt6(value: float) -> str:
    return f"{value:.6f}"  # NaN (of either sign) prints as "nan"


#: Rows rendered per block, so the per-block arrays, strings and ints stay small.
_BLOCK = 1 << 16

#: The sixth decimal of q is rint(q * 10^6) only below this scaled value.
_SCALED_LIMIT = 2.0**52

_COMMA, _POINT, _NEWLINE = (np.frombuffer(ch, dtype=np.uint8)[None, :]
                            for ch in (b",", b".", b"\n"))


def series_csv(series: CheckpointSeries) -> str:
    """x,count,quotient rows, the bytes of f"{x},{c},{q:.6f}" per row,
    rendered from the columns block by block (see _series_block)."""
    return "x,count,quotient\n" + "".join(
        _series_block(series.x[i : i + _BLOCK], series.count[i : i + _BLOCK],
                      series.quotient[i : i + _BLOCK])
        for i in range(0, len(series), _BLOCK))


def _series_block(x: np.ndarray, c: np.ndarray, q: np.ndarray) -> str:
    """The rows of one block, laid out in a uint8 array whose 0 bytes are dropped.

    The quotient prints as rint(s) with s = q * 10^6, split at the point.
    format(q, ".6f") is the exact value of q rounded half-even to six
    decimals, i.e. the integer nearest the exact S = q * 10^6.  The one
    rounding of the product gives |s - S| <= 2^-53 * s.  For s < 2^52 that is
    below 1/2, so S can lie across no half-integer but h = floor(s) + 1/2
    (the others are at least 1/2 from s), and rint(s) is the integer nearest
    S whenever |s - h| > 2^-53 * s.  Rows with |s - h| <= 2^-52 * s, a band
    twice that wide, which absorbs the rounding of the test itself, fall back
    to the per-row f-string.  So do non-finite q, q with the sign bit set
    ("-0.000000"), s >= 2^52, and a negative x or count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = q * 1e6
        fast = (s < _SCALED_LIMIT) & ~np.signbit(q) & (x >= 0) & (c >= 0)
        s[~fast] = 0.0
        fast &= np.abs(s - (np.floor(s) + 0.5)) > s * 2.0**-52
    r = np.rint(s).astype(np.int64)
    whole = r // 10**6
    fields = [_digits(x), _COMMA, _digits(c), _COMMA,
              _digits(whole), _POINT, _digits(r % 10**6, 6), _NEWLINE]
    rows = np.concatenate([np.broadcast_to(f, (len(x), f.shape[1])) for f in fields], axis=1)
    rows[~fast] = 0
    text = rows[rows != 0].tobytes().decode("ascii")
    slow = np.flatnonzero(~fast).tolist()
    if not slow:
        return text
    ends = np.cumsum(np.count_nonzero(rows, axis=1))  # a slow row is empty: its end is its start
    parts, prev = [], 0
    for i in slow:
        at = int(ends[i])
        parts += [text[prev:at], f"{int(x[i])},{int(c[i])},{float(q[i]):.6f}\n"]
        prev = at
    parts.append(text[prev:])
    return "".join(parts)


def _digits(v: np.ndarray, pad_to: int = 0) -> np.ndarray:
    """The decimal digits of nonnegative int64 v as ASCII, one uint8 row per
    v: zero-padded to pad_to digits or, with pad_to 0, right-aligned to the
    largest v with the leading zeros set to 0 (a 0 keeps its one digit)."""
    width = pad_to or len(str(int(v.max(initial=0))))
    digits = np.empty((len(v), width), dtype=np.uint8)
    rest = v
    for j in range(width - 1, -1, -1):  # one division by the scalar 10 per column
        quotient = rest // 10
        digits[:, j] = rest - quotient * 10
        rest = quotient
    digits += ord("0")
    if not pad_to:
        lead = v[:, None] < 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        lead[:, -1] = False
        digits[lead] = 0
    return digits


def wirsing_csv(report: WirsingReport) -> str:
    lines = ["x,count,ratio"]
    lines += [f"{x},{c},{fmt6(r)}" for (x, c, _), r
              in zip(report.series.rows(), report.ratios)]
    return "\n".join(lines) + "\n"


def records_json(records: Iterable[SolutionRecord]) -> str:
    """The records as the JSON array json.dumps(..., indent=2) gives for
    their to_json_dict(), rendered from the columns (see _records_text)."""
    return _json_array(_table(records), 0) + "\n"


def records_ndjson(records: Iterable[SolutionRecord]) -> str:
    """One compact JSON object per line, the bytes json.dumps would give for
    to_json_dict(), rendered from the columns (see _records_text)."""
    return _records_text(_table(records), "\n", None)


def _table(records: Iterable[SolutionRecord]) -> SolutionTable:
    return records if isinstance(records, SolutionTable) else SolutionTable.from_records(records)


def _json_array(t: SolutionTable, depth: int) -> str:
    """The records array as json.dumps(indent=2) renders it at nesting depth
    depth (0 for a top-level array)."""
    if not len(t):
        return "[]"
    pad = "  " * depth
    items = _records_text(t, ",\n", pad + "  ")
    return f"[\n{items[:-2]}\n{pad}]"  # no comma after the last item


def _records_text(t: SolutionTable, end: str, pad: Optional[str]) -> str:
    """The records of t, each followed by end, with the bytes json.dumps
    gives for its to_json_dict(): compact (separators "," and ":") with pad
    None, else indent=2 with pad before every line.  Rendered from the
    columns block by block, between the literal pieces of _record_layout."""
    (r0, r1, r2, r3, r4), (s0, s1, s2) = _record_layout(pad)
    r4, s2 = r4 + end, s2 + end
    return "".join("".join([
        f"{r0}{n}{r1}{s}{r2}{p}{r3}{m}{r4}" if p else f"{s0}{n}{s1}{s}{s2}"
        for n, s, p, m in zip(b.n.tolist(), b.sigma_n.tolist(), b.p.tolist(), b.m.tolist())])
        for b in (t[i : i + _BLOCK] for i in range(0, len(t), _BLOCK)))


def _record_layout(pad: Optional[str]) -> list[list[str]]:
    """The literal pieces around n, sigma_n, p and m of a regular record and
    around n and sigma_n of a sporadic one, cut from json.dumps of the
    to_json_dict() of records holding the placeholders -1 to -4 (its keys and
    classification names hold no digits), so the record layout is written
    once, in SolutionRecord."""
    kwargs = {"separators": (",", ":")} if pad is None else {"indent": 2}
    pieces = []
    for record in (SolutionRecord(-1, -2, "regular", ((-3, -4),)),
                   SolutionRecord(-1, -2, "sporadic")):
        text = json.dumps(record.to_json_dict(), **kwargs)
        if pad is not None:
            text = pad + text.replace("\n", "\n" + pad)
        pieces.append(re.split(r"-\d", text))
    return pieces


def perfect_json(census: PerfectCensus) -> str:
    payload = {
        "target": str(census.target),
        "limit": census.limit,
        "members": census.members,
    }
    return json.dumps(payload, indent=2) + "\n"


def dioph_json(solution: DiophantineSolution) -> str:
    payload = {
        "a": solution.problem.a,
        "b": solution.problem.b,
        "k": solution.problem.k,
        "limit": solution.problem.limit,
        "regular_family": solution.regular_family,
        "family_anchor": solution.family_anchor,
        "predicted_density": (str(solution.predicted_density)
                              if solution.predicted_density is not None else None),
    }
    head = json.dumps(payload, indent=2)[:-2]  # the records go before the closing "\n}"
    return f'{head},\n  "records": {_json_array(_table(solution.records), 1)}\n}}\n'


def cdf_csv(cdf: EmpiricalCDF) -> str:
    lines = ["u,value"]
    lines += [f"{label},{fmt6(v)}" for label, v in zip(cdf.labels, cdf.values)]
    return "\n".join(lines) + "\n"


def phase_csv(report: PhaseReport) -> str:
    lines = ["x,density,reference_value"]
    lines += [f"{x},{fmt6(d)},{fmt6(r)}"
              for x, d, r in zip(report.checkpoints, report.densities, report.references)]
    return "\n".join(lines) + "\n"


def probe_csv(report: ProbeReport) -> str:
    lines = ["m,ratio,distance,meets_log_bound"]
    for rec in report.records:
        lines.append(f"{rec.m},{rec.ratio},{float(rec.distance):.6e},"
                     f"{str(rec.meets_log_bound).lower()}")
    if report.exhausted:
        lines.append(f"# exhausted: {report.improvements_found} improvement(s) "
                     f"up to {report.search_limit}")
    return "\n".join(lines) + "\n"


def gcdsum_csv(report: GcdSumReport) -> str:
    return ("x,m_lo,m_hi,value,bound,bound_ratio,scaled\n"
            f"{report.x},{report.m_lo},{report.m_hi},{report.rounded:.6e},"
            f"{report.bound:.6e},{fmt6(report.bound_ratio)},{fmt6(report.scaled)}\n")


def sporadic_csv(report: SporadicGrowthReport) -> str:
    return series_csv(report.series)


def sporadic_text(report: SporadicGrowthReport) -> str:
    lines = [f"sporadic solutions of {report.b}*sigma(n) = {report.k} (mod n)",
             "x,count,count/(b^2 x^(2/3)),slack-adjusted,count/x^0.55"]
    for (x, c, _), r, s, r2 in zip(report.series.rows(), report.ratios,
                                   report.slack_ratios, report.sqrt_shape_ratios):
        lines.append(f"{x},{c},{fmt6(r)},{fmt6(s)},{fmt6(r2)}")
    lines.append(f"bounded: {str(report.bounded).lower()}")
    return "\n".join(lines) + "\n"


def table1_csv(report: TableOneReport) -> str:
    grid = report.quotients[report.best_convention]
    lines = ["c,x,count,quotient,reference,deviation"]
    for i, c in enumerate(report.exponents):
        for j, x in enumerate(report.checkpoints):
            ref = report.reference[(c, x)]
            lines.append(
                f"{float(c):.1f},{x},{report.counts[report.best_convention][i][j]},"
                f"{fmt6(grid[i][j])},{fmt6(ref)},{fmt6(abs(grid[i][j] - ref))}")
    lines.append(f"# convention: {report.best_convention}")
    return "\n".join(lines) + "\n"


def table1_text(report: TableOneReport) -> str:
    header = f"{'k(y)':>8} |" + "".join(f" {f'x = {x:,}':>16}" for x in report.checkpoints)
    rule = "-" * len(header)
    lines = [header, rule]
    grid = report.quotients[report.best_convention]
    for i, c in enumerate(report.exponents):
        row = f"{'y^' + format(float(c), '.1f'):>8} |"
        row += "".join(f" {fmt6(grid[i][j]):>16}" for j in range(len(report.checkpoints)))
        lines.append(row)
    lines.append(rule)
    lines.append("deviation from the published values:")
    dev = report.deviation_grid()
    for i, c in enumerate(report.exponents):
        row = f"{'y^' + format(float(c), '.1f'):>8} |"
        row += "".join(f" {dev[i][j]:>16.6f}" for j in range(len(report.checkpoints)))
        lines.append(row)
    lines.append(f"convention: {report.best_convention} "
                 f"(max deviation {report.max_deviation[report.best_convention]:.6f})")
    others = ", ".join(f"{name}: {report.max_deviation[name]:.6f}"
                       for name in report.max_deviation)
    lines.append(f"max deviation by convention: {others}")
    return "\n".join(lines) + "\n"
