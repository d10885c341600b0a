"""Deterministic text emitters: CSV (comma, LF, no BOM) and JSON/NDJSON.

Field order is fixed and quotients print with 6 decimals so identical runs
produce byte-identical artifacts.  The long outputs (a series CSV, solution
records as JSON or NDJSON) are rendered from their columns in blocks of
_BLOCK rows by one renderer, _rows, with the bytes of json.dumps or the
f-string that the rows it cannot render exactly fall back to.  The Wirsing
and sporadic CSVs, a row per user checkpoint, are per-row f-strings.

The *_blocks renderers are generators over the parts of a stream
(within.series_stream, congruence.census_stream): each part is rendered as
it arrives, so a writer holds one block (2^14 rows) at a time.  The renderers
whose names end in _csv, _json, _ndjson or _text return the whole str.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .congruence import SporadicGrowthReport
from .distribution import EmpiricalCDF, PhaseReport, ProbeReport
from .exact import DiophantineSolution, GcdSumReport, PerfectCensus, WirsingReport
from .types import CheckpointSeries, SolutionRecord, SolutionTable, normalized_quotient
from .within import TableOneReport


def fmt6(value: float) -> str:
    return f"{value:.6f}"  # NaN (of either sign) prints as "nan"


#: Rows per block of a series or of records.  A series row is about 20 bytes
#: and a record 70 to 100, so a block's text is about 0.33 MB or 1.3 MB, and
#: a figure1 writer's peak is that of the sieve and counts, not of the render.
_BLOCK = 1 << 14


def _rows(fields: list, blanks, slow: np.ndarray, fallback: Callable) -> str:
    """One block of rows, its fields (a uint8 digit block from _digits, one
    column per row, or a literal str) side by side in a uint8 matrix.  Each
    (mask, first, stop) of blanks sets fields first..stop-1 to 0 on the rows
    of mask, and the rows of slow are set to 0 whole.  The 0 bytes are
    dropped, and fallback(i) is spliced in where each slow row i was (where
    the row before it ends)."""
    fields = [np.frombuffer(f.encode(), "u1")[None] if isinstance(f, str) else f.T
              for f in fields]
    edges = np.cumsum([0] + [f.shape[1] for f in fields]).tolist()
    rows = np.empty((len(slow), edges[-1]), dtype=np.uint8)
    for field, a, b in zip(fields, edges, edges[1:]):
        rows[:, a:b] = field
    for mask, first, stop in blanks:
        rows[mask, edges[first]:edges[stop]] = 0
    late = np.flatnonzero(slow).tolist()
    rows[late] = 0
    # bytes.replace drops a few 0 bytes (a series' leading zeros) fastest, and
    # a mask many (a record's blanked fields)
    sparse = 8 * np.count_nonzero(rows) > 7 * rows.size
    kept = rows.tobytes().replace(b"\0", b"") if sparse else rows[rows != 0].tobytes()
    text = kept.decode("ascii")
    if not late:
        return text
    cuts = [0, *np.cumsum(np.count_nonzero(rows, axis=1))[late].tolist(), len(text)]
    return "".join(text[a:b] + row for a, b, row in zip(cuts, cuts[1:], [*map(fallback, late), ""]))


def _digits(v: np.ndarray, pad_to: int = 0) -> np.ndarray:
    """The decimal digits of nonnegative int64 v as ASCII, one uint8 column
    per v and one row per digit: zero-padded to pad_to digits or, with pad_to
    0, right-aligned to the largest v with the leading zeros set to 0 (a 0
    keeps its one digit).  A block whose values all fit in uint32 is divided
    in uint32, about twice as fast as in int64."""
    top = int(v.max(initial=0))
    width = pad_to or len(str(top))
    digits = np.empty((width, len(v)), dtype=np.uint8)
    rest = v.astype(np.uint32) if top < 2**32 else v
    for j in range(width - 1, -1, -1):  # one division by the scalar 10 per digit
        quotient = rest // 10
        np.subtract(rest, quotient * 10, out=digits[j], casting="unsafe")
        rest = quotient
    digits += ord("0")
    if not pad_to:  # a leading zero: v is below the digit's place value
        digits[:-1] *= v >= 10 ** np.arange(width - 1, 0, -1)[:, None]
    return digits


def series_csv(series: CheckpointSeries) -> str:
    """The header, then the bytes of f"{x},{c},{q:.6f}" per row."""
    return "".join(series_csv_blocks([series]))


def series_csv_blocks(parts: Iterable[CheckpointSeries]) -> Iterator[str]:
    """series_csv of the consecutive parts, as its header line and then one
    str per block of at most _BLOCK rows, each part rendered as it arrives
    from its x and count (see _series_block), so no quotient column is built."""
    yield "x,count,quotient\n"
    for part in parts:
        for i in range(0, len(part), _BLOCK):
            yield _series_block(part.x[i : i + _BLOCK], part.count[i : i + _BLOCK])


def _ratio_csv(header: str, series: CheckpointSeries, ratios: list[float]) -> str:
    """The header, then f"{x},{c},{r:.6f}" per checkpoint of series."""
    return header + "\n" + "".join(f"{x},{c},{fmt6(r)}\n" for x, c, r in
                                   zip(series.checkpoints, series.counts, ratios))


def wirsing_csv(report: WirsingReport) -> str:
    return _ratio_csv("x,count,ratio", report.series, report.ratios)


def sporadic_csv(report: SporadicGrowthReport) -> str:
    return _ratio_csv("x,count,quotient", report.series, report.ratios)


#: The log of _series_block's quotients.  tests/test_emit.py checks
#: |np.log(x) - math.log(x)| <= 2^-48 * log x, the bound its band is proved from.
_log = np.log


def _series_block(x: np.ndarray, c: np.ndarray) -> str:
    """The rows f"{x},{c},{normalized_quotient(c, x):.6f}\n" of one block,
    through _rows.

    The quotient prints as rint(s) with s = q' * 10^6, split at the point,
    where q' = c/(x/_log(x)) is taken in numpy; q = c/(x/math.log(x)) of
    normalized_quotient is not built.  format(q, ".6f") is the exact value of
    q rounded half-even to six decimals, i.e. the integer nearest the exact
    S = q * 10^6.  With |_log(x) - math.log(x)| <= 2^-48 * log x, the two
    divisions of q, the two of q' and the product each add a relative error
    of at most 2^-53, so |s - S| <= (2^-48 + 5 * 2^-53) * S < 2^-47 * s.
    Rows with |s - h| <= 2^-40 * s, where h = floor(s) + 1/2, a band 128
    times that, fall back to normalized_quotient.  A row outside it has
    2^-40 * s < |s - h| <= 1/2, so s < 2^39 and |s - S| < 2^-8: S can lie
    across no half-integer but h (the others are at least 1/2 from s), S lies
    on the side of h that s does, and rint(s) is the integer nearest S.  So
    every printed sixth decimal is that of math.log.  Rows with x < 2 (NaN),
    a non-finite q', q' with the sign bit set ("-0.000000"), s >= 2^52, and a
    negative x or count fall back as well.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = x.astype(np.float64)
        q /= _log(q)
        np.divide(c, q, out=q)
        q[x < 2] = np.nan  # normalized_quotient's NaN, and so a slow row
        s = q * 1e6
        fast = (s < 2.0**52) & ~np.signbit(q) & (x >= 0) & (c >= 0)
        s[~fast] = 0.0
        fast &= np.abs(s - (np.floor(s) + 0.5)) > s * 2.0**-40
    r = np.rint(s).astype(np.int64)
    fields = [_digits(x), ",", _digits(c), ",",
              _digits(r // 10**6), ".", _digits(r % 10**6, 6), "\n"]
    return _rows(fields, (), ~fast, lambda i: (
        f"{int(x[i])},{int(c[i])},{fmt6(normalized_quotient(int(c[i]), int(x[i])))}\n"))


def records_json(records: Iterable[SolutionRecord]) -> str:
    """The records as the JSON array json.dumps(..., indent=2) gives for
    their to_json_dict(), rendered from the columns (see _record_blocks)."""
    return "".join(records_json_blocks([_table(records)]))


def records_json_blocks(parts: Iterable[SolutionTable]) -> Iterator[str]:
    """records_json of the consecutive parts, one str per block of records."""
    yield from _json_array(parts, 0)
    yield "\n"


def records_ndjson(records: Iterable[SolutionRecord]) -> str:
    """One compact JSON object per line, the bytes json.dumps would give for
    to_json_dict(), rendered from the columns (see _record_blocks)."""
    return "".join(records_ndjson_blocks([_table(records)]))


def records_ndjson_blocks(parts: Iterable[SolutionTable]) -> Iterator[str]:
    """records_ndjson of the consecutive parts, one str per block of records."""
    return _record_blocks(parts, "\n", None)


def _table(records: Iterable[SolutionRecord]) -> SolutionTable:
    return records if isinstance(records, SolutionTable) else SolutionTable.from_records(records)


def _json_array(parts: Iterable[SolutionTable], depth: int) -> Iterator[str]:
    """The records array as json.dumps(indent=2) renders it at nesting depth
    depth (0 for a top-level array).  One block is held back, so the comma
    after the last item can be dropped."""
    pad = "  " * depth
    held = None
    for block in _record_blocks(parts, ",\n", pad + "  "):
        yield "[\n" if held is None else held
        held = block
    yield "[]" if held is None else f"{held[:-2]}\n{pad}]"


def _record_blocks(parts: Iterable[SolutionTable], end: str,
                   pad: Optional[str]) -> Iterator[str]:
    """The records of the parts in blocks of at most _BLOCK, each record
    followed by end, with the bytes of _dumps: the pieces of _record_layout
    around the digits of n, sigma_n, p and m.  Both kinds of record start with
    n and sigma_n; the regular fields are blanked on sporadic rows (p = 0),
    the sporadic tail on regular rows, and a row with a negative column falls
    back to _dumps of its record."""
    (head, mid, regular, inner, regular_end), (_, _, sporadic_end) = _record_layout(pad, end)

    def block(b: SolutionTable) -> str:
        fields = [head, _digits(b.n), mid, _digits(b.sigma_n),
                  regular, _digits(b.p), inner, _digits(b.m), regular_end, sporadic_end]
        return _rows(fields, [(b.p == 0, 4, 9), (b.p != 0, 9, 10)],
                     (b.n < 0) | (b.sigma_n < 0) | (b.p < 0) | (b.m < 0),
                     lambda i: _dumps(b[i], pad) + end)

    for t in parts:
        for i in range(0, len(t), _BLOCK):
            yield block(t[i : i + _BLOCK])


def _dumps(record: SolutionRecord, pad: Optional[str]) -> str:
    """json.dumps of record.to_json_dict(), compact with pad None, else with
    indent=2 and pad before every line."""
    if pad is None:
        return json.dumps(record.to_json_dict(), separators=(",", ":"))
    return pad + json.dumps(record.to_json_dict(), indent=2).replace("\n", "\n" + pad)


def _record_layout(pad: Optional[str], end: str) -> list[list[str]]:
    """The pieces around the numbers of a regular and a sporadic record, cut
    from _dumps(...) + end with the placeholders -1 to -4 (no key or name
    holds a digit), so a record's layout is written once, in SolutionRecord."""
    return [re.split(r"-\d", _dumps(record, pad) + end)
            for record in (SolutionRecord(-1, -2, "regular", ((-3, -4),)),
                           SolutionRecord(-1, -2, "sporadic"))]


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
    return f'{head},\n  "records": {"".join(_json_array([solution.records], 1))}\n}}\n'


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


def sporadic_text(report: SporadicGrowthReport) -> str:
    lines = [f"sporadic solutions of {report.b}*sigma(n) = {report.k} (mod n)",
             "x,count,count/(b^2 x^(2/3)),slack-adjusted,count/x^0.55"]
    for x, c, r, s, r2 in zip(report.series.checkpoints, report.series.counts,
                              report.ratios, report.slack_ratios, report.sqrt_shape_ratios):
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
