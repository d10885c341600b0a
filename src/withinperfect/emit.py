"""Deterministic text emitters: CSV (comma, LF, no BOM) and JSON/NDJSON.

Field order is fixed and quotients print with 6 decimals so identical runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Iterable

from .congruence import SporadicGrowthReport
from .distribution import EmpiricalCDF, PhaseReport, ProbeReport
from .exact import DiophantineSolution, GcdSumReport, PerfectCensus, WirsingReport
from .types import CheckpointSeries, SolutionRecord, SolutionTable
from .within import TableOneReport


def fmt6(value: float) -> str:
    return f"{value:.6f}"  # NaN (of either sign) prints as "nan"


def series_csv(series: CheckpointSeries) -> str:
    lines = ["x,count,quotient"]
    lines += [f"{x},{c},{q:.6f}"
              for x, c, q in zip(series.checkpoints, series.counts, series.quotients)]
    return "\n".join(lines) + "\n"


def wirsing_csv(report: WirsingReport) -> str:
    lines = ["x,count,ratio"]
    lines += [f"{x},{c},{fmt6(r)}" for (x, c, _), r
              in zip(report.series.rows(), report.ratios)]
    return "\n".join(lines) + "\n"


def records_json(records: Iterable[SolutionRecord]) -> str:
    return json.dumps([r.to_json_dict() for r in records], indent=2) + "\n"


#: Rows rendered per block, so the per-row strings and ints stay small.
_NDJSON_BLOCK = 1 << 16


def records_ndjson(records: Iterable[SolutionRecord]) -> str:
    """One compact JSON object per line, the bytes json.dumps would give for
    to_json_dict() (ints and the two classification names need no escaping),
    rendered from the columns of a SolutionTable block by block."""
    if not isinstance(records, SolutionTable):
        records = SolutionTable.from_records(records)
    return "".join(_ndjson_block(records[i : i + _NDJSON_BLOCK])
                   for i in range(0, len(records), _NDJSON_BLOCK))


def _ndjson_block(t: SolutionTable) -> str:
    return "".join([
        f'{{"n":{n},"sigma_n":{s},"classification":"regular","witness":{{"p":{p},"m":{m}}}}}\n'
        if p else f'{{"n":{n},"sigma_n":{s},"classification":"sporadic","witness":null}}\n'
        for n, s, p, m in zip(t.n.tolist(), t.sigma_n.tolist(), t.p.tolist(), t.m.tolist())])


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
        "records": [r.to_json_dict() for r in solution.records],
    }
    return json.dumps(payload, indent=2) + "\n"


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
