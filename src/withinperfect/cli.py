"""Command-line front end.

One subcommand per reproducible computation.  Exit codes: 0 success,
1 validation error (bad arguments, malformed rationals), 2 capability,
overflow, memory, cache, or I/O failure.  Output is deterministic for a fixed
configuration: CSV uses commas and LF with no BOM, quotients carry six
decimals, and thread count never changes a result.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import cache, congruence, distribution, emit, exact, within
from .errors import (BudgetExceededError, CacheFormatError, CapabilityError,
                     InvalidProblemError, InvalidThresholdError, SigmaOverflowError)
from .sieve import DEFAULT_SEGMENT_LENGTH, SigmaSource, sieve_segment
from .types import RationalTarget, ThresholdSpec, parse_checkpoints, parse_integer

CACHE_DIR_ENV = "WITHINPERFECT_CACHE_DIR"

_FORMATS = ("csv", "json", "ndjson", "table")

#: The formats each subcommand renders, its default first; any other is
#: refused before the run.  table1's default, "both", is its text table, a
#: blank line, then its CSV.
_RENDERS = {
    "sieve": ("csv",), "count": ("csv",), "series": ("csv",),
    "table1": ("both", "table", "csv"), "figure1": ("csv",),
    "perfect": ("json", "csv"), "wirsing": ("csv",),
    "dioph": ("json", "csv", "ndjson"), "census": ("ndjson", "json"),
    "sporadic": ("csv", "table"), "cdf": ("csv",), "phase": ("csv",),
    "probe": ("csv",), "gcdsum": ("csv",),
}

#: The subcommands that read the counting conventions (--non-strict,
#: --at-limit, --from-two and their config keys); any other refuses them.
_CONVENTION_COMMANDS = ("count", "series", "figure1")


@dataclass
class RunConfig:
    """Run-wide knobs shared by every subcommand."""

    segment_length: int = DEFAULT_SEGMENT_LENGTH
    cache_dir: Optional[str] = None
    output_format: str = "csv"
    threads: int = 1
    strict_inequality: bool = True
    threshold_at_n: bool = True
    include_n_equals_1: bool = True

    def source(self) -> SigmaSource:
        return SigmaSource(segment_length=self.segment_length,
                           threads=self.threads, cache_dir=self.cache_dir)


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}")


def apply_config_file(config: RunConfig, path: str) -> RunConfig:
    """key=value lines override the flag values (unknown keys are an error)."""
    updates = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {raw.strip()!r}")
            key, value = key.strip(), value.strip()
            if key in ("segment_length", "threads"):
                updates[key] = parse_integer(value, key)
            elif key == "cache_dir":
                updates[key] = value or None
            elif key in ("format", "output_format"):
                if value not in _FORMATS:
                    raise ValueError(f"unknown format {value!r}")
                updates["output_format"] = value
            elif key in ("strict_inequality", "threshold_at_n", "include_n_equals_1"):
                updates[key] = _parse_bool(value)
            else:
                raise ValueError(f"unknown config key {key!r}")
    return replace(config, **updates)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for
    capability errors, so remap parse failures to exit code 1.

    Prefix abbreviation is disabled: with it, an option like phase's --c is
    classified as ambiguous by the main parser (a prefix of --config and
    --cache-dir) before the subparser ever sees it.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _integer(text: str) -> int:
    """Every integer option, parsed exactly like a checkpoint: "1e4" is 10000."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _common_options(for_subparser: bool) -> argparse.ArgumentParser:
    """Global options, accepted both before and after the subcommand.

    The subparser variant defaults everything to SUPPRESS so values already
    parsed by the main parser survive (argparse re-applies action defaults
    from a fresh namespace inside each subparser).
    """
    s = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument("--config", metavar="FILE", default=s if for_subparser else None,
                   help="key=value file overriding the other flags")
    g.add_argument("--segment-length", type=_integer,
                   default=s if for_subparser else DEFAULT_SEGMENT_LENGTH)
    g.add_argument("--cache-dir", default=s if for_subparser else None)
    g.add_argument("--threads", type=_integer, default=s if for_subparser else 1)
    g.add_argument("--format", choices=_FORMATS, default=s if for_subparser else None,
                   help="output format (default depends on the subcommand)")
    g.add_argument("--out", metavar="FILE", default=s if for_subparser else None,
                   help="write the artifact to FILE instead of stdout")
    g.add_argument("--non-strict", action="store_true",
                   default=s if for_subparser else False,
                   help="count ties: use <= instead of < in |sigma-l*n| < k")
    g.add_argument("--at-limit", action="store_true",
                   default=s if for_subparser else False,
                   help="evaluate the threshold at the limit x instead of n")
    g.add_argument("--from-two", action="store_true",
                   default=s if for_subparser else False,
                   help="count from n = 2 instead of n = 1")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options(for_subparser=True)
    parser = _Parser(prog="withinperfect", parents=[_common_options(False)],
                     description="sum-of-divisors censuses, congruence "
                                 "classification, and within-perfect counting")

    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("sieve", parents=[common],
                       help="sieve sigma over [lo, hi]; optionally cache it")
    p.add_argument("--lo", type=_integer, required=True)
    p.add_argument("--hi", type=_integer, required=True)
    p.add_argument("--cache-path", default=None,
                   help="write the segment in the binary cache format")

    p = sub.add_parser("count", parents=[common],
                       help="count n <= limit with |sigma(n)-l*n| < k(n)")
    p.add_argument("--ell", required=True)
    p.add_argument("--threshold", required=True, help="pow:C | const:K | lin:C | xlog")
    p.add_argument("--limit", type=_integer, required=True)

    p = sub.add_parser("series", parents=[common],
                       help="within-perfect counts at several checkpoints")
    p.add_argument("--ell", required=True)
    p.add_argument("--threshold", required=True)
    p.add_argument("--checkpoints", required=True, help="comma list, e.g. 1e4,1e5,1e6")

    p = sub.add_parser("table1", parents=[common],
                       help="recompute the published 8x3 quotient grid (l=2)")
    p.add_argument("--limit", type=_integer, default=2 * 10**7)

    p = sub.add_parser("figure1", parents=[common],
                       help="quotient series for k(y)=y/log y, x=2..limit")
    p.add_argument("--limit", type=_integer, default=10**4)

    p = sub.add_parser("perfect", parents=[common],
                       help="enumerate m <= limit with b*sigma(m) = a*m")
    p.add_argument("--ell", required=True)
    p.add_argument("--limit", type=_integer, required=True)
    p.add_argument("--checkpoints", default=None)

    p = sub.add_parser("wirsing", parents=[common],
                       help="perfect counts vs the uniform growth scale")
    p.add_argument("--ell", required=True)
    p.add_argument("--checkpoints", required=True)

    p = sub.add_parser("dioph", parents=[common],
                       help="solve b*sigma(n) = a*n + k exhaustively")
    p.add_argument("--a", type=_integer, required=True)
    p.add_argument("--b", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--limit", type=_integer, required=True)
    p.add_argument("--checkpoints", default=None)

    p = sub.add_parser("census", parents=[common],
                       help="solutions of b*sigma(n) = k (mod n), classified")
    p.add_argument("--b", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--limit", type=_integer, required=True)

    p = sub.add_parser("sporadic", parents=[common],
                       help="sporadic-solution growth report")
    p.add_argument("--b", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--checkpoints", required=True)

    p = sub.add_parser("cdf", parents=[common],
                       help="empirical distribution of sigma(n)/n")
    p.add_argument("--limit", type=_integer, required=True)
    p.add_argument("--grid", required=True, help="comma list of query points")

    p = sub.add_parser("phase", parents=[common],
                       help="density experiment for a threshold regime")
    p.add_argument("--ell", required=True)
    p.add_argument("--regime", required=True,
                   choices=("sublinear", "linear", "superlinear"))
    p.add_argument("--c", default=None, help="exponent or slope, regime dependent")
    p.add_argument("--checkpoints", required=True)

    p = sub.add_parser("probe", parents=[common],
                       help="approximate a target by abundancy ratios")
    p.add_argument("--ell", required=True, help="target value > 1 (exact decimal)")
    p.add_argument("--depth", type=_integer, default=8)
    p.add_argument("--search-limit", type=_integer, default=10**4)

    p = sub.add_parser("gcdsum", parents=[common],
                       help="sum of gcd(m, sigma(m))/m^2 over the middle range")
    p.add_argument("--x", type=_integer, required=True)

    return parser


def _threshold_from_args(args, config: RunConfig) -> ThresholdSpec:
    return replace(ThresholdSpec.parse(args.threshold),
                   strict=config.strict_inequality,
                   at_limit=not config.threshold_at_n)


def _dispatch(args, config: RunConfig) -> list[str]:
    """The artifact of the subcommand as the list of its rendered text blocks
    (one block, or for the long series and NDJSON artifacts several)."""
    fmt = config.output_format
    source = config.source()

    if args.command == "sieve":
        segment = sieve_segment(args.lo, args.hi)
        if args.cache_path:
            cache.write_segment(segment, args.cache_path)
        # A u64 sum of 2^25 values below 2^61 can wrap, so the low and high
        # halves of each value (u32 or u64) are summed apart in u64 (each sum
        # below 2^57) and joined exactly.
        width = segment.sigma.itemsize
        halves = segment.sigma.astype(f"<u{width}", copy=False).view(f"<u{width // 2}")
        low, high = (int(halves[j::2].sum(dtype="u8")) for j in (0, 1))
        total = low + (high << 4 * width)
        return [f"lo,hi,length,sigma_total\n{segment.lo},{segment.hi},{len(segment)},{total}\n"]

    if args.command == "count":
        threshold = _threshold_from_args(args, config)
        result = within.series(RationalTarget.parse(args.ell), threshold,
                               [args.limit], source, config.include_n_equals_1)
        return emit.series_csv_blocks(result)

    if args.command == "series":
        threshold = _threshold_from_args(args, config)
        result = within.series(RationalTarget.parse(args.ell), threshold,
                               parse_checkpoints(args.checkpoints), source,
                               config.include_n_equals_1)
        return emit.series_csv_blocks(result)

    if args.command == "table1":
        report = within.table1_reproduce(source, args.limit)
        sys.stderr.write(f"elapsed: {report.elapsed_seconds:.1f}s\n")
        if fmt == "table":
            return [emit.table1_text(report)]
        if fmt == "csv":
            return [emit.table1_csv(report)]
        if fmt == "both":
            return [emit.table1_text(report), "\n", emit.table1_csv(report)]

    if args.command == "figure1":
        if args.limit < 2:
            raise ValueError("figure1 needs --limit >= 2 (its series starts at x = 2)")
        threshold = ThresholdSpec.x_over_log(strict=config.strict_inequality,
                                             at_limit=not config.threshold_at_n)
        result = within.series(RationalTarget(2, 1), threshold,
                               range(2, args.limit + 1), source,
                               config.include_n_equals_1)
        return emit.series_csv_blocks(result)

    if args.command == "perfect":
        checkpoints = parse_checkpoints(args.checkpoints) if args.checkpoints else None
        census_ = exact.enumerate_perfect(RationalTarget.parse(args.ell),
                                          args.limit, source, checkpoints)
        if fmt == "csv":
            return emit.series_csv_blocks(census_.counting)
        if fmt == "json":
            return [emit.perfect_json(census_)]

    if args.command == "wirsing":
        report = exact.wirsing_count_check(RationalTarget.parse(args.ell),
                                           parse_checkpoints(args.checkpoints), source)
        return [emit.wirsing_csv(report)]

    if args.command == "dioph":
        problem = exact.DiophantineProblem(args.a, args.b, args.k, args.limit)
        checkpoints = parse_checkpoints(args.checkpoints) if args.checkpoints else None
        solution = exact.solve_diophantine(problem, source, checkpoints)
        if fmt == "csv":
            return emit.series_csv_blocks(solution.series)
        if fmt == "ndjson":
            return emit.records_ndjson_blocks(solution.records)
        if fmt == "json":
            return [emit.dioph_json(solution)]

    if args.command == "census":
        problem = congruence.CongruenceProblem(args.b, args.k, args.limit)
        if not problem.in_uniform_range:
            sys.stderr.write(f"warning: |k|={abs(args.k)} is outside the uniform "
                             f"range b*x^(2/3)\n")
        records = congruence.census(problem, source)
        if fmt == "ndjson":
            return emit.records_ndjson_blocks(records)
        if fmt == "json":
            return [emit.records_json(records)]

    if args.command == "sporadic":
        report = congruence.sporadic_growth_report(
            args.b, args.k, parse_checkpoints(args.checkpoints), source)
        if fmt == "csv":
            return emit.series_csv_blocks(report.series)
        if fmt == "table":
            return [emit.sporadic_text(report)]

    if args.command == "cdf":
        grid = [g.strip() for g in args.grid.split(",") if g.strip()]
        result = distribution.empirical_cdf(args.limit, grid, source)
        return [emit.cdf_csv(result)]

    if args.command == "phase":
        report = distribution.phase_experiment(
            RationalTarget.parse(args.ell), args.regime,
            parse_checkpoints(args.checkpoints), source, c=args.c)
        return [emit.phase_csv(report)]

    if args.command == "probe":
        report = distribution.sigma_approx_probe(args.ell, args.depth,
                                                 args.search_limit, source)
        return [emit.probe_csv(report)]

    if args.command == "gcdsum":
        return [emit.gcdsum_csv(exact.gcd_sum(args.x, source))]

    raise ValueError(f"no {fmt} rendering of {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        config = RunConfig(
            segment_length=args.segment_length,
            cache_dir=args.cache_dir,
            output_format=args.format or _RENDERS[args.command][0],
            threads=args.threads,
            strict_inequality=not args.non_strict,
            threshold_at_n=not args.at_limit,
            include_n_equals_1=not args.from_two,
        )
        if args.config:
            config = apply_config_file(config, args.config)
        if config.output_format not in _RENDERS[args.command]:
            formats = [f for f in _RENDERS[args.command] if f in _FORMATS]
            raise ValueError(f"{args.command} renders {' or '.join(formats)}, "
                             f"not {config.output_format}")
        if args.command not in _CONVENTION_COMMANDS and not (
                config.strict_inequality and config.threshold_at_n
                and config.include_n_equals_1):
            raise ValueError(f"{args.command} takes no --non-strict, --at-limit or --from-two")
        env_cache = os.environ.get(CACHE_DIR_ENV)
        if env_cache:
            config = replace(config, cache_dir=env_cache)

        blocks = _dispatch(args, config)  # every block rendered before the first byte
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()  # so a closed pipe fails here, not at interpreter exit
    except (InvalidProblemError, InvalidThresholdError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (CapabilityError, BudgetExceededError, SigmaOverflowError,
            CacheFormatError, OSError, OverflowError) as exc:
        # OverflowError: an exact input (such as --ell 1e400) beyond float64 or int64
        if isinstance(exc, BrokenPipeError):  # the reader left: the exit flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # such as figure1's checkpoint column at --limit 1e15
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
