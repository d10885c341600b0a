"""Command-line front end.

One subcommand per reproducible computation.  Exit codes: 0 success,
1 validation error (bad arguments, malformed rationals), 2 capability,
overflow, budget, memory, cache, or I/O failure.  Output is deterministic for
a fixed configuration: CSV uses commas and LF with no BOM, quotients carry six
decimals, and thread count never changes a result.

One command table, _COMMANDS, maps each subcommand to its run and its
renders, {command: (run, {format: render})}: the run checks every argument
and the run's cost and returns the result, and each render maps that result
to its text blocks.  The formats each subcommand takes, _RENDERS, are the
table's keys.

Every refusal comes before the first byte.  The long artifacts (figure1,
count, series, census) are then written block by block as the sieve reaches
them, so an error mid-stream (out of memory, a failing disk or cache, a closed
pipe) leaves on stdout the whole blocks written before it, a prefix of the
artifact that ends at a row; --out replaces its file only on success.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from . import cache, congruence, distribution, emit, exact, within
from .errors import (BudgetExceededError, CacheFormatError, CapabilityError,
                     InvalidProblemError, InvalidThresholdError, SigmaOverflowError)
from .sieve import DEFAULT_SEGMENT_LENGTH, SigmaSource, sieve_segment
from .types import RationalTarget, ThresholdSpec, parse_checkpoints, parse_integer

CACHE_DIR_ENV = "WITHINPERFECT_CACHE_DIR"

_FORMATS = ("csv", "json", "ndjson", "table")

#: The subcommands that read the counting conventions (--non-strict,
#: --at-limit, --from-two and their config keys); any other refuses them.
_CONVENTION_COMMANDS = ("count", "series", "figure1")

#: The subcommands whose --checkpoints is optional and read by their CSV
#: only; another format refuses it.
_CSV_CHECKPOINTS = ("perfect", "dioph")


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


def _series_stream(config: RunConfig, source, threshold: str, ell: str, checkpoints):
    """The counting stream of count, series and figure1 under the run's
    conventions; checkpoints is a comma list or the checkpoints themselves."""
    spec = replace(ThresholdSpec.parse(threshold), strict=config.strict_inequality,
                   at_limit=not config.threshold_at_n)
    target = RationalTarget.parse(ell)
    if isinstance(checkpoints, str):
        checkpoints = parse_checkpoints(checkpoints)
    return within.series_stream(target, spec, checkpoints, source, config.include_n_equals_1)


def _figure1(args, config: RunConfig, source):
    if args.limit < 2:
        raise ValueError("figure1 needs --limit >= 2 (its series starts at x = 2)")
    return _series_stream(config, source, "xlog", "2", range(2, args.limit + 1))


def _sieve(args, config: RunConfig, source) -> str:
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
    return f"lo,hi,length,sigma_total\n{segment.lo},{segment.hi},{len(segment)},{total}\n"


def _table1(args, config: RunConfig, source):
    report = within.table1_reproduce(source, args.limit)
    sys.stderr.write(f"elapsed: {report.elapsed_seconds:.1f}s\n")
    return report


def _census(args, config: RunConfig, source):
    problem = congruence.CongruenceProblem(args.b, args.k, args.limit)
    if not problem.in_uniform_range:
        sys.stderr.write(f"warning: |k|={abs(args.k)} is outside the uniform "
                         f"range b*x^(2/3)\n")
    return congruence.census_stream(problem, source)


def _checkpoints(args):
    return None if args.checkpoints is None else parse_checkpoints(args.checkpoints)


_SERIES_CSV = {"csv": lambda parts: emit.series_csv_blocks(parts)}

#: Each subcommand's (run, {format: render}), its default format first.  For
#: count, series, figure1 and census the run returns the stream that sieves as
#: it is read.  The renders look emit's functions up at call time.
_COMMANDS = {
    "sieve": (_sieve, {"csv": lambda text: [text]}),
    "count": (lambda a, c, s: _series_stream(c, s, a.threshold, a.ell, [a.limit]),
              _SERIES_CSV),
    "series": (lambda a, c, s: _series_stream(c, s, a.threshold, a.ell, a.checkpoints),
               _SERIES_CSV),
    "table1": (_table1, {
        "both": lambda r: [emit.table1_text(r), "\n", emit.table1_csv(r)],
        "table": lambda r: [emit.table1_text(r)],
        "csv": lambda r: [emit.table1_csv(r)]}),
    "figure1": (_figure1, _SERIES_CSV),
    "perfect": (lambda a, c, s: exact.enumerate_perfect(a.ell, a.limit, s, _checkpoints(a)), {
        "json": lambda r: [emit.perfect_json(r)],
        "csv": lambda r: emit.series_csv_blocks([r.counting])}),
    "wirsing": (lambda a, c, s: exact.wirsing_count_check(
        RationalTarget.parse(a.ell), parse_checkpoints(a.checkpoints), s),
        {"csv": lambda r: [emit.wirsing_csv(r)]}),
    "dioph": (lambda a, c, s: exact.solve_diophantine(
        exact.DiophantineProblem(a.a, a.b, a.k, a.limit), s, _checkpoints(a)), {
        "json": lambda r: [emit.dioph_json(r)],
        "csv": lambda r: emit.series_csv_blocks([r.series]),
        "ndjson": lambda r: emit.records_ndjson_blocks([r.records])}),
    "census": (_census, {"ndjson": lambda parts: emit.records_ndjson_blocks(parts),
                         "json": lambda parts: emit.records_json_blocks(parts)}),
    "sporadic": (lambda a, c, s: congruence.sporadic_growth_report(
        a.b, a.k, parse_checkpoints(a.checkpoints), s), {
        "csv": lambda r: emit.series_csv_blocks([r.series]),
        "table": lambda r: [emit.sporadic_text(r)]}),
    "cdf": (lambda a, c, s: distribution.empirical_cdf(
        a.limit, [g.strip() for g in a.grid.split(",") if g.strip()], s),
        {"csv": lambda r: [emit.cdf_csv(r)]}),
    "phase": (lambda a, c, s: distribution.phase_experiment(
        RationalTarget.parse(a.ell), a.regime, parse_checkpoints(a.checkpoints), s, c=a.c),
        {"csv": lambda r: [emit.phase_csv(r)]}),
    "probe": (lambda a, c, s: distribution.sigma_approx_probe(
        a.ell, a.depth, a.search_limit, s), {"csv": lambda r: [emit.probe_csv(r)]}),
    "gcdsum": (lambda a, c, s: exact.gcd_sum(a.x, s), {"csv": lambda r: [emit.gcdsum_csv(r)]}),
}

#: Any other format is refused before the run.  table1's default, "both", is
#: its text table, a blank line, then its CSV.
_RENDERS = {command: tuple(renders) for command, (_, renders) in _COMMANDS.items()}


def _dispatch(args, config: RunConfig) -> Iterable[str]:
    """The artifact of the subcommand as its text blocks: its run on one
    source from config.source(), then the render of the chosen format."""
    run, renders = _COMMANDS[args.command]
    return renders[config.output_format](run(args, config, config.source()))


#: Longest str handed to a text stream at once.  The stream encodes each write
#: whole; a piece this long stays a small allocation, while a whole block's
#: (about 1.3 MB for figure1) is mapped afresh and faulted in page by page on
#: every block, which cost figure1 --limit 1e6 about 15,000 page faults.
_PIECE = 1 << 16


def _write(fh, blocks: Iterable[str]) -> None:
    """Write each block as it is rendered, in pieces of at most _PIECE."""
    for block in blocks:
        for i in range(0, len(block), _PIECE):
            fh.write(block[i:i + _PIECE])


def _write_out(path: str, blocks: Iterable[str]) -> None:
    """Write the blocks to path as they come.  A regular file, or a path that
    does not exist yet, is replaced only once every block is written: the
    blocks go to a temporary file beside it (symlinks resolved), which is
    renamed over it, so a failure leaves no partial file and an existing one
    keeps its bytes.  Anything else (a device, a FIFO) is written in place."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, blocks)
        return
    if mode is None:  # a new file gets the mode open() would give it
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    elif not os.access(target, os.W_OK):  # a file open() could not write stays
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, blocks)
        os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


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
        if (args.command in _CSV_CHECKPOINTS and args.checkpoints is not None
                and config.output_format != "csv"):
            raise ValueError(f"{args.command} takes --checkpoints only with --format csv")
        env_cache = os.environ.get(CACHE_DIR_ENV)
        if env_cache:
            config = replace(config, cache_dir=env_cache)

        blocks = _dispatch(args, config)  # checked, but not yet rendered
        if args.out:
            _write_out(args.out, blocks)
        else:
            _write(sys.stdout, blocks)
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
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
