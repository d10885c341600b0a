"""Command-line front end.

One subcommand per reproducible computation.  Exit codes: 0 success,
1 validation error (bad arguments, malformed rationals), 2 capability,
overflow, budget, memory, cache, or I/O failure.  Output is deterministic for
a fixed configuration: CSV uses commas and LF with no BOM, quotients carry six
decimals, and every run sieves on one thread.

Two tables declare the CLI.  _SETTINGS has each global option once: its
dest, flag, argparse kwargs and config-file value parser; the options, the
config keys and main's RunConfig are read from it.  _COMMANDS has each
subcommand once: its help, options, run and renders {format: render}, and
whether it reads the counting conventions or takes --checkpoints with CSV
only.  build_parser adds one subparser per entry.  The run checks every
argument and the run's cost and returns the result, and each render maps that
result to its text blocks; _RENDERS, the formats each subcommand takes, are
the renders' keys.

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
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, NamedTuple, Optional

from . import cache, congruence, distribution, emit, exact, within
from .errors import BudgetExceededError, CacheFormatError, CapabilityError
from .sieve import DEFAULT_SEGMENT_LENGTH, SigmaSource, sieve_segment
from .types import RationalTarget, ThresholdSpec, parse_checkpoints, parse_integer

CACHE_DIR_ENV = "WITHINPERFECT_CACHE_DIR"

_FORMATS = ("csv", "json", "ndjson", "table")


@dataclass
class RunConfig:
    """Run-wide knobs shared by every subcommand."""

    segment_length: int = DEFAULT_SEGMENT_LENGTH
    cache_dir: Optional[str] = None
    output_format: str = "csv"
    strict_inequality: bool = True
    threshold_at_n: bool = True
    include_n_equals_1: bool = True

    def source(self) -> SigmaSource:
        return SigmaSource(segment_length=self.segment_length, cache_dir=self.cache_dir)


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}")


def _parse_format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"unknown format {text!r}")
    return text


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


#: (dest, flag, argparse kwargs, config value parser): a dest with a parser is a
#: RunConfig field and a config-file key; --config and --out have none.
_SETTINGS = (
    ("config", "--config", dict(metavar="FILE",
                                help="key=value file overriding the other flags"), None),
    ("segment_length", "--segment-length", dict(type=_integer),
     lambda text: parse_integer(text, "segment_length")),
    ("cache_dir", "--cache-dir", {}, lambda text: text or None),
    ("output_format", "--format", dict(
        choices=_FORMATS, help="output format (default depends on the subcommand)"),
     _parse_format),
    ("out", "--out", dict(metavar="FILE",
                          help="write the artifact to FILE instead of stdout"), None),
    ("strict_inequality", "--non-strict", dict(
        action="store_false", help="count ties: use <= instead of < in |sigma-l*n| < k"),
     _parse_bool),
    ("threshold_at_n", "--at-limit", dict(
        action="store_false", help="evaluate the threshold at the limit x instead of n"),
     _parse_bool),
    ("include_n_equals_1", "--from-two", dict(
        action="store_false", help="count from n = 2 instead of n = 1"), _parse_bool),
)

#: The config-file keys and their value parsers; the key format is output_format.
_CONFIG_KEYS = {dest: parse for dest, _, _, parse in _SETTINGS if parse}


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
            key = key.strip()
            field = "output_format" if key == "format" else key
            if field not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            updates[field] = _CONFIG_KEYS[field](value.strip())
    return replace(config, **updates)


def _global_options() -> argparse.ArgumentParser:
    """The global options, accepted before and after the subcommand, with no
    defaults: a subparser's would undo a value given before the subcommand."""
    options = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    group = options.add_argument_group("common options")
    for dest, flag, kwargs, _ in _SETTINGS:
        group.add_argument(flag, dest=dest, **kwargs)
    return options


_INT = dict(type=_integer)
#: The options several subcommands share; a subcommand's own kwargs go on top.
_SHARED = {"--ell": {}, "--threshold": {}, "--checkpoints": {}, "--limit": _INT,
           "--b": _INT, "--k": _INT}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry; an option is required unless it has a
    default.  The main parser has the global defaults on its own copy of the
    options, as set_defaults writes into actions that parents=[...] shares."""
    parser = _Parser(prog="withinperfect", parents=[_global_options()],
                     description="sum-of-divisors censuses, congruence "
                                 "classification, and within-perfect counting")
    parser.set_defaults(config=None, out=None, **asdict(RunConfig(output_format=None)))
    common = _global_options()
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND",
                                parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, kwargs in command.options.items():
            kwargs = {**_SHARED.get(flag, {}), **kwargs}
            p.add_argument(flag, required="default" not in kwargs, **kwargs)
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


class _Command(NamedTuple):
    """A subcommand: options {flag: argparse kwargs}, run (args, config, source)
    -> result and renders {format: result -> text blocks}, the default first.
    Only a subcommand with conventions reads --non-strict, --at-limit and
    --from-two (or their config keys); one with csv_checkpoints takes its
    --checkpoints with CSV only."""

    help: str
    options: dict
    run: Callable
    renders: dict
    conventions: bool = False
    csv_checkpoints: bool = False


_SERIES_CSV = {"csv": lambda parts: emit.series_csv_blocks(parts)}

#: For count, series, figure1 and census the run returns the stream that sieves
#: as it is read.  Runs and renders look up sieve_segment, emit and exact at call time.
_COMMANDS = {
    "sieve": _Command("sieve sigma over [lo, hi]; optionally cache it", {
        "--lo": _INT, "--hi": _INT, "--cache-path": dict(
            default=None, help="write the segment in the binary cache format")},
        _sieve, {"csv": lambda text: [text]}),
    "count": _Command("count n <= limit with |sigma(n)-l*n| < k(n)", {
        "--ell": {}, "--threshold": dict(help="pow:C | const:K | lin:C | xlog"),
        "--limit": {}}, lambda a, c, s: _series_stream(c, s, a.threshold, a.ell, [a.limit]),
        _SERIES_CSV, conventions=True),
    "series": _Command("within-perfect counts at several checkpoints", {
        "--ell": {}, "--threshold": {},
        "--checkpoints": dict(help="comma list, e.g. 1e4,1e5,1e6")},
        lambda a, c, s: _series_stream(c, s, a.threshold, a.ell, a.checkpoints), _SERIES_CSV,
        conventions=True),
    "table1": _Command("recompute the published 8x3 quotient grid (l=2)",
                       {"--limit": dict(default=2 * 10**7)}, _table1, {
        "both": lambda r: [emit.table1_text(r), "\n", emit.table1_csv(r)],
        "table": lambda r: [emit.table1_text(r)],
        "csv": lambda r: [emit.table1_csv(r)]}),
    "figure1": _Command("quotient series for k(y)=y/log y, x=2..limit",
                        {"--limit": dict(default=10**4)}, _figure1, _SERIES_CSV,
                        conventions=True),
    "perfect": _Command("enumerate m <= limit with b*sigma(m) = a*m", {
        "--ell": {}, "--limit": {}, "--checkpoints": dict(default=None)},
        lambda a, c, s: exact.enumerate_perfect(a.ell, a.limit, s, _checkpoints(a)), {
        "json": lambda r: [emit.perfect_json(r)],
        "csv": lambda r: emit.series_csv_blocks([r.counting])}, csv_checkpoints=True),
    "wirsing": _Command("perfect counts vs the uniform growth scale", {
        "--ell": {}, "--checkpoints": {}}, lambda a, c, s: exact.wirsing_count_check(
        RationalTarget.parse(a.ell), parse_checkpoints(a.checkpoints), s),
        {"csv": lambda r: [emit.wirsing_csv(r)]}),
    "dioph": _Command("solve b*sigma(n) = a*n + k exhaustively", {
        "--a": _INT, "--b": {}, "--k": {}, "--limit": {},
        "--checkpoints": dict(default=None)}, lambda a, c, s: exact.solve_diophantine(
        exact.DiophantineProblem(a.a, a.b, a.k, a.limit), s, _checkpoints(a)), {
        "json": lambda r: [emit.dioph_json(r)],
        "csv": lambda r: emit.series_csv_blocks([r.series]),
        "ndjson": lambda r: emit.records_ndjson_blocks([r.records])}, csv_checkpoints=True),
    "census": _Command("solutions of b*sigma(n) = k (mod n), classified", {
        "--b": {}, "--k": {}, "--limit": {}}, _census, {
        "ndjson": lambda parts: emit.records_ndjson_blocks(parts),
        "json": lambda parts: emit.records_json_blocks(parts)}),
    "sporadic": _Command("sporadic-solution growth report", {
        "--b": {}, "--k": {}, "--checkpoints": {}}, lambda a, c, s:
        congruence.sporadic_growth_report(a.b, a.k, parse_checkpoints(a.checkpoints), s), {
        "csv": lambda r: emit.series_csv_blocks([r.series]),
        "table": lambda r: [emit.sporadic_text(r)]}),
    "cdf": _Command("empirical distribution of sigma(n)/n", {
        "--limit": {}, "--grid": dict(help="comma list of query points")},
        lambda a, c, s: distribution.empirical_cdf(
        a.limit, [g.strip() for g in a.grid.split(",") if g.strip()], s),
        {"csv": lambda r: [emit.cdf_csv(r)]}),
    "phase": _Command("density experiment for a threshold regime", {
        "--ell": {}, "--regime": dict(choices=("sublinear", "linear", "superlinear")),
        "--c": dict(default=None, help="exponent or slope, regime dependent"),
        "--checkpoints": {}}, lambda a, c, s: distribution.phase_experiment(
        RationalTarget.parse(a.ell), a.regime, parse_checkpoints(a.checkpoints), s, c=a.c),
        {"csv": lambda r: [emit.phase_csv(r)]}),
    "probe": _Command("approximate a target by abundancy ratios", {
        "--ell": dict(help="target value > 1 (exact decimal)"),
        "--depth": dict(type=_integer, default=8),
        "--search-limit": dict(type=_integer, default=10**4)},
        lambda a, c, s: distribution.sigma_approx_probe(a.ell, a.depth, a.search_limit, s),
        {"csv": lambda r: [emit.probe_csv(r)]}),
    "gcdsum": _Command("sum of gcd(m, sigma(m))/m^2 over the middle range", {
        "--x": _INT}, lambda a, c, s: exact.gcd_sum(a.x, s),
        {"csv": lambda r: [emit.gcdsum_csv(r)]}),
}

#: Any other format is refused before the run.  table1's default, "both", is
#: its text table, a blank line, then its CSV.
_RENDERS = {name: tuple(command.renders) for name, command in _COMMANDS.items()}


def _dispatch(args, config: RunConfig) -> Iterable[str]:
    """The artifact of the subcommand as its text blocks: its run on one
    source from config.source(), then the render of the chosen format."""
    command = _COMMANDS[args.command]
    return command.renders[config.output_format](command.run(args, config, config.source()))


#: Longest str handed to a text stream at once.  The stream encodes each write
#: whole; a piece this long stays a small allocation, while a whole block's
#: (about 0.33 MB for figure1) may be mapped afresh and faulted in page by
#: page on every block (blocks of 1.3 MB cost figure1 --limit 1e6 about
#: 15,000 page faults).
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
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                    dir=os.path.dirname(target))
    except OSError as exc:  # named as open() would name it, not by the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
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

    command = _COMMANDS[args.command]
    try:
        for dest in ("config", "out", "cache_path"):
            if getattr(args, dest, None) == "":
                raise ValueError(f"--{dest.replace('_', '-')} needs a file name")
        config = RunConfig(**{field: getattr(args, field) for field in _CONFIG_KEYS})
        config.output_format = config.output_format or _RENDERS[args.command][0]
        if args.config is not None:
            config = apply_config_file(config, args.config)
        if config.output_format not in command.renders:
            formats = [f for f in command.renders if f in _FORMATS]
            raise ValueError(f"{args.command} renders {' or '.join(formats)}, "
                             f"not {config.output_format}")
        if not command.conventions and not (
                config.strict_inequality and config.threshold_at_n
                and config.include_n_equals_1):
            raise ValueError(f"{args.command} takes no --non-strict, --at-limit or --from-two")
        if (command.csv_checkpoints and args.checkpoints is not None
                and config.output_format != "csv"):
            raise ValueError(f"{args.command} takes --checkpoints only with --format csv")
        env_cache = os.environ.get(CACHE_DIR_ENV)
        if env_cache:
            config = replace(config, cache_dir=env_cache)

        blocks = _dispatch(args, config)  # checked, but not yet rendered
        if args.out is not None:
            _write_out(args.out, blocks)
        else:
            _write(sys.stdout, blocks)
            sys.stdout.flush()  # so a closed pipe fails here, not at interpreter exit
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (CapabilityError, BudgetExceededError, CacheFormatError, OSError,
            OverflowError) as exc:
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
