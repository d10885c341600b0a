"""Common domain types: target ratios and threshold functions, plus the two
result shapes kept as numpy columns, CheckpointSeries (x, count, quotient)
and SolutionTable (one row per solution), whose Python lists and records are
built only when read.  checkpoint_column owns the checkpoint rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidThresholdError, SigmaOverflowError

#: Largest admissible denominator for an exact power-threshold exponent.
MAX_EXPONENT_DENOMINATOR = 10

#: Most digits a decimal exponent of an exact input may have.
MAX_EXPONENT_DIGITS = 4


def as_exact_fraction(value, what: str = "value") -> Fraction:
    """Convert int/str/Fraction input to an exact Fraction.

    Strings are parsed exactly ("3/2" and "1.25" are both fine); a decimal
    exponent has at most MAX_EXPONENT_DIGITS digits, since "1e100000000"
    would build a 41 MB integer first.  Floats are rejected: a float has
    already lost the distinction between e.g. 0.3 and 5404319552844595/2**54,
    and exactness is the whole point here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e and len(exponent.strip().lstrip("+-")) > MAX_EXPONENT_DIGITS:
            raise ValueError(f"{what} {value!r} has a decimal exponent of more than "
                             f"{MAX_EXPONENT_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed {what}: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"{what} must be exact (int, str, or Fraction); "
            f"got float {value!r} — pass the decimal as a string instead"
        )
    raise TypeError(f"{what} must be int, str, or Fraction, not {type(value).__name__}")


@dataclass(frozen=True)
class RationalTarget:
    """A target ratio a/b > 1 in lowest terms."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 1 or self.a <= self.b:
            raise ValueError(f"need a > b >= 1, got {self.a}/{self.b}")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"{self.a}/{self.b} is not in lowest terms")

    @classmethod
    def parse(cls, value) -> "RationalTarget":
        """Build from "a/b", "1.25", an int, a Fraction, or another target."""
        if isinstance(value, RationalTarget):
            return value
        frac = as_exact_fraction(value, "target ratio")
        return cls(frac.numerator, frac.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}" if self.b != 1 else str(self.a)


#: Threshold kinds understood by the counting engine.
THRESHOLD_KINDS = ("power", "constant", "linear", "x_over_log", "x_log_x")


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold function k(y) > 0 used in |sigma(n) - l*n| < k(n).

    kind        one of THRESHOLD_KINDS
    param       exact Fraction parameter (exponent c, constant k0, or slope)
    strict      compare with "<" (default) instead of "<="
    at_limit    evaluate the threshold at the counting limit x instead of n
    """

    kind: str
    param: Optional[Fraction] = None
    strict: bool = True
    at_limit: bool = False

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise InvalidThresholdError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "power":
            c = self.param
            if not (0 < c < 1):
                raise InvalidThresholdError(f"power exponent must lie in (0,1), got {c}")
            if c.denominator > MAX_EXPONENT_DENOMINATOR:
                raise InvalidThresholdError(
                    f"power exponent denominator must be <= {MAX_EXPONENT_DENOMINATOR} "
                    f"for exact comparison, got {c}"
                )
        elif self.kind in ("constant", "linear"):
            if self.param is None or self.param <= 0:
                raise InvalidThresholdError(f"{self.kind} threshold needs a positive parameter")

    # --- constructors ---

    @classmethod
    def power(cls, c, *, strict: bool = True, at_limit: bool = False) -> "ThresholdSpec":
        """k(y) = y**c with c an exact rational in (0,1)."""
        return cls("power", as_exact_fraction(c, "exponent"), strict=strict, at_limit=at_limit)

    @classmethod
    def constant(cls, k0, *, strict: bool = True) -> "ThresholdSpec":
        """k(y) = k0 with k0 > 0."""
        return cls("constant", as_exact_fraction(k0, "constant"), strict=strict)

    @classmethod
    def linear(cls, c, *, strict: bool = True, at_limit: bool = False) -> "ThresholdSpec":
        """k(y) = c*y with c > 0."""
        return cls("linear", as_exact_fraction(c, "slope"), strict=strict, at_limit=at_limit)

    @classmethod
    def x_over_log(cls, *, strict: bool = True, at_limit: bool = False) -> "ThresholdSpec":
        """k(y) = y/log(y), with k(1) read as +infinity (right limit)."""
        return cls("x_over_log", strict=strict, at_limit=at_limit)

    @classmethod
    def x_log_x(cls, *, strict: bool = True, at_limit: bool = False) -> "ThresholdSpec":
        """k(y) = y*log(y), the superlinear regime (k(1) = 0)."""
        return cls("x_log_x", strict=strict, at_limit=at_limit)

    @classmethod
    def parse(cls, text: str) -> "ThresholdSpec":
        """Parse CLI syntax: pow:0.3, pow:1/3, const:1, lin:0.1, xlog."""
        head, _, arg = text.partition(":")
        head = head.strip().lower()
        if head in ("pow", "power"):
            return cls.power(arg)
        if head in ("const", "constant"):
            return cls.constant(arg)
        if head in ("lin", "linear"):
            return cls.linear(arg)
        if head in ("xlog", "x_over_log"):
            if arg:
                raise InvalidThresholdError("xlog takes no parameter")
            return cls.x_over_log()
        raise InvalidThresholdError(f"malformed threshold {text!r}")

    def describe(self) -> str:
        return {"power": f"y^{self.param}", "constant": str(self.param),
                "linear": f"{self.param}*y", "x_over_log": "y/log y",
                "x_log_x": "y*log y"}[self.kind]


def checkpoint_column(values, limit: Optional[int] = None, lazy: bool = False):
    """The checkpoint rule of every statistic: values in any order as an
    ascending int64 column, duplicates kept.  Each must be an integer >= 1 (1e4
    is; 100.5 raises ValueError, never rounded), and none past limit (ValueError)
    or int64 (SigmaOverflowError).  A range becomes np.arange with no list built,
    or with lazy stays an ascending range, read by checkpoint_index and
    checkpoint_values, so that its column is never built at all.
    """
    if isinstance(values, range):
        ascending = values if values.step > 0 else values[::-1]
    else:
        ascending = sorted(map(_checkpoint, values))
    if not ascending:
        raise ValueError("need at least one checkpoint")
    if ascending[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    top = ascending[-1]
    if limit is not None and top > limit:
        raise ValueError(f"checkpoint {top} exceeds the limit {limit}")
    if top > np.iinfo(np.int64).max:
        raise SigmaOverflowError(f"limit {top} exceeds the domain cap 2^55")
    if isinstance(ascending, range):
        return ascending if lazy else checkpoint_values(ascending, slice(None))
    return np.array(ascending, dtype=np.int64)


def checkpoint_index(checkpoints, v):
    """np.searchsorted(checkpoints, v), how many checkpoints lie below v, for
    an ascending int64 column or range of checkpoint_column."""
    if not isinstance(checkpoints, range):
        return np.searchsorted(checkpoints, v)
    below = -((checkpoints.start - np.asarray(v, dtype=np.int64)) // checkpoints.step)
    return np.clip(below, 0, len(checkpoints))


def checkpoint_values(checkpoints, index) -> np.ndarray:
    """checkpoints[index] as int64 for a slice or an int64 array of indices,
    of an ascending int64 column or range of checkpoint_column."""
    if not isinstance(checkpoints, range):
        return checkpoints[index]
    if isinstance(index, slice):
        part = checkpoints[index]
        return np.arange(part.start, part.stop, part.step, dtype=np.int64)
    return checkpoints.start + index * checkpoints.step


def _checkpoint(value) -> int:
    """value as an int, refused unless it is that int exactly."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # a str, NaN or infinity
        pass
    raise ValueError(f"checkpoint {value!r} is not an integer")


class CheckpointSeries:
    """Counts at ascending checkpoints and a quotient per checkpoint, held as
    int64 x, int64 count and float64 quotient columns.

    The quotient defaults to count/(x/log x), NaN below x = 2, computed in
    numpy with a math.log per x.  It is bit-identical to normalized_quotient:
    the int-to-float conversions and both divisions are correctly rounded in
    numpy as in Python.  np.log is not used, because it may differ from
    math.log by one ulp (it does at 54 of the x <= 10^6 on AVX-512 hosts),
    which can move a sixth decimal.  The list-valued checkpoints, counts and
    quotients are built on first read.  Two series are equal when their labels
    and columns are, NaN quotients matching NaN.
    """

    def __init__(self, checkpoints, counts, quotients=None, label: str = ""):
        given = _column(np.asarray(checkpoints), "checkpoints")
        # any column but int64 goes item by item: 100.5 is refused, never truncated
        self.x = given if given.dtype == np.int64 else np.array(
            [_checkpoint(v) for v in given.tolist()], dtype=np.int64)
        if np.any(self.x[1:] < self.x[:-1]):
            raise ValueError("checkpoints must be ascending")
        self.count = _column(np.asarray(counts, dtype=np.int64), "counts", len(self.x))
        if quotients is None:
            quotients = np.full(len(self.x), math.nan)
            start = int(np.searchsorted(self.x, 2))  # x < 2 is an ascending prefix
            x = self.x[start:].astype(np.float64)
            logs = np.fromiter(map(math.log, memoryview(x)), dtype=np.float64, count=len(x))
            np.divide(x, logs, out=x)  # in place: three columns, not five, at once
            np.divide(self.count[start:], x, out=quotients[start:])
        self.quotient = _column(np.asarray(quotients, dtype=np.float64), "quotients", len(self.x))
        self.label = label

    @cached_property
    def checkpoints(self) -> list[int]:
        return self.x.tolist()

    @cached_property
    def counts(self) -> list[int]:
        return self.count.tolist()

    @cached_property
    def quotients(self) -> list[float]:
        return self.quotient.tolist()

    def __len__(self) -> int:
        return len(self.x)

    def __eq__(self, other):
        if not isinstance(other, CheckpointSeries):
            return NotImplemented
        return (self.label == other.label and np.array_equal(self.x, other.x)
                and np.array_equal(self.count, other.count)
                and np.array_equal(self.quotient, other.quotient, equal_nan=True))

    def __repr__(self) -> str:
        return (f"CheckpointSeries(x={self.x!r}, count={self.count!r}, "
                f"quotient={self.quotient!r}, label={self.label!r})")

    def rows(self):
        return list(zip(self.checkpoints, self.counts, self.quotients))

    @classmethod
    def concat(cls, parts: list["CheckpointSeries"]) -> "CheckpointSeries":
        """One series from consecutive parts (at least one), labelled as the first."""
        return cls(*(np.concatenate([getattr(p, c) for p in parts])
                     for c in ("x", "count", "quotient")), label=parts[0].label)


def _column(column: np.ndarray, name: str, length: Optional[int] = None) -> np.ndarray:
    """column, refused unless it is 1-D and, given a length, that long."""
    if np.ndim(column) != 1 or length not in (None, len(column)):
        raise ValueError(f"{name} must be a 1-D column"
                         f"{'' if length is None else f' of length {length}'}, "
                         f"got shape {np.shape(column)}")
    return column


def normalized_quotient(count: int, x: int) -> float:
    """count/(x/log x) with natural log; NaN below x=2 where the scale vanishes."""
    if x < 2:
        return math.nan
    return count / (x / math.log(x))


@dataclass(frozen=True)
class SolutionRecord:
    """One solution n of a sigma-congruence or sigma-equation, classified."""

    n: int
    sigma_n: int
    classification: str  # "regular" | "sporadic"
    witnesses: tuple[tuple[int, int], ...] = ()  # (p, m) pairs
    q: Optional[int] = None  # (b*sigma(n) - k)/n when it is a nonnegative integer

    def __post_init__(self):
        if self.classification not in ("regular", "sporadic"):
            raise ValueError(f"bad classification {self.classification!r}")
        if (self.classification == "regular") != bool(self.witnesses):
            raise ValueError("a record is regular exactly when it has a witness")

    def to_json_dict(self) -> dict:
        w = self.witnesses[0] if self.witnesses else None
        return {
            "n": self.n,
            "sigma_n": self.sigma_n,
            "classification": self.classification,
            "witness": {"p": w[0], "m": w[1]} if w else None,
        }


class SolutionTable(Sequence[SolutionRecord]):
    """Solutions as int64 columns, ascending in n: n, sigma_n, q (-1 where q
    is None) and the witness p, m (p = 0 where the solution is sporadic).

    A solution of census or solve_diophantine has at most one witness, since
    sigma(n) fixes its p (see sieve._witnesses), so the columns lose nothing.
    A SolutionRecord is built only when one is indexed or iterated over.  The
    columns must be 1-D and as long as n.
    """

    __slots__ = ("n", "sigma_n", "q", "p", "m")

    def __init__(self, n: np.ndarray, sigma_n: np.ndarray, q: np.ndarray,
                 p: np.ndarray, m: np.ndarray):
        self.n, self.sigma_n, self.q, self.p, self.m = n, sigma_n, q, p, m
        length = len(_column(n, "n"))
        for name in self.__slots__:
            _column(getattr(self, name), name, length)

    @classmethod
    def concat(cls, parts: Iterable["SolutionTable"]) -> "SolutionTable":
        """One table from consecutive parts (at least one)."""
        return cls(*(np.concatenate(col) for col in zip(*(p._columns() for p in parts))))

    @classmethod
    def from_records(cls, records: Iterable[SolutionRecord]) -> "SolutionTable":
        """The columns of any records; a record keeps its first witness only,
        the one to_json_dict reports.  A witness p of 0 is refused: p = 0
        marks a sporadic row."""
        rows = [(r.n, r.sigma_n, -1 if r.q is None else r.q, *_first_witness(r))
                for r in records]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 5).T)

    def __len__(self) -> int:
        return len(self.n)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.n, self.sigma_n, self.q, self.p, self.m

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SolutionTable(*(c[i] for c in self._columns()))
        return _record(*(int(c[i]) for c in self._columns()))

    def __iter__(self):
        return (_record(*row) for row in zip(*(c.tolist() for c in self._columns())))


def _first_witness(record: SolutionRecord) -> tuple[int, int]:
    if not record.witnesses:
        return 0, 0
    if record.witnesses[0][0] == 0:
        raise ValueError("a witness (p, m) with p = 0 cannot be told from a sporadic row")
    return record.witnesses[0]


def _record(n: int, sigma_n: int, q: int, p: int, m: int) -> SolutionRecord:
    return SolutionRecord(n, sigma_n, "regular" if p else "sporadic",
                          ((p, m),) if p else (), q if q >= 0 else None)


def parse_integer(text: str, what: str = "value") -> int:
    """An integer written exactly: "10000", "1e4" and "2.5e3" parse, while
    "1.5" and "1.23456789012345678e16" are refused, never rounded."""
    exact = as_exact_fraction(text.strip(), what)
    if exact.denominator != 1:
        raise ValueError(f"{what} {text.strip()!r} is not an integer")
    return exact.numerator


def parse_checkpoints(text: str) -> list[int]:
    """Parse "1e4,100000,2e7" into ascending exact ints by parse_integer, so
    "1e30" is 10**30 and a decimal that is not an integer is refused."""
    out = [parse_integer(p, "checkpoint") for p in text.split(",") if p.strip()]
    if any(value < 1 for value in out):
        raise ValueError("checkpoints must be >= 1")
    if out != sorted(out):
        raise ValueError("checkpoints must be ascending")
    if not out:
        raise ValueError("need at least one checkpoint")
    return out
