"""Common domain types: target ratios and threshold functions, plus the two
result shapes kept as numpy columns, CheckpointSeries (x, count, quotient)
and SolutionTable (one row per solution), whose Python lists and records are
built only when read."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidThresholdError

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
THRESHOLD_KINDS = ("power", "constant", "linear", "x_over_log", "custom")


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold function k(y) > 0 used in |sigma(n) - l*n| < k(n).

    kind        one of THRESHOLD_KINDS
    param       exact Fraction parameter (exponent c, constant k0, or slope)
    fn          callable for kind="custom"; must accept a numpy float array
                and do any clipping itself
    strict      compare with "<" (default) instead of "<="
    at_limit    evaluate the threshold at the counting limit x instead of n
    """

    kind: str
    param: Optional[Fraction] = None
    fn: Optional[Callable] = None
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
        elif self.kind == "custom" and self.fn is None:
            raise InvalidThresholdError("custom threshold needs a callable")

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
    def custom(cls, fn: Callable, *, strict: bool = True,
               at_limit: bool = False) -> "ThresholdSpec":
        """A tabulated/callable threshold, decided in float64 with no exact
        fallback: |b*sigma(n) - a*n| and b*fn(n) are compared as float64, so
        two values that round to the same double are a tie (Df == t), left
        out under strict "<" and counted under "<=", even when the exact
        values differ.  fn does its own clipping (np.maximum, np.minimum)."""
        return cls("custom", fn=fn, strict=strict, at_limit=at_limit)

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
        if self.kind == "power":
            return f"y^{self.param}"
        if self.kind == "constant":
            return str(self.param)
        if self.kind == "linear":
            return f"{self.param}*y"
        if self.kind == "x_over_log":
            return "y/log y"
        return "custom"


def int64_column(values) -> np.ndarray:
    """values as an int64 array; a range becomes np.arange, so no list of ints is built."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


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
        self.x = int64_column(checkpoints)
        if np.any(self.x[1:] < self.x[:-1]):
            raise ValueError("checkpoints must be ascending")
        self.count = np.asarray(counts, dtype=np.int64)
        if quotients is None:
            quotients = np.full(len(self.x), math.nan)
            start = int(np.searchsorted(self.x, 2))  # x < 2 is an ascending prefix
            x = self.x[start:].astype(np.float64)
            logs = np.fromiter(map(math.log, memoryview(x)), dtype=np.float64, count=len(x))
            quotients[start:] = self.count[start:] / (x / logs)
        self.quotient = np.asarray(quotients, dtype=np.float64)
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

    A solution of census or solve_diophantine has at most one witness (see
    sieve._witnesses), so the columns lose nothing.  A SolutionRecord is
    built only when one is indexed or iterated over.
    """

    __slots__ = ("n", "sigma_n", "q", "p", "m")

    def __init__(self, n: np.ndarray, sigma_n: np.ndarray, q: np.ndarray,
                 p: np.ndarray, m: np.ndarray):
        self.n, self.sigma_n, self.q, self.p, self.m = n, sigma_n, q, p, m

    @classmethod
    def concat(cls, parts: list[tuple[np.ndarray, ...]]) -> "SolutionTable":
        """One table from per-segment (n, sigma_n, q, p, m) column tuples."""
        return cls(*(np.concatenate(col) for col in zip(*parts)))

    @classmethod
    def from_records(cls, records: Iterable[SolutionRecord]) -> "SolutionTable":
        """The columns of any records; a record keeps its first witness only,
        the one to_json_dict reports."""
        rows = [(r.n, r.sigma_n, -1 if r.q is None else r.q,
                 *(r.witnesses[0] if r.witnesses else (0, 0))) for r in records]
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


def parse_checkpoints(text: str | Sequence) -> list[int]:
    """Parse "1e4,100000,2e7" (or a sequence) into ascending ints.

    Strings are parsed by parse_integer, so "1e30" is 10**30 and a decimal
    that is not an integer is refused.
    """
    if isinstance(text, str):
        parts = [p for p in text.split(",") if p.strip()]
    else:
        parts = list(text)
    out = []
    for p in parts:
        if isinstance(p, str):
            value = parse_integer(p, "checkpoint")
        else:
            value = int(p)
            if value != p:
                raise ValueError(f"checkpoint {p!r} is not an integer")
        if value < 1:
            raise ValueError("checkpoints must be >= 1")
        out.append(value)
    if out != sorted(out):
        raise ValueError("checkpoints must be ascending")
    if not out:
        raise ValueError("need at least one checkpoint")
    return out
