"""Correctness gate for the benchmark's artifacts.

Every artifact must match the sha256 pinned in ``pinned.json`` (computed with
``pin.py`` from the CLI at the commit that defined the benchmark).  Each
distinct artifact is also re-derived independently, from the published grid
or by brute force over the trial-division ``sigma_oracle``, on a sample drawn
from the benchmark seed.  A check returns a list of problems; empty means
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text(encoding="utf-8"))

#: Published quotients count/(x/log x) for l = 2 (exponent, x) -> value.
PUBLISHED = {
    ("0.9", 10**6): 3.661860, ("0.9", 10**7): 3.305180, ("0.9", 2 * 10**7): 3.196040,
    ("0.8", 10**6): 1.141480, ("0.8", 10**7): 0.945623, ("0.8", 2 * 10**7): 0.908751,
    ("0.7", 10**6): 0.494278, ("0.7", 10**7): 0.435395, ("0.7", 2 * 10**7): 0.426470,
    ("0.6", 10**6): 0.311567, ("0.6", 10**7): 0.274586, ("0.6", 2 * 10**7): 0.267904,
    ("0.5", 10**6): 0.276559, ("0.5", 10**7): 0.259482, ("0.5", 2 * 10**7): 0.255962,
    ("0.4", 10**6): 0.264968, ("0.4", 10**7): 0.252956, ("0.4", 2 * 10**7): 0.250063,
    ("0.3", 10**6): 0.225980, ("0.3", 10**7): 0.247837, ("0.3", 2 * 10**7): 0.247299,
    ("0.2", 10**6): 0.151238, ("0.2", 10**7): 0.195911, ("0.2", 2 * 10**7): 0.197430,
}

#: Largest allowed deviation of a recomputed cell from the published grid.
GRID_TOLERANCE = 5e-4


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cdf_text(grid: list[str]) -> bytes:
    """The cdf artifact for a grid drawn from the pinned pool."""
    values = PINNED["cdf_values"]
    return ("u,value\n" + "".join(f"{u},{values[u]}\n" for u in grid)).encode()


def expected_digest(workload: str, grid: list[str]) -> str:
    if workload.startswith("cdf"):
        return sha256(cdf_text(grid))
    return PINNED["digests"][workload]


def _oracle():
    from withinperfect.sieve import sigma_oracle

    return sigma_oracle


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % p for p in range(3, math.isqrt(n) + 1, 2))


def _icbrt(x: int) -> int:
    r = round(x ** (1.0 / 3.0))
    while r ** 3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def _quotient(count: int, x: int) -> str:
    """count/(x/log x) as the CLI prints it."""
    return f"{count / (x / math.log(x)):.6f}"


def check_table1(data: bytes, rng: random.Random, grid) -> list[str]:
    lines = data.decode().splitlines()
    header = "c,x,count,quotient,reference,deviation"
    if header not in lines:
        return ["table1: no CSV grid in the artifact"]
    rows = [ln.split(",") for ln in lines[lines.index(header) + 1:] if not ln.startswith("#")]
    problems = []
    seen = set()
    for c, x, count, q, _, _ in rows:
        key = (c, int(x))
        seen.add(key)
        if key not in PUBLISHED:
            problems.append(f"table1: unexpected cell {key}")
        elif abs(float(q) - PUBLISHED[key]) > GRID_TOLERANCE:
            problems.append(f"table1: cell {key} = {q}, published {PUBLISHED[key]}")
        if _quotient(int(count), int(x)) != q:
            problems.append(f"table1: cell {key} quotient {q} does not match count {count}")
    missing = set(PUBLISHED) - seen
    if missing:
        problems.append(f"table1: cells missing: {sorted(missing)}")
    return problems


def _xlog_hit(n: int, s: int) -> bool:
    """|s - 2n| < n/log n, strict; k(1) is +inf, so n = 1 always counts."""
    if n == 1:
        return True
    d = abs(s - 2 * n)
    lhs, rhs = d * math.log(n), float(n)
    if abs(lhs - rhs) > 1e-9 * rhs:
        return lhs < rhs
    import mpmath

    with mpmath.workdps(50):
        return mpmath.mpf(d) * mpmath.log(n) < n


FIGURE1_LIMIT = 10**6


def check_figure1(data: bytes, rng: random.Random, grid) -> list[str]:
    sigma = _oracle()
    lines = data.split(b"\n")
    if lines[0] != b"x,count,quotient" or lines[-1] != b"" or len(lines) != FIGURE1_LIMIT + 1:
        return [f"figure1: expected a header and {FIGURE1_LIMIT - 1} rows, found {len(lines) - 2}"]
    problems = []

    def row(x: int) -> int:
        x_text, count, q = lines[x - 1].decode().split(",")
        if int(x_text) != x or _quotient(int(count), x) != q:
            problems.append(f"figure1: bad row for x={x}: {lines[x - 1]!r}")
        return int(count)

    def hits(lo: int, hi: int) -> int:
        return sum(_xlog_hit(n, sigma(n)) for n in range(lo, hi + 1))

    x0 = rng.randint(2, 2000)
    if row(x0) != hits(1, x0):
        problems.append(f"figure1: count at x={x0} differs from brute force")
    width = 400
    for _ in range(3):
        lo = rng.randint(2, FIGURE1_LIMIT - width)
        counts = [row(x) for x in range(lo, lo + width + 1)]
        steps = [b - a for a, b in zip(counts, counts[1:])]
        if steps != [int(_xlog_hit(n, sigma(n))) for n in range(lo + 1, lo + width + 1)]:
            problems.append(f"figure1: counts over ({lo}, {lo + width}] differ from brute force")
    return problems


CENSUS_LIMIT = 3 * 10**6
#: pi(3e6) + 1: every prime n satisfies sigma(n) = n + 1 = 1 (mod n), and so does n = 1.
CENSUS_RECORDS = 216_817


def check_census(data: bytes, rng: random.Random, grid) -> list[str]:
    sigma = _oracle()
    lines = data.decode().splitlines()
    if len(lines) != CENSUS_RECORDS:
        return [f"census: {len(lines)} records, expected {CENSUS_RECORDS}"]
    records = [json.loads(ln) for ln in lines]
    ns = [r["n"] for r in records]
    problems = []
    if any(a >= b for a, b in zip(ns, ns[1:])) or ns[-1] > CENSUS_LIMIT:
        problems.append("census: n not strictly ascending within the limit")
    for r in rng.sample(records, 200):
        n = r["n"]
        regular = _is_prime(n)
        expected = {"n": n, "sigma_n": sigma(n),
                    "classification": "regular" if regular else "sporadic",
                    "witness": {"p": n, "m": 1} if regular else None}
        if r != expected or (r["sigma_n"] - 1) % n:
            problems.append(f"census: record {r} should be {expected}")
    members = set(ns)
    for n in (rng.randint(1, CENSUS_LIMIT) for _ in range(200)):
        if n not in members and (sigma(n) - 1) % n == 0:
            problems.append(f"census: solution n={n} missing")
    return problems


CDF_LIMIT = 20_000_000
CDF_SAMPLE = 10_000
#: Hoeffding: a correct value fails the sampled check with probability < 1e-9.
CDF_TOLERANCE = math.sqrt(math.log(2 / 1e-9) / (2 * CDF_SAMPLE))


def check_cdf(data: bytes, rng: random.Random, grid) -> list[str]:
    sigma = _oracle()
    lines = data.decode().splitlines()
    if lines[0] != "u,value" or [ln.split(",")[0] for ln in lines[1:]] != list(grid):
        return [f"cdf: rows do not match the grid {grid}"]
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    problems = []
    if any(a > b for a, b in zip(values, values[1:])) or not 0 <= values[0] <= values[-1] <= 1:
        problems.append(f"cdf: values {values} are not a distribution function")
    sample = [(n, sigma(n)) for n in (rng.randint(1, CDF_LIMIT) for _ in range(CDF_SAMPLE))]
    for u, value in zip(grid, values):
        q = Fraction(u)
        share = sum(s * q.denominator <= q.numerator * n for n, s in sample) / CDF_SAMPLE
        if abs(share - value) > CDF_TOLERANCE:
            problems.append(f"cdf: F({u}) = {value}, sampled share {share}")
    return problems


GCDSUM_X = 50_000_000


def check_gcdsum(data: bytes, rng: random.Random, grid) -> list[str]:
    import numpy as np

    sigma = _oracle()
    header, row = data.decode().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    x = GCDSUM_X
    m_lo, m_hi = _icbrt(x) + 1, _icbrt(x * x)
    problems = []
    if (int(fields["x"]), int(fields["m_lo"]), int(fields["m_hi"])) != (x, m_lo, m_hi):
        problems.append(f"gcdsum: range {fields} should be ({m_lo}, {m_hi}]")
    # independent divisor-sum sieve: add d to every multiple of d
    table = np.zeros(m_hi + 1, dtype=np.int64)
    for d in range(1, m_hi + 1):
        table[d::d] += d
    for m in rng.sample(range(m_lo, m_hi + 1), 50):
        if table[m] != sigma(m):
            problems.append(f"gcdsum: check sieve disagrees with sigma_oracle at {m}")
    ms = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    gs = np.gcd(ms, table[m_lo:])
    value = math.fsum((gs / (ms.astype(np.float64) ** 2)).tolist())
    if abs(float(fields["value"]) - value) > 2e-6 * value:
        problems.append(f"gcdsum: value {fields['value']}, recomputed {value:.6e}")
    return problems
