"""Sum-of-divisors sieving: segments, the trial-division oracle, factorization,
and the exact integer arithmetic built beside them (primality, cube roots).

A segment holds sigma(n) over [lo, hi] and nothing else.  SigmaSource is the
one streaming source every statistic reads; its ``table`` (one segment from 1)
has no caller in the package and stays only because the benchmark traces it.
The kernel enumerates divisor pairs (d, n/d) with d <= sqrt(hi), so a segment
of length L costs O(L * log(sqrt(hi))) strided numpy additions and O(L)
memory.  Factorization is Pollard-Brent rho, exact below 2^64.  The
trial-division oracle stays deliberately naive; it is the independent
cross-check, never the fast path.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, CapabilityError, SigmaOverflowError

#: Above this n, sigma(n) is no longer guaranteed to fit u64 with headroom.
DOMAIN_CAP = 1 << 55

#: Default streaming segment length (elements).
DEFAULT_SEGMENT_LENGTH = 1 << 22

#: Smallest segment length the streaming source accepts.
MIN_SEGMENT_LENGTH = 1 << 10

#: Longest segment that is sieved; anything longer is refused before allocating.
MAX_SEGMENT_LENGTH = 1 << 25

#: The first twelve primes: trial divisors and Miller-Rabin bases of _is_prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: psi_k, the least strong pseudoprime to all of the first k prime bases, for
#: k = 1..12 (Jaeschke, Math. Comp. 61, 1993; Sorenson & Webster, Math. Comp.
#: 86, 2017).  Below psi_k, Miller-Rabin with those k bases is exact, and
#: psi_12 > 2^64.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)


@dataclass(frozen=True)
class SigmaSegment:
    """sigma(n) over [lo, hi] inclusive: sigma[i] = sigma(lo + i) as u64.

    Immutable after construction; disjoint segments may be sieved concurrently.
    """

    lo: int
    hi: int
    sigma: np.ndarray

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"bad segment range [{self.lo}, {self.hi}]")
        if len(self.sigma) != self.hi - self.lo + 1:
            raise ValueError("sigma array length does not match range")
        self.sigma.setflags(write=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def n_values(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    def sigma_of(self, n: int) -> int:
        if n not in self:
            raise IndexError(f"{n} outside segment [{self.lo}, {self.hi}]")
        return int(self.sigma[n - self.lo])


@dataclass(frozen=True)
class FactorView:
    """Prime factorization of n with the derived statistics used downstream."""

    n: int
    distinct_primes: tuple[tuple[int, int], ...]  # (prime, exponent), ascending

    @property
    def omega(self) -> int:
        return len(self.distinct_primes)

    @property
    def largest_prime_factor(self) -> int:
        return self.distinct_primes[-1][0] if self.distinct_primes else 1

    @property
    def sigma(self) -> int:
        return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in self.distinct_primes)


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > DOMAIN_CAP:
        raise SigmaOverflowError(
            f"hi={hi} exceeds the supported domain cap 2^55; "
            "sigma values beyond it are not guaranteed to fit u64"
        )
    if hi - lo + 1 > MAX_SEGMENT_LENGTH:
        raise BudgetExceededError(
            f"segment of {hi - lo + 1} elements exceeds budget {MAX_SEGMENT_LENGTH}"
        )


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit via a plain boolean sieve (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _sigma_block(lo: int, hi: int) -> np.ndarray:
    """Exact sigma(n) for n in [lo, hi] by divisor-pair accumulation."""
    sig = np.zeros(hi - lo + 1, dtype=np.uint64)
    for d in range(1, math.isqrt(hi) + 1):
        first_q = max(d, -(-lo // d))  # ceil(lo/d), but never the small side twice
        last_q = hi // d
        if first_q > last_q:
            continue
        vals = np.arange(first_q, last_q + 1, dtype=np.uint64)
        vals += np.uint64(d)
        if first_q == d:
            vals[0] = d  # n = d*d: the divisor d counts once
        start = d * first_q - lo
        sig[start :: d][: len(vals)] += vals
    return sig


def sieve_segment(lo: int, hi: int) -> SigmaSegment:
    """Sieve exact sigma values over [lo, hi].

    Deterministic and independent of segmentation: the same n yields the same
    sigma regardless of which segment covers it.
    """
    _check_range(lo, hi)
    return SigmaSegment(lo, hi, _sigma_block(lo, hi))


def sigma_oracle(n: int) -> int:
    """sigma(n) by trial division up to sqrt(n): the slow, independent oracle."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DOMAIN_CAP:
        raise SigmaOverflowError(f"n={n} exceeds the supported domain cap 2^55")
    total = 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            power_sum = 1
            pe = 1
            while rest % p == 0:
                rest //= p
                pe *= p
                power_sum += pe
            total *= power_sum
        p += 1 if p == 2 else 2
    if rest > 1:
        total *= rest + 1
    return total


def _is_prime(n: int) -> bool:
    """Exact primality for n < 2^64: trial division by the first twelve primes,
    then a deterministic Miller-Rabin test to the first k of them as bases,
    with k the least index such that n < psi_k."""
    if n >= 1 << 64:
        raise CapabilityError(f"primality of {n} >= 2^64 is outside the exact range")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    k = next(i for i, psi in enumerate(_PSI, 1) if n < psi)
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_mask(lo: int, hi: int) -> np.ndarray:
    """mask[i] is True exactly when lo + i is prime, for 1 <= lo <= hi: a
    segmented sieve of Eratosthenes by the base primes <= sqrt(hi)."""
    mask = np.ones(hi - lo + 1, dtype=bool)
    if lo == 1:
        mask[0] = False
    for p in base_primes(math.isqrt(hi)).tolist():
        start = max(p * p, -(-lo // p) * p) - lo
        mask[start::p] = False
    return mask


def _witnesses(n: np.ndarray, anchors) -> tuple[np.ndarray, np.ndarray]:
    """The witness (p, m) of each solution in the int64 array n, as two int64
    columns: n = p*m with m one of the anchors and p a prime not dividing m,
    and p = m = 0 where n has none (a sporadic solution).

    Every anchor m has the same sigma(m) = k/b (census anchors solve
    b*sigma(m) = k; the one Diophantine anchor k/a has sigma(k/a) = k/b), so
    n has at most one witness and assigning by mask loses nothing.  Suppose
    n = p1*m1 = p2*m2 with primes p1 != p2.  Then p2 | m1, so m1 = p2*r and
    m2 = p1*r, where p1 does not divide r (it does not divide m1) and p2 does
    not divide r (it does not divide m2).  So sigma(m1) = (p2 + 1)*sigma(r)
    != (p1 + 1)*sigma(r) = sigma(m2), a contradiction; and p1 = p2 forces
    m1 = m2.
    """
    wp = np.zeros(len(n), dtype=np.int64)
    wm = np.zeros(len(n), dtype=np.int64)
    for m in anchors:
        p, rem = np.divmod(n, m)
        idx = np.flatnonzero(rem == 0)
        p = p[idx]
        keep = (p > 1) & (m % p != 0)
        idx, p = idx[keep], p[keep]
        if len(p):
            lo = int(p.min())
            prime = _prime_mask(lo, int(p.max()))[p - lo]
            wp[idx[prime]], wm[idx[prime]] = p[prime], m
    return wp, wm


def _icbrt(v: int) -> int:
    """floor(v^(1/3)) for v >= 0 by integer Newton iteration, exact for any v."""
    if v < 0:
        raise ValueError("need v >= 0")
    if v == 0:
        return 0
    x = 1 << -(-v.bit_length() // 3)  # 2^ceil(bits/3) >= v^(1/3)
    while True:
        # AM-GM keeps every iterate >= floor(v^(1/3)); above it they strictly fall
        y = (2 * x + v // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _rho(n: int) -> int:
    """A proper factor of the composite n, which has no prime factor below 41:
    Pollard's rho with Brent's cycle search and gcds batched over 128 steps
    (Brent, BIT 20, 1980)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of 1 <= n < 2^64 with multiplicity, unordered."""
    out = []
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if _is_prime(v):
            out.append(v)
        else:
            d = _rho(v)
            stack += [d, v // d]
    return out


def factor(n: int) -> FactorView:
    """Prime factorization of 1 <= n < 2^64 by Pollard-Brent rho (CapabilityError
    above)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = _prime_factors(n)
    return FactorView(n, tuple((p, primes.count(p)) for p in sorted(set(primes))))


def abundancy(n: int) -> Fraction:
    """sigma(n)/n as an exact reduced fraction."""
    return Fraction(factor(n).sigma, n)


class SigmaSource:
    """Streams SigmaSegments covering [1, limit] in ascending order.

    Segments are sieved on demand (optionally on a thread pool) and, when a
    cache directory is configured (it is made here if missing), persisted in
    the binary segment format so later passes reload instead of resieving.
    Results are deterministic and identical for any thread count.
    """

    def __init__(self, *, segment_length: int = DEFAULT_SEGMENT_LENGTH, threads: int = 1,
                 cache_dir: Optional[str] = None):
        if segment_length < MIN_SEGMENT_LENGTH:
            raise ValueError(f"segment_length must be >= {MIN_SEGMENT_LENGTH}")
        if segment_length > MAX_SEGMENT_LENGTH:
            raise BudgetExceededError("segment_length exceeds the memory budget")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.segment_length = segment_length
        self.threads = threads
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def ranges(self, limit: int) -> Iterator[tuple[int, int]]:
        """The (lo, hi) bounds covering [1, limit], generated as they are taken;
        limit is checked at the call."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if limit > DOMAIN_CAP:
            raise SigmaOverflowError(f"limit {limit} exceeds the domain cap 2^55")
        step = self.segment_length
        return ((lo, min(lo + step - 1, limit)) for lo in range(1, limit + 1, step))

    def _materialize(self, bounds: tuple[int, int]) -> SigmaSegment:
        lo, hi = bounds
        if self.cache_dir is not None:
            from . import cache

            path = os.path.join(self.cache_dir, f"sigma_{lo}_{hi}.sgma")
            if os.path.exists(path):
                try:
                    return cache.read_segment(path)
                except cache.CacheFormatError:
                    pass  # stale or corrupt: resieve and overwrite below
            segment = sieve_segment(lo, hi)
            cache.write_segment(segment, path)
            return segment
        return sieve_segment(lo, hi)

    def segments(self, limit: int) -> Iterator[SigmaSegment]:
        """Yield the segments in order.  With threads, at most threads + 1 are
        requested ahead of the consumer, so memory stays bounded."""
        ranges = self.ranges(limit)
        if self.threads == 1:
            for bounds in ranges:
                yield self._materialize(bounds)
            return
        pool = ThreadPoolExecutor(max_workers=self.threads)
        try:
            pending = deque()
            for bounds in ranges:
                pending.append(pool.submit(self._materialize, bounds))
                if len(pending) > self.threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)

    def table(self, limit: int) -> SigmaSegment:
        """One in-memory segment [1, limit], at most MAX_SEGMENT_LENGTH long."""
        return sieve_segment(1, limit)
