"""Sum-of-divisors sieving: segments, the trial-division oracle, factorization,
and the exact integer arithmetic built beside them (primality, cube roots).
The sigma sieve is the package's only sieve.

A segment holds sigma(n) over [lo, hi] and nothing else, in the narrowest
width that holds it: u32 up to hi = U32_SIGMA_LIMIT = 2^27, u64 above
(sigma_dtype).  Every statistic reads SigmaSource.blocks, the int64 columns
(n, sigma(n)) of at most BLOCK_LENGTH = 2^15 elements, whose per-n work stays
in L2, cut from the segments as they come; ``segments``, the sieve-and-cache
layer under it, sieves (or loads from the cache) segment_length elements at a
time.  Blocks of 2^16 held twice the block-sized arrays of every consumer
(figure1 and census peaked about 1.9 MiB higher).  Twice the blocks cost no
CPU because within and distribution decide all the thresholds of a kind in
one call per block; alone, blocks of 2^15 cost table1 11% more, and blocks
of 2^14 cost cdf 30% more.
Its ``table`` (one segment from 1) has no caller in the package and stays only
because the benchmark traces it.  Its ``threads`` pool stays only for the
benchmark's probe, which times one thread against two: every statistic reads
the blocks in order in one process, so the CLI sieves on one thread; two
threads were no faster and held 10 MiB more (0.97x on table1 at 2e7, 1.01x on
census at 1e7, 0.96x on a cold cdf at 2e7; BENCH_31.json).  A run from 1 whose
estimated cost (ranges) exceeds MAX_RUN_COST is refused before any segment is
sieved.

The kernel, _pair_sums, enumerates divisor pairs (d, m/d) with d <= sqrt(hi),
with the bounds of every d computed as numpy columns.  A d with more than
_FEW = 128 multiples in range is one strided numpy add; every larger d goes
through a batched pass, one np.add.at per about _BATCH = 2^14 pair sums, so
no window pays a Python iteration per d (the bucket idea of Oliveira e Silva,
Herzog & Pardi, Math. Comp. 83, 2014, applied to divisors).  Swept in-process:
_FEW = 32 and 64 were up to 50% and 14% slower, 128 to 512 within 5%, 1024 up
to 15%; _BATCH from 2^13 to 2^17 moved no case by 9%.  A strided row was mostly
its own np.arange and ufunc call (12 of 18 ms left with rows of one element, in
the 2^20 segment ending at 2e7), so rows read their pair sums as slices of one
ramp per chunk of d, at most a quarter of the part, if _FEW rows fit in it.

A segment of length L >= _LONG_MIN = 2^18 is sieved by 2-adic parts:
sigma(2^k * m) = (2^(k+1) - 1) * sigma(m) for odd m, so only odd m are
sieved, by odd divisor pairs: for L = 2^22 ending at 2e7, 4.6 L strided
additions instead of 8.9 L, but 1.7 times as many divisors d.  Measured
in-process (best of 5, one core of a 2-vCPU Xeon, numpy 2.4), milliseconds
for the step-1 pairs / the 2-adic parts of the window of length L ending at hi:

    L       hi      pairs / parts       L       hi      pairs / parts
    2^10    2e7     0.21 / 0.21         2^18    1e12    40 / 50
    2^10    1e12    18 / 18             2^19    1e8     12 / 8.4
    2^16    1e9     4.1 / 4.5           2^19    1e12    62 / 60
    2^16    1e12    28 / 41             2^20    2e7     21 / 12
    2^17    2e7     3.7 / 3.2           2^20    1e9     45 / 24
    2^18    2^18    2.1 / 2.2           2^20    1e12    96 / 73
    2^18    1e8     8.3 / 6.2           2^22    2e7     112 / 53
    2^18    1e9     13 / 9.0            2^22    4e9     271 / 133

Before the ramp, a _LONG_MIN of 2^19 left 2^18 windows 20-35% slower, and 2^18
lost only far out (1e12, 21-26%).  DEFAULT_SEGMENT_LENGTH = 2^19 with the ramp
sieves to 2e7 in 0.90-0.96 of the CPU of 2^20 before it (1e8: 1.00, 3e6: 0.98;
interleaved medians) in half the memory; 2^18 took 1.06-1.27.  Factorization is
Pollard-Brent rho, exact below 2^64.  The trial-division oracle stays
deliberately naive; it is the independent cross-check, never the fast path.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, CapabilityError, SigmaOverflowError

#: Above this n, sigma(n) is no longer guaranteed to fit u64 with headroom.
DOMAIN_CAP = 1 << 55

#: Default streaming segment length (elements); see the module docstring.
DEFAULT_SEGMENT_LENGTH = 1 << 19

#: Smallest segment length the streaming source accepts.
MIN_SEGMENT_LENGTH = 1 << 10

#: Longest segment that is sieved; anything longer is refused before allocating.
MAX_SEGMENT_LENGTH = 1 << 25

#: Most work a SigmaSource run from 1 may ask for (SigmaSource.ranges): the n
#: sieved plus, for each of the limit/L segments of length L, a Python
#: iteration per strided d (those with more than _FEW multiples, at most
#: min(isqrt(limit), L // _FEW)) and the numpy bounds of about 2 * isqrt(limit)
#: d (with the 2-adic parts), at 1/32 of an iteration each (21 ns against
#: 0.8 us for a short row from the ramp, 1.2 us with its own np.arange).  A
#: limit of 10^8 costs about 10^8 (figure1 --limit 1e8 takes about 40 s on one
#: core).  The cap is about half an hour of sieving from 1 at the default
#: length, and refuses, before any sieving, a run that would take days or
#: years (figure1 at 1e15, a checkpoint near 2^55).
MAX_RUN_COST = 10**11

#: Most threads a SigmaSource sieves with; it holds at most threads + 1
#: segments, so more are refused before any pool exists.
MAX_THREADS = 64

#: Longest block SigmaSource.blocks yields: the per-n working arrays of one
#: block (int64 n and D, float64 exponents, bool masks) stay in L2, and every
#: consumer's block-sized arrays are half those of 2^16; see the module docstring.
BLOCK_LENGTH = 1 << 15

#: Largest hi whose segment holds sigma as u32; above it, u64.
U32_SIGMA_LIMIT = 1 << 27

#: A segment is sieved by 2-adic parts when its length L >= _LONG_MIN; see
#: the module docstring.
_LONG_MIN = 1 << 18

#: A d with at most _FEW pair sums in range goes through _pair_sums' batched
#: pass, about _BATCH pairs per np.add.at; see the module docstring.
_FEW = 128
_BATCH = 1 << 14

#: Values of d whose bounds _pair_sums computes in one numpy pass.
_CHUNK = 1 << 16

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
    """sigma(n) over [lo, hi] inclusive: sigma[i] = sigma(lo + i).

    sieve_segment and the cache give sigma in the width of the range, u32 up to
    hi = U32_SIGMA_LIMIT and u64 above.

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


def sigma_dtype(hi: int) -> np.dtype:
    """The dtype of sigma over a range ending at hi: u32 up to U32_SIGMA_LIMIT,
    where sigma(n)/n <= H_n <= 1 + ln n gives sigma(n) <= 2^27 * (1 + ln 2^27)
    < 2.7e9 < 2^32, and u64 above."""
    return np.dtype(np.uint32 if hi <= U32_SIGMA_LIMIT else np.uint64)


def _pair_sums(m0: int, mhi: int, step: int) -> np.ndarray:
    """sigma(m) for m = m0, m0 + step, ... <= mhi (step 1, or step 2 from an
    odd m0) by divisor pairs (d, q), d <= q, d*q = m, with d and q in the
    residue class of m0 mod step.  Consecutive such multiples of d are d apart
    in the output, so a d with more than _FEW of them is a strided add of its
    pair sums d + q (from the ramp if in it), at most _CHUNK at a time.  The
    other d's, at offsets start + j*d, are laid out flat, about _BATCH at a
    time, and added by one np.add.at, since distinct d can share an m.

    The bounds of every d are computed as numpy columns, _CHUNK values of d
    at a time, so no temporary is longer than _CHUNK (or _BATCH + _FEW) and
    memory stays O(mhi - m0) up to the domain cap.  A d without a multiple in
    range costs nothing; the squares q = d, where the pair sum counts d twice,
    are corrected in one fancy-index subtraction per chunk.
    """
    dtype, add, arange = sigma_dtype(mhi), np.add, np.arange
    sig = np.zeros((mhi - m0) // step + 1, dtype=dtype)
    top = math.isqrt(mhi) + 1
    for d0 in range(1, top, _CHUNK * step):
        d = np.arange(d0, min(d0 + _CHUNK * step, top), step, dtype=np.int64)
        first = np.maximum(d, -(-m0 // d) | (step - 1))  # ceil(m0/d), odd for step 2
        count = (mhi // d - first) // step + 1  # pair sums of d; < 1 for none
        start = (d * first - m0) // step
        square = first == d
        sig[start[square]] -= d[square].astype(dtype)
        many = count > _FEW
        # a d with more than _CHUNK pair sums takes one row per _CHUNK of them
        pieces = (count[many] - 1) // _CHUNK + 1
        piece = np.arange(pieces.sum()) - (np.cumsum(pieces) - pieces).repeat(pieces)
        dm, qm, cm, im = (v[many].repeat(pieces) for v in (d, first, count, start))
        qm += piece * (_CHUNK * step) + dm  # the first pair sum of each row
        im += piece * (_CHUNK * dm)
        cm = np.minimum(cm - piece * _CHUNK, _CHUNK)
        a, span = int(qm.min()) if len(qm) else 0, min(len(sig) // 4, _CHUNK)
        fit = qm + (cm - 1) * step < a + step * span  # rows the ramp from a holds
        fit &= np.count_nonzero(fit) >= _FEW  # only if enough rows read it to pay for it
        ramp = arange(a, a + step * span, step, dtype) if fit.any() else None
        at = np.where(fit, (qm - a) // step, -1)  # where a row's pair sums start in it
        for dd, q, c, i, o in zip(*(v.tolist() for v in (dm, qm, cm, im, at))):
            row = sig[i : i + c * dd : dd]
            add(row, ramp[o : o + c] if o >= 0 else arange(q, q + c * step, step, dtype), row)
        few = (count > 0) & ~many
        d, c = d[few], count[few]
        flat = np.cumsum(c) - c  # where the pair sums of each d begin in the flat run
        f = first[few] - flat * step  # + step * (place in the flat run): the cofactor
        cuts = np.searchsorted(flat, np.arange(0, flat[-1] + 1 if len(c) else 0, _BATCH))
        for u, v in zip(cuts.tolist(), cuts[1:].tolist() + [len(c)]):
            dd = d[u:v].repeat(c[u:v])
            q = f[u:v].repeat(c[u:v])
            q += arange(flat[u] * step, (flat[v - 1] + c[v - 1]) * step, step)
            np.add.at(sig, (dd * q - m0) >> (step - 1), (q + dd).astype(dtype))  # >>: // step
    return sig


def _sigma_block(lo: int, hi: int) -> np.ndarray:
    """Exact sigma(n) for n in [lo, hi], as u32 up to U32_SIGMA_LIMIT and u64
    above (sigma_dtype).

    A segment of length L = hi - lo + 1 >= _LONG_MIN (the measured crossover
    in the module docstring) is sieved by 2-adic parts: the n = 2^k * m with
    m odd are every (2 << k)-th element from the first, and sigma(n) =
    (2^(k+1) - 1) * sigma(m), with sigma(m) from the odd-only pairs of
    _pair_sums; the last n = 2^tail * m, fewer than MIN_SEGMENT_LENGTH, are one
    step-1 _pair_sums: sigma(n) = sigma(m) / (2p - 1) * (2^(tail+1) p - 1), p
    the 2-part of m.  Each n lies in one part, and each product is a sigma(n),
    so it fits the segment's width.  A shorter segment is one _pair_sums.
    """
    if hi - lo + 1 < _LONG_MIN:
        return _pair_sums(lo, hi, 1)
    sig = np.empty(hi - lo + 1, dtype=sigma_dtype(hi))
    tail = ((hi - lo) // MIN_SEGMENT_LENGTH).bit_length()
    for k in range(tail):
        m0, mhi = -(-lo >> k) | 1, hi >> k  # the odd m with lo <= 2^k * m <= hi
        np.multiply(_pair_sums(m0, mhi, 2), (2 << k) - 1, dtype=sig.dtype,
                    out=sig[(m0 << k) - lo :: 2 << k])
    m0, mhi = -(-lo >> tail), hi >> tail  # every m with lo <= 2^tail * m <= hi
    p = np.arange(m0, mhi + 1, dtype=sig.dtype)
    p &= -p  # the 2-part of each m
    np.multiply(_pair_sums(m0, mhi, 1) // (2 * p - 1), (p << tail + 1) - 1,
                out=sig[(m0 << tail) - lo :: 1 << tail])
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

    Segments are sieved on demand and, when a cache directory is configured
    (it is made here if missing; "" is none), persisted in the binary segment
    format so later passes reload instead of resieving.
    threads > 1 sieves on a pool, which stays only for the benchmark's probe
    of one thread against two (see the module docstring); results are
    deterministic and identical for any thread count.
    """

    def __init__(self, *, segment_length: int = DEFAULT_SEGMENT_LENGTH, threads: int = 1,
                 cache_dir: Optional[str] = None):
        if segment_length < MIN_SEGMENT_LENGTH:
            raise ValueError(f"segment_length must be >= {MIN_SEGMENT_LENGTH}")
        if segment_length > MAX_SEGMENT_LENGTH:
            raise BudgetExceededError("segment_length exceeds the memory budget")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads > MAX_THREADS:
            raise BudgetExceededError(f"threads {threads} exceeds the cap {MAX_THREADS}")
        self.segment_length = segment_length
        self.threads = threads
        self.cache_dir = cache_dir or None  # "" is no cache, as in a config file
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def ranges(self, limit: int) -> Iterator[tuple[int, int]]:
        """The (lo, hi) bounds covering [1, limit], generated as they are taken;
        limit is checked at the call, against the domain cap first and then
        against MAX_RUN_COST (BudgetExceededError), with no segment sieved."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if limit > DOMAIN_CAP:
            raise SigmaOverflowError(f"limit {limit} exceeds the domain cap 2^55")
        step, root = self.segment_length, math.isqrt(limit)
        cost = limit + -(-limit // step) * (min(root, step // _FEW) + root // 16)
        if cost > MAX_RUN_COST:
            raise BudgetExceededError(
                f"sieving [1, {limit}] in segments of {step} costs about {cost:.2e} "
                f"steps, beyond the run budget {MAX_RUN_COST:.0e}")
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
        """The segments in order, as they are sieved; limit is checked at the
        call (ranges).  With threads, at most threads + 1 are requested ahead
        of the consumer, so memory stays bounded."""
        return self._sieved(self.ranges(limit))

    def _sieved(self, ranges: Iterator[tuple[int, int]]) -> Iterator[SigmaSegment]:
        if self.threads == 1:
            for bounds in ranges:
                yield self._materialize(bounds)
            return
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

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

    def blocks(self, limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The int64 columns (n, sigma) of at most BLOCK_LENGTH elements, n
        consecutive and sigma[i] = sigma(n[i]), covering [1, limit] in order,
        cut from the segments of ``segments``; limit is checked at the call.

        sigma is exact in int64, since sigma(n) <= n(1 + ln n) < 2^61 for
        n <= 2^55 (the bound of sigma_dtype).  Each block is the consumer's own
        copy, and the spent segment is let go before the next one is taken.
        """
        return self._cut(self.segments(limit))

    @staticmethod
    def _cut(segments: Iterator[SigmaSegment]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for seg in segments:
            for start in range(0, len(seg), BLOCK_LENGTH):
                sigma = seg.sigma[start:start + BLOCK_LENGTH].astype(np.int64)
                lo = seg.lo + start
                yield np.arange(lo, lo + len(sigma), dtype=np.int64), sigma
            del seg

    def table(self, limit: int) -> SigmaSegment:
        """One in-memory segment [1, limit], at most MAX_SEGMENT_LENGTH long."""
        return sieve_segment(1, limit)
