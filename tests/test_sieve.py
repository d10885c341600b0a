import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from withinperfect import sieve
from withinperfect.errors import (BudgetExceededError, CapabilityError,
                                  SigmaOverflowError)
from withinperfect.sieve import (DOMAIN_CAP, MAX_SEGMENT_LENGTH, MAX_THREADS,
                                 MIN_SEGMENT_LENGTH, U32_SIGMA_LIMIT, _FEW, _LONG_MIN,
                                 FactorView, SigmaSource, _icbrt, _is_prime, _pair_sums,
                                 _sigma_block, abundancy, factor, sieve_segment,
                                 sigma_dtype, sigma_oracle)

from conftest import trial_factor, trial_is_prime


def test_sigma_single_points():
    assert sieve_segment(1, 1).sigma_of(1) == 1
    assert sieve_segment(13, 13).sigma_of(13) == 14
    assert sieve_segment(24, 24).sigma_of(24) == 60  # 1+2+3+4+6+8+12+24


def test_sigma_oracle_points():
    assert sigma_oracle(1) == 1
    assert sigma_oracle(6) == 12  # divisors 1,2,3,6
    assert sigma_oracle(496) == 992  # 496 is perfect


def test_oracle_equivalence_20k():
    seg = sieve_segment(1, 2 * 10**4)
    for n in range(1, 2 * 10**4 + 1):
        assert seg.sigma_of(n) == sigma_oracle(n)


def _is_long(lo, hi):
    """The rule of _sigma_block: 2-adic parts from this length on."""
    return hi - lo + 1 >= sieve._LONG_MIN


def _check_window(lo, hi, samples, seed):
    """_sigma_block against the step-1 pair loop over the whole window, and
    against the oracle at the ends and at seeded samples."""
    sig = _sigma_block(lo, hi)
    assert sig.dtype == sigma_dtype(hi)
    assert np.array_equal(sig, _pair_sums(lo, hi, 1))
    rng = random.Random(seed)
    for i in rng.sample(range(len(sig)), samples) + [0, len(sig) - 1]:
        assert int(sig[i]) == sigma_oracle(lo + i), lo + i
    return sig


@st.composite
def long_windows(draw):
    """A window the 2-adic path takes (lo = 1, odd or even lo) or one element
    too short for it."""
    length = draw(st.integers(_LONG_MIN, _LONG_MIN + 5000))
    side = draw(st.sampled_from(("lo=1", "odd", "even", "too short")))
    if side == "lo=1":
        return 1, length, True
    if side == "too short":
        lo = draw(st.integers(1, 10**6))
        return lo, lo + _LONG_MIN - 2, False
    lo = draw(st.integers(1, 2**29)) * 2 - (side == "odd")
    return lo, lo + length - 1, True


@settings(max_examples=12, deadline=None)
@given(window=long_windows(), seed=st.integers(0, 2**32))
def test_sigma_block_on_both_sides_of_the_long_rule(window, seed):
    # every n in exactly one 2-adic part, parts of 0 or 1 element at the top
    # levels k (2^k > length), and the short path just outside the rule
    lo, hi, long = window
    assert _is_long(lo, hi) == long
    _check_window(lo, hi, 20, seed)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 2**40), length=st.integers(1, 3000))
def test_short_sigma_block_matches_factor(lo, length):
    hi = lo + length - 1
    assert not _is_long(lo, hi)
    sig = _sigma_block(lo, hi)
    for i in sorted({0, length - 1, length // 2, length // 3}):
        assert int(sig[i]) == factor(lo + i).sigma


#: Window lengths at the edges the kernel and the parts rule cut at.
_EDGE_LENGTHS = (MIN_SEGMENT_LENGTH, _LONG_MIN - 1, _LONG_MIN, 3 * 2**16 - 1, 3 * 2**16 + 1)


@st.composite
def batched_windows(draw):
    """A window whose d with at most _FEW multiples (from about L / _FEW on)
    start below sqrt(hi), so the batched pass runs, or lie wholly above it, so
    every d is a strided add."""
    length = draw(st.sampled_from(_EDGE_LENGTHS) | st.integers(1, _LONG_MIN + 5000))
    cut = length // _FEW + 1  # the d with at most _FEW multiples start near here
    if draw(st.booleans()):
        hi = draw(st.integers(max(length, (2 * cut) ** 2), max(length, (2 * cut) ** 2, 2**36)))
    else:
        hi = draw(st.integers(length, max(length, (cut // 2) ** 2)))
    return hi - length + 1, hi


@settings(max_examples=25, deadline=None)
@given(window=batched_windows(), seed=st.integers(0, 2**32))
def test_sigma_block_matches_factor_on_both_sides_of_the_batch_cut(window, seed):
    # every n of a short window, and seeded samples of a long one, against
    # factor(n).sigma; the step-1 pairs and the 2-adic parts agree throughout
    lo, hi = window
    sig = _sigma_block(lo, hi)
    assert sig.dtype == sigma_dtype(hi)
    if _is_long(lo, hi):
        assert np.array_equal(sig, _pair_sums(lo, hi, 1))
    picks = range(len(sig)) if len(sig) <= 4096 else random.Random(seed).sample(range(len(sig)), 200)
    for i in sorted(set(picks) | {0, len(sig) - 1}):
        assert int(sig[i]) == factor(lo + i).sigma, lo + i


@st.composite
def ramp_windows(draw):
    """A window with more than _FEW strided rows in a part, so that _pair_sums
    builds its ramp of pair sums where enough of them fit, some rows reading it
    and some not: from 1, ending near 2e7, or across U32_SIGMA_LIMIT (a u64
    window whose upper parts are u32).  Below _LONG_MIN the window is one
    step-1 part, from it on 2-adic step-2 parts and a step-1 tail."""
    length = draw(st.integers(2**14 + 1, 2**17) | st.integers(_LONG_MIN, 2**19))
    where = draw(st.sampled_from(("from 1", "2e7", "u32 limit")))
    if where == "from 1":
        return 1, length
    hi = (draw(st.integers(2 * 10**7 - 2**20, 2 * 10**7)) if where == "2e7"
          else U32_SIGMA_LIMIT + draw(st.integers(1, length - 1)))
    return hi - length + 1, hi


@settings(max_examples=12, deadline=None)
@given(window=ramp_windows(), seed=st.integers(0, 2**32))
# a strided row whose last pair sum is the first past the ramp, in a step-1
# window and in a step-2 part, at 2e7 and in u64 windows across the u32 limit
@example(window=(18913860, 19026499), seed=0)
@example(window=(18803573, 19303128), seed=0)
@example(window=(134120853, 134243913), seed=0)
@example(window=(133818434, 134246529), seed=0)
@example(window=(DOMAIN_CAP - 3 * 2**13 + 1, DOMAIN_CAP), seed=0)  # rows, none in a ramp
def test_sigma_block_matches_factor_on_both_sides_of_the_ramp(window, seed):
    lo, hi = window
    sig = _sigma_block(lo, hi)
    assert sig.dtype == sigma_dtype(hi)
    if _is_long(lo, hi):
        assert np.array_equal(sig, _pair_sums(lo, hi, 1))
    picks = random.Random(seed).sample(range(len(sig)), 64)
    for i in sorted(set(picks) | {0, len(sig) - 1}):
        assert int(sig[i]) == factor(lo + i).sigma, lo + i


@settings(max_examples=4, deadline=None)
@given(bits=st.integers(33, 55), below=st.integers(0, 2**32),
       length=st.sampled_from((MIN_SEGMENT_LENGTH, 3000)), seed=st.integers(0, 2**32))
@example(bits=55, below=0, length=MIN_SEGMENT_LENGTH, seed=0)
def test_far_sigma_block_matches_factor_and_the_oracle(bits, below, length, seed):
    # a window ending in [2^(bits-1), 2^bits], up to the domain cap, where
    # every d but the first few is batched: each n against factor(n).sigma,
    # and seeded samples against the trial-division oracle (those whose
    # largest prime is below 2^40, so that its loop stays under 2^19 steps)
    hi = 2**bits - below * 2 ** (bits - 33)
    lo = hi - length + 1
    rng = random.Random(seed)
    sig = _sigma_block(lo, hi)
    assert sig.dtype == np.uint64
    views = [factor(n) for n in range(lo, hi + 1)]
    assert sig.tolist() == [view.sigma for view in views]
    smooth = [view.n for view in views if view.largest_prime_factor < 2**40]
    for n in rng.sample(smooth, min(4, len(smooth))):
        assert int(sig[n - lo]) == sigma_oracle(n)


def test_long_window_straddling_the_u32_limit():
    # a u64 segment whose upper 2-adic parts (hi >> k <= 2^27) sieve in u32
    lo, hi = U32_SIGMA_LIMIT - 2**20 + 1, U32_SIGMA_LIMIT + 2**20
    assert _is_long(lo, hi)
    sig = _check_window(lo, hi, 40, hi)
    assert sig.dtype == np.uint64
    boundary = U32_SIGMA_LIMIT - lo
    for i in range(boundary - 8, boundary + 8):
        assert int(sig[i]) == sigma_oracle(lo + i)
    assert int(sig.max()) == sigma_oracle(lo + int(np.argmax(sig)))


def test_parts_past_2_32_from_u32_parts():
    # a u64 segment near 2^31 takes its parts with hi >> k <= 2^27 in u32,
    # and their products sigma(n) reach past 2^32
    lo, hi = 2**31 - 2**19 + 1, 2**31
    assert _is_long(lo, hi)
    sig = _check_window(lo, hi, 20, hi)
    assert int(sig.max()) >= 2**32
    big = np.flatnonzero(sig >= 2**32)
    assert any((lo + int(i)) % 16 == 0 for i in big)  # k >= 4: a u32 part
    for i in big[:: max(1, len(big) // 20)].tolist():
        assert int(sig[i]) == sigma_oracle(lo + i)


def test_long_u64_window_far_out():
    # the shortest long window far out, at 2^40, where sqrt(hi) = 2^20 is
    # four times its length, goes by 2-adic parts; one element shorter does not
    hi = 2**40
    lo = hi - _LONG_MIN + 1
    assert _is_long(lo, hi) and not _is_long(lo + 1, hi)
    sig = _check_window(lo, hi, 10, hi)
    assert sig.dtype == np.uint64


def test_blocks_to_2e7_hold_under_10_mib():
    # a segment of the default length (4 MiB as u32), its largest 2-adic part
    # and the kernel's temporaries; at 2^22 the segment alone is 16 MiB
    tracemalloc.start()
    try:
        for _ in SigmaSource().blocks(2 * 10**7):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak


def test_prime_rows():
    seg = sieve_segment(1, 1000)
    for p in (2, 3, 5, 7, 97, 101, 997):
        assert seg.sigma_of(p) == p + 1


def test_segment_independence():
    whole = sieve_segment(1, 10**4)
    for length in (10**3, 999):
        lo = 1
        while lo <= 10**4:
            hi = min(lo + length - 1, 10**4)
            part = sieve_segment(lo, hi)
            assert np.array_equal(part.sigma, whole.sigma[lo - 1 : hi])
            lo = hi + 1


def test_multiplicativity_random_pairs():
    rng = random.Random(42)
    table = SigmaSource().table(10**7)
    checked = 0
    while checked < 10**4:
        u = rng.randrange(2, 10**4)
        v = rng.randrange(2, 10**7 // u)
        if np.gcd(u, v) != 1:
            continue
        assert table.sigma_of(u * v) == table.sigma_of(u) * table.sigma_of(v)
        checked += 1


def test_hardy_style_bound():
    seg = sieve_segment(1, 10**5)
    n = np.arange(seg.lo, seg.hi + 1).astype(np.float64)
    assert np.all(seg.sigma.astype(np.float64) <= n * (1.0 + np.log(n)) + 1e-9)


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        sieve_segment(1, MAX_SEGMENT_LENGTH + 1)
    with pytest.raises(BudgetExceededError):
        SigmaSource(segment_length=MAX_SEGMENT_LENGTH + 1)


@pytest.mark.parametrize("threads", [MAX_THREADS + 1, 10**3])
def test_threads_beyond_the_cap_are_refused(threads):
    # a pool of n threads holds up to n + 1 segments, so the cap bounds memory
    with pytest.raises(BudgetExceededError, match="exceeds the cap 64"):
        SigmaSource(threads=threads)


def test_overflow_guard():
    with pytest.raises(SigmaOverflowError):
        sieve_segment(DOMAIN_CAP + 1, DOMAIN_CAP + 10)
    with pytest.raises(SigmaOverflowError):
        sigma_oracle(DOMAIN_CAP + 1)


def test_bad_range():
    with pytest.raises(ValueError):
        sieve_segment(0, 10)
    with pytest.raises(ValueError):
        sieve_segment(10, 5)


def test_factor_views():
    assert factor(1) == FactorView(1, ())
    assert factor(1).omega == 0
    assert factor(1).largest_prime_factor == 1
    twelve = factor(12)
    assert twelve.distinct_primes == ((2, 2), (3, 1))
    assert twelve.omega == 2
    assert twelve.largest_prime_factor == 3
    assert factor(97).distinct_primes == ((97, 1),)


def test_factor_spf_chain_matches_trial():
    for n in range(1, 5001):
        assert factor(n).distinct_primes == tuple(trial_factor(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**12))
def test_factored_sigma_matches_the_oracle(n):
    view = factor(n)
    assert view.sigma == sigma_oracle(n)
    assert math.prod(p**e for p, e in view.distinct_primes) == n


def test_factored_sigma_of_semiprimes_near_2_20():
    # two prime factors of about 20 bits each: the case rho, not trial
    # division by the small primes, has to split
    rng = random.Random(20)
    primes = [p for p in range(2**20 - 600, 2**20 + 600) if _is_prime(p)]
    for _ in range(6):
        p, q = rng.choice(primes), rng.choice(primes)
        assert factor(p * q).sigma == sigma_oracle(p * q)
        assert factor(p * q).distinct_primes == (((p, 2),) if p == q
                                                 else tuple((r, 1) for r in sorted((p, q))))


def test_abundancy():
    from fractions import Fraction

    assert abundancy(1) == Fraction(1)
    assert abundancy(6) == Fraction(2)
    assert abundancy(10) == Fraction(9, 5)
    p = 36028797018963913  # a prime just below 2^55
    start = time.perf_counter()
    assert abundancy(p) == Fraction(p + 1, p)
    assert time.perf_counter() - start < 1.0
    factors = ((3, 1), (11, 2), (683, 1), (2971, 1), (48912491, 1))
    assert math.prod(q**e for q, e in factors) == 2**55 + 1
    sigma = math.prod((q ** (e + 1) - 1) // (q - 1) for q, e in factors)
    assert sigma == 52897643937798912
    assert abundancy(2**55 + 1) == Fraction(sigma, 2**55 + 1)


def test_segment_arrays_immutable():
    seg = sieve_segment(1, 100)
    with pytest.raises(ValueError):
        seg.sigma[0] = 5


def test_sigma_multiplicative_across_segments():
    low = sieve_segment(1, 100)
    high = sieve_segment(101, 10100)
    for u, v in ((7, 100), (11, 91), (97, 103)):
        uv = u * v
        left = low.sigma_of(u) * (low.sigma_of(v) if v <= 100 else high.sigma_of(v))
        assert high.sigma_of(uv) == left


def test_source_thread_invariance():
    base = list(SigmaSource(segment_length=2**10).segments(5000))
    threaded = list(SigmaSource(segment_length=2**10, threads=4).segments(5000))
    assert [(s.lo, s.hi) for s in base] == [(s.lo, s.hi) for s in threaded]
    for a, b in zip(base, threaded):
        assert np.array_equal(a.sigma, b.sigma)


def test_source_validation():
    with pytest.raises(ValueError):
        SigmaSource(segment_length=100)
    with pytest.raises(ValueError):
        SigmaSource(threads=0)
    with pytest.raises(SigmaOverflowError):
        SigmaSource().ranges(DOMAIN_CAP + 1)


def test_source_readahead_is_bounded(monkeypatch):
    # stand-in segments, so the unbounded submission of the old pool.map stays cheap
    requested = []

    def materialize(self, bounds):
        requested.append(bounds)
        return bounds

    monkeypatch.setattr(SigmaSource, "_materialize", materialize)
    limit = MIN_SEGMENT_LENGTH << 14  # 16384 segments
    for threads, ahead in ((1, 1), (2, 3)):
        requested.clear()
        stream = SigmaSource(segment_length=MIN_SEGMENT_LENGTH, threads=threads).segments(limit)
        assert next(stream) == (1, MIN_SEGMENT_LENGTH)
        time.sleep(0.1)  # let the pool run whatever was submitted
        assert len(requested) <= ahead
        assert next(stream) == (MIN_SEGMENT_LENGTH + 1, 2 * MIN_SEGMENT_LENGTH)
        time.sleep(0.1)
        assert len(requested) <= ahead + 1
        stream.close()


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round, written out independently of the package."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


#: psi_k with the number k of leading prime bases it fools.
PSEUDOPRIMES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6), (341550071728321, 8),
                (3825123056546413051, 11))
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@settings(max_examples=30, deadline=None)
@given(lo=st.one_of(st.just(1), st.integers(1, 10**6 - 2**12)), width=st.integers(1, 2**12))
def test_is_prime_matches_the_spf_sieve(lo, width):
    # the reference is trial division, independent of the package
    ns = range(lo, lo + width)
    trial = [trial_is_prime(n) for n in ns]
    assert [_is_prime(n) for n in ns] == trial


def test_is_prime_and_prime_mask_match_trial_division_to_1e8():
    rng = random.Random(8)
    for n in [rng.randrange(1, 10**8) for _ in range(1000)] + [99999989, 10**8]:
        assert _is_prime(n) == trial_is_prime(n)


@settings(max_examples=40, deadline=None)
@given(lo=st.one_of(st.just(1), st.integers(1, 10**8)), width=st.integers(1, 2**12))
def test_prime_mask_matches_the_spf_sieve_and_is_prime(lo, width):
    # n is prime exactly when sigma(n) = n + 1 (sigma(1) = 1 < 2)
    hi = lo + width - 1
    sigma = sieve_segment(lo, hi).sigma.tolist()
    assert [_is_prime(n) for n in range(lo, hi + 1)] \
        == [s == n + 1 for n, s in zip(range(lo, hi + 1), sigma)]


def test_is_prime_fixed_cases():
    for psi, k in PSEUDOPRIMES:
        # each psi_k fools the first k bases, so only the next base shows it composite
        assert all(_strong_probable_prime(psi, a) for a in BASES[:k])
        assert not _strong_probable_prime(psi, BASES[k])
        assert not _is_prime(psi)
    for carmichael in (561, 41041, 825265):
        assert not _is_prime(carmichael)
    for p in (2, 3, 37, 41, 2**31 - 1, 2**61 - 1):
        assert _is_prime(p)
    for n in (-7, 0, 1, 4, 37 * 37, 41 * 43):
        assert not _is_prime(n)
    near = [n for n in range(2**27 - 200, 2**27 + 200) if _is_prime(n)]
    assert len(near) >= 6
    for p, q in zip(near, near[1:]):
        assert not _is_prime(p * q) and not _is_prime(p * p)
    assert _is_prime(2**64 - 59)  # the largest prime below 2^64
    with pytest.raises(CapabilityError):
        _is_prime(2**64)


def test_icbrt_at_and_around_cubes():
    rng = random.Random(3)
    roots = list(range(1, 2000)) + [rng.randrange(2, 2**40) for _ in range(500)] \
        + [2**40, 2**55, 2**100 + 7, 3**200]
    for r in roots:
        assert _icbrt(r**3 - 1) == r - 1
        assert _icbrt(r**3) == r
        assert _icbrt(r**3 + 1) == r
    assert _icbrt(0) == 0
    with pytest.raises(ValueError):
        _icbrt(-1)
