#!/usr/bin/env python3
"""Sieving sigma(n) in bulk and cross-checking it the slow way."""

import time

from withinperfect import SigmaSource, abundancy, factor, sieve_segment, sigma_oracle

# A segment is a contiguous block of exact sigma values, u32 up to
# hi = 2^27 and u64 above.  One call covers [lo, hi] regardless of where it
# starts.
seg = sieve_segment(1, 50)
print("n, sigma(n) for small n:")
for n in (1, 2, 6, 12, 24, 28, 49):
    print(f"  {n:>3}  sigma={seg.sigma_of(n):>3}")

# The trial-division oracle is deliberately naive; it exists so every fast
# result can be re-derived independently.
print("\noracle spot checks:", [(n, sigma_oracle(n)) for n in (6, 496, 8128)])

block = sieve_segment(1, 5000)
mism = sum(1 for n in range(1, 5001) if block.sigma_of(n) != sigma_oracle(n))
print(f"sieve vs oracle over [1, 5000]: {mism} mismatches")

# Factorization is Pollard-Brent rho, exact for any n < 2^64.
print("\nfactorizations:")
for n in (360, 9973, 524288, 2**55 + 1):
    view = factor(n)
    print(f"  {n} = {view.distinct_primes}  omega={view.omega} "
          f"largest={view.largest_prime_factor}")

print("\nabundancy ratios sigma(n)/n (exact):",
      {n: str(abundancy(n)) for n in (6, 10, 12, 28)})

# Streaming: a source walks [1, limit] in fixed-size segments, in order,
# optionally caching them on disk.
t0 = time.time()
total = 0
for segment in SigmaSource().segments(2 * 10**6):
    total += int(segment.sigma.sum(dtype=object))
print(f"\nsum of sigma(n) for n <= 2e6: {total}  ({time.time() - t0:.2f}s)")
print("expected scale pi^2/12 * x^2 ~", f"{(3.14159265**2 / 12) * (2e6) ** 2:.3e}")
