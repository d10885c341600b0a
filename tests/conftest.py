import pytest

from withinperfect.sieve import sigma_oracle
from withinperfect.within import _decider

ORACLE_LIMIT = 10**5


@pytest.fixture(scope="session")
def oracle_sigma():
    """sigma(n) for n <= 1e5 by trial division, 1-indexed (index 0 unused).

    The independent slow path every brute-force scan in the suite builds on.
    """
    return [0] + [sigma_oracle(n) for n in range(1, ORACLE_LIMIT + 1)]


def decide_segment(threshold, b: int, D, n):
    """(inside, ties) of D < b*k(n) for one threshold: the one row of
    within._decider, a bool mask over n and the ascending int64 offsets of the ties."""
    (inside,), ties = _decider([threshold], b)(D, n)
    return inside, ties


def trial_is_prime(n: int) -> bool:
    """Primality by trial division; deliberately independent of the package."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_factor(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by trial division; independent of the package."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_census(b: int, k: int, limit: int, sigma):
    """Exhaustive congruence census with witness search over all prime divisors."""
    rows = {}
    for n in range(1, limit + 1):
        if (b * sigma[n] - k) % n != 0:
            continue
        witnesses = []
        if k > 0 and k % b == 0:
            for p, e in trial_factor(n):
                m = n // p
                if m % p == 0:
                    continue
                if sigma[m] == k // b and (b * sigma[m]) % m == 0:
                    witnesses.append((p, m))
        witnesses.sort(key=lambda w: w[1])
        rows[n] = ("regular" if witnesses else "sporadic", tuple(witnesses))
    return rows


def brute_diophantine(a: int, b: int, k: int, limit: int, sigma):
    """Exhaustive scan of b*sigma(n) = a*n + k with the regular-family predicate."""
    family = None
    if k > 0 and k % (a * b) == 0 and sigma[k // a] == k // b:
        family = k // a
    rows = {}
    for n in range(1, limit + 1):
        if b * sigma[n] != a * n + k:
            continue
        regular = (family is not None and n % family == 0
                   and trial_is_prime(n // family) and family % (n // family) != 0)
        rows[n] = "regular" if regular else "sporadic"
    return rows
