"""Exception types shared across the package."""


class BudgetExceededError(Exception):
    """A request beyond a documented budget of the sieve: a segment longer than
    sieve.MAX_SEGMENT_LENGTH, more threads than sieve.MAX_THREADS, or a run
    whose estimated cost exceeds sieve.MAX_RUN_COST."""


class SigmaOverflowError(OverflowError):
    """sigma(n) could exceed the 64-bit unsigned range (n above the domain cap)."""


class CapabilityError(Exception):
    """The requested computation exceeds what the sieve is configured to do."""


class InvalidProblemError(ValueError):
    """A problem definition violates its invariants (e.g. k = 0, gcd(a,b) > 1)."""


class InvalidThresholdError(ValueError):
    """A threshold specification is outside its admissible parameter range."""


class CacheFormatError(Exception):
    """A sieve cache file has a bad magic header or unsupported version."""


class CacheChecksumError(CacheFormatError):
    """A sieve cache file failed its CRC32 payload check."""
