"""Sum-of-divisors sieving and the arithmetic statistics built on it:
perfect and multiply perfect censuses, sigma-congruence classification,
within-perfect counting, and the empirical abundancy distribution."""

from .cache import read_segment, write_segment
from .congruence import (CongruenceProblem, SporadicGrowthReport, census,
                         sporadic_growth_report)
from .distribution import (EmpiricalCDF, PhaseReport, ProbeReport, empirical_cdf,
                           phase_experiment, sigma_approx_probe)
from .errors import (BudgetExceededError, CacheChecksumError, CacheFormatError,
                     CapabilityError, InvalidProblemError, InvalidThresholdError,
                     SigmaOverflowError)
from .exact import (DiophantineProblem, DiophantineSolution, GcdSumReport,
                    PerfectCensus, SeriesSums, WirsingReport, enumerate_perfect,
                    gcd_sum, regular_family_anchor, series_partial_sums,
                    solve_diophantine, wirsing_count_check)
from .sieve import (DEFAULT_SEGMENT_LENGTH, DOMAIN_CAP, FactorView, SigmaSegment,
                    SigmaSource, abundancy, factor, sieve_segment, sigma_oracle)
from .types import (CheckpointSeries, RationalTarget, SolutionRecord,
                    SolutionTable, ThresholdSpec, normalized_quotient)
from .within import (LimitCheckReport, REFERENCE_QUOTIENTS, TableOneReport,
                     count_thresholds, series, table1_reproduce, theorem_limit_check)

__version__ = "0.1.0"
