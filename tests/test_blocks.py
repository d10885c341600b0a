"""Block edges and the sieve's dtype boundary.

count_thresholds, empirical_cdf and the linear phase experiment decide in
blocks of at most BLOCK_LENGTH elements cut from each segment, and count
through one checkpoint accumulator.  Their results must not depend on where
segments and blocks end, so each is run at the default segment length, at
1024 and at an unaligned 5000, with checkpoints just before, at and after
multiples of BLOCK_LENGTH.  _sigma_block accumulates in u32 up to
U32_SIGMA_LIMIT and in u64 above; both sides are checked against the oracle.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from withinperfect.distribution import empirical_cdf, phase_experiment
from withinperfect.sieve import (BLOCK_LENGTH, DEFAULT_SEGMENT_LENGTH, U32_SIGMA_LIMIT,
                                 SigmaSource, _sigma_block, factor, sieve_segment,
                                 sigma_oracle)
from withinperfect.types import RationalTarget, ThresholdSpec
from withinperfect.within import count_thresholds

LENGTHS = (DEFAULT_SEGMENT_LENGTH, 1024, 5000)

#: Every threshold kind; the custom one is decided in float64 only.
THRESHOLDS = (ThresholdSpec.power("1/2"), ThresholdSpec.power("7/10"),
              ThresholdSpec.constant("5/2"), ThresholdSpec.linear("1/10"),
              ThresholdSpec.x_over_log(),
              ThresholdSpec.custom(lambda y: 3 * np.sqrt(y)))

#: Query points hit exactly: 7/4 by 4, 2 by the perfect numbers, 21/10 by 20,
#: 3 by 120 and 672; the two beside 2 sit inside its guard band.
GRID = ("3/2", "7/4", "1999999999999/1000000000000", "2",
        "2000000000001/1000000000000", "21/10", "3")


@st.composite
def block_checkpoints(draw):
    """Ascending checkpoints holding k*BLOCK_LENGTH - 1, k*BLOCK_LENGTH and
    k*BLOCK_LENGTH + 1 for k = 1..K, and a few more anywhere below the last."""
    blocks = draw(st.integers(1, 2))
    edges = [k * BLOCK_LENGTH + d for k in range(1, blocks + 1) for d in (-1, 0, 1)]
    more = draw(st.lists(st.integers(1, edges[-1]), max_size=4))
    return sorted(set(edges + more))


@settings(max_examples=8, deadline=None)
@given(checkpoints=block_checkpoints(), target=st.sampled_from(("2", "3/2", "7/2")),
       include_one=st.booleans())
def test_counts_do_not_depend_on_block_edges(checkpoints, target, include_one):
    target = RationalTarget.parse(target)
    limit = checkpoints[-1]
    runs = []
    for length in LENGTHS:
        source = SigmaSource(segment_length=length)
        counts = count_thresholds(target, list(THRESHOLDS), checkpoints, source,
                                  include_one)
        cdfs = [empirical_cdf(limit, GRID, source, inclusive).counts
                for inclusive in (True, False)]
        phase = phase_experiment(target, "linear", checkpoints, source, c="1/4")
        runs.append((counts.strict.tolist(), counts.ties.tolist(), cdfs,
                     phase.densities, phase.references))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("include_one", [True, False])
def test_block_edges_match_brute_force(oracle_sigma, include_one):
    # D < n^(1/2) and D = n^(1/2) for l = 2, and sigma(n)/n <= 2, decided per n
    checkpoints = [1, BLOCK_LENGTH - 1, BLOCK_LENGTH, BLOCK_LENGTH + 1, 10**5]
    strict, ties, below = [], [], []
    s = t = c = 0
    n = 0
    for x in checkpoints:
        while n < x:
            n += 1
            c += oracle_sigma[n] <= 2 * n
            if n == 1 and not include_one:
                continue
            D2 = (oracle_sigma[n] - 2 * n) ** 2
            s += D2 < n
            t += D2 == n
        strict.append(s)
        ties.append(t)
        below.append(c)
    got = count_thresholds("2", [ThresholdSpec.power("1/2")], checkpoints,
                           include_one=include_one)
    assert (got.strict[0].tolist(), got.ties[0].tolist()) == (strict, ties)
    assert empirical_cdf(checkpoints[-1], ["2"]).counts == (below[-1],)


def test_blocks_cut_each_segment():
    source = SigmaSource(segment_length=BLOCK_LENGTH + 1000)
    limit = 3 * BLOCK_LENGTH
    blocks = list(source.blocks(limit))
    assert [(b.lo, b.hi) for b in blocks] == [
        (1, BLOCK_LENGTH), (BLOCK_LENGTH + 1, BLOCK_LENGTH + 1000),
        (BLOCK_LENGTH + 1001, 2 * BLOCK_LENGTH + 1000),
        (2 * BLOCK_LENGTH + 1001, 2 * BLOCK_LENGTH + 2000),
        (2 * BLOCK_LENGTH + 2001, limit)]
    assert all(not b.sigma.flags.writeable for b in blocks)
    whole = sieve_segment(1, limit).sigma
    assert np.array_equal(np.concatenate([b.sigma for b in blocks]), whole)


@pytest.mark.parametrize("hi", [U32_SIGMA_LIMIT, U32_SIGMA_LIMIT + 1024])
def test_sigma_block_at_the_u32_boundary(hi):
    # u32 sums end at hi = 2^27; one element past it the block sums in u64
    lo = hi - 4095
    sig = _sigma_block(lo, hi)
    assert sig.dtype == np.uint64
    assert sig.tolist() == [factor(n).sigma for n in range(lo, hi + 1)]
    rng = random.Random(hi)
    for i in rng.sample(range(len(sig)), 30) + [0, len(sig) - 1, int(np.argmax(sig))]:
        assert int(sig[i]) == sigma_oracle(lo + i)
