"""The columnar renderers against the per-row f-string and json.dumps they
replace, and the columns of a CheckpointSeries and a SolutionTable."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from withinperfect import cli, emit
from withinperfect.emit import (dioph_json, records_json, records_ndjson, series_csv,
                                series_csv_blocks)
from withinperfect.exact import DiophantineProblem, DiophantineSolution, enumerate_perfect
from withinperfect.types import (CheckpointSeries, SolutionRecord, SolutionTable,
                                 normalized_quotient)


def per_row_csv(xs, counts, quotients) -> str:
    """The reference rendering: one f-string per row."""
    return "x,count,quotient\n" + "".join(
        f"{x},{c},{q:.6f}\n" for x, c, q in zip(xs, counts, quotients))


def half_point(k: int) -> float:
    """The double nearest (k + 1/2)/10^6, where the sixth decimal is a coin toss."""
    return float(Fraction(2 * k + 1, 2 * 10**6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_series_csv_is_the_per_row_rendering(data):
    xs = sorted(data.draw(st.lists(st.one_of(st.just(1), st.integers(1, 2**62)),
                                   max_size=30)))
    counts = data.draw(st.lists(st.integers(0, 2**62), min_size=len(xs), max_size=len(xs)))
    quotients = [normalized_quotient(c, x) for c, x in zip(counts, xs)]  # NaN at x = 1
    assert series_csv(CheckpointSeries(xs, counts)) == per_row_csv(xs, counts, quotients)


def test_series_csv_across_block_edges():
    rng = np.random.default_rng(7)
    xs = list(range(1, 70_001))
    counts = rng.integers(0, 10**6, len(xs)).tolist()
    # count/(x/log x) over rows across four block edges (NaN at x = 1)
    text = series_csv(CheckpointSeries(range(1, 70_001), counts))
    assert text == per_row_csv(xs, counts, [normalized_quotient(c, x)
                                            for c, x in zip(counts, xs)])


def test_quotients_are_math_log_bit_for_bit():
    # np.log differs from math.log by one ulp at 54 of these x on AVX-512 hosts
    x = np.arange(2, 10**6 + 1)
    counts = x // 3 + x % 7
    got = np.array(CheckpointSeries(range(2, 10**6 + 1), counts).quotients)
    expected = np.array([c / (v / math.log(v)) for c, v in zip(counts.tolist(), x.tolist())])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_fast_log_is_within_the_band_assumption():
    # the band of emit._series_block is proved from this bound: a host whose
    # np.log breaks it fails here instead of changing bytes
    x = np.arange(1, 10**6 + 1, dtype=np.float64)
    far = np.random.default_rng(23).integers(2, 2**55, 10**5, endpoint=True).astype(np.float64)
    for column in (x, far):
        exact = np.fromiter(map(math.log, column), dtype=np.float64, count=len(column))
        assert np.all(np.abs(emit._log(column) - exact) <= 2.0**-48 * exact)


def _on_half_point(x: int, k: int) -> list[int]:
    """Counts c whose normalized_quotient(c, x) is half_point(k) and the
    doubles either side of it.  At x near 2^60, for 1/4 <= half_point(k) <
    0.32, the counts lie below 2^53, so they are floats exactly, and the next
    count moves the quotient by 3.6e-17, less than its ulp of 5.6e-17."""
    h = half_point(k)
    counts = round(Fraction(h) * Fraction(x / math.log(x))) + np.arange(-8, 9)
    got = [normalized_quotient(c, x) for c in counts.tolist()]
    return [int(counts[got.index(q)]) for q in (np.nextafter(h, -math.inf), h,
                                                  np.nextafter(h, math.inf))]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(250_000, 319_999), min_size=1, max_size=40))
def test_default_quotients_are_math_log_with_a_skewed_fast_log(ks):
    # the fast log off by 2^-46, four times the asserted bound: the rows on and
    # beside half points fall back to math.log and print the same bytes
    xs = list(range(1, 300)) + [2**60 + 3 * i for i in range(3 * len(ks))]
    counts = [x // 3 for x in range(1, 300)]
    for x, k in zip(xs[299::3], ks):
        counts += _on_half_point(x, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emit, "_log", lambda x: np.log(x) * (1 + 2.0**-46))
        text = series_csv(CheckpointSeries(xs, counts))
    assert text == per_row_csv(xs, counts, [normalized_quotient(c, x)
                                            for c, x in zip(counts, xs)])


def test_series_csv_slow_rows_across_the_render_block_edges():
    # rows that fall back to the f-string straddle both edges of _BLOCK = 2^14
    # rows: NaN quotients (x = 1 < 2) the first, and rows on and beside half
    # points (inside the band) the second
    edge = emit._BLOCK
    ks = [250_001, 299_999, 319_998]
    far = [2**60 + 3 * i for i in range(len(ks)) for _ in range(3)]
    xs = [1] * (edge + 2) + list(range(2, edge - 4)) + far + list(range(2**60 + 9, 2**60 + 20))
    counts = ([x // 3 for x in xs[:2 * edge - 4]]
              + [c for x, k in zip(far[::3], ks) for c in _on_half_point(x, k)] + [7] * 11)
    assert len(xs) == len(counts) and xs[2 * edge - 4:2 * edge + 5] == far
    series = CheckpointSeries(xs, counts)
    assert len(list(series_csv_blocks([series]))) == 1 + 3
    assert series_csv(series) == per_row_csv(xs, counts, [normalized_quotient(c, x)
                                                          for c, x in zip(counts, xs)])


def test_figure1_never_builds_the_exact_quotients(monkeypatch):
    # the CLI renders figure1 from x and count alone; quotient stays unbuilt
    parts = []

    def kept(blocks):
        def each():
            for part in blocks:
                parts.append(part)
                yield part
        return series_csv_blocks(each())

    monkeypatch.setattr(emit, "series_csv_blocks", kept)
    args = cli.build_parser().parse_args(["figure1", "--limit", "300000"])
    text = "".join(cli._dispatch(args, cli.RunConfig()))
    assert len(parts) > 1 and not any("quotient" in vars(p) for p in parts)
    x = np.concatenate([p.x for p in parts]).tolist()
    counts = np.concatenate([p.count for p in parts]).tolist()
    assert x == list(range(2, 300001))
    assert text == per_row_csv(x, counts, [normalized_quotient(c, v)
                                           for c, v in zip(counts, x)])


def test_concat_keeps_the_default_quotient_unbuilt():
    a, b = CheckpointSeries([1, 2], [0, 1]), CheckpointSeries([3, 4], [1, 2])
    lazy = CheckpointSeries.concat([a, b])
    assert "quotient" not in vars(lazy)
    assert lazy == CheckpointSeries([1, 2, 3, 4], [0, 1, 1, 2])


def _texts(block: np.ndarray) -> list[str]:
    """The digits of each column of a _digits block, its 0 bytes dropped."""
    return [bytes(column[column != 0]).decode() for column in block.T]


_DIGIT_EDGES = (0, 9, 10, 10**9 - 1, 10**9, 2**32 - 1, 2**32, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@example([(e, 0) for e in _DIGIT_EDGES])  # a mixed block: some values need int64
@example([(10**9 - 1, 0), (0, 0), (2**32 - 1, 0)])  # all uint32, one of ten digits
@given(st.lists(st.tuples(st.sampled_from(_DIGIT_EDGES), st.integers(-1000, 1000)),
                min_size=1, max_size=12))
def test_digits_in_uint32_and_int64(draws):
    v = np.array([min(max(e + d, 0), 2**63 - 1) for e, d in draws], dtype=np.int64)
    assert _texts(emit._digits(v)) == [str(n) for n in v.tolist()]
    assert _texts(emit._digits(v, 6)) == [str(n).zfill(6)[-6:] for n in v.tolist()]


def test_series_compare_by_value():
    # the result dataclasses that hold a series (PerfectCensus, ...) compare through it
    a = CheckpointSeries(range(1, 4), [0, 1, 2])
    b = CheckpointSeries([1, 2, 3], np.array([0, 1, 2]))
    assert a == b
    # the quotient is derived from x and count, so == builds neither column
    assert "quotient" not in vars(a) and "quotient" not in vars(b)
    assert a != CheckpointSeries([1, 2, 3], [0, 1, 3])
    assert a != CheckpointSeries([1, 2, 4], [0, 1, 2])
    assert enumerate_perfect("2", 10**4) == enumerate_perfect("2", 10**4)
    assert repr(a).startswith("CheckpointSeries(x=array([1, 2, 3]), count=array([0, 1, 2])")


def test_series_columns_must_match():
    # a short count column was accepted, and series_csv repeated its one count
    for counts in ([5], [1, 2, 3, 4], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            CheckpointSeries([10, 20, 30], counts)
    with pytest.raises(ValueError):
        CheckpointSeries([[10, 20, 30]], [1, 2, 3])
    assert len(CheckpointSeries([], [])) == 0


def test_solution_table_columns_must_match():
    n = np.arange(1, 4)
    for i in range(5):
        for bad in (np.arange(2), np.arange(4), np.arange(6).reshape(3, 2)):
            columns = [n, 2 * n, n, n, n]
            columns[i] = bad
            with pytest.raises(ValueError):
                SolutionTable(*columns)
    assert len(SolutionTable.from_records([])) == 0
    # p = 0 marks a sporadic row, so a regular record with p = 0 cannot be a row
    with pytest.raises(ValueError):
        SolutionTable.from_records([SolutionRecord(1, 1, "regular", ((0, 5),))])


_EDGE = (1 << 15) - 1  # rows _EDGE .. _EDGE + 2 straddle the second block edge
_SIZE = _EDGE + 10
_ROW = st.tuples(st.one_of(st.integers(0, 2**62), st.integers(-2**62, -1)),
                 st.integers(-2**62, 2**62),
                 st.one_of(st.just((0, 0)), st.tuples(st.integers(1, 2**62), st.integers(0, 2**62)),
                           st.tuples(st.integers(-2**62, 2**62).filter(bool),
                                     st.integers(-2**62, 2**62))))


@pytest.fixture(scope="module")
def edge_table():
    """Regular and sporadic rows around the block edge at 32,768, and the NDJSON
    of the rows before and after the three edge rows."""
    rng = np.random.default_rng(11)
    n = np.arange(1, _SIZE + 1, dtype=np.int64) * 7919
    sigma_n = 2 * n + rng.integers(0, 10**3, _SIZE)
    p = np.where(rng.random(_SIZE) < 0.3, 0, rng.integers(2, 10**5, _SIZE))
    m = np.where(p == 0, 0, n // np.maximum(p, 1))
    table = SolutionTable(n, sigma_n, np.full(_SIZE, -1), p, m)
    lines = [json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in table]
    return table, "".join(lines[:_EDGE]), "".join(lines[_EDGE + 3:])


@settings(max_examples=4, deadline=None)
@given(edge_rows=st.lists(_ROW, min_size=3, max_size=3))
def test_records_across_a_block_edge(edge_table, edge_rows):
    # the three edge rows are drawn: regular, sporadic, negative (the fallback)
    assert _EDGE + 1 == 2 * emit._BLOCK  # records go _BLOCK to a block: first, middle, last
    base, before, after = edge_table
    columns = [c.copy() for c in (base.n, base.sigma_n, base.q, base.p, base.m)]
    for j, (n, sigma_n, (p, m)) in enumerate(edge_rows):
        for column, value in zip(columns, (n, sigma_n, -1, p, m)):
            column[_EDGE + j] = value
    table = SolutionTable(*columns)
    middle = "".join(json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n"
                     for r in table[_EDGE:_EDGE + 3])
    assert records_ndjson(table) == before + middle + after
    dicts = [r.to_json_dict() for r in table]
    assert records_json(table) == json.dumps(dicts, indent=2) + "\n"
    solution = DiophantineSolution(DiophantineProblem(3, 1, 12, _SIZE), table,
                                   CheckpointSeries([_SIZE], [_SIZE]), False, None, None)
    assert dioph_json(solution) == json.dumps({
        "a": 3, "b": 1, "k": 12, "limit": _SIZE, "regular_family": False,
        "family_anchor": None, "predicted_density": None, "records": dicts}, indent=2) + "\n"
