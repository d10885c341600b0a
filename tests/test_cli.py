import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from withinperfect import cli
from withinperfect.cache import read_segment
from withinperfect.cli import CACHE_DIR_ENV, apply_config_file, main, RunConfig
from withinperfect import emit, sieve
from withinperfect.emit import records_json, records_ndjson
from withinperfect.errors import BudgetExceededError
from withinperfect.sieve import (DEFAULT_SEGMENT_LENGTH, MAX_RUN_COST, SigmaSegment,
                                 SigmaSource)
from withinperfect.types import SolutionRecord, parse_checkpoints


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count_example(capsys):
    code, out = run_cli(capsys, "count", "--ell", "2", "--threshold", "pow:0.5",
                        "--limit", "30")
    assert code == 0
    assert out == "x,count,quotient\n30,9,1.020359\n"


def test_census_ndjson(capsys):
    code, out = run_cli(capsys, "census", "--b", "1", "--k", "12", "--limit", "50")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    records = [json.loads(line) for line in lines]
    assert [r["n"] for r in records] == [1, 6, 11, 24, 30, 42]
    assert records[5] == {"n": 42, "sigma_n": 96, "classification": "regular",
                          "witness": {"p": 7, "m": 6}}


def test_census_json_format(capsys):
    code, out = run_cli(capsys, "census", "--b", "1", "--k", "12", "--limit", "50",
                        "--format", "json")
    assert code == 0
    assert [r["n"] for r in json.loads(out)] == [1, 6, 11, 24, 30, 42]


def test_perfect_json_and_csv(capsys):
    code, out = run_cli(capsys, "perfect", "--ell", "2", "--limit", "10000")
    assert code == 0
    assert json.loads(out)["members"] == [6, 28, 496, 8128]
    code, out = run_cli(capsys, "perfect", "--ell", "2", "--limit", "10000",
                        "--checkpoints", "100,10000", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("100,2,")


def test_dioph_json(capsys):
    code, out = run_cli(capsys, "dioph", "--a", "2", "--b", "1", "--k", "12",
                        "--limit", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["regular_family"] is True
    assert payload["family_anchor"] == 6
    assert payload["predicted_density"] == "1/6"
    assert [r["n"] for r in payload["records"]] == [24, 30, 42, 54, 66, 78]


def test_figure_series(capsys):
    code, out = run_cli(capsys, "figure1", "--limit", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,count,quotient"
    assert len(lines) == 50  # header + x = 2..50
    assert lines[1] == "2,2,0.693147"


def test_cdf_and_probe_and_gcdsum(capsys):
    code, out = run_cli(capsys, "cdf", "--limit", "10", "--grid", "0.5,1,1.9,2")
    assert code == 0
    assert out.splitlines()[1:] == ["0.5,0.000000", "1,0.100000",
                                    "1.9,0.900000", "2,1.000000"]
    code, out = run_cli(capsys, "probe", "--ell", "2", "--depth", "3",
                        "--search-limit", "100")
    assert code == 0
    assert out.splitlines()[-1].startswith("6,2,0")
    code, out = run_cli(capsys, "gcdsum", "--x", "8")
    assert code == 0
    assert "8,3,4," in out


@pytest.mark.parametrize("x, row", [
    (8, "8,3,4,1.736111e-01,1.500000e+00,0.115741,0.347222"),
    (27, "27,4,9,3.175455e-01,1.000000e+00,0.317546,0.952637"),
    (1000, "1000,11,100,2.301623e-01,3.000000e-01,0.767208,2.301623"),
    (1000001, "1000001,101,10000,6.030608e-02,2.999999e-02,2.010203,6.030610"),
])
def test_gcdsum_bytes(capsys, x, row):
    code, out = run_cli(capsys, "gcdsum", "--x", str(x))
    assert code == 0
    assert out == f"x,m_lo,m_hi,value,bound,bound_ratio,scaled\n{row}\n"


#: Checkpoints on and beside the edges of 1024-element segments.
EDGE_CHECKPOINTS = "1,2,3,1023,1024,1025,2048,2049,5000,20000"


@pytest.mark.parametrize("argv, digest", [
    (["series", "--ell", "2", "--threshold", "xlog"],
     "5a0b50f0f0e573b58cc77822323c470943a89f96f6f3eea9dc876ebfaac52b3b"),
    (["series", "--ell", "2", "--threshold", "xlog", "--non-strict"],
     "5a0b50f0f0e573b58cc77822323c470943a89f96f6f3eea9dc876ebfaac52b3b"),
    (["series", "--ell", "2", "--threshold", "xlog", "--from-two"],
     "cf55c483d05f276b66088e367943649d3ad5ff4c83dc342163e7f7488ecd0be1"),
    (["series", "--ell", "2", "--threshold", "pow:1/2", "--at-limit"],
     "97da30a53abbcf8da68da8ff26f0005b9f62132ccff2eb61ef81f7a690b03ed2"),
    (["series", "--ell", "2", "--threshold", "const:2"],
     "478c0426bbfc4d711a5fa7351c350c3c4239d8d535281a5d61d867fb6bcf3697"),
    (["series", "--ell", "2", "--threshold", "lin:1/10"],
     "083abee05262606a8ad86954d1eca639507799cc1a379e0763835962184c146c"),
    (["phase", "--ell", "2", "--regime", "linear", "--c", "1/10"],
     "1630150480a1051d5eee022ce20e20be2fe4ac893323ce886d96cddac0c20779"),
    (["phase", "--ell", "2", "--regime", "sublinear"],
     "8f02b25c2384afdcd1279359fa73d6a40f69733ef9f5b2dfd2e3d7663cbdf931"),
    (["phase", "--ell", "2", "--regime", "superlinear"],
     "9123296f203ff136ef1542366abd6b2f3730cf990af519bc1e4e374d2dd1497a"),
])
def test_decide_consumers_bytes(capsys, argv, digest):
    code, out = run_cli(capsys, "--segment-length", "1024", *argv,
                        "--checkpoints", EDGE_CHECKPOINTS)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["figure1", "--limit", "100000"],
     "fa6b4f2cf75204a84bd4b324e61b433d2528b012647c08de8e727b8659144778"),
    (["--non-strict", "figure1", "--limit", "100000"],
     "fa6b4f2cf75204a84bd4b324e61b433d2528b012647c08de8e727b8659144778"),
    (["--from-two", "figure1", "--limit", "100000"],
     "c8a2bb1d29edf3671020b126691d947457434ee658e3b01792e81f3871b9e263"),
    (["--at-limit", "figure1", "--limit", "2000"],
     "53be0f3d83b296af39a0621cec956ae70d6ba567461ed97501f6ed43af5c8861"),
    (["series", "--ell", "2", "--threshold", "pow:1/2", "--checkpoints", "1,2,10,1e5"],
     "9b06c60830e041f712721f5f17e6545e5c7aa382408b14d232861e518373e3b7"),
    (["perfect", "--ell", "2", "--limit", "10000", "--checkpoints", "10,1e4",
      "--format", "csv"],
     "2298cf7fdc3f0a9425b86cec559088c2873d616fbf83c43b81bf95617a61c9dd"),
    (["sporadic", "--b", "1", "--k", "1", "--checkpoints", "1e3,1e4"],
     "df3b67a0613e4d37f75f8c763f5bc5ca73436f47a2a5e5292165d337e47f3acf"),
    # the text renderings and the dioph series, stdout only (stderr has elapsed:)
    (["table1", "--format", "table"],
     "3bd07f750bbc639e1db4c92652baddaa6bbd987f69484c3d810b84190e56ad0f"),
    (["sporadic", "--b", "1", "--k", "12", "--checkpoints", "1e3,1e5", "--format", "table"],
     "f087400b2d94b9e297a278b70d3c247a02e2e972944b86f358f7dd4cee89df1a"),
    (["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "1e6",
      "--checkpoints", "1e2,1e4,1e6", "--format", "csv"],
     "23c48e1bbaacf1b591d24e37315bd6ad614c3f13689740386f239b6742be0bd0"),
])
def test_series_csv_bytes(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    # sporadic rows among the regular ones
    (["census", "--b", "1", "--k", "12", "--limit", "300000", "--format", "json"],
     "7c7491c461128fa0ed6ceb32cce7d55be4533324601f8d737f42a3e70ef8d455"),
    # records nested in the payload, and the same records as NDJSON
    (["dioph", "--a", "3", "--b", "1", "--k", "12", "--limit", "1000000"],
     "a4f4b06bc4336393ae52dc921c42ed7053902cc673294533f0a8b8d6b26c3a98"),
    (["dioph", "--a", "3", "--b", "1", "--k", "12", "--limit", "1000000",
      "--format", "ndjson"],
     "53fa57c6619fbc47921ee6f8d851a557e714ed89f5be5a3e998ed589c0c705b6"),
    # NaN ratios at x = 1 and 2
    (["wirsing", "--ell", "2", "--checkpoints", "1,2,10,100,1e4,1e5"],
     "be72119f12a730650b650faad4ad6d240aa20e7198bc4438faba29bbb4c7c890"),
    # anchor m = 2, and candidates such as 8 = 4*2 whose p is composite
    (["census", "--b", "2", "--k", "6", "--limit", "100000", "--format", "json"],
     "aa527350643e978b24142ff702c3985c2ce5dace91e4dbd23f20d0253571473e"),
    # the regular family: anchor m = 6, witnesses (p, 6)
    (["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "1e6"],
     "1011eeec76d69120d91d5c90ffb594bfc9fa16d51e2b061b243bc9d9746d8c21"),
    (["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "1e6", "--format", "ndjson"],
     "a8eeee02a4da594dc8ca029d93b229c1142777eb5886ec92a0d9f284a8464068"),
    # k = 0: the multiply perfect n and n = 1, with their q
    (["census", "--b", "1", "--k", "0", "--limit", "1e5"],
     "fb5b3ba7d2737e7228294c921ac73503172f45b31cd8a34f376aecabef2d8524"),
])
def test_records_and_wirsing_bytes(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sieve_total_is_exact_past_u64(capsys, monkeypatch):
    # 16 values near 2^61: their u64 sum wraps, the printed total must not
    sigma = np.uint64(2**61) - np.arange(16, dtype=np.uint64) * np.uint64(2**31 + 7)
    monkeypatch.setattr(cli, "sieve_segment", lambda lo, hi: SigmaSegment(lo, hi, sigma.copy()))
    assert int(sigma.sum(dtype=np.uint64)) != sum(sigma.tolist())
    code, out = run_cli(capsys, "sieve", "--lo", "1", "--hi", "16")
    assert code == 0
    assert out == f"lo,hi,length,sigma_total\n1,16,16,{sum(sigma.tolist())}\n"


#: sha256 of the --at-limit outputs (plain, --non-strict, --from-two) of the
#: per-checkpoint loop that the at-limit rows of count_thresholds replaced.
AT_LIMIT_DIGESTS = [
    (["series", "--ell", "2", "--threshold", "pow:1/2", "--checkpoints", EDGE_CHECKPOINTS],
     ("97da30a53abbcf8da68da8ff26f0005b9f62132ccff2eb61ef81f7a690b03ed2",
      "e6b67898ce07ac405fd0cf153c5ff98ba7085c492e2b25bc776026084b2b4b0c",
      "1dc7f9ab7744c1ffdccef822bdcac7a783e3c709a7c7c707b822a79841c22bad")),
    (["series", "--ell", "2", "--threshold", "xlog", "--checkpoints", EDGE_CHECKPOINTS],
     ("f0a68e1ba1e645596bbe11d5fc15e75126c02938ec7c8b8896f82a13eb3081cf",
      "f0a68e1ba1e645596bbe11d5fc15e75126c02938ec7c8b8896f82a13eb3081cf",
      "a421c91751445b2dedeb49e66e83beb0c053a2b9d586f6ea87dbbfb51a31bd20")),
    (["series", "--ell", "2", "--threshold", "const:2", "--checkpoints", EDGE_CHECKPOINTS],
     ("478c0426bbfc4d711a5fa7351c350c3c4239d8d535281a5d61d867fb6bcf3697",
      "2ab9090aa4911f19c2b93532aee687d5245806688a8ccdc587deba165816f0f1",
      "1c60a033134faf2febcb5ce44e2a68fe28d82b79814e06eaea8fba2402e4a198")),
    (["series", "--ell", "2", "--threshold", "lin:1/10", "--checkpoints", EDGE_CHECKPOINTS],
     ("d1376744b4ac4f8146a2cb65eac475367e96b4ce7cd54e9df10279e6e9423f4e",
      "03bc162aa64f848d4fcb18e08309ebf8806516b5d375654c87c6a5a8624f03f0",
      "4ef87dfb24550b8b4c0e242ddb0dabebcd9ebc9dd4954611c2eff7266811a411")),
    (["figure1", "--limit", "40000"],
     ("0cc20e118e6d0e407f1a599ddfbd30a9f7b5b8126af3fa621d6f65fdf9d1e3d9",
      "0cc20e118e6d0e407f1a599ddfbd30a9f7b5b8126af3fa621d6f65fdf9d1e3d9",
      "557fffa3a06ff58a54d87a8e4f20e0926e5423e4c3df96f0e3142ab51ff57e8e")),
]


@pytest.mark.parametrize("segment", [[], ["--segment-length", "1024"]])
@pytest.mark.parametrize("convention", [0, 1, 2])
@pytest.mark.parametrize("argv, digests", AT_LIMIT_DIGESTS)
def test_at_limit_bytes(capsys, segment, convention, argv, digests):
    flags = ([], ["--non-strict"], ["--from-two"])[convention]
    code, out = run_cli(capsys, *segment, "--at-limit", *flags, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[convention]


def test_cdf_bytes_with_tie_points(capsys):
    # sigma(6)/6 = 2 and sigma(20)/20 = 21/10 sit exactly on grid points
    code, out = run_cli(capsys, "--segment-length", "1024", "cdf", "--limit", "20000",
                        "--grid", "1.5,2,21/10,3")
    assert code == 0
    assert out == "u,value\n1.5,0.427850\n2,0.752350\n21/10,0.804150\n3,0.979800\n"


def test_phase_csv(capsys):
    code, out = run_cli(capsys, "phase", "--ell", "2", "--regime", "sublinear",
                        "--checkpoints", "1000,10000")
    assert code == 0
    assert out.splitlines()[0] == "x,density,reference_value"


def test_phase_slope_option_not_swallowed_by_abbreviation(capsys):
    # --c must reach the subparser even though it prefixes --config/--cache-dir
    code, out = run_cli(capsys, "phase", "--ell", "2", "--regime", "linear",
                        "--c", "0.1", "--checkpoints", "10000")
    assert code == 0
    assert out.splitlines()[1].startswith("10000,")


def test_phase_linear_slope_far_below_an_ulp_is_exact(capsys):
    # the window 2 - c < sigma(n)/n < 2 + c holds only the perfect numbers
    code, out = run_cli(capsys, "phase", "--ell", "2", "--regime", "linear",
                        "--c", "1e-15", "--checkpoints", "1e3,1e5")
    assert code == 0
    assert out == ("x,density,reference_value\n1000,0.003000,0.003000\n"
                   "100000,0.000040,0.000040\n")


@pytest.mark.parametrize("argv", [
    ("perfect", "--ell", "2", "--limit", "100", "--checkpoints", "10,10000"),
    ("dioph", "--a", "3", "--b", "1", "--k", "12", "--limit", "1000",
     "--checkpoints", "1000,100000"),
])
def test_checkpoints_beyond_the_limit_exit_1(capsys, argv):
    # a census to the limit would count nothing past it at the last checkpoint
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checkpoint ") and "exceeds the limit" in captured.err


def test_sporadic_csv(capsys):
    code, out = run_cli(capsys, "sporadic", "--b", "1", "--k", "12",
                        "--checkpoints", "100,1000")
    assert code == 0
    assert out.splitlines()[0] == "x,count,quotient"


def test_wirsing_csv(capsys):
    code, out = run_cli(capsys, "wirsing", "--ell", "2", "--checkpoints", "10,10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,count,ratio"
    assert lines[1].startswith("10,1,")  # only 6 that low; ratio finite
    assert lines[2].startswith("10000,4,")


def test_validation_exit_codes(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1          # unknown subcommand
    assert run_cli(capsys)[0] == 1                      # missing subcommand
    assert run_cli(capsys, "count", "--ell", "x/y", "--threshold", "pow:0.5",
                   "--limit", "10")[0] == 1             # malformed rational
    assert run_cli(capsys, "count", "--ell", "2", "--threshold", "pow:2",
                   "--limit", "10")[0] == 1             # exponent outside (0,1)
    assert run_cli(capsys, "dioph", "--a", "3", "--b", "2", "--k", "0",
                   "--limit", "10")[0] == 1             # k = 0 invalid


def test_capability_exit_codes(capsys):
    assert run_cli(capsys, "table1", "--limit", "1000")[0] == 2
    huge = str((1 << 55) + 10)
    assert run_cli(capsys, "sieve", "--lo", "1", "--hi", huge)[0] == 2


@pytest.mark.parametrize("argv", [
    ("count", "--ell", "2", "--threshold", "pow:1/2", "--limit", "1e30"),
    ("series", "--ell", "2", "--threshold", "xlog", "--checkpoints", "10,1e30"),
    ("cdf", "--limit", "1e400", "--grid", "2"),
])
def test_limits_beyond_int64_hit_the_domain_cap(capsys, argv):
    # refused as beyond 2^55 before an int64 column of them is built
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: limit ") and err.endswith(
        " exceeds the domain cap 2^55\n")


def _no_sieving(monkeypatch):
    """Make any segment that is sieved or read fail the test."""
    def refuse(self, bounds):
        raise AssertionError(f"segment {bounds} taken")

    monkeypatch.setattr(SigmaSource, "_materialize", refuse)


def test_figure1_beyond_memory_exits_2(capsys, monkeypatch):
    # streamed, the 10^15 checkpoints would take years, not memory: refused
    # by the run budget before any sieving, with one error line
    _no_sieving(monkeypatch)
    assert main(["figure1", "--limit", "1e15"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: sieving [1, 1000000000000000] in segments of ")
    assert err.endswith(f" beyond the run budget {MAX_RUN_COST:.0e}\n")


@pytest.mark.parametrize("argv", [
    ("series", "--ell", "2", "--threshold", "pow:0.5", "--checkpoints", "1.2345678901234567e16"),
    ("count", "--ell", "2", "--threshold", "xlog", "--limit", "2e11"),
    ("census", "--b", "1", "--k", "1", "--limit", "1e12", "--format", "json"),
    ("--segment-length", "1024", "figure1", "--limit", "3e10"),
])
def test_a_run_beyond_the_budget_exits_2_before_any_sieving(capsys, monkeypatch, argv):
    _no_sieving(monkeypatch)
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: sieving [1, ") and "beyond the run budget" in err


def test_the_run_budget_leaves_every_tier_one_size_well_under_the_cap(monkeypatch):
    # figure1 at 1e8, and table1 at 2e7 in the shortest segments, cost about
    # 10^3 times less than the cap; the cap sits below sieving 10^11 from 1
    monkeypatch.setattr(sieve, "MAX_RUN_COST", MAX_RUN_COST // 900)
    for limit, length in ((10**8, DEFAULT_SEGMENT_LENGTH), (2 * 10**7, 1024)):
        SigmaSource(segment_length=length).ranges(limit)
    monkeypatch.undo()
    SigmaSource().ranges(MAX_RUN_COST // 2)
    with pytest.raises(BudgetExceededError):
        SigmaSource().ranges(MAX_RUN_COST)


def test_the_default_length_takes_every_run_that_2_22_took_at_isqrt_per_segment():
    # the largest limit accepted in segments of 2^22 when each segment cost
    # isqrt(limit) strided adds, limit + (limit / 2^22) * isqrt(limit), is
    # accepted at the default length; both estimates grow with the limit
    limit = 93214485250
    assert limit + -(-limit // 2**22) * math.isqrt(limit) <= MAX_RUN_COST
    SigmaSource().ranges(limit)


def test_the_run_budget_edge_at_the_default_length(capsys, monkeypatch):
    # each segment of 2^19 is priced: the largest limit accepted at the
    # default length is 95721881600, and the limits up to 97426309900 that
    # 2^20 segments took are refused with exit 2, before any sieving
    assert DEFAULT_SEGMENT_LENGTH == 2**19
    SigmaSource().ranges(95721881600)
    for limit in (95721881601, 97426309900):
        with pytest.raises(BudgetExceededError):
            SigmaSource().ranges(limit)
    SigmaSource(segment_length=2**20).ranges(97426309900)
    _no_sieving(monkeypatch)
    assert main(["count", "--ell", "2", "--threshold", "xlog", "--limit", "95721881601"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "beyond the run budget" in err


def test_table1_beyond_the_published_grid_exits_1(capsys, monkeypatch):
    # the grid stops at 2e7; a larger limit is refused rather than ignored
    _no_sieving(monkeypatch)
    assert main(["table1", "--limit", "20000001"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: the published grid stops at 20000000, "
                                 "got limit 20000001\n")


def test_at_limit_linear_beyond_int64_is_exact(capsys):
    # 2^59 * 8 reaches 2^62 at the top checkpoint; every n <= x is inside
    for checkpoints, counts in (("3,5,8", [3, 5, 8]), ("3,5,7", [3, 5, 7])):
        code, out = run_cli(capsys, "--at-limit", "series", "--ell", "2", "--threshold",
                            f"lin:{2**59}", "--checkpoints", checkpoints)
        assert code == 0
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == counts


@pytest.mark.parametrize("threshold, line", [
    ("lin:1e-15", "100000,4,"),   # |sigma(n)/n - 2| < 1e-15: the perfect numbers
    ("const:1e30", "100000,100000,"),
    ("const:1e400", "100000,100000,"),  # beyond float64: every n
])
def test_constant_and_linear_thresholds_far_from_one_are_exact(capsys, threshold, line):
    code, out = run_cli(capsys, "count", "--ell", "2", "--threshold", threshold,
                        "--limit", "1e5")
    assert code == 0
    assert out.splitlines()[1].startswith(line)


def test_cache_dir_under_a_regular_file_exits_2(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    assert run_cli(capsys, "--cache-dir", str(tmp_path / "file" / "cache"), "count",
                   "--ell", "2", "--threshold", "pow:0.5", "--limit", "30")[0] == 2


def test_sieve_total_of_a_u32_segment(capsys):
    # a u32 segment is summed by its 16-bit halves; sigma(n) >= 2^16 here
    from withinperfect.sieve import sigma_oracle

    code, out = run_cli(capsys, "sieve", "--lo", "60000", "--hi", "70000")
    assert code == 0
    total = sum(sigma_oracle(n) for n in range(60000, 70001))
    assert out == f"lo,hi,length,sigma_total\n60000,70000,10001,{total}\n"


def test_sieve_cache_roundtrip(capsys, tmp_path):
    path = tmp_path / "seg.sgma"
    code, out = run_cli(capsys, "sieve", "--lo", "1", "--hi", "1000",
                        "--cache-path", str(path))
    assert code == 0
    assert out.splitlines()[1].startswith("1,1000,1000,")
    seg = read_segment(str(path))
    assert seg.sigma_of(24) == 60


def test_out_file_lf_no_bom(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, _ = run_cli(capsys, "count", "--ell", "2", "--threshold", "pow:0.5",
                      "--limit", "30", "--out", str(target))
    assert code == 0
    blob = target.read_bytes()
    assert blob == b"x,count,quotient\n30,9,1.020359\n"
    assert not blob.startswith(b"\xef\xbb\xbf")


def _fail_on_second_block(monkeypatch):
    """Make the second rendered series block fail, after the header and one
    block of rows have been handed to the writer."""
    calls = []
    render = emit._series_block

    def failing(*columns):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("injected failure after the first block")
        return render(*columns)

    monkeypatch.setattr(emit, "_series_block", failing)
    return calls


def test_a_failure_mid_stream_keeps_the_out_file(capsys, monkeypatch, tmp_path):
    # the blocks go to a temporary file that is removed: no partial file, and
    # the target keeps its old bytes
    target = tmp_path / "figure1.csv"
    target.write_bytes(b"old bytes\n")
    calls = _fail_on_second_block(monkeypatch)
    assert main(["figure1", "--limit", "200000", "--out", str(target)]) == 2
    assert capsys.readouterr().err == "error: injected failure after the first block\n"
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["figure1.csv"]
    target.unlink()  # and a target that did not exist is not made
    calls.clear()
    assert main(["figure1", "--limit", "200000", "--out", str(target)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_a_failure_mid_stream_leaves_whole_blocks_on_stdout(capsys, monkeypatch):
    # stdout has the header and the first block of rows, a prefix of the
    # artifact that ends at a row, then the one error line
    code, whole = run_cli(capsys, "figure1", "--limit", "200000")
    assert code == 0
    _fail_on_second_block(monkeypatch)
    assert main(["figure1", "--limit", "200000"]) == 2
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: injected failure")
    assert out.endswith("\n") and whole.startswith(out)
    assert out.count("\n") == 1 + emit._BLOCK  # x = 2..2^14 + 1


def test_out_to_a_fifo_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    code = main(["figure1", "--limit", "100000", "--out", str(fifo)])
    reader.join(timeout=60)
    assert code == 0
    run_cli(capsys, "figure1", "--limit", "100000")  # clears capsys
    _, want = run_cli(capsys, "figure1", "--limit", "100000")
    assert got == [want.encode()]
    assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_out_through_a_symlink_replaces_its_target(capsys, tmp_path):
    target = tmp_path / "real.csv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["count", "--ell", "2", "--threshold", "pow:0.5", "--limit", "30",
                 "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"x,count,quotient\n30,9,1.020359\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


#: figure1 and census artifacts across block and segment edges, the digests
#: taken before they were streamed.
STREAM_DIGESTS = [
    (["figure1", "--limit", "300000"],
     "d3cea2513c8bc0897aebb184d1ecd2ec011aa201c04d5a430c15a10a7cd228b7"),
    (["census", "--b", "1", "--k", "12", "--limit", "300000"],
     "6d6f1d4fe017b60a98064698f51295d2bab35058b173bb06ced42f204dc29bd7"),
    (["census", "--b", "1", "--k", "12", "--limit", "300000", "--format", "json"],
     "7c7491c461128fa0ed6ceb32cce7d55be4533324601f8d737f42a3e70ef8d455"),
    (["census", "--b", "2", "--k", "6", "--limit", "300000", "--format", "json"],
     "db3c017e3d45826169a8c3b278d7c54fc309c68a6dd0d639eef46bccebc293a7"),
]


@pytest.mark.parametrize("length", ["1024", str(3 * 2**15 - 1), str(3 * 2**15 + 1),
                                    str(3 * 2**16 - 1), str(3 * 2**16 + 1)])
@pytest.mark.parametrize("argv, digest", STREAM_DIGESTS)
def test_streamed_bytes_across_segment_edges(capsys, length, argv, digest):
    code, out = run_cli(capsys, "--segment-length", length, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture(scope="session")
def peak_kib(tmp_path_factory):
    """VmHWM of a child process that runs the CLI on argv, its artifact to /dev/null.

    The package and every module the children import are byte-compiled once,
    into a temporary PYTHONPYCACHEPREFIX: with PYTHONDONTWRITEBYTECODE set and
    no __pycache__ under src, each child would otherwise compile the package
    on import, and its peak would be the compiler's as much as the CLI's (a
    tiny run 1.3 MiB higher)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path_factory.mktemp("pycache")),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    writing = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", src], env=writing, check=True,
                   capture_output=True)
    # mpmath is imported on first use (the exact y/log y sign), so it is compiled here too
    subprocess.run([sys.executable, "-c", "import withinperfect.cli, mpmath"], env=writing,
                   check=True)
    code = ("import os, sys, withinperfect.cli as cli\n"
            "assert cli.main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))")

    def peak(*argv: str) -> int:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        return int(out.split()[1])
    return peak


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_figure1_memory_is_set_by_the_segment_not_the_output(peak_kib):
    # ten times the checkpoints, the same peak: nothing grows with the series
    small, large = (peak_kib("--segment-length", "65536", "figure1", "--limit", limit)
                    for limit in ("2e5", "2e6"))
    assert large - small < 8 * 1024, (small, large)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_figure1_costs_little_more_memory_than_one_count_of_its_threshold(peak_kib):
    # the same sieve and decide with one checkpoint, against 10^6 checkpoints
    # counted and rendered: the difference is one block of rows, one counter
    # grid and the decided candidates
    figure = peak_kib("figure1", "--limit", "1e6")
    count = peak_kib("series", "--ell", "2", "--threshold", "xlog", "--checkpoints", "1e6")
    assert figure - count < 6 * 1024, (figure, count)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_at_limit_figure1_holds_little_more_than_figure1(peak_kib):
    # the at-limit rows keep each block's hits that are due at a later
    # checkpoint; a view of the rest kept every block's whole sorted chunk
    # alive until its last hit was due (27 MiB more than figure1 at 1e6)
    at_limit = peak_kib("--at-limit", "figure1", "--limit", "1e6")
    plain = peak_kib("figure1", "--limit", "1e6")
    assert at_limit - plain < 15 * 1024, (at_limit, plain)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_at_limit_figure1_grows_little_with_the_limit(peak_kib):
    # the hits pending at later checkpoints grow with the limit: as int32
    # indices, and in the tie row only for the ties, three times the limit
    # holds 1.8 MiB more (3.8 MiB with int64 indices and every hit
    # pending in the tie row too)
    small, large = (peak_kib("--at-limit", "figure1", "--limit", limit)
                    for limit in ("1e6", "3e6"))
    assert large - small < 3 * 1024, (small, large)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_figure1_and_census_hold_little_more_than_a_tiny_sieve(peak_kib):
    # above the interpreter, numpy and one small segment, what remains is a
    # segment and the block-sized arrays of the count or classify and the
    # render: 8.2 and 6.0 MiB with blocks of 2^15, 10.0 and 7.9 with 2^16
    base = peak_kib("sieve", "--lo", "1", "--hi", "1000")
    figure = peak_kib("figure1", "--limit", "1e6")
    census = peak_kib("census", "--b", "1", "--k", "1", "--limit", "3e6")
    assert figure - base < 9 * 1024, (figure, base)
    assert census - base < 7 * 1024, (census, base)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_sporadic_memory_is_set_by_the_segment_not_the_census(peak_kib):
    # the report held every census row to count its sporadic ones: 134 MiB at 2e7
    peak = peak_kib("sporadic", "--b", "1", "--k", "1", "--checkpoints", "1e3,2e7")
    assert peak <= 100 * 1024, peak


def test_determinism_across_runs_and_threads(capsys):
    outputs = set()
    for threads in ("1", "2"):
        for _ in range(2):
            code, out = run_cli(capsys, "--threads", threads, "--segment-length", "65536",
                                "count", "--ell", "2", "--threshold", "pow:0.7",
                                "--limit", "200000")
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def test_convention_flags(capsys):
    strict = run_cli(capsys, "count", "--ell", "2", "--threshold", "pow:0.5",
                     "--limit", "10")[1]
    loose = run_cli(capsys, "--non-strict", "count", "--ell", "2",
                    "--threshold", "pow:0.5", "--limit", "10")[1]
    loose_from_two = run_cli(capsys, "--non-strict", "--from-two", "count", "--ell", "2",
                             "--threshold", "pow:0.5", "--limit", "10")[1]
    at_limit = run_cli(capsys, "--at-limit", "count", "--ell", "2",
                       "--threshold", "pow:0.5", "--limit", "100")[1]
    assert strict.splitlines()[1] == "10,5,1.151293"
    assert loose.splitlines()[1] == "10,6,1.381551"
    assert loose_from_two.splitlines()[1] == "10,5,1.151293"
    assert at_limit.splitlines()[1] == "100,26,1.197344"


def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\nthreads=2\nstrict_inequality=true\n")
    code, out = run_cli(capsys, "--config", str(cfg), "--format", "csv",
                        "perfect", "--ell", "2", "--limit", "10000")
    assert code == 0
    assert json.loads(out)["members"] == [6, 28, 496, 8128]  # json won over csv


def test_config_file_validation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key=1\n")
    with pytest.raises(ValueError):
        apply_config_file(RunConfig(), str(bad))
    weird = tmp_path / "weird.cfg"
    weird.write_text("threads\n")
    with pytest.raises(ValueError):
        apply_config_file(RunConfig(), str(weird))


#: The formats each subcommand renders, its default first, with small arguments.
RENDERED = {
    "sieve": (("csv",), ["--lo", "1", "--hi", "100"]),
    "count": (("csv",), ["--ell", "2", "--threshold", "pow:1/2", "--limit", "100"]),
    "series": (("csv",), ["--ell", "2", "--threshold", "xlog", "--checkpoints", "10,100"]),
    "table1": (("both", "table", "csv"), []),
    "figure1": (("csv",), ["--limit", "100"]),
    "perfect": (("json", "csv"), ["--ell", "2", "--limit", "100"]),
    "wirsing": (("csv",), ["--ell", "2", "--checkpoints", "10,100"]),
    "dioph": (("json", "csv", "ndjson"), ["--a", "2", "--b", "1", "--k", "12",
                                          "--limit", "100"]),
    "census": (("ndjson", "json"), ["--b", "1", "--k", "12", "--limit", "50"]),
    "sporadic": (("csv", "table"), ["--b", "1", "--k", "12", "--checkpoints", "100"]),
    "cdf": (("csv",), ["--limit", "100", "--grid", "2"]),
    "phase": (("csv",), ["--ell", "2", "--regime", "sublinear", "--checkpoints", "100"]),
    "probe": (("csv",), ["--ell", "1.7", "--search-limit", "100"]),
    "gcdsum": (("csv",), ["--x", "100"]),
}


def test_every_subcommand_has_its_formats():
    assert sorted(RENDERED) == sorted(cli.build_parser()._subparsers._group_actions[0].choices)
    # the refusal tests below read RENDERED, so it must be the CLI's own table
    assert {command: formats for command, (formats, _) in RENDERED.items()} == cli._RENDERS


#: sha256 of stdout for every (subcommand, format) pair at RENDERED's sizes,
#: the default format given by omitting --format (table1: stdout only, its
#: stderr has elapsed:).
RENDERED_DIGESTS = {
    ("sieve", "csv"): "23f17be4f535b5bde3ccc9f9cd9cf9b22e41df9b332852cdedce42538cb0f844",
    ("count", "csv"): "34a570d89ca68ae670f4d18290807017e5f5c5b7df5e93510d89c9ac369c3578",
    ("series", "csv"): "367b706efffe9ea52089f2da458283c7c3f0df8c6939a2b9cf5c44f1bc1a390f",
    ("table1", "both"): "7fa55a50b68e25e975ad74dedad6f539835fb6a9b86e52a927fb63eae3431b46",
    ("table1", "table"): "3bd07f750bbc639e1db4c92652baddaa6bbd987f69484c3d810b84190e56ad0f",
    ("table1", "csv"): "6f666ed29ed938e45a97a72e56531712f86b1649a565e4fa49a688daf15e52f3",
    ("figure1", "csv"): "ef224517372b4166d701131e82dc8f8f24662b97b05c57275aa12bb3c39bc693",
    ("perfect", "json"): "3d94b21bac850e2790847423128eebd8abb4c0decef3b8ad985be20f545a5bca",
    ("perfect", "csv"): "3c5afb10ec916d116457d4485765d4f96a9e73b7654240a51f29984ca529784e",
    ("wirsing", "csv"): "90717751a4863c481a8a90096847a43c45cb74ea999fd8c4274d12a97e0612a2",
    ("dioph", "json"): "3674f6ae81bcccf461d6f3dde571bd98bd721691449d063736cd068ceeaaf5ad",
    ("dioph", "csv"): "85ce842539eb10b37c4e1e996cd95e559c33e1ca01b75ff55a133f5f89619ae4",
    ("dioph", "ndjson"): "ae73af80dd03bd7e6928d172ed0917db953f94213eacdf26cb72efb90861a16e",
    ("census", "ndjson"): "608eeb5005d8f9a1a99743ac4b757b9ce2ebadf7144ed81fd451ada11c3edd8e",
    ("census", "json"): "309828186a7eb2167ca4219581a89b6332c95e3ce5afde651678668bf1d9a807",
    ("sporadic", "csv"): "ce3405da6b0cc193c48169ce2e79e8dac496829345002e075263a19bc117a658",
    ("sporadic", "table"): "80e88800019a26a83a2745dd54713ff77de6490ebbdc293ba7bc6580952d8659",
    ("cdf", "csv"): "4a949bcffdad2efe3ac77473c77a8cb40ee3ed838cd4a51907335408d7eadb1b",
    ("phase", "csv"): "69765748a0bdf1890155c757cd86ee0ce5ef13aa839bb8bb2e24d66b8bf309c0",
    ("probe", "csv"): "7502a3a10d40f7143e3231803bae9d14f480744122f923e144338fa026a17f37",
    ("gcdsum", "csv"): "318b0acd39986994a69f8eed5b20b52497f7ebb92c74cff19918acdb968ad7bc",
}


def test_every_rendered_pair_is_pinned():
    assert sorted(RENDERED_DIGESTS) == sorted(
        (command, fmt) for command, (formats, _) in RENDERED.items() for fmt in formats)


@pytest.mark.parametrize("command, fmt", sorted(RENDERED_DIGESTS))
def test_every_rendered_pair_keeps_its_bytes(capsys, command, fmt):
    formats, args = RENDERED[command]
    code, out = run_cli(capsys, command, *args,
                        *([] if fmt == formats[0] else ["--format", fmt]))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RENDERED_DIGESTS[command, fmt]


@pytest.mark.parametrize("command", sorted(RENDERED))
@pytest.mark.parametrize("fmt", [None, "csv", "json", "ndjson", "table"])
def test_a_format_is_rendered_or_refused_before_the_run(capsys, monkeypatch, command, fmt):
    # the run itself is stubbed: a refusal must come before any sieving
    formats, args = RENDERED[command]
    seen = []
    monkeypatch.setattr(cli, "_dispatch",
                        lambda args, config: seen.append(config.output_format) or ["ok\n"])
    code = main([command, *args] + ([] if fmt is None else ["--format", fmt]))
    captured = capsys.readouterr()
    if fmt is None or fmt in formats:
        assert (code, captured.out, seen) == (0, "ok\n", [fmt or formats[0]])
    else:
        assert (code, captured.out, seen) == (1, "", [])
        assert captured.err.startswith(f"error: {command} renders ")
        assert captured.err.count("\n") == 1


def test_a_format_from_the_config_file_is_refused_too(capsys, tmp_path):
    # figure1 renders only CSV; it printed CSV under format=json
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    code = main(["--config", str(cfg), "figure1", "--limit", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: figure1 renders csv, not json\n"


@pytest.mark.parametrize("command", sorted(set(RENDERED) - {"count", "series", "figure1"}))
@pytest.mark.parametrize("flag", ["--non-strict", "--at-limit", "--from-two"])
def test_a_convention_flag_is_refused_where_it_is_not_read(capsys, monkeypatch,
                                                           command, flag):
    # only count, series and figure1 read the conventions; the run is stubbed,
    # so the refusal comes before any sieving
    monkeypatch.setattr(cli, "_dispatch", lambda args, config: ["ok\n"])
    code = main([flag, command, *RENDERED[command][1]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: {command} takes no --non-strict, --at-limit "
                            f"or --from-two\n")


def test_a_convention_from_the_config_file_is_refused_too(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_dispatch", lambda args, config: ["ok\n"])
    cfg = tmp_path / "run.cfg"
    argv = ["--config", str(cfg), "census", *RENDERED["census"][1]]
    cfg.write_text("strict_inequality=false\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: census takes no ")
    cfg.write_text("strict_inequality=true\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == "ok\n"


@pytest.mark.parametrize("argv", [
    ["perfect", "--ell", "2", "--limit", "100", "--checkpoints", "10,100"],
    ["perfect", "--ell", "2", "--limit", "100", "--checkpoints", "10,100", "--format", "json"],
    ["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "100", "--checkpoints", "100"],
    ["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "100", "--checkpoints", "100",
     "--format", "ndjson"],
])
def test_checkpoints_are_refused_where_the_format_never_reads_them(capsys, monkeypatch,
                                                                    argv):
    # perfect's JSON and dioph's JSON and NDJSON printed the same bytes with and
    # without --checkpoints; the run is stubbed, so the refusal comes before it
    monkeypatch.setattr(cli, "_dispatch", lambda args, config: ["ok\n"])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {argv[0]} takes --checkpoints only with --format csv\n"
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "ok\n"


@pytest.mark.parametrize("argv", [
    ["perfect", "--ell", "2", "--limit", "100", "--format", "csv"],
    ["series", "--ell", "2", "--threshold", "xlog"],
    ["dioph", "--a", "2", "--b", "1", "--k", "12", "--limit", "100", "--format", "csv"],
])
@pytest.mark.parametrize("checkpoints", ["", ",", " , "])
def test_empty_checkpoints_exit_1(capsys, argv, checkpoints):
    # perfect --checkpoints "" printed the limit's row and exited 0, while
    # --checkpoints , exited 1: an empty list is given, not absent
    code = main([*argv, "--checkpoints", checkpoints])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: need at least one checkpoint\n"


@pytest.mark.parametrize("command", sorted(RENDERED))
@pytest.mark.parametrize("flags, code, message", [
    (["--threads", "65"], 2, "threads 65 exceeds the cap 64"),
    (["--segment-length", "1023"], 1, "segment_length must be >= 1024"),
])
def test_run_wide_refusals_fire_for_every_subcommand(capsys, monkeypatch, command, flags,
                                                     code, message):
    # every run gets its source from config.source(), sieve's too, though it
    # sieves its own segment; sieving is stubbed, so a refusal comes before it
    def no_sieving(lo, hi):
        raise AssertionError(f"sieved [{lo}, {hi}] before the refusal")

    monkeypatch.setattr(cli, "sieve_segment", no_sieving)
    monkeypatch.setattr(sieve, "sieve_segment", no_sieving)
    assert main([*flags, command, *RENDERED[command][1]]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_threads_beyond_the_cap_exit_2(capsys):
    # 1e3 threads would start 1000 OS threads holding 1001 segments
    code = main(["--threads", "1e3", "count", "--ell", "2", "--threshold", "pow:1/2",
                 "--limit", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: threads 1000 exceeds the cap 64\n"


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
    code, _ = run_cli(capsys, "count", "--ell", "2", "--threshold", "pow:0.5",
                      "--limit", "30")
    assert code == 0
    files = list(cache_dir.iterdir())
    assert len(files) == 1 and files[0].name == "sigma_1_30.sgma"
    seg = read_segment(str(files[0]))
    assert np.array_equal(seg.sigma[:6], [1, 3, 4, 7, 6, 12])


def test_config_file_rejects_limit(capsys, tmp_path):
    # RunConfig has no limit: a config line setting one would be silently ignored
    cfg = tmp_path / "limit.cfg"
    cfg.write_text("limit=100\n")
    with pytest.raises(ValueError):
        apply_config_file(RunConfig(), str(cfg))
    assert run_cli(capsys, "--config", str(cfg), "perfect", "--ell", "2",
                   "--limit", "30")[0] == 1


#: (config line, the flags that set the same, a command that takes them)
CONFIG_KEY_FLAGS = [
    ("segment_length=4096", ["--segment-length", "4096"], "count"),
    ("cache_dir=CACHE", ["--cache-dir", "CACHE"], "count"),
    ("threads=2", ["--threads", "2"], "count"),
    ("format=csv", ["--format", "csv"], "perfect"),
    ("output_format=csv", ["--format", "csv"], "perfect"),
    ("strict_inequality=false", ["--non-strict"], "count"),
    ("threshold_at_n=false", ["--at-limit"], "count"),
    ("include_n_equals_1=false", ["--from-two"], "count"),
]


def test_every_config_key_is_tested_against_its_flag():
    keys = {line.partition("=")[0] for line, _, _ in CONFIG_KEY_FLAGS}
    assert keys == set(cli._CONFIG_KEYS) | {"format"}


@pytest.mark.parametrize("line, flags, command", CONFIG_KEY_FLAGS)
def test_a_config_key_sets_what_its_flag_sets(monkeypatch, tmp_path, line, flags, command):
    # the run is stubbed: each argv hands its RunConfig to _dispatch
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args, config: seen.append(config) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line.replace("CACHE", str(tmp_path / "cache")) + "\n")
    argv = [command, *RENDERED[command][1]]
    flags = [w.replace("CACHE", str(tmp_path / "cache")) for w in flags]
    assert main(argv) == 0
    assert main([*flags, *argv]) == 0
    assert main(["--config", str(cfg), *argv]) == 0
    plain, by_flag, by_key = seen
    assert by_flag == by_key != plain


#: sha256 of the main parser's and each subcommand's --help (stdout, exit 0) and of
#: each subcommand's usage error with no arguments (stderr, exit 1); table1 and
#: figure1, whose options all have defaults, are given --limit with no value.
#: Taken with COLUMNS=80 on Python 3.11, whose argparse lays out help this way.
PARSER_DIGESTS = {
    "--help": "ee5b9f95580831c665cd65c64f86ed064f706e1db74013b803bb147ede6cdb87",
    "sieve --help": "4f2b52e87b136c3cf2bca1600f9d5d30bceae5025f896099c4ea93ce785ccaa0",
    "count --help": "dbbf6681ac956254c703a486d956f1919e88b18ce28e875836cf4e078a35ba4c",
    "series --help": "f864ff390edf583908c0849b778762722ba0557d0b90ce1456902bf07eeaf0aa",
    "table1 --help": "547fd55f50981dfa2c234b962f4c1ee677bcc4237c5a1dc66c69eb17d5caed45",
    "figure1 --help": "183b7eb3580a19c53a61549a4b1949e7bc54c7b3533d5b1dab68b67316019757",
    "perfect --help": "043ad22180684d8363d15eb1fa61fd5d9837068bb289b9ced1d81c2416cf8da0",
    "wirsing --help": "025d4ef19dcfbb5dbb3efeff4ff001881ec4903afed7079bfff8820a9d0ea919",
    "dioph --help": "80ba8e3d800c15ab3be2d3aa0a08ba37342baffccbcbc31d585aca7041f7b993",
    "census --help": "73d47323b7eea4c343203e5289016bf43ebae41e4527205ad651dd49c8acb23e",
    "sporadic --help": "9edce9256da2a8449dc7f81966c76054277a3d74b2030ecb1ed2405b7300f504",
    "cdf --help": "0f7a8ec59143607686eb9ce6d7b980496dcbda0d73cb9411f81db4f9e38e024a",
    "phase --help": "af4bb5e50632c49432afdd73872eb78b52650801abc2a8fccc5909de17d16a9d",
    "probe --help": "7c978c516733201acbde125d637eab60515f64795fe76439860ebe419446c05b",
    "gcdsum --help": "113f03b5bf222bfe8a497ab546cf7e4c82ca939e2022274c626703e3a5977ab1",
    "sieve": "5c53c7067d303e8c047dacbb5bb46264eacc432deb4e523a9e9fd10b321607be",
    "count": "336d9167b693a11fef29562b2acad9331434660a104c6999b228257bb794e31e",
    "series": "55e640f004ea415455cf0dd7e0ce5bdfcc8603073fd9c24e792aad1d361375ed",
    "table1 --limit": "857cf58cedada667ef545d6ead1c4bed578ce3b39f11b0393941c4776c950410",
    "figure1 --limit": "7f45681e8ad77e7670289f03b2b1dbbdd262ad4c82bf6b230113f86bf48d3f7b",
    "perfect": "5613b9b43e641cdc595b1d0dba53d42697f0b625c939c56d727eac40d8e6d8b4",
    "wirsing": "33524c70b6dc5c333aa35698dc547540c310a62bcfc6db4155629cb6fc155fe6",
    "dioph": "fda753a899ded0af7a6a20fad5857bacd1cf75f6349d70f2bd36b1ece574ebbc",
    "census": "e4b92c4167bddc4b910e2f561b2ac47537ad35e7a9395bf56359bb213a095675",
    "sporadic": "69108b5cd3f05151641d011d942913b1fdc227ba7ee52ac7efe1dcc3a5647eaa",
    "cdf": "1ec488399877fdd878aa547db43c4089443631d073e6572d10e682ef0fdd464e",
    "phase": "566a0d9fceb0a5c2ce3b1bc29a0ee2003b687c6030cc986419a629e33df0c11e",
    "probe": "1b727021e6a3c54ac8727fd9032bc9e1f7986beb6060ef814c76dc8fe3e0ebe9",
    "gcdsum": "393dbfded3e6c34cff1b58b5ca222c38a012bbc33f41539ff2ba6891903900e3",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout differs between Python versions")
@pytest.mark.parametrize("argv", sorted(PARSER_DIGESTS))
def test_parser_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    captured = capsys.readouterr()
    text = captured.out if argv.endswith("--help") else captured.err
    assert code == (0 if argv.endswith("--help") else 1)
    assert (captured.err if code == 0 else captured.out) == ""
    assert hashlib.sha256(text.encode()).hexdigest() == PARSER_DIGESTS[argv]


def test_every_parser_is_pinned():
    commands = sorted(cli._COMMANDS)
    assert sorted(PARSER_DIGESTS) == sorted(
        ["--help"] + [f"{c} --help" for c in commands]
        + [f"{c} --limit" if c in ("table1", "figure1") else c for c in commands])


@pytest.mark.parametrize("argv, flag", [
    (["figure1", "--limit", "100", "--out", ""], "--out"),
    (["--out", "", "figure1", "--limit", "100"], "--out"),
    (["--config", "", "figure1", "--limit", "100"], "--config"),
    (["figure1", "--limit", "100", "--config", ""], "--config"),
    (["sieve", "--lo", "1", "--hi", "100", "--cache-path", ""], "--cache-path"),
])
def test_an_empty_out_or_config_is_refused(capsys, monkeypatch, argv, flag):
    # --out "" wrote the artifact to stdout, --config "" read no file and
    # --cache-path "" wrote no cache file, all with exit 0; the run is stubbed,
    # so the refusal comes before it
    monkeypatch.setattr(cli, "_dispatch", lambda args, config: ["ok\n"])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {flag} needs a file name\n"


def test_an_out_in_a_missing_directory_names_the_given_path(capsys, tmp_path):
    # the error named the temporary file beside the target, '.x.<random>'
    out = tmp_path / "missing" / "x"
    code = main(["census", "--b", "1", "--k", "1", "--limit", "100", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_an_empty_cache_dir_is_no_cache(capsys, monkeypatch, tmp_path):
    # --cache-dir "" wrote sigma_1_100.sgma into the working directory, while
    # a config file's cache_dir= and an empty WITHINPERFECT_CACHE_DIR wrote none
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "--cache-dir", "", "figure1", "--limit", "100")
    assert code == 0 and out.startswith("x,count,quotient\n")
    source = SigmaSource(cache_dir="")
    assert source.cache_dir is None
    assert sum(len(n) for n, _ in source.blocks(3000)) == 3000
    assert list(tmp_path.iterdir()) == []


def test_config_file_integers_parse_exactly(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("segment_length=1.024e3\nthreads=2e0\n")
    config = apply_config_file(RunConfig(), str(cfg))
    assert (config.segment_length, config.threads) == (1024, 2)
    cfg.write_text("threads=1.5\n")
    with pytest.raises(ValueError):
        apply_config_file(RunConfig(), str(cfg))


@pytest.mark.parametrize("argv, plain, written", [
    (("census", "--b", "1", "--k", "{}", "--limit", "3000"), "1", "1e0"),
    (("dioph", "--a", "2", "--b", "1", "--k", "{}", "--limit", "3000"), "12", "1.2e1"),
    (("sporadic", "--b", "{}", "--k", "12", "--checkpoints", "1e3"), "1", "1e0"),
    (("probe", "--ell", "1.7", "--depth", "{}", "--search-limit", "1000"), "3", "3e0"),
    (("--threads", "{}", "count", "--ell", "2", "--threshold", "xlog",
      "--limit", "3000"), "2", "2e0"),
    (("--segment-length", "{}", "count", "--ell", "2", "--threshold", "xlog",
      "--limit", "3000"), "1024", "1.024e3"),
])
def test_every_integer_flag_parses_like_a_limit(capsys, argv, plain, written):
    # an exact decimal is the integer it names; "1.5" is refused with exit 1
    runs = [run_cli(capsys, *(w.format(v) for w in argv)) for v in (plain, written)]
    assert runs[0][0] == 0 and runs[1] == runs[0]
    assert run_cli(capsys, *(w.format("1.5") for w in argv))[0] == 1


def test_parse_checkpoints_is_exact():
    assert parse_checkpoints("1.2345678901234567e16") == [12345678901234567]
    assert parse_checkpoints("1e30") == [10**30]
    assert parse_checkpoints(" 1e4, 100000,2e7 ") == [10**4, 10**5, 2 * 10**7]
    for bad in ("1.5", "1.23456789012345678e16", "abc", "0", "10,5"):
        with pytest.raises(ValueError):
            parse_checkpoints(bad)


@pytest.mark.parametrize("argv", [
    ("perfect", "--ell", "2", "--limit", "{}"),
    ("table1", "--limit", "{}"),  # below the grid's 2e7: exit 2 either way
    ("figure1", "--limit", "{}"),
    ("cdf", "--limit", "{}", "--grid", "2"),
    ("probe", "--ell", "1.7", "--search-limit", "{}"),
    ("gcdsum", "--x", "{}"),
    ("sieve", "--lo", "{}", "--hi", "{}"),
])
def test_integer_options_parse_exactly(capsys, argv):
    # a limit, bound or x is an exact integer like a checkpoint: 1e4 is 10000
    runs = [run_cli(capsys, *(w.format(v) for w in argv))
            for v in ("10000", "1e4", "1.0e4", "10e3")]
    assert runs[0][0] in (0, 2)
    assert all(run == runs[0] for run in runs)
    assert run_cli(capsys, *(w.format("1.5") for w in argv))[0] == 1


def test_huge_decimal_exponents_are_refused(capsys):
    # "1e100000000" would build a 41 MB integer before any range check
    assert run_cli(capsys, "perfect", "--ell", "2", "--limit", "1e100000000")[0] == 1
    assert run_cli(capsys, "series", "--ell", "2", "--threshold", "xlog",
                   "--checkpoints", "1e100000000")[0] == 1
    assert run_cli(capsys, "count", "--ell", "2e-100000000", "--threshold", "xlog",
                   "--limit", "10")[0] == 1
    assert parse_checkpoints("1e9999") == [10**9999]


def _cli_process(*argv):
    """The CLI as a child process, reading the package from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "withinperfect.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _assert_one_error_line(err: bytes):
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.decode()


def test_unwritable_out_exits_2_with_one_error_line(tmp_path):
    proc = _cli_process("count", "--ell", "2", "--threshold", "pow:0.5", "--limit", "30",
                        "--out", str(tmp_path / "missing" / "x.csv"))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    _assert_one_error_line(err)


def test_closed_stdout_exits_2_with_one_error_line():
    # about 2 MB of rows, far more than a pipe buffers, so the reader leaves first
    proc = _cli_process("figure1", "--limit", "100000")
    assert proc.stdout.readline() == b"x,count,quotient\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    _assert_one_error_line(err)


def test_cli_imports_no_sympy():
    # the runtime dependencies are numpy and mpmath only
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import withinperfect.cli, sys; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_cli_imports_no_mpmath():
    # mpmath is imported where the exact xlog compare and the series sums run
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import withinperfect.cli, sys; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "False\n"


#: The superabundant numbers 2 <= m <= 10^6 (OEIS A004394): each ratio
#: sigma(m)/m beats every smaller m's.
SUPERABUNDANT = [2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260,
                 1680, 2520, 5040, 10080, 15120, 25200, 27720, 55440, 110880, 166320,
                 277200, 332640, 554400, 665280, 720720]


def test_probe_of_a_far_target_is_fast():
    # every ratio is about 10^12 from l, so a margin relative to the distance
    # (about 10^3) would send every m to the exact pass; the records are the
    # successive largest ratios, the superabundant numbers
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "withinperfect.cli", "probe", "--ell", "1e12",
         "--search-limit", "1e6", "--depth", "40"],
        env=env, capture_output=True, text=True, timeout=10, check=True).stdout
    rows = out.splitlines()
    assert rows[-1] == "# exhausted: 30 improvement(s) up to 1000000"
    assert [int(row.split(",")[0]) for row in rows[1:-1]] == SUPERABUNDANT


#: Any int64, mostly near 0; 0 and negative values take the per-record fallback.
_INT64 = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-2**62, 2**62),
                   st.sampled_from([-2**63, 2**63 - 1]))
#: p = 0 marks a sporadic row, so a witness p is never 0 (SolutionTable refuses it).
_WITNESS = st.tuples(_INT64.filter(bool), _INT64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_INT64, _INT64, st.lists(_WITNESS, max_size=3)), max_size=20))
def test_records_ndjson_is_the_json_dumps_rendering(rows):
    # sporadic records, one witness and several (only the first is emitted),
    # and 0 or negative n, sigma_n, p and m
    records = [SolutionRecord(n, s, "regular" if w else "sporadic", tuple(w))
               for n, s, w in rows]
    assert records_ndjson(records) == "".join(
        json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in records)
    assert records_json(records) == json.dumps(
        [r.to_json_dict() for r in records], indent=2) + "\n"


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _mostly(valid, *junk):
    """valid five times in six, else one of the junk strings or "x", "1/0", "nan"."""
    bad = st.sampled_from(junk + ("", "x", "-1", "0", "1/0", "1.5", "1e3", "nan"))
    return st.integers(0, 5).flatmap(lambda i: bad if i == 0 else valid)


_LIMIT = _mostly(_ints(1, 10**4))
_SMALL = _mostly(_ints(1, 12))
_K = _mostly(_ints(-10**6, 10**6))
_CHECKPOINTS = _mostly(st.lists(st.integers(1, 10**4), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, sorted(xs)))), "1e4,5", ",,")
_RATIONAL = st.sampled_from(("2", "3", "3/2", "7/3", "1", "0", "-2", "2.5", "x/y",
                             "1/0", "1e400", "1.0000001"))

#: Each subcommand's own options and the values the fuzz draws for them.
_SUBCOMMAND_FLAGS = {
    "sieve": {"--lo": _LIMIT, "--hi": _LIMIT, "--cache-path": st.just("CACHE")},
    "count": {"--ell": _RATIONAL, "--threshold": st.sampled_from(
        ("pow:0.5", "pow:1/3", "const:1", "lin:0.1", "xlog", "pow:2", "pow:",
         "const:-1", "lin:1e400", "bogus")), "--limit": _LIMIT},
    "series": {"--ell": _RATIONAL, "--threshold": st.sampled_from(
        ("pow:0.5", "const:2", "lin:1/4", "xlog", "pow:1")), "--checkpoints": _CHECKPOINTS},
    "table1": {"--limit": _LIMIT},
    "figure1": {"--limit": _LIMIT},
    "perfect": {"--ell": _RATIONAL, "--limit": _LIMIT, "--checkpoints": _CHECKPOINTS},
    "wirsing": {"--ell": _RATIONAL, "--checkpoints": _CHECKPOINTS},
    "dioph": {"--a": _SMALL, "--b": _SMALL, "--k": _K, "--limit": _LIMIT,
              "--checkpoints": _CHECKPOINTS},
    "census": {"--b": _SMALL, "--k": _K, "--limit": _LIMIT},
    "sporadic": {"--b": _SMALL, "--k": _K, "--checkpoints": _CHECKPOINTS},
    "cdf": {"--limit": _LIMIT, "--grid": st.one_of(_CHECKPOINTS, _RATIONAL)},
    "phase": {"--ell": _RATIONAL, "--regime": st.sampled_from(
        ("sublinear", "linear", "superlinear", "bad")), "--c": _RATIONAL,
        "--checkpoints": _CHECKPOINTS},
    "probe": {"--ell": _RATIONAL, "--depth": _mostly(_ints(1, 12)), "--search-limit": _LIMIT},
    "gcdsum": {"--x": _LIMIT},
    "nonsense": {},
}

_COMMON_FLAGS = {
    "--segment-length": _mostly(st.sampled_from(("1024", "4096", str(1 << 22))),
                                "1023", str(1 << 26)),
    "--threads": _mostly(st.sampled_from(("1", "2"))),
    "--format": _mostly(st.sampled_from(("csv", "json", "ndjson", "table")), "xml"),
    "--cache-dir": st.just("CACHE_DIR"),
    "--out": st.just("OUT"),
    "--config": st.sampled_from(("CONFIG", "MISSING")),
    "--non-strict": st.none(),
    "--at-limit": st.none(),
    "--from-two": st.none(),
}


@st.composite
def _argv(draw):
    """Common options, a subcommand, then its options and more common ones
    in random order; None values mark the switches that take no value."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    values = {**_SUBCOMMAND_FLAGS[command], **_COMMON_FLAGS}
    common = st.lists(st.sampled_from(sorted(_COMMON_FLAGS)), max_size=3, unique=True)
    # mostly every subcommand option (so runs get past parsing), sometimes not
    after = [f for f in _SUBCOMMAND_FLAGS[command] if draw(st.floats(0, 1)) < 0.9]
    after = draw(st.permutations(after + draw(common)))

    def words(flags):
        out = []
        for flag in flags:
            value = draw(values[flag])
            out += [flag] if value is None else [flag, value]
        return out

    return words(draw(common)) + [command] + words(after)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config").write_text("threads=2\nstrict_inequality=no\n", encoding="utf-8")
    return root


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
@example(argv=["figure1", "--limit", "0"])                # empty series: exit 1
@example(argv=["cdf", "--limit", "1", "--grid", "1e400"])  # beyond float64: exit 0
@example(argv=["wirsing", "--ell", "1e400", "--checkpoints", "10,100"])
def test_fuzzed_argv_exits_0_1_or_2(fuzz_dir, argv):
    paths = {"CACHE": fuzz_dir / "seg.sgma", "CACHE_DIR": fuzz_dir / "cache",
             "OUT": fuzz_dir / "out.txt", "CONFIG": fuzz_dir / "config",
             "MISSING": fuzz_dir / "missing"}
    argv = [str(paths[w]) if w in paths else w for w in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


#: The digest-pinned commands of perfbench/run.py, with the arguments it gives
#: them (it adds only --out).
BENCHMARK_ARGV = {
    "table1-2e7": ["table1", "--limit", "20000000"],
    "figure1-1e6": ["figure1", "--limit", "1000000"],
    "census-k1-3e6": ["census", "--b", "1", "--k", "1", "--limit", "3000000"],
    "gcdsum-5e7": ["gcdsum", "--x", "50000000"],
}


def test_benchmark_artifacts_match_their_pins(tmp_path, capsys, monkeypatch):
    # a change that moves one byte of a benchmark artifact fails here, not
    # only when the benchmark runs
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"
    digests = json.loads(pinned.read_text(encoding="utf-8"))["digests"]
    assert set(digests) == set(BENCHMARK_ARGV)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    out = tmp_path / "artifact.out"
    for name, argv in BENCHMARK_ARGV.items():
        assert main([*argv, "--out", str(out)]) == 0, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name], name
    capsys.readouterr()
