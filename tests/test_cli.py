import json
import os
import subprocess
import sys

import numpy as np
import pytest

from withinperfect.cache import read_segment
from withinperfect.cli import CACHE_DIR_ENV, apply_config_file, main, RunConfig
from withinperfect.types import parse_checkpoints


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


def test_determinism_across_runs_and_threads(capsys):
    outputs = set()
    for threads in ("1", "4", "8"):
        for _ in range(2):
            code, out = run_cli(capsys, "--threads", threads, "count", "--ell", "2",
                                "--threshold", "pow:0.7", "--limit", "200000")
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


def test_parse_checkpoints_is_exact():
    assert parse_checkpoints("1.2345678901234567e16") == [12345678901234567]
    assert parse_checkpoints("1e30") == [10**30]
    assert parse_checkpoints(" 1e4, 100000,2e7 ") == [10**4, 10**5, 2 * 10**7]
    for bad in ("1.5", "1.23456789012345678e16", "abc", "0", "10,5"):
        with pytest.raises(ValueError):
            parse_checkpoints(bad)


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
