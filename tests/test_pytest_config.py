"""The suite's own pytest settings: a failing hypothesis test is reported as a
failure, not as an INTERNALERROR that ends the whole run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under
    # filterwarnings = error that warning stopped the run with INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "-p", "no:cacheprovider", "-q", "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
