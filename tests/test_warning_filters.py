"""pyproject.toml's warning filters, run in a pytest session of their own.

Every DeprecationWarning is an error in the suite, but one raised inside
hypothesis's own failure report must not end the session: the inner run
below holds a failing property test, a passing test and a test that
emits an unrelated DeprecationWarning, under the repository's settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INNER = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_failing_property(x):
    assert x < 5


def test_b_passing():
    pass


def test_c_unrelated_deprecation():
    warnings.warn("an unrelated deprecation", DeprecationWarning)
'''


def test_a_failing_property_test_reports_its_example_and_the_session_runs_on(tmp_path):
    (tmp_path / "pyproject.toml").write_bytes((ROOT / "pyproject.toml").read_bytes())
    (tmp_path / "test_inner.py").write_text(INNER)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfp", "-p", "no:cacheprovider",
                           "test_inner.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "PASSED test_inner.py::test_b_passing" in out
    assert "FAILED test_inner.py::test_c_unrelated_deprecation" in out
    assert "2 failed, 1 passed" in out
