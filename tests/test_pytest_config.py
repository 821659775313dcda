"""The suite's pytest configuration keeps failures readable."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 10
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # The configuration makes every warning an error, and Hypothesis's
    # pytest plugin warns while it builds a failure report; that warning
    # must not turn the report into an INTERNALERROR.
    (tmp_path / "test_fail.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
