"""The test settings themselves: a failing test must fail alone."""

import os
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_FIRST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    assert True
'''


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    # under this project's settings (every warning an error), Hypothesis
    # once turned its own failure report into an INTERNALERROR that ended
    # the run before the next test
    (tmp_path / "test_probe.py").write_text(_FAILING_FIRST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"})
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
