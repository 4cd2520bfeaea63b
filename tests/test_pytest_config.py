"""The repo's pytest configuration lets a failing property test report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """On a failure hypothesis writes the failing example as a patch, which
    imports libcst, and that import warns. Under the repo's warning filters
    the failure is reported and the tests after it still run: no
    INTERNALERROR."""
    (tmp_path / "test_child.py").write_text(CHILD)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
