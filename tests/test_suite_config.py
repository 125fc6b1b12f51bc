"""The suite's own configuration: `pyproject.toml` turns every warning
into an error, but a failing hypothesis example must still be reported
and the run go on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REPRO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after_one():
    pass


def test_after_two():
    pass
'''


def test_a_failing_hypothesis_example_is_reported_and_the_run_goes_on(
        tmp_path):
    """Under the repo's warning filters, a failing `@given` test fails
    with its falsifying example printed and the later tests run: exit 1,
    not pytest's internal error (exit 3)."""
    (tmp_path / "test_repro.py").write_text(REPRO)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_repro.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 2 passed" in out
