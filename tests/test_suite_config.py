"""The suite's own configuration: `pyproject.toml` turns every warning
into an error, but a failing hypothesis example must still be reported
and the run go on."""

import ast
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


def test_the_blas_thread_timeout_is_set_before_anything_loads_numpy():
    """OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it,
    so the package sets it before every import other than `import os`."""
    tree = ast.parse((ROOT / "src" / "modembed" / "__init__.py").read_text())
    setting = [node.lineno for node in tree.body
               if isinstance(node, ast.Expr)
               and ast.unparse(node).startswith(
                   "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', ")]
    assert len(setting) == 1
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and ast.unparse(node) != "import os"]
    assert imports
    assert all(node.lineno > setting[0] for node in imports)
