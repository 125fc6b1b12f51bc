"""The public surface: every exported name exists and every demo runs.

A name deleted from a module but left in its `__all__`, or still used
by a demo, fails here rather than in a user's script."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modembed

MODULES = sorted(info.name for info in pkgutil.iter_modules(modembed.__path__)
                 if not info.name.startswith("_"))
SRC = Path(modembed.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"modembed.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
