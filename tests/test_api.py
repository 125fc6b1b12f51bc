"""The public surface: every exported name exists, every demo runs and
every function the benchmark traces exists.

A name deleted from a module but left in its `__all__`, still used by a
demo or still wrapped by `bench/traced.py`, fails here rather than in a
user's script or a traced benchmark run."""

import importlib
import importlib.util
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
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_every_bench_wrap_target_resolves(monkeypatch):
    """The traced benchmark lists a target it cannot find as missing
    rather than failing, so only this test notices a deleted one.  It
    is loaded without writing bytecode, so no `__pycache__` is left
    under `bench/`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_traced", ROOT / "bench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = [target[:2] for target in traced.SPANS + traced.COUNTERS]
    assert len(targets) > 20
    missing = [f"{module}.{attr}" for module, attr in targets
               if traced._resolve(module, attr) is None]
    assert not missing
