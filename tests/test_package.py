"""The package imports what a caller uses and nothing more."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import condpp

PACKAGE_DIR = Path(condpp.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("_"))


def test_bounds_imports_neither_scipy_nor_other_submodules():
    # The closed-form Stein factors need only math; a fresh interpreter
    # shows what importing them drags in.
    code = (
        "import sys, condpp.bounds; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'condpp')))"
    )
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["condpp", "condpp.bounds"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"condpp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
