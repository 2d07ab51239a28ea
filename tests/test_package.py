"""The package imports what a caller uses and nothing more."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import condpp

PACKAGE_DIR = Path(condpp.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("_"))


# Prints the loaded scipy and condpp modules on one line.
LOADED = (
    "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'condpp')))"
)


def run_fresh(code: str) -> list[list[str]]:
    """Run code in a fresh interpreter; the words of each line it prints."""
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return [line.split() for line in out.stdout.splitlines()]


def test_bounds_imports_neither_scipy_nor_other_submodules():
    # The closed-form Stein factors need only math; a fresh interpreter
    # shows what importing them drags in.
    assert run_fresh(f"import sys, condpp.bounds; {LOADED}") == [["condpp", "condpp.bounds"]]


def test_scipy_loads_only_at_the_first_assignment_solve():
    code = "; ".join([
        "import sys",
        "import condpp.cli, condpp.verify, condpp.coupling, condpp.bernoulli_app",
        LOADED,
        "from condpp.groundspace import configuration_from_locations as cfg, derive_stream, unit_interval",
        "from condpp.simulate import sample_bernoulli_process",
        "sample_bernoulli_process(100, 0.05, 1, derive_stream(1, 0))",
        LOADED,
        "from condpp.groundspace import unit_cube",
        "from condpp.metrics import d1_bar",
        "a = cfg([[0.1, 0.1], [0.5, 0.5], [0.7, 0.7]])",
        "d1_bar(a, cfg([[0.2, 0.2], [0.3, 0.3], [0.6, 0.6], [0.9, 0.9]]), unit_cube(1.0, 2))",
        LOADED,
    ])
    imported, drawn, solved = (
        {m for m in line if m.startswith("scipy")} for line in run_fresh(code)
    )
    assert imported == set()
    assert drawn == set()
    assert "scipy.optimize" in solved
    assert not {m for m in solved if m.split(".")[:2] == ["scipy", "stats"]}


# The count estimators with their oracle, the Stein battery, and every
# d-bar-1 on the unit line (the sorted-matching DP).
COUNT_PATH = [
    "import sys",
    f"sys.path.insert(0, {str(TESTS_DIR)!r})",
    "from oracles import count_chain_h",
    "from condpp.coupling import CountTestFunction, estimate_delta_h, estimate_delta2_h",
    "from condpp.coupling import reference_test_functions",
    "from condpp.groundspace import configuration_from_locations as cfg, unit_interval",
    "from condpp.metrics import d1_bar",
    "from condpp.verify import verify_stein",
    "rule = lambda j: min(1.0, j / 10.0)",
    "count_chain_h(5.0, 1, rule, top=60)",
    "space, f = unit_interval(5.0), CountTestFunction(rule)",
    "xi = cfg([[0.2], [0.5], [0.8]])",
    "estimate_delta_h(f, xi, [0.3], 1, space, 20, 7)",
    "estimate_delta2_h(f, xi, [0.3], [0.6], 1, space, 20, 7)",
    "verify_stein(lam=3.0, m=1, sizes=(1, 2), replicas=20, seed=0)",
    "d1_bar(cfg([[0.1], [0.5], [0.7]]), cfg([[0.2], [0.3], [0.6], [0.9]]), space)",
    "estimate_delta_h(reference_test_functions(space)[2], xi, [0.3], 1, space, 20, 7)",
]


def test_count_path_and_unit_line_load_no_scipy():
    (loaded,) = run_fresh("; ".join([*COUNT_PATH, LOADED]))
    assert "condpp.coupling" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_count_path_and_unit_line_load_no_process_pool():
    # The worker pools of metrics and verify load only when workers > 1.
    pools = ("print(*sorted(m for m in sys.modules"
             " if m.partition('.')[0] in ('condpp', 'multiprocessing', 'concurrent')))")
    (loaded,) = run_fresh("; ".join([*COUNT_PATH, pools]))
    assert "condpp.coupling" in loaded
    assert [m for m in loaded if not m.startswith("condpp")] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"condpp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
