"""Start-up import hygiene: repro loads no scipy until a solver needs it.

Every ``repro run`` (each shard of a split run is one) and CI step starts a
fresh interpreter, and scipy's import is most of what that start used to
cost.
Module level in ``src/repro`` is the standard library, numpy and repro
itself; scipy is imported inside the functions that call its solvers
(``DeterministicLV.integrate``, the first-step solver and the tridiagonal
absorption solver).  These checks run in a fresh interpreter, because this
test process has long since imported scipy.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def run_fresh(code: str) -> dict:
    """Run *code* in a fresh interpreter and return the JSON it prints last."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=environment,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


LOADED_SCIPY = (
    "sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.'))"
)


def _module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported.

    Everything outside function bodies and ``if TYPE_CHECKING:`` blocks,
    which never run on import.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""]
            )
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_import_cli_and_a_rho_only_run_load_no_scipy():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro, repro.__main__\n"
        "from repro.experiments.registry import run_experiment\n"
        "result = run_experiment('T1R3', scale='quick')\n"
        "assert result.rows\n"
        f"print(json.dumps({LOADED_SCIPY}))\n"
    )
    assert loaded == []


def test_the_solvers_import_scipy_when_called():
    report = run_fresh(
        "import json, sys\n"
        "from repro import DeterministicLV, LVParams, exact_majority_probability\n"
        "from repro.chains.absorption import expected_absorption_time\n"
        "from repro.chains.birth_death import BirthDeathChain\n"
        f"before = {LOADED_SCIPY}\n"
        "params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0, gamma=2.0)\n"
        "exact = exact_majority_probability(\n"
        "    params, (6, 4), max_count=30, dead_heat_value=0.5)\n"
        "ode = DeterministicLV(params).integrate((60.0, 40.0), t_max=20.0)\n"
        "chain = BirthDeathChain(lambda i: 0.3, lambda i: 0.5)\n"
        "times = expected_absorption_time(chain, 20)\n"
        "print(json.dumps({'before': before, 'rho': exact.win_probability,\n"
        "    'winner': ode.winner, 'time': float(times[5]),\n"
        f"    'after': {LOADED_SCIPY}}}))\n"
    )
    assert report["before"] == []
    assert abs(report["rho"] - 0.6) < 5e-3  # Theorem 20: a / (a + b), as T1R2 checks
    assert report["winner"] == 0
    assert report["time"] > 0.0
    loaded = set(report["after"])
    assert {"scipy.integrate", "scipy.sparse.linalg", "scipy.linalg"} <= loaded
