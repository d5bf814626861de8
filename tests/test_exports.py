import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import contractive

# Retired from the public API: moments come from ladder index sums, extremal
# packets are squeezed coherent states, the identity check runs on the
# state-building kernel, solve_phi covers the minimal band, and the dense,
# position-grid and minimal-band closed-form test oracles live in
# tests/conftest.py.
REMOVED = ["Operators", "build_operators", "expect", "expect_hermitian",
           "CutoffReport", "cutoff_report",
           "GRID_POINTS", "GRID_SPAN", "default_grid", "hermite_basis",
           "wavefunction", "project_to_fock", "extremal_state",
           "displacement_operator", "squeeze_operator",
           "solve_phi_n3", "ladder_moments"]

# Retired keyword arguments: each value follows from the other inputs, and
# FockVector.padded embeds a seed at a larger cutoff.
REMOVED_PARAMETERS = [("lattice_phi", "dim"), ("lattice_phi_for_nbar", "dim"),
                      ("check_overcompleteness", "dim"),
                      ("check_overcompleteness", "radius"),
                      ("check_conjugation_identities", "block")]


def test_all_names_resolve():
    missing = [name for name in contractive.__all__ if not hasattr(contractive, name)]
    assert missing == []
    namespace = {}
    exec("from contractive import *", namespace)
    assert set(contractive.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in contractive.__all__
        assert not hasattr(contractive, name), name


def test_removed_parameters_are_gone():
    for name, parameter in REMOVED_PARAMETERS:
        assert parameter not in inspect.signature(getattr(contractive, name)).parameters


def test_each_name_is_its_home_module_object():
    for module, names in contractive._EXPORTS.items():
        home = importlib.import_module(f"contractive.{module}")
        for name in names:
            assert getattr(contractive, name) is getattr(home, name), name


def test_submodule_resolves_without_prior_import():
    # a fresh interpreter, so no earlier test has imported the submodule
    code = ("import sys, contractive\n"
            "assert 'contractive.verify' not in sys.modules\n"
            "assert {*contractive.__all__, 'verify'} <= set(dir(contractive))\n"
            "assert contractive.verify is sys.modules['contractive.verify']\n"
            "assert contractive.cli.main is sys.modules['contractive.cli'].main\n")
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_every_definition_is_exported_or_used():
    # a top-level function or class that is neither exported nor named by
    # any code in the package is dead; module hooks (__getattr__) are exempt
    package = Path(contractive.__file__).resolve().parent
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = [f"{module}.{name}" for module, name in defined
            if name not in used and name not in contractive.__all__
            and not name.startswith("__")]
    assert dead == []
