"""Module layering: the engine modules never reach into the comparators or the presets
and never import scipy, and the CLI commands that solve never load scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavebeam"
ENGINE = ("discretize", "eigen", "modefuncs", "propagator", "integrators")
OFF_LIMITS = {"oracles", "presets"}


def imported_modules(tree):
    """Every wavebeam module named by an import statement, without its package prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rpartition(".")[2]
            # "from . import oracles" names the module as an imported name
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_no_comparator_or_preset(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not OFF_LIMITS & set(imported_modules(tree))


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_no_scipy(module):
    # ast.walk reaches function bodies, so an import made lazily counts too
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module and not node.level]
    assert not [name for name in names if name.partition(".")[0] == "scipy"], names


SOLVE_PATH_SCRIPT = """
import sys
from wavebeam.cli import main

runs = (
    ["solve", "--preset", "beam1", "--N", "16", "--M", "4", "--snapshots", "2",
     "--out", "sol.csv"],
    ["converge", "--preset", "wave1", "--N", "8", "--T", "0.25", "--scheme", "EI-SW22",
     "--c2", "0.5", "--M", "4", "--M", "8", "--M", "16", "--Mref", "64", "--out", "conv.csv"],
    ["modes", "--preset", "beam1", "--N", "16", "--out", "modes.csv"],
)
for argv in runs:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_solve_converge_and_modes_load_no_scipy(tmp_path):
    # scipy.sparse alone adds ~22 MB to a process; only the oracles need it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SOLVE_PATH_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout
    assert (tmp_path / "sol_snapshots.csv").exists()


def test_explicit_matrices_live_in_oracles_alone():
    import wavebeam
    from wavebeam import integrators, oracles

    assert wavebeam.merged_damping_solve is oracles.merged_damping_solve
    assert not hasattr(integrators, "merged_damping_solve")
    assert not {"stencil", "entries"} & set(dir(wavebeam.GridOperator))


STEP_PATH = {
    "eigen": ("SpectralFactorization.transform",),
    "propagator": ("BlockPropagator.apply_stacked",),
    "integrators": ("_step_stacked", "solve"),
}


def function_bodies(tree, names):
    """The function definitions of ``tree`` named ``name`` or ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and f"{node.name}.{item.name}" in names:
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef) and node.name in names:
            yield node.name, node


@pytest.mark.parametrize("module", sorted(STEP_PATH))
def test_step_path_products_avoid_the_matmul_ufunc(module):
    # @ costs 0.3-0.6 us more per call than ndarray.dot for the same BLAS
    # product and bits: see the per-call table under "Products through
    # ndarray.dot" in README. The oracles and the tests keep @
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = dict(function_bodies(tree, STEP_PATH[module]))
    assert sorted(found) == sorted(STEP_PATH[module])
    for name, func in found.items():
        for node in ast.walk(func):
            callee = getattr(node, "func", None)
            matmul = isinstance(getattr(node, "op", None), ast.MatMult) or (
                getattr(callee, "attr", getattr(callee, "id", None)) == "matmul"
            )
            assert not matmul, (
                f"{module}.{name} line {node.lineno} multiplies through the matmul ufunc; "
                "step-path products go through ndarray.dot (README, per-call table under "
                "'Products through ndarray.dot')"
            )


def kind_branches(tree):
    """Line numbers where ``tree`` compares, or matches on, some object's ``.kind``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Match):
            operands = [node.subject]
        else:
            continue
        if any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in operands):
            yield node.lineno


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "discretize")
)
def test_only_discretize_branches_on_the_operator_kind(module):
    # a kind is one record of discretize.KINDS, which the other modules read;
    # oracles._oracle_regimes tunes damping by a kind name, not by an operator
    lines = list(kind_branches(ast.parse((PACKAGE / f"{module}.py").read_text())))
    assert not lines, f"{module}.py compares an operator's .kind at lines {lines}: read KINDS"
