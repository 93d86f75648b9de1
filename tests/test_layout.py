"""Module layering: the engine modules never reach into the comparators or the presets."""

import ast
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
