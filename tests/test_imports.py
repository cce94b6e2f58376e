"""What the package's modules import: every name is used, and nothing is outside the runtime.

A function moved from one module to another can leave imports behind that
nothing reads any more; the first check finds them. `__init__.py` is left
out of it, since it imports names to export them.

The package's only runtime dependency is numpy (pyproject.toml); scipy and
hypothesis are test extras. The second check keeps every module, as it
stands in the source tree, to the standard library, numpy and eyehead.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eyehead"

# Bound in fitting only so that the benchmark tracer finds them there
# (bench/tracing.COUNTED); the solver forms its own partials.
TRACER_ONLY = {"fitting.py": {"hinge_gradient", "model_gradient"}}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == TRACER_ONLY.get(name, set())


def top_level_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import; relative imports are eyehead's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_numpy_is_the_one_declared_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)[1]
    assert [re.match(r"[A-Za-z0-9_.-]+", d)[0] for d in re.findall(r'"([^"]+)"', block)] == ["numpy"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_eyehead(path):
    imported = top_level_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert imported - set(sys.stdlib_module_names) - {"numpy", "eyehead"} == set()
