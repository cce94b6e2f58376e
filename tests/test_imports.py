"""Every name a module of the package imports is used in that module.

A function moved from one module to another can leave imports behind that
nothing reads any more; this check finds them. `__init__.py` is left out,
since it imports names to export them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eyehead"

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
