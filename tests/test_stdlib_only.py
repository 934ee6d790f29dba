"""The runtime stays stdlib-only: every module of the package imports only
the package itself and the standard library (`sys.stdlib_module_names`)."""

import ast
import sys
from pathlib import Path

import milnor_classes

PACKAGE = Path(milnor_classes.__file__).parent
ALLOWED = sys.stdlib_module_names | {"milnor_classes"}


def top_level_imports(source: str) -> set[str]:
    """First component of every absolute import; relative imports stay in the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scanner_sees_every_import_form():
    source = ("import os.path, sympy as sp\nfrom numpy.linalg import inv\n"
              "from . import chow\ndef f():\n    import hypothesis\n")
    assert top_level_imports(source) == {"os", "sympy", "numpy", "hypothesis"}


def test_package_imports_only_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    foreign = {f"{path.name}: {name}" for path in modules
               for name in top_level_imports(path.read_text()) - ALLOWED}
    assert not foreign
