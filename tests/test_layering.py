"""`chow` owns Chern-class arithmetic: it imports nothing from the package,
and its key-level kernels are named in no other module of the package.
No module of the package imports `dataclasses`, whose import and class
generation a `compute` process would pay at start-up."""

import ast
from pathlib import Path

import milnor_classes
from test_stdlib_only import top_level_imports

PACKAGE = Path(milnor_classes.__file__).parent
KERNEL_NAMES = {"add_products", "settle", "divide", "_binomial_series", "codim_place",
                "key_bound"}


def package_imports(source: str) -> set[str]:
    """Every module of the package that source imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names.add(node.module or ".")
            elif node.module.split(".")[0] == "milnor_classes":
                names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "milnor_classes")
    return names


def named(source: str) -> set[str]:
    """Every name, attribute and imported name that source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_scanners_see_every_form():
    source = ("from . import bundles\nfrom .chow import settle as s\n"
              "import milnor_classes.cli\ndef f(a):\n"
              "    from milnor_classes.strata import x\n    return a.ambient.key_bound\n")
    assert package_imports(source) == {".", "chow", "milnor_classes.cli",
                                       "milnor_classes.strata"}
    assert {"settle", "key_bound", "cli", "x"} <= named(source)


def test_chow_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "chow.py").read_text()) == set()


def test_kernels_are_named_only_in_chow():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = {f"{path.name}: {name}" for path in modules if path.name != "chow.py"
               for name in named(path.read_text()) & KERNEL_NAMES}
    assert not outside


def test_no_module_imports_dataclasses():
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in top_level_imports(path.read_text())]
    assert not users
