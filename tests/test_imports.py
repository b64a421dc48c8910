"""Every name a package module imports is used in that module, and every
name the package defines is used by the package or the benchmark."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rookbench"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# perfbench/spans.py traces baselines.sum_support and baselines.solve_linear,
# so baselines imports them for the tracer to find.
ALLOWED = {("baselines", "sum_support"), ("baselines", "solve_linear")}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no name in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((SRC / f"{module}.py").read_text())
    assert [name for name in unused if (module, name) not in ALLOWED] == []


def test_allowed_imports_are_imported_and_unused():
    # An entry the module stops importing, or starts using, leaves the list.
    for module, name in ALLOWED:
        assert name in unused_imports((SRC / f"{module}.py").read_text())


def test_check_sees_through_aliases_and_attributes():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .field import mat_lincomb, mat_lincombs, mat_mul as mm\n"
        "np.ones(1)\n"
        "mat_lincombs(os.path)\n"
    )
    assert unused_imports(source) == ["mat_lincomb", "mm"]


def defined_names(source: str) -> set[str]:
    """The non-dunder functions, methods and classes `source` defines."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def read_names(source: str) -> set[str]:
    """The names `source` reads: loaded names and attributes, and string
    constants, as perfbench/spans.py names the functions it wraps."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_definition_is_used_outside_the_tests():
    # __init__.py only re-exports, so its reads do not count.
    readers = [SRC / f"{module}.py" for module in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(read_names(path.read_text()) for path in readers))
    defined = set().union(*(defined_names(path.read_text()) for path in SRC.glob("*.py")))
    assert sorted(defined - read) == []


def test_definition_check_sees_methods_attributes_and_strings():
    source = (
        "class A:\n"
        "    def __init__(self): self.x = 1\n"
        "    def used(self): return helper\n"
        "    def unused(self): pass\n"
        "def helper(): pass\n"
        "def named(): pass\n"
        "POINTS = [(A, 'named')]\n"
        "A().used()\n"
    )
    assert defined_names(source) - read_names(source) == {"unused"}
