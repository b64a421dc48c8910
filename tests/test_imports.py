"""Every name a package module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rookbench"
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
