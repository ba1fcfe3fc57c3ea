"""Every name a library or test module imports is used in that module, and
every private module-level function or class of the library is named in its
own module.

The package ``__init__`` re-exports names it never uses itself, and
``from __future__`` imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import prem

MODULES = sorted(p for p in Path(prem.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.stem) for p in MODULES]
    + [pytest.param(p, id=f"tests.{p.stem}") for p in TEST_MODULES],
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_definitions(source: str) -> list:
    """Module-level ``_name`` functions and classes that the module itself
    never names: helpers that nothing in their module calls any more."""
    tree = ast.parse(source)
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in named
    ]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in MODULES])
def test_module_names_every_private_helper(path):
    assert unused_private_definitions(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_private_helper():
    source = "def _used():\n    pass\n\ndef _dead():\n    _used()\n\nclass _Gone:\n    pass\n"
    assert unused_private_definitions(source) == [(4, "_dead"), (7, "_Gone")]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Dict, List\nx: Dict = {}\n") == [
        (1, "os"),
        (2, "List"),
    ]
