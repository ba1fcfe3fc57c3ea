"""Every name a library or test module imports is used in that module,
every private module-level function or class of the library is named in its
own module, and every public module-level function of the library is named
in another library module or in the benchmark harness, and every public
method of a library class is named, as an attribute, in some library module
or in the harness.

The package ``__init__`` re-exports names it never uses itself, and
``from __future__`` imports are directives, so both are exempt from the
first check.  A re-export in ``__init__`` declares a function public API, so
it counts as a name in another module.  The harness names the functions it
traces by dotted strings, so any word of its text counts there.
"""

import ast
import re
from pathlib import Path

import pytest

import prem

LIBRARY = Path(prem.__file__).parent
MODULES = sorted(p for p in LIBRARY.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((LIBRARY.parent.parent / "perfbench").glob("*.py"))


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


def references(source: str) -> set:
    """``(module, name)`` for every name a module imports from another
    module or reads as ``module.name``."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            refs |= {(node.module.rsplit(".", 1)[-1], a.name) for a in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add((node.value.id, node.attr))
    return refs


def unreached_public_functions(modules: dict, harness: str) -> list:
    """Public module-level functions of the modules (``{name: source}``)
    that no other module references and that are no word of ``harness``:
    library surface that only the tests reach."""
    refs = {name: references(source) for name, source in modules.items()}
    words = set(re.findall(r"\w+", harness))
    return [
        (name, node.name)
        for name, source in sorted(modules.items())
        if name != "__init__"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in words
        and not any((name, node.name) in r for other, r in refs.items() if other != name)
    ]


def test_library_has_no_test_only_functions():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY.glob("*.py")}
    harness = "".join(p.read_text(encoding="utf-8") for p in PERFBENCH)
    assert unreached_public_functions(modules, harness) == []


def test_guard_sees_a_test_only_function():
    modules = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    pass\n\ndef called():\n    pass\n\n"
             "def traced():\n    pass\n\ndef alone():\n    called()\n\n"
             "def shadowed():\n    pass\n\ndef _private():\n    pass\n",
        "b": "from . import a\n\na.called()\nsheet.shadowed()\n",
    }
    assert unreached_public_functions(modules, '"a.traced"') == [("a", "alone"), ("a", "shadowed")]


def unreached_public_methods(modules: dict, harness: str) -> list:
    """``(module, class, method)`` for the public methods of the classes of
    the modules (``{name: source}``) whose name no module reads as an
    attribute and that are no word of ``harness``: methods that only the
    tests call.  Names are matched without their class, so a method counts
    as reached when any object's attribute of that name is read."""
    named = set()
    for source in modules.values():
        named |= {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)}
    words = set(re.findall(r"\w+", harness))
    return [
        (name, cls.name, node.name)
        for name, source in sorted(modules.items())
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in named and node.name not in words
    ]


def test_library_has_no_test_only_methods():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY.glob("*.py")}
    harness = "".join(p.read_text(encoding="utf-8") for p in PERFBENCH)
    assert unreached_public_methods(modules, harness) == []


def test_guard_sees_a_test_only_method():
    modules = {
        "a": "class A:\n    def used(self):\n        pass\n\n    def traced(self):\n        pass\n\n"
             "    def alone(self):\n        pass\n\n    def _private(self):\n        pass\n\n"
             "    @property\n    def read(self):\n        pass\n\n    def own(self):\n        self.read\n",
        "b": "from .a import A\n\nA().used()\nkey = A().own\n",
    }
    assert unreached_public_methods(modules, '"a.A.traced"') == [("a", "A", "alone")]
