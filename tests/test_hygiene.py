"""Source hygiene: every name a module imports is used in that module,
every import is a top-level statement of its module, every function or
method the package defines is referenced outside its own definition,
importing the CLI loads neither `dataclasses` nor `inspect`, building an
instance loads no analysis or CLI module, and every
verification suite takes only (instance, r_max, budget)."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from mvgroups import verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvgroups"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    source = "from typing import Dict, List\nimport json\n\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "Dict"), (2, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def nested_imports(source: str):
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


def test_detector_flags_a_nested_import():
    source = "import json\n\ndef f():\n    from typing import List\n    return json\n"
    assert nested_imports(source) == [4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def defined_functions(tree):
    """The non-dunder function and method names defined in `tree`."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(node, enclosing=()):
    """Every name, attribute and imported name used in `node`, except a
    use inside the definition of a function of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing + (node.name,)
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from references(child, enclosing)


def test_detector_flags_an_unreferenced_function():
    source = ("def f(n):\n    return f(n - 1)\n\n"
              "def g():\n    return 1\n\n"
              "class C:\n    def m(self):\n        return self.m\n\n"
              "    def h(self):\n        return g()\n")
    tree = ast.parse(source)
    assert sorted(defined_functions(tree) - set(references(tree))) == ["f", "h", "m"]


def test_every_function_is_referenced():
    sources = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    used = {name for path in sources
            for name in references(ast.parse(path.read_text(encoding="utf-8")))}
    defined = {name for path in SRC.glob("*.py")
               for name in defined_functions(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(defined - used) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself has imported both modules here
    probe = ("import sys, mvgroups.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# analysis and front-end modules that building an instance never runs
NOT_FOR_SETUP = ["argparse", "decimal", "fractions", "mvgroups.cli", "mvgroups.dynamics",
                 "mvgroups.verify", "numbers", "random"]


def test_setup_path_loads_no_analysis_or_cli_modules():
    # a fresh interpreter; only what the set-up path adds counts, since
    # `site` may load some of these first (a .pth file can import random)
    probe = ("import sys; before = set(sys.modules); import mvgroups.wordspec; "
             f"mvgroups.wordspec.load_instance({str(ROOT / 'configs' / 'z2_swap.json')!r}); "
             f"print(sorted(set({NOT_FOR_SETUP!r}) & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("name", verify.SUITES)
def test_suites_take_only_instance_radius_and_budget(name):
    suite, _ = verify._SUITE_TABLE[name]
    assert list(inspect.signature(suite).parameters) == ["instance", "r_max", "budget"]
