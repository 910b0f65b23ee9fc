"""Source hygiene: every name a module imports is used in that module,
every import is a top-level statement of its module, every function or
method the package or ``tests/oracles.py`` defines is referenced outside
its own definition, every row of the oracle table is bound to one test,
every class that defines a kernel is run by a row, importing the CLI loads
neither `dataclasses` nor `inspect`, building an instance loads no
analysis or CLI module, every verification suite takes only (instance,
r_max, budget), no subclass of a base with one constructor (`OrbitGroup`,
`_IntVectors`) sets what that constructor sets, an orbit group's subclass
brings only its class rule, and only the output edge forms canonical
keys."""

import ast
import importlib
import inspect
import itertools
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import mvgroups
from mvgroups import mvalued, verify

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvgroups"
TESTS = ROOT / "tests"
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
    """In the package, and in the oracle module, whose functions the test
    modules may use."""
    for defining, using in ((SRC.glob("*.py"), SRC.glob("*.py")),
                            ([TESTS / "oracles.py"], TESTS.glob("*.py"))):
        trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in using}
        used = {name for tree in trees.values() for name in references(tree)}
        defined = {name for path in defining for name in defined_functions(
            trees.get(path) or ast.parse(path.read_text(encoding="utf-8")))}
        assert sorted(defined - used) == []


def test_every_table_row_is_bound_to_one_test():
    """Each walk is named by one `table_test(...)` call in the test modules."""
    bound = [arg.value for path in TESTS.glob("test_*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "table_test"
             for arg in node.args]
    assert sorted(bound) == sorted(oracles.ROW)


KERNELS = ("products", "step", "project_all")


def test_every_kernel_runs_in_a_table_row(every_instance):
    """Each class of the package that defines a kernel in its own body is
    the class a row's group (or a direct product's factor) takes it from."""
    modules = [importlib.import_module(f"mvgroups.{m.name}")
               for m in pkgutil.iter_modules(mvgroups.__path__)]
    kernels = {(cls, kernel) for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               for kernel in KERNELS if kernel in vars(cls)}
    run = {(next(c for c in type(part).__mro__ if kernel in vars(c)), kernel)
           for row in oracles.ROWS for name in filter(row.applies, oracles.EVERY_INSTANCE)
           for case in row.cases(every_instance[name])
           for part in (case[0], *getattr(case[0], "factors", ()))
           for kernel in KERNELS if hasattr(part, kernel)}
    assert sorted(f"{cls.__name__}.{kernel}" for cls, kernel in kernels - run) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself has imported both modules here
    probe = ("import sys, mvgroups.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# analysis and front-end modules that building an instance never runs
NOT_FOR_SETUP = ["argparse", "decimal", "fractions", "mvgroups.cayley", "mvgroups.cli",
                 "mvgroups.dynamics", "mvgroups.multiset", "mvgroups.verify", "numbers",
                 "random"]


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


# base class -> the attributes its one constructor sets
BASE_STATE = {"OrbitGroup": {"backend", "n", "twists", "_twisted", "_members", "_classes",
                             "unit"},
              "_IntVectors": {"rank", "gen_names"}}


def flat_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from flat_targets(element)
    elif isinstance(target, ast.Starred):
        yield from flat_targets(target.value)
    else:
        yield target


def assigned_attributes(node):
    """The names a class body binds and the `self.` attributes its methods
    assign."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        else:
            continue
        for target in itertools.chain.from_iterable(map(flat_targets, targets)):
            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                names.add(target.attr)
            elif isinstance(target, ast.Name) and child in node.body:
                names.add(target.id)
    return names


def base_state_overrides(sources):
    """(class, attribute) for each subclass of a BASE_STATE base, direct or
    not, that sets an attribute its base's constructor sets."""
    classes = {node.name: node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)}

    def bases(name):
        for base in classes[name].bases if name in classes else ():
            if isinstance(base, ast.Name):
                yield base.id
                yield from bases(base.id)

    return sorted((name, attribute) for name, node in classes.items()
                  for base in set(bases(name)) & set(BASE_STATE)
                  for attribute in assigned_attributes(node) & BASE_STATE[base])


def test_detector_flags_a_subclass_that_sets_base_state():
    source = ("class OrbitGroup:\n    def __init__(self):\n        self.n = 1\n\n"
              "class A(OrbitGroup):\n    unit = 0\n\n"
              "    def __init__(self):\n        self.n, (self.auts, self.twists) = 2, (0, 1)\n\n"
              "class B(A):\n    def f(self):\n        self._classes: dict = {}\n"
              "        rank = self.gen_names = 3\n")
    assert base_state_overrides([source]) == [
        ("A", "n"), ("A", "twists"), ("A", "unit"), ("B", "_classes")]


def test_no_subclass_sets_what_its_base_constructor_sets():
    sources = [(SRC / name).read_text(encoding="utf-8") for name in ("groups.py", "mvalued.py")]
    assert base_state_overrides(sources) == []
    heisenberg = next(node for node in ast.walk(ast.parse(sources[0]))
                      if isinstance(node, ast.ClassDef) and node.name == "HeisenbergGroup")
    defined = {node.name for node in heisenberg.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"identity", "gen", "render"}


# what OrbitGroup defines once, on its batches, for every class rule
ORBIT_SHARED = {"mul", "project", "carrier", "products", "step"}


def test_orbit_subclasses_bring_only_their_class_rule():
    subclasses = [cls for cls in vars(mvalued).values() if isinstance(cls, type)
                  and issubclass(cls, mvalued.OrbitGroup) and cls is not mvalued.OrbitGroup]
    assert subclasses
    assert sorted(f"{cls.__name__}.{name}" for cls in subclasses
                  for name in ORBIT_SHARED & set(vars(cls))) == []


# the functions that may form a canonical key: those that print or sort for
# printing, the keys' own definitions, and automorphism signatures
KEY_USERS = {"render", "carrier", "sample_elements", "_elements", "quadratic_bound_check",
             "orbit", "canonical", "canonical_key",
             "Automorphism.__init__", "AutomorphismGroup.__init__"}
KEY_NAMES = {"canonical_key", "canonical"}


def key_uses(source):
    """(line, function) for each use of `canonical_key` or `canonical`
    inside a top-level function or method that KEY_USERS does not name, by
    its own name or as Class.method; a nested function counts as the one it
    is defined in."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{child.name}", child) for child in node.body
                          if isinstance(child, ast.FunctionDef)]
    return sorted((use.lineno, qualified) for qualified, function in functions
                  if not {qualified, qualified.split(".")[-1]} & KEY_USERS
                  for use in ast.walk(function)
                  if isinstance(use, ast.Attribute) and use.attr in KEY_NAMES
                  or isinstance(use, ast.Name) and use.id in KEY_NAMES)


def test_detector_flags_a_key_formed_off_the_output_edge():
    source = ("def render(X, x):\n    return X.canonical(x)\n\n"
              "def walk(X, layer):\n    return sorted(layer, key=X.canonical)\n\n"
              "class Automorphism:\n    def __init__(self, b):\n"
              "        self.signature = b.canonical_key(1)\n\n"
              "class OrbitGroup:\n    def __init__(self, b):\n"
              "        def keyed(g):\n            return (b.canonical_key(g), g)\n"
              "        self.keyed = keyed\n")
    assert key_uses(source) == [(5, "walk"), (14, "OrbitGroup.__init__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_output_edge_forms_canonical_keys(path):
    assert key_uses(path.read_text(encoding="utf-8")) == []
