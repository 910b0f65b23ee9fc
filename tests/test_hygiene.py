"""Source hygiene: every name a module imports is used in that module,
every import is a top-level statement of its module but the CLI's
`argparse`, imported only to build a parser, every function or
method the package or ``tests/oracles.py`` defines is referenced outside
its own definition, every row of the oracle table is bound to one test,
every class that defines a kernel (a batch hook or a compiled map) has it
called by a row's fast path, only the CLI imports `time`, importing the
CLI loads neither `dataclasses` nor `inspect`, a well-formed CLI run loads
no `argparse`, importing ``tests/oracles.py`` builds no instance,
building an instance loads no analysis or CLI module, every verification
suite takes only (instance, r_max, budget), every backend kind is one a
config can build, no subclass of a base with one
constructor (`OrbitGroup`, `_IntVectors`) sets what that constructor sets,
an orbit group's subclass brings only its class rule, only the output
edge forms canonical keys, only the budget handle raises an overrun
or reads the default budget, and only the kernel compiler evaluates
source."""

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
from mvgroups import groups, mvalued, verify, wordspec
from mvgroups.wordspec import load_instance

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


def nested_imports(source: str, allowed=()):
    """The lines of imports below module level, except `import m` of a
    module m in `allowed`."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
                  and not (isinstance(node, ast.Import)
                           and {alias.name for alias in node.names} <= set(allowed)))


def test_detector_flags_a_nested_import():
    source = ("import json\n\ndef f():\n    from typing import List\n    import argparse\n"
              "    import argparse, json\n    return json\n")
    assert nested_imports(source) == [4, 5, 6]
    assert nested_imports(source, ["argparse"]) == [4, 6]


# module -> the modules it may import below module level: the CLI imports
# argparse only to build a parser, which a well-formed command line never needs
LAZY_IMPORTS = {"cli.py": ["argparse"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8"), LAZY_IMPORTS.get(path.name, ())) == []


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


KERNELS = ("products", "step", "project_all", "homomorphism")


def test_every_kernel_runs_in_a_table_row(every_instance, monkeypatch):
    """Each class of the package that defines a kernel in its own body has
    that kernel called by a row's fast path on one of the row's cases.
    Each kernel is wrapped while the rows run, so a kernel is credited only
    when it is called (through `super()` as well), not when the case merely
    holds an instance of its class."""
    modules = [importlib.import_module(f"mvgroups.{m.name}")
               for m in pkgutil.iter_modules(mvgroups.__path__)]
    kernels = {(cls, kernel) for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               for kernel in KERNELS if kernel in vars(cls)}
    called, running = set(), []  # running holds the row whose fast path runs

    def wrap(cls, kernel):
        method = vars(cls)[kernel]

        def counted(*args, **kwargs):
            if running:
                called.add((cls, kernel))
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, kernel, counted)

    for cls, kernel in kernels:
        wrap(cls, kernel)
    for row in oracles.ROWS:
        for name in filter(row.applies, oracles.EVERY_INSTANCE):
            for case in row.cases(every_instance[name]):
                running.append(row.walk)
                row.fast(*case)
                running.pop()
    assert sorted(f"{cls.__name__}.{kernel}" for cls, kernel in kernels - called) == []


def clock_imports(source):
    """The line of each import of `time`, or from it, in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and "time" in (a.name for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "time")


def test_detector_flags_a_clock_import():
    source = "import json, time\nfrom time import perf_counter\nimport timeit\n"
    assert clock_imports(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_reads_a_clock(path):
    """A walk holds its frontier and seen set and reads no clock: `--stats`
    in the CLI stamps each layer it is told of."""
    assert clock_imports(path.read_text(encoding="utf-8")) == []


# the scopes, as module.function, that may construct BudgetExceeded or read
# DEFAULT_BUDGET (the handle's default, and the config's defaults.budget)
BUDGET_RAISERS = {"groups.Budget.check"}
BUDGET_READERS = {"groups.Budget.__init__", "wordspec.parse_config"}


def scopes(tree, module):
    """(module.qualified name, node) for each top-level function, each
    method as Class.method, each other statement of a class body under the
    class's name, and each other top-level statement as <module>."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                method = isinstance(child, ast.FunctionDef)
                yield f"{module}.{node.name}{'.' + child.name if method else ''}", child
        else:
            name = node.name if isinstance(node, ast.FunctionDef) else "<module>"
            yield f"{module}.{name}", node


def budget_breaches(source, module):
    """(line, scope, breach) for each use of the budget outside its handle:
    a `BudgetExceeded(` call outside BUDGET_RAISERS, a read of
    DEFAULT_BUDGET outside BUDGET_READERS, and any function or lambda with
    an `on_layer` parameter: a walk reports its layers to the handle's
    observer."""
    breaches = []
    for scope, top in scopes(ast.parse(source), module):
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "BudgetExceeded" and scope not in BUDGET_RAISERS):
                breaches.append((node.lineno, scope, "raises"))
            elif (isinstance(node, ast.Name) and node.id == "DEFAULT_BUDGET"
                  and isinstance(node.ctx, ast.Load) and scope not in BUDGET_READERS):
                breaches.append((node.lineno, scope, "reads"))
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)) and "on_layer" in {
                    a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                    *node.args.kwonlyargs)}:
                breaches.append((node.lineno, scope, "on_layer"))
    return sorted(breaches)


def test_detector_flags_a_budget_use_outside_the_handle():
    source = ("DEFAULT_BUDGET = 10\n\n"
              "class Budget:\n    def __init__(self, limit=DEFAULT_BUDGET, observer=None):\n"
              "        self.observer = observer\n\n"
              "    def check(self, n):\n        raise BudgetExceeded(n)\n\n"
              "def walk(budget=DEFAULT_BUDGET, on_layer=None):\n"
              "    raise BudgetExceeded(budget)\n\n"
              "def parse_config(d):\n    return d.get('budget', DEFAULT_BUDGET)\n\n"
              "report = lambda r, on_layer: on_layer(r)\n")
    assert budget_breaches(source, "groups") == [
        (10, "groups.walk", "on_layer"), (10, "groups.walk", "reads"),
        (11, "groups.walk", "raises"), (14, "groups.parse_config", "reads"),
        (16, "groups.<module>", "on_layer")]
    # in another module the handle's own uses are breaches too
    assert budget_breaches(source, "wordspec")[:3] == [
        (4, "wordspec.Budget.__init__", "reads"), (8, "wordspec.Budget.check", "raises"),
        (10, "wordspec.walk", "on_layer")]
    assert (14, "wordspec.parse_config", "reads") not in budget_breaches(source, "wordspec")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_budget_handle_raises_an_overrun_or_reads_the_default(path):
    """Every enumeration counts against the command's `Budget`, whose
    `check` alone raises BudgetExceeded, naming the enumeration, and whose
    observer alone hears of its layers."""
    assert budget_breaches(path.read_text(encoding="utf-8"), path.stem) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself has imported both modules here
    probe = ("import sys, mvgroups.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_a_well_formed_run_loads_no_argparse():
    # a fresh interpreter: the direct parse reads a well-formed command line,
    # so neither argparse nor the gettext it imports is loaded
    probe = ("import sys, mvgroups.cli; "
             f"code = mvgroups.cli.run(['growth', '-c', {str(ROOT / 'configs' / 'nat.json')!r}, "
             "'--radius', '2']); "
             "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def test_importing_the_oracles_builds_no_instance():
    # a fresh interpreter; conftest imports oracles, so an instance built
    # there and broken would stop the whole suite instead of its own tests
    probe = ("import mvgroups.wordspec as w; calls = []; real = w.load_instance; "
             "w.load_instance = lambda *a, **k: calls.append(a) or real(*a, **k); "
             "import oracles; print(len(calls))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(TESTS)])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "0\n"


@pytest.mark.parametrize("name", oracles.ORBIT)
def test_the_json_tells_finite_groups_as_their_backends_do(name):
    assert (oracles.is_finite(oracles.DOCUMENTS[name]["group"])
            == load_instance(oracles.PATHS[name]).backend.is_finite())


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


def test_every_backend_kind_is_one_a_config_can_build():
    """A group backend of the package that no config can name is surface
    no command reaches: the backends' kinds are the config's group kinds."""
    kinds = {cls.kind for cls in vars(groups).values() if isinstance(cls, type)
             and issubclass(cls, groups.GroupBackend) and cls is not groups.GroupBackend
             and "kind" in vars(cls)}
    assert kinds == set(wordspec._GROUP_KEYS)


# base class -> the attributes its one constructor sets
BASE_STATE = {"OrbitGroup": {"backend", "n", "twists", "_twisted", "_members", "unit"},
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
              "class B(A):\n    def f(self):\n        self._twisted: dict = {}\n"
              "        rank = self.gen_names = 3\n")
    assert base_state_overrides([source]) == [
        ("A", "n"), ("A", "twists"), ("A", "unit"), ("B", "_twisted")]


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
    # the class rule is each subclass's own, so the base has none to fall back on
    assert all("project_all" in vars(cls) for cls in subclasses)
    assert "project_all" not in vars(mvalued.OrbitGroup)


# the functions that may form a canonical key: those that print or sort for
# printing, the keys' own definitions, and automorphism signatures
KEY_USERS = {"render", "carrier", "sample_elements", "_elements", "quadratic_bound_check",
             "orbit", "canonical", "canonical_key",
             "Automorphism.__init__"}
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


def source_evaluations(source, module):
    """(line, scope, name) of each use of the builtins eval, exec and
    compile in `source`, called or passed on; an attribute such as
    `re.compile` is none of them."""
    return sorted((node.lineno, scope, node.id) for scope, top in scopes(ast.parse(source), module)
                  for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id in ("eval", "exec", "compile"))


def test_detector_flags_a_source_evaluation():
    source = ("import re\nPATTERN = re.compile('a')\n\n"
              "class _IntVectors:\n    @staticmethod\n    def _kernel(rows):\n"
              "        return eval('lambda gs: gs', {})\n\n"
              "def run(text):\n    exec(text)\n    f = compile\n    return f(text, '', 'eval')\n")
    assert source_evaluations(source, "groups") == [
        (7, "groups._IntVectors._kernel", "eval"), (10, "groups.run", "exec"),
        (11, "groups.run", "compile")]


def test_only_the_kernel_compiler_evaluates_source():
    """The one `eval` of the package is the kernel compiler's, whose source
    holds fixed names and int coefficients alone."""
    assert [use[1:] for path in sorted(SRC.glob("*.py"))
            for use in source_evaluations(path.read_text(encoding="utf-8"), path.stem)] == [
        ("groups._IntVectors._kernel", "eval")]
