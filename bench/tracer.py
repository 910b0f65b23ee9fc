"""Per-layer tracing of mvgroups, installed from outside the package.

``install()`` wraps the public functions and methods at every layer
boundary with a span recorder.  Functions that other modules bind with
``from ... import`` are rebound there too (``mvalued.orbit``,
``cli.ball``, ``groups.int_key``, ...), so every call path is seen.  The
package source is not modified.

Spans are aggregated in memory as they close: per boundary the number of
calls and the self time (span duration minus the time covered by child
spans), and per (boundary, parent boundary) pair the number of calls.
Beside those the tracer counts the reuse a cache would exploit (distinct
arguments per call, within one CLI op) and the nodes BFS produces.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "mvgroups"
# (module, attribute) -> boundary; "Class.method" patches the class.
FUNCTIONS = {
    ("cli", "run"): "cli.run",
    ("wordspec", "load_instance"): "wordspec.load_instance",
    ("verify", "run_suite"): "verify.run_suite",
    ("cayley", "ball"): "cayley.ball",
    ("cayley", "length"): "cayley.length",
    ("cayley", "power_table"): "cayley.power_table",
    ("cayley", "set_product"): "cayley.set_product",
    ("dynamics", "iterate_dynamic"): "dynamics.iterate_dynamic",
    ("dynamics", "bounds_check"): "dynamics.bounds_check",
    ("dynamics", "quadratic_bound_check"): "dynamics.quadratic_bound_check",
    ("mvalued", "check_axioms"): "mvalued.check_axioms",
    ("mvalued", "CosetGroup.project"): "mvalued.project.coset",
    ("mvalued", "DoubleCosetGroup.project"): "mvalued.project.double_coset",
    ("mvalued", "CosetGroup.carrier"): "mvalued.carrier",
    ("mvalued", "DoubleCosetGroup.carrier"): "mvalued.carrier",
    ("multiset", "MultiSet.of"): "multiset.of",
    ("multiset", "flatten"): "multiset.flatten",
    ("groups", "orbit"): "groups.orbit",
    ("groups", "Automorphism.apply"): "groups.apply",
    ("groups", "monoid_balls"): "groups.monoid_balls",
    ("groups", "close_automorphisms"): "groups.close_automorphisms",
    ("groups", "Automorphism.verify"): "groups.verify_automorphism",
    ("keys", "int_key"): "keys.int_key",
    ("keys", "seq_key"): "keys.seq_key",
}
# every n-valued group's mul, and every group backend's operations
MV_METHODS = ("mul",)
BACKEND_METHODS = ("mul", "inv", "power", "evaluate", "factor", "canonical_key")

BOUNDARIES = tuple(dict.fromkeys(
    list(FUNCTIONS.values())
    + ["mvalued.mul"]
    + [f"groups.backend.{m}" for m in BACKEND_METHODS]))
BFS_BOUNDARIES = ("cayley.ball", "cayley.power_table", "dynamics.iterate_dynamic")
DISTINCT = ("mvalued.mul", "mvalued.project.coset", "mvalued.project.double_coset",
            "groups.apply")


def _bfs_nodes(name, result):
    """Elements placed in a layer by one BFS call."""
    if name == "cayley.ball":
        return result.ball_sizes[-1]
    if name == "cayley.power_table":
        return sum(len(s) for s in result.set_powers)
    return sum(result.xi)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()            # (boundary, parent boundary) -> calls
        self.seen = {name: set() for name in DISTINCT}
        self.bfs_nodes = 0
        self.bfs_muls = 0
        self.monoid_nodes = 0
        self.triples = 0
        self.op = 0                       # index of the CLI op being traced
        self._stack = [["<root>", 0.0]]
        self._bfs_depth = 0
        self._patched = []                # (owner, attribute, original)
        self.missing = []                 # boundaries absent from this version

    # -- span recording ---------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                edges[name, parent[0]] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, name):
        if name == "mvalued.mul":
            seen = self.seen[name]

            def observe(args, result):
                seen.add((self.op, args[1], args[2]))
                if self._bfs_depth:
                    self.bfs_muls += 1
            return observe
        if name.startswith("mvalued.project."):
            seen = self.seen[name]
            return lambda args, result: seen.add((self.op, args[1]))
        if name == "groups.apply":
            seen = self.seen[name]
            return lambda args, result: seen.add((self.op, args[0].signature, args[1]))
        if name == "groups.monoid_balls":
            def observe(args, result):
                self.monoid_nodes += result.ball_sizes[-1]
            return observe
        if name == "mvalued.check_axioms":
            def observe(args, result):
                self.triples += result.triples_checked
            return observe
        return None

    def _bfs(self, name, fn):
        """Mark the extent of a BFS call so the muls inside it are attributed."""
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self._bfs_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._bfs_depth -= 1
            self.bfs_nodes += _bfs_nodes(name, result)
            return result
        return marked

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attribute, name):
        raw = owner.__dict__[attribute]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self._wrap(name, fn, self._observer(name))
        if name in BFS_BOUNDARIES:
            wrapped = self._bfs(name, wrapped)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, classmethod(wrapped) if is_classmethod else wrapped)
        return fn, wrapped

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                   for m in ("cli", "wordspec", "verify", "cayley", "dynamics",
                             "mvalued", "multiset", "groups", "keys")}
        rebind = {}  # id(original function) -> (original, wrapper)
        for (module, target), name in FUNCTIONS.items():
            owner = modules[module]
            *cls, attribute = target.split(".")
            if cls:
                owner = owner.__dict__.get(cls[0])
            if owner is None or attribute not in owner.__dict__:
                self.missing.append(f"{module}.{target}")
                continue
            original, wrapped = self._patch(owner, attribute, name)
            if not cls:
                rebind[id(original)] = (original, wrapped)

        mv_base = modules["mvalued"].MvGroup
        backend_base = modules["groups"].GroupBackend
        for module, base, methods, prefix in (
                (modules["mvalued"], mv_base, MV_METHODS, "mvalued."),
                (modules["groups"], backend_base, BACKEND_METHODS, "groups.backend.")):
            for cls in list(vars(module).values()):
                if isinstance(cls, type) and issubclass(cls, base):
                    for method in methods:
                        if method in cls.__dict__:
                            self._patch(cls, method, prefix + method)

        # names bound elsewhere with ``from ... import``
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attribute, value in list(vars(module).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attribute, value))
                    setattr(module, attribute, hit[1])

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = len(self.seen[name]) / calls if calls else 0.0
        out["bfs.nodes"] = self.bfs_nodes
        out["bfs.nodes_per_mul"] = self.bfs_nodes / self.bfs_muls if self.bfs_muls else 0.0
        out["groups.monoid_balls.nodes"] = self.monoid_nodes
        out["mvalued.check_axioms.triples"] = self.triples
        return out

    def call_graph(self) -> list:
        return [{"boundary": b, "parent": p, "calls": n}
                for (b, p), n in sorted(self.edges.items())]
