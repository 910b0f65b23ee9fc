"""n-valued groups: coset groups, double coset groups, and the builtin
2-valued group on the non-negative integers.

An MvGroup has a unit, an involution-style inverse map, and mul(x, y)
returning its n values as a sorted n-tuple, the canonical form of an
n-multiset.  Elements are hashable, with ``canonical`` giving the order
they print in.  Coset and double-coset groups share one OrbitGroup
constructor, product, projection and carrier, and bring only their class
rule (A-orbit or HgH); a class is the G-element least in it under native
``<``, and its canonical key is formed only where it is printed or sorted.

``step(gens)`` is the one expansion every Cayley-graph walk takes: a
layer map, sending a layer to the values of u*s over its elements u, then
s in gens.  The base class builds each product; an OrbitGroup twists the
generators once, forms a layer's backend products in one ``products``
batch and projects them in one ``project_all`` batch: a coset group folds
the minimum over its compiled twists by compare-select, a double coset
group looks the batch up in its partition.  The scalar ``mul`` and
``project`` are batches of one.  Z^k forms the products column-wise, the
Heisenberg group in one list display, a free group concatenates at the
seam, and a direct product runs each factor's batch on its column.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BackendMismatch, BudgetExceeded, InfiniteBackendUnsupported, ValidationError
from .groups import DEFAULT_BUDGET, AutomorphismGroup, GroupBackend


class _Memo(dict):
    """x -> fn(x), each value formed on first use and shared after."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


class MvGroup:
    """Base class: n-valued multiplication with unit and inverse."""

    n: int
    unit: Any

    def mul(self, x, y) -> Tuple[Any, ...]:
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def render(self, x) -> str:
        return self.render_form(self.canonical(x))

    def canonical(self, x):
        """The sort key of the order elements print in: x itself."""
        return x

    def render_form(self, form) -> str:
        """The printed element whose canonical form is `form`."""
        return str(form)

    def products(self, xs: Sequence[Any], ys: Sequence[Any]) -> List[Any]:
        """The n values of x*y, x in xs then y in ys, n at a time: the scalar oracle."""
        mul = self.mul
        return [v for x in xs for y in ys for v in mul(x, y)]

    def step(self, gens: Sequence[Any]) -> Callable[[Iterable[Any]], List[Any]]:
        """layer -> the values of u*s over u in the layer, then s in gens,
        repeats allowed: the scalar ``products`` loop, the oracle for the
        overrides."""
        return lambda layer: MvGroup.products(self, layer, gens)


class NatGroup(MvGroup):
    """The 2-valued group on N u {0} with x*y = [x+y, |x-y|]."""

    n = 2
    unit = 0

    def mul(self, x, y):
        return tuple(sorted((x + y, abs(x - y))))

    def inv(self, x):
        return x


class MutatedNatGroup(MvGroup):
    """Negative control: x*y = [x+y, x+y+1] is associative; unit and inverse fail."""

    n = 2
    unit = 0

    def mul(self, x, y):
        return (x + y, x + y + 1)

    def inv(self, x):
        return x


class OrbitGroup(MvGroup):
    """Classes of G, each the G-element least in its class under native `<`.

    x*y is the fixed-representative n-family [project(x * t(y)) for t in
    twists], so it has exactly n values even on classes with stabilizers;
    independence of the representative choice is a tested property, not an
    assumption, and it lets any fixed member name a class: the native
    minimum needs no key.  `canonical` keys a class only where it is
    printed or sorted.

    The one constructor sets the backend, n = len(twists), the twists, a memo
    of each right factor's twisted images, the class rule `members`, the
    class table (a finite G partitioned by `members`, g -> g's class; else
    empty, and never written after) and the unit.  The scalar `mul`,
    `project` and `carrier` are defined here once, on the batches: a
    subclass checks its arguments, sets its own state and, if G may be
    infinite, defines the class rule's `project_all`.
    """

    def __init__(self, backend: GroupBackend, twists: List[Callable[[Any], Any]],
                 members: Callable[[Any], Iterable[Any]], budget: int):
        self.backend = backend
        self.n = len(twists)
        self.twists = twists
        # the lambda and `members` hold no self, so no instance is a reference cycle
        self._twisted = _Memo(lambda h: [t(h) for t in twists])
        self._members = members
        self._classes: Dict[Any, Any] = (
            self._partition(budget) if backend.is_finite() else {})
        self.unit = self.project(backend.identity)

    def _partition(self, budget: int) -> Dict[Any, Any]:
        """Every element of finite G -> its class; members(g) is formed once
        per class.  Raises BudgetExceeded once more than `budget` elements
        of G are filed."""
        classes = {}
        for g in self.backend.elements():
            if g not in classes:
                group = set(self._members(g))
                classes.update(dict.fromkeys(group, min(group)))
                if len(classes) > budget:
                    raise BudgetExceeded(budget)
        return classes

    def canonical(self, x) -> Tuple[Any, Any]:
        """(key, member) for x's member least by key: it prints, and classes sort so."""
        key = self.backend.canonical_key
        return min((key(p), p) for p in self._members(x))

    def mul(self, x, y):
        """The n values: the ``products`` batch of the one pair, sorted."""
        return tuple(sorted(self.products((x,), (y,))))

    def inv(self, x):
        return self.project(self.backend.inv(x))

    def project(self, g):
        """g's class: a ``project_all`` batch of one."""
        return self.project_all((g,))[0]

    def project_all(self, gs: Sequence[Any]) -> List[Any]:
        """[project(g) for g in gs], as one lookup in the partition of finite G."""
        return list(map(self._classes.__getitem__, gs))

    def carrier(self) -> List[Any]:
        """All classes, in the canonical order; finite backends only."""
        if not self.backend.is_finite():
            raise InfiniteBackendUnsupported("carrier enumeration needs a finite backend")
        return sorted(set(self._classes.values()), key=self.canonical)

    def products(self, xs, ys):
        """One backend batch of x * t(y), t(y) memoized per y, then one project_all."""
        twisted = list(itertools.chain.from_iterable(map(self._twisted.__getitem__, ys)))
        return self.project_all(self.backend.products(xs, twisted))

    def step(self, gens):
        """layer -> project(u * t) over u in the layer, then the distinct
        twisted generators t.

        By the definition of mul this yields the union of the supports of
        u*s over s in gens, each twist applied once per generator instead
        of once per product.  A layer is one backend ``products`` batch,
        projected in one ``project_all`` batch.
        """
        products, project_all = self.backend.products, self.project_all
        steps = tuple(dict.fromkeys(t(s) for s in gens for t in self.twists))
        return lambda layer: project_all(products(layer, steps))

    def render_form(self, form) -> str:
        return self.backend.render(form[1])


class CosetGroup(OrbitGroup):
    """Coset group of (G, A): orbits of G under a finite A <= Aut(G), n = |A|.

    The twists are A's compiled maps.  A finite G is partitioned into
    A-orbits at construction, within the budget, for the carrier; on any G
    a class is the orbit minimum, folded over the batch."""

    def __init__(self, backend: GroupBackend, auts: AutomorphismGroup,
                 budget: int = DEFAULT_BUDGET):
        if auts.backend is not backend:
            raise BackendMismatch("automorphism group does not act on this backend")
        self.auts = auts
        twists = [a.forward for a in auts]
        self._moves = [t for i, t in enumerate(twists) if i != auts.identity_index]
        super().__init__(backend, twists, lambda g: (t(g) for t in twists), budget)

    def project_all(self, gs: Sequence[Any]) -> List[Any]:
        """[project(g) for g in gs], reading no class table: the minimum
        folded one twist at a time, from gs (the identity twist) over
        `_moves`, by compare-select, which keeps a unless b < a as `min`
        does."""
        if not self._moves:
            return list(gs)
        least = gs
        for t in self._moves:
            least = [b if b < a else a for a, b in zip(least, map(t, gs))]
        return least


class DoubleCosetGroup(OrbitGroup):
    """Double coset group of (G, H) for finite G, with n = |H|.

    G is partitioned into double cosets once, at construction and within
    the budget, so a projection is a lookup in the partition."""

    def __init__(self, backend: GroupBackend, subgroup: Sequence[Any],
                 budget: int = DEFAULT_BUDGET):
        if not backend.is_finite():
            raise InfiniteBackendUnsupported(
                "double coset groups are implemented for finite backends only")
        mul = backend.mul
        self.subgroup = H = backend._close(subgroup)

        def double_coset(g):
            """HgH as its distinct left cosets (h g)H: |H| + |HgH| products."""
            members = set()
            for left in [mul(h1, g) for h1 in H]:
                if left not in members:
                    members.update([mul(left, h2) for h2 in H])
            return members

        super().__init__(backend, [functools.partial(mul, h) for h in H], double_coset, budget)


# ---------------------------------------------------------------------------
# axiom checking


class AxiomReport(NamedTuple):
    associativity_ok: bool
    unit_ok: bool
    inverse_ok: bool
    associativity_witness: Optional[Tuple[Any, Any, Any]]
    unit_witness: Optional[Any]
    inverse_witness: Optional[Any]
    triples_checked: int
    elements_checked: int

    @property
    def all_ok(self) -> bool:
        return self.associativity_ok and self.unit_ok and self.inverse_ok

    def _axioms(self, render):
        """(name, ok, rendered witness or None, count label, count) per
        axiom; the associativity witness renders as a list of three."""
        unit, inverse = self.unit_witness, self.inverse_witness
        triple = self.associativity_witness
        return (("associativity", self.associativity_ok,
                 None if triple is None else [render(w) for w in triple],
                 "triples", self.triples_checked),
                ("unit", self.unit_ok, None if unit is None else render(unit),
                 "elements", self.elements_checked),
                ("inverse", self.inverse_ok, None if inverse is None else render(inverse),
                 "elements", self.elements_checked))

    def to_record(self, render=str) -> dict:
        return {**{name: {"ok": ok, "witness": witness}
                   for name, ok, witness, _, _ in self._axioms(render)},
                "triples_checked": self.triples_checked,
                "elements_checked": self.elements_checked}

    def to_text(self, render=str) -> str:
        lines = []
        for name, ok, witness, label, count in self._axioms(render):
            if isinstance(witness, list):
                witness = f"({', '.join(witness)})"
            detail = "" if witness is None else f" witness={witness}"
            lines.append(f"{'PASS' if ok else 'FAIL'} {name} {label}={count}{detail}")
        return "\n".join(lines)


def check_axioms(X: MvGroup, sample: Sequence[Any]) -> AxiomReport:
    """Verify associativity / unit / inverse on the sample; failures carry witnesses.

    Each pair read is formed once, one ``X.products`` batch per sample row
    or column, as sorted value ids: the table of the sample classes, then
    x*w and w*z (at w's id) for the classes w it adds.  x*(y*z) is sorted
    once per (x, y*z), (x*y)*z once per (x*y, z), and only a row over z
    where they differ is scanned: witness and triples are the plain loop's.
    """
    sample = list(sample)
    if not sample:
        raise ValidationError("axiom check needs a nonempty sample")
    if X.unit not in sample:
        sample = [X.unit] + sample
    ids = _Memo(lambda c, count=itertools.count(): next(count))  # sample classes first
    n, row = X.n, list(map(ids.__getitem__, sample))
    classes, unit = list(ids), ids[X.unit]

    def sorted_ids(values):  # each n values as the sorted tuple of their ids
        return list(map(tuple, map(sorted, zip(*[map(ids.__getitem__, values)] * n))))

    def unions(line):  # per distinct table entry P, the sorted union of line[w] over w in P
        return list(map(sorted, map(itertools.chain, *[map(line.__getitem__, flat)] * n)))

    table = [sorted_ids(X.products([x], classes)) for x in classes]
    added = list(ids)[len(classes):]
    bars = [(xb, ids.get(xb)) for xb in map(X.inv, classes)]  # no id: x*inv(x) is formed alone
    lefts = [line + sorted_ids(X.products([x], added)) for x, line in zip(classes, table)]
    rights = [[*col, *sorted_ids(X.products(added, [z]))] for z, col in zip(classes, zip(*table))]
    entries = dict(zip(dict.fromkeys(itertools.chain(*table)), itertools.count()))
    flat, cells = list(itertools.chain(*entries)), [[entries[t[i]] for i in row] for t in table]
    left, by_z = list(map(unions, lefts)), list(map(unions, rights))  # x*P, and P*z
    right = list(map(list, zip(*map(by_z.__getitem__, row))))  # Q -> its row over z
    inverses = [unit in lefts[i][k] and unit in rights[i][k] if k is not None else
                X.unit in X.products([x], [xb]) and X.unit in X.products([xb], [x])
                for i, (x, (xb, k)) in enumerate(zip(classes, bars))]
    unit_witness = next((x for x, i in zip(sample, row)
                         if not table[unit][i] == table[i][unit] == (i,) * n), None)
    inverse_witness = next((x for x, i in zip(sample, row) if not inverses[i]), None)
    size, witness, triples = len(sample), None, len(sample) ** 3
    for a, b in itertools.product(range(size), repeat=2):
        lhs, rhs = list(map(left[row[a]].__getitem__, cells[row[b]])), right[cells[row[a]][b]]
        if lhs != rhs:
            c = next(c for c in range(size) if lhs[c] != rhs[c])
            witness, triples = (sample[a], sample[b], sample[c]), (a * size + b) * size + c + 1
            break
    return AxiomReport(witness is None, unit_witness is None, inverse_witness is None,
                       witness, unit_witness, inverse_witness, triples, len(sample))
