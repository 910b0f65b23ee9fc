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
s in gens.  The base class builds each product, and the builtin 2-valued
group lists a layer's values in one display; an OrbitGroup twists the
generators once, forms a layer's backend products in one ``products``
batch and projects them in one ``project_all`` batch: a coset group folds
the minimum over its compiled twists by compare-select, each twist a
batch map called once on the whole batch (A is the tuple of compiled
automorphisms ``close_automorphisms`` returns, and no two of them are
composed), and a double coset group looks
the batch up in the partition of G it alone builds, at construction.  A
carrier draws G lazily, at most one element more than the budget's limit,
and the partition, the carrier and the axiom pair table each overrun the
budget under their own names.  The scalar ``mul``
and ``project`` are batches of one.  Z^k and the Heisenberg group form
the products in one list display each, a free group concatenates at
the seam, and a direct product runs each factor's batch on its column.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ValidationError
from .groups import Automorphism, Budget, GroupBackend, _Memo


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
        """(|x-y|, x+y), already in order on N u {0}."""
        return (abs(x - y), x + y)

    def inv(self, x):
        return x

    def step(self, gens):
        """The scalar loop's values of u*s, in its order, in one list display."""
        return lambda layer: [v for u in layer for s in gens for v in (abs(u - s), u + s)]


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
    each twist is a batch map, a sequence of G-elements -> their images;
    independence of the representative choice is a tested property, not an
    assumption, and it lets any fixed member name a class: the native
    minimum needs no key.  `canonical` keys a class only where it is
    printed or sorted.

    The one constructor sets the backend, n = len(twists), the twists, the
    memo of each right factor's twisted images, filled a batch at a time,
    the class rule `members` (a class -> its members) and the unit.  The
    scalar `mul`, `project` and `carrier` are defined here once, on the
    batches: a subclass checks its arguments, sets its own state and
    defines its class rule's `project_all`.
    """

    def __init__(self, backend: GroupBackend,
                 twists: List[Callable[[Sequence[Any]], List[Any]]],
                 members: Callable[[Any], Iterable[Any]]):
        self.backend = backend
        self.n = len(twists)
        self.twists = twists
        self._twisted: dict = {}  # y -> its n twisted images
        self._members = members  # holds no self, so no instance is a reference cycle
        self.unit = self.project(backend.identity)

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

    def carrier(self, budget: Budget = Budget()) -> List[Any]:
        """All classes, in the canonical order; finite backends only.  G is
        drawn lazily, in whatever order the backend draws it (a range, the
        factors' draws nested, a permutation group's uncapped closure in
        discovery order), and the draw stops at the element one past the
        budget's limit: the carrier of X overruns iff |G| is over the
        limit, whatever the backend.  The classes are sorted by
        `canonical`, so the draw's order does not show."""
        if not self.backend.is_finite():
            raise ValidationError("carrier enumeration needs a finite backend")
        gs = list(itertools.islice(self.backend.elements(), budget.limit + 1))
        budget.check("the carrier of X", len(gs))
        return sorted(set(self.project_all(gs)), key=self.canonical)

    def products(self, xs, ys):
        """One backend batch of x * t(y), t(y) memoized per y, then one
        project_all.  A batch with ys the memo lacks twists them, each
        twist in one batch call, and starts again."""
        memo = self._twisted
        try:
            twisted = list(itertools.chain.from_iterable(map(memo.__getitem__, ys)))
        except KeyError:
            fresh = list(dict.fromkeys(y for y in ys if y not in memo))
            memo.update(zip(fresh, zip(*[t(fresh) for t in self.twists])))
            return self.products(xs, ys)
        return self.project_all(self.backend.products(xs, twisted))

    def step(self, gens):
        """layer -> project(u * t) over u in the layer, then the distinct
        twisted generators t.

        By the definition of mul this yields the union of the supports of
        u*s over s in gens, each twist applied once, to the batch of
        generators, instead of once per product.  A layer is one backend
        ``products`` batch, projected in one ``project_all`` batch.
        """
        products, project_all = self.backend.products, self.project_all
        steps = tuple(dict.fromkeys(itertools.chain.from_iterable(
            zip(*[t(gens) for t in self.twists]))))
        return lambda layer: project_all(products(layer, steps))

    def render_form(self, form) -> str:
        return self.backend.render(form[1])


class CosetGroup(OrbitGroup):
    """Coset group of (G, A): orbits of G under a finite A <= Aut(G), n = |A|.

    A is the tuple close_automorphisms returns, and the twists are its
    compiled batch maps.  On a finite G as on an infinite one, a class is
    the orbit minimum, folded over the batch: nothing partitions G, no
    G-element is drawn until a carrier is asked for, and no two
    automorphisms are composed."""

    def __init__(self, backend: GroupBackend, auts: Sequence[Automorphism]):
        if any(a.backend is not backend for a in auts):
            raise ValidationError("automorphism group does not act on this backend")
        self.auts = auts
        twists = [a.forward for a in auts]
        self._moves = [a.forward for a in auts if a.images != backend.gens]
        super().__init__(backend, twists, lambda g: [t((g,))[0] for t in twists])

    def project_all(self, gs: Sequence[Any]) -> List[Any]:
        """[project(g) for g in gs], reading no class table: the minimum
        folded one twist at a time, from gs (the identity twist) over
        `_moves`, each move one batch call on gs, by compare-select, which
        keeps a unless b < a as `min` does."""
        if not self._moves:
            return list(gs)
        least = gs
        for t in self._moves:
            least = [b if b < a else a for a, b in zip(least, t(gs))]
        return least


class DoubleCosetGroup(OrbitGroup):
    """Double coset group of (G, H) for finite G, with n = |H|.

    H is closed, and G partitioned into double cosets, once, at
    construction and each under the budget, so a projection is a lookup in
    `_classes`; the members each class was formed with are kept for its
    canonical form."""

    def __init__(self, backend: GroupBackend, subgroup: Sequence[Any],
                 budget: Budget = Budget()):
        if not backend.is_finite():
            raise ValidationError("double coset groups are implemented for finite backends only")
        self.subgroup = H = list(backend._close(subgroup, budget))
        # g -> its class, and class -> HgH, formed as its distinct left cosets
        # (h g)H in ``products`` batches: |H| + |HgH| products; overruns once
        # more G-elements than the limit are filed
        classes, members = {}, {}
        for g in backend.elements():
            if g not in classes:
                group = set()
                for left in backend.products(H, [g]):
                    if left not in group:
                        group.update(backend.products([left], H))
                least = min(group)
                members[least] = group
                classes.update(dict.fromkeys(group, least))
                budget.check("the double-coset partition of G", len(classes))
        self._classes = classes
        super().__init__(backend, [functools.partial(backend.products, [h]) for h in H],
                         members.__getitem__)

    def project_all(self, gs: Sequence[Any]) -> List[Any]:
        """[project(g) for g in gs], as one lookup in the partition."""
        return list(map(self._classes.__getitem__, gs))


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


def _primes(count: int) -> List[int]:
    """The first `count` primes, by an all-integer sieve of Eratosthenes,
    its length doubled until it holds them."""
    sieve = bytearray(2)
    while sum(sieve) < count:
        sieve = bytearray([0, 0]) + bytearray([1]) * (2 * len(sieve) - 2)
        for p in filter(sieve.__getitem__, range(math.isqrt(len(sieve)) + 1)):
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    return list(itertools.compress(range(len(sieve)), sieve))[:count]


def check_axioms(X: MvGroup, sample: Sequence[Any], budget: Budget = Budget()) -> AxiomReport:
    """Verify associativity / unit / inverse on the sample; failures carry witnesses.

    Each class met gets an id, each id its own prime, and a multiset of
    ids the product of their primes as its code: by unique factorization
    two codes are equal exactly when the multisets are.  Each pair read is
    formed once, as the code of its n values: the table of the sample
    classes, one ``X.products`` batch per row, then x*w and w*z for the
    classes w it adds, in one batch each.  The code of x*P, for a distinct
    table entry P, is the product of the codes of x*w over w in P, and so
    is that of P*z; associativity compares rows of these ints over z, and
    only a row where they differ is scanned: witness and triples are the
    plain loop's.  x passes the unit axiom when x*e and e*x code p_x^n,
    and the inverse axiom when the unit's prime divides the codes of
    x*inv(x) and inv(x)*x.  Before any product is formed, the N sample
    classes' pair table, N^2 entries, is charged to `budget`, the
    command's handle, and overruns it past its limit.
    """
    sample = list(sample)
    if not sample:
        raise ValidationError("axiom check needs a nonempty sample")
    if X.unit not in sample:
        sample = [X.unit] + sample
    ids = _Memo(lambda c, count=itertools.count(): next(count))  # sample classes first
    n, row = X.n, list(map(ids.__getitem__, sample))
    classes, unit = list(ids), ids[X.unit]
    budget.check("the axiom pair table", len(classes) ** 2, what="entries")

    def prods(values, keys):  # the product of values[k] over each n keys k in turn
        return list(map(math.prod, zip(*[map(values.__getitem__, keys)] * n)))

    table = [list(map(ids.__getitem__, X.products([x], classes))) for x in classes]
    bars = [(xb, ids.get(xb)) for xb in map(X.inv, classes)]  # no id: x*inv(x) is formed alone
    added = list(ids)[len(classes):]
    xw, wz = [list(map(ids.__getitem__, X.products(*p)))
              for p in [(classes, added), (added, classes)]]
    primes = _primes(len(ids))
    *codes, xw, wz = [prods(primes, line) for line in (*table, xw, wz)]  # a code per pair
    lefts = [line + xw[i * len(added):(i + 1) * len(added)] for i, line in enumerate(codes)]
    rights = [[*col, *wz[i::len(classes)]] for i, col in enumerate(zip(*codes))]
    members = {c: line[j * n:j * n + n] for t, line in zip(codes, table) for j, c in enumerate(t)}
    entries, flat = dict(zip(members, itertools.count())), list(itertools.chain(*members.values()))
    cells = [[entries[t[i]] for i in row] for t in codes]
    left, by_z = [prods(line, flat) for line in lefts], [prods(line, flat) for line in rights]
    right = list(map(list, zip(*map(by_z.__getitem__, row))))  # Q -> its row over z
    inverses = [lefts[i][k] % primes[unit] == 0 == rights[i][k] % primes[unit] if k is not None
                else X.unit in X.products([x], [xb]) and X.unit in X.products([xb], [x])
                for i, (x, (xb, k)) in enumerate(zip(classes, bars))]
    unit_witness = next((x for x, i in zip(sample, row)
                         if not codes[unit][i] == codes[i][unit] == primes[i] ** n), None)
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
