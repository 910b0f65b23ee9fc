"""Concrete group backends and finite automorphism groups acting on them.

A backend is a finitely generated group with computable multiplication,
inverse, identity and an injective canonical key per element.  Element
values are plain immutable Python data (ints, tuples, strings); the
backend object carries the operations, and ``products`` batches ``mul``
over a layer: the scalar loop by default, column by column on Z^k, one
list display on the Heisenberg group.  A free-group word is a string of
letters, so a product concatenates and cancels at the seam; a direct
product splits a layer into factor columns and runs each factor's own
batch on its column; a semidirect product twists each step once per
automorphism index.  A canonical key is an int or a tuple whose native
order is the canonical order: integers rank 0 < 1 < -1 < 2 < -2 < ...,
vectors compare componentwise in that rank, and free words compare fewer
syllables first, then syllable by syllable.  Keys give the order elements
print in, so only output paths form them.  Z^k and the Heisenberg group
share one integer-vector constructor: the rank and name checks (the free
group's too), identity, generators, rendering and keys.

Automorphisms are given by generator images (plus mandatory inverse
images) and are checked before use: relator-bearing kinds check that
every defining relator maps to the identity, and a backend with neither
relators nor finiteness is refused.  ``GroupBackend.homomorphism`` is the
one place an image list becomes a map: finite kinds without relators walk
their Cayley graph, checking the homomorphism property on every edge, and
keep the image table; Z^k compiles to a linear map, Z/m to multiplication
by the generator's image, the Heisenberg group to one polynomial in
(p, q, r), or to its nonzero terms when the images of a and b act on
(p, q) by a signed permutation and C is central, free groups to one
``str.translate`` for a signed permutation of the letters, else letter
substitution, and a direct product with relators whose generators map
into their own factors to one map per factor.  evaluate(factor(g),
images) is left only to products that mix their factors, and stays the
oracle on infinite kinds (permutation and table groups have no factor).
A verified automorphism keeps one map; when its inverse images differ
from its images they are checked on a second compiled map that is then
dropped, and when they are equal the one map serves both ways.
``close_automorphisms`` builds the finite subgroup of Aut(G) generated by
checked seeds, stepping by image lists alone, and compiles each distinct
automorphism it keeps once; ``AutomorphismGroup`` reads its composition
and inverse tables off the generator images.

``layers`` is the one breadth-first enumeration of the package: balls,
lengths, monoid balls and, through ``closure``, every finite closure (group
elements, subgroups, automorphism groups) are layers of it, and all of them
share its budget rule.  It expands a whole layer at a time; ``closure``
wraps a per-element expansion lazily.

``SemidirectProduct`` implements the group GA of pairs (g, a) with
(g, a)(h, b) = (g * a^{-1}(h), a b); ``monoid_balls`` takes the layers of
right multiplication by a fixed generator set, one ``products`` batch per
layer, producing the monoid spheres S+(e, r) and balls B+(e, r).
"""

from __future__ import annotations

import itertools
import operator
import time
from typing import Any, Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BackendMismatch,
    BudgetExceeded,
    InverseMissing,
    NotAnAutomorphism,
    ValidationError,
)
from .keys import int_key

Word = Tuple[Tuple[int, int], ...]  # ((generator index, nonzero exponent), ...)

DEFAULT_BUDGET = 10**6


def layers(start: Iterable[Any], expand: Callable[[List[Any]], Iterable[Any]],
           budget: int = DEFAULT_BUDGET,
           on_layer: Optional[Callable[[int, int, float], Any]] = None) -> Iterator[List[Any]]:
    """Breadth-first layers: layer 0 is `start`, layer i+1 holds, in the
    order they are discovered, the elements of expand(layer i) that no
    earlier layer holds.  `expand` is a layer map: it returns every
    candidate of the next layer, repeats allowed, element by element of the
    layer it is given.  Once a layer is empty every later one is.
    `on_layer`, if given, gets (radius, size, seconds forming it) of each
    layer as it is completed; the clock is read only then.

    The budget rule of every enumeration: BudgetExceeded is raised as soon
    as more than `budget` distinct elements have been reached.  Candidates
    are drawn one at a time, so a lazy `expand` is stopped at the first
    element over the budget; a batched one, which balls, lengths and
    monoid balls all take, has formed one layer's candidates by then.
    """
    began = on_layer and time.perf_counter()
    layer = list(dict.fromkeys(start))
    seen = set(layer)
    if len(seen) > budget:
        raise BudgetExceeded(budget, 0)
    radius = 0
    while True:
        if on_layer:
            on_layer(radius, len(layer), time.perf_counter() - began)
        yield layer
        began = on_layer and time.perf_counter()
        radius += 1
        fresh = []
        for v in expand(layer):
            if v not in seen:
                seen.add(v)
                fresh.append(v)
                if len(seen) > budget:
                    raise BudgetExceeded(budget, radius)
        layer = fresh


def closure(start: Iterable[Any], expand: Callable[[Any], Iterable[Any]],
            budget: int = DEFAULT_BUDGET) -> List[Any]:
    """Every element the nonempty `layers` hold, in discovery order, for a
    per-element `expand`: each layer is expanded lazily, element by element,
    so an `expand` that raises does so on the first bad element in discovery
    order, and the budget stops the walk at its first element over."""
    def expand_layer(layer):
        return itertools.chain.from_iterable(map(expand, layer))
    return [x for layer in itertools.takewhile(len, layers(start, expand_layer, budget))
            for x in layer]


class GrowthTable(NamedTuple):
    """Per-radius |B(x, r)| and |S(x, r)|, with the sphere element sets."""

    center: Any
    radius: int
    sphere_sets: List[Tuple[Any, ...]]
    ball_sizes: List[int]

    def sphere_sizes(self) -> List[int]:
        return [len(s) for s in self.sphere_sets]


def growth_table(center, radius: int, spheres: Iterable[Iterable[Any]]) -> GrowthTable:
    """The first radius + 1 of a walk's spheres from `center`, with the ball sizes."""
    sphere_sets = list(map(tuple, itertools.islice(spheres, radius + 1)))
    return GrowthTable(center, radius, sphere_sets, [*itertools.accumulate(map(len, sphere_sets))])


class GroupBackend:
    """Base class for group backends.  Subclasses set `kind` and `gen_names`."""

    kind: str = "abstract"
    gen_names: Tuple[str, ...] = ()

    # -- group structure -------------------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def canonical_key(self, g):
        """The element itself: non-negative ints and equal-length tuples of
        them already sort canonically."""
        return g

    def products(self, gs: Sequence[Any], hs: Sequence[Any]) -> List[Any]:
        """[mul(g, h) for g in gs for h in hs], element-major, as one batch."""
        return list(itertools.starmap(self.mul, itertools.product(gs, hs)))

    def render(self, g) -> str:
        raise NotImplementedError

    # -- generators and words --------------------------------------------

    def gen(self, index: int):
        """The element of the `index`-th declared generator."""
        raise NotImplementedError

    def power(self, g, k: int):
        if k < 0:
            return self.power(self.inv(g), -k)
        result = self.identity
        base = g
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def evaluate(self, word: Word, images: Optional[Sequence[Any]] = None):
        """Product of images[i]^e over the word; images default to the gens."""
        result = self.identity
        for index, exp in word:
            base = self.gen(index) if images is None else images[index]
            result = self.mul(result, self.power(base, exp))
        return result

    def factor(self, g) -> Word:
        """A word in the declared generators whose product is g.  Permutation
        and finite-table groups have none: their homomorphisms are tables."""
        raise NotImplementedError(f"{self.kind} backend does not support factoring")

    def relators(self) -> Optional[List[Word]]:
        """Defining relators, or None when the kind is checked edge by edge."""
        return None

    def homomorphism(self, images: Sequence[Any]) -> Callable[[Any], Any]:
        """The map with the given generator images: the only place an image
        list becomes a map.

        A finite kind without relators gets its image table, checked along
        every Cayley-graph edge: a walk from the identity over the edges
        g -> g*s sets image(g*s) = image(g)*image(s) and checks each edge
        whose target already has an image, 2|G||S| products.  Agreement on
        every edge gives image(g*w) = image(g)*image(w) for every positive
        word w, and positive words reach all of a finite group, so the map
        is multiplicative; NotAnAutomorphism names the first broken edge.
        Any other kind gets g -> evaluate(factor(g), images), which checks
        nothing; kinds with more structure override it.
        """
        if self.relators() is not None or not self.is_finite():
            return lambda g: self.evaluate(self.factor(g), images)
        edges = list(zip(map(self.gen, range(len(images))), images, self.gen_names))
        table = {self.identity: self.identity}

        def expand(g):
            image = table[g]
            for s, s_image, name in edges:
                h, value = self.mul(g, s), self.mul(image, s_image)
                if table.setdefault(h, value) != value:
                    raise NotAnAutomorphism(
                        f"break multiplicativity at ({self.render(g)}, {name})")
                yield h

        closure([self.identity], expand)
        missed = next((g for g in self.elements() if g not in table), None)
        if missed is not None:
            raise NotAnAutomorphism(f"leave {self.render(missed)} unmapped: "
                                    "the generators do not reach it")
        return table.__getitem__

    # -- finiteness -------------------------------------------------------

    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterable[Any]:
        raise NotImplementedError(f"{self.kind} backend is not finite")

    def _close(self, gens: Sequence[Any]) -> List[Any]:
        """Every element of the subgroup `gens` generate in a finite group, by
        BFS over them alone: there positive words reach the whole subgroup."""
        return closure([self.identity], lambda g: (self.mul(g, t) for t in gens))


# ---------------------------------------------------------------------------
# backends


def _identity(g):
    return g


def _rank_and_names(label: str, rank: int, gen_names: Optional[Sequence[str]]):
    """A checked rank and its generator names, g1..gk unless given."""
    if rank < 1:
        raise ValidationError(f"{label} rank must be >= 1, got {rank}")
    names = tuple(gen_names or (f"g{i+1}" for i in range(rank)))
    if len(names) != rank:
        raise ValidationError("generator name count must equal the rank")
    return rank, names


def _syllables(g: str) -> Iterator[Tuple[int, int]]:
    """(letter, exp) per run of one letter in g: its code halved, and the
    run's length, negated where bit 0 marks an inverse letter."""
    return ((c >> 1, (1 - 2 * (c & 1)) * len(list(run)))
            for c, run in itertools.groupby(map(ord, g)))


def _cancel(g: str, h: str) -> str:
    """g then h, reduced: h's letters pushed on reduced g, each cancelling an inverse top."""
    out = list(g)
    for c in h:
        if out and ord(out[-1]) ^ ord(c) == 1:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class FreeGroup(GroupBackend):
    """Free group of rank k; an element is a reduced word as a string of
    letters, chr(2i) for g_i and chr(2i+1) for g_i^-1, which differ in bit 0
    alone.  Only factor, render and canonical_key read (letter, exp) syllables."""

    kind = "free"

    def __init__(self, rank: int, gen_names: Optional[Sequence[str]] = None):
        self.rank, self.gen_names = _rank_and_names("free group", rank, gen_names)
        self._flip = {c: c ^ 1 for c in range(2 * rank)}

    @property
    def identity(self):
        return ""

    def gen(self, index):
        return chr(2 * index)

    def mul(self, g, h):
        """Concatenation, with _cancel only where the seam letters are inverses."""
        return _cancel(g, h) if g and h and ord(g[-1]) ^ ord(h[0]) == 1 else g + h

    def products(self, gs, hs):
        """mul's products; a one-letter h that cancels g's last letter drops it."""
        seams = [(h[:1].translate(self._flip), len(h) == 1, h) for h in hs]
        out = []
        append = out.append
        for g in gs:
            last = g[-1:]
            for cancels, one, h in seams:
                append(g + h if cancels != last else g[:-1] if one else _cancel(g, h))
        return out

    def inv(self, g):
        return g[::-1].translate(self._flip)

    def power(self, g, k):
        """g = u c u^-1 with c cyclically reduced, so g^k is u c^k u^-1; a
        power of more than DEFAULT_BUDGET letters raises ValidationError."""
        if k < 0:
            g, k = self.inv(g), -k
        t = next((t for t in range(len(g)) if ord(g[t]) ^ ord(g[-1 - t]) != 1), 0)  # |u|
        letters = 2 * t + k * (len(g) - 2 * t)
        if k and letters > DEFAULT_BUDGET:
            raise ValidationError(f"a power of {letters} letters; the limit is {DEFAULT_BUDGET}")
        return g[:t] + g[t:len(g) - t] * k + g[len(g) - t:] if k else ""

    def homomorphism(self, images):
        """The identity on the generators' own images; one ``translate`` for
        a signed permutation of the letters, which keeps reduced words
        reduced; else each letter translated to its image, then _cancel."""
        images = tuple(images)
        if images == tuple(map(self.gen, range(self.rank))):
            return _identity
        table = {2 * i + s: self.inv(x) if s else x for i, x in enumerate(images) for s in (0, 1)}
        if len({ord(image) >> 1 for image in images if len(image) == 1}) == len(images):
            return operator.methodcaller("translate", table)
        return lambda g: _cancel("", g.translate(table))

    def canonical_key(self, g):
        """(syllable count, (letter, exponent rank), ...)."""
        syllables = tuple(_syllables(g))
        return (len(syllables), *[(i, int_key(exp)) for i, exp in syllables])

    def render(self, g):
        return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in
                        ((self.gen_names[i], exp) for i, exp in _syllables(g))) or "e"

    def factor(self, g):
        return tuple(_syllables(g))

    def relators(self):
        return []


class _IntVectors(GroupBackend):
    """Integer vectors of one rank, the generators the unit vectors; a kind
    adds its product, inverse, maps, factor and relators.  Keys are the
    coordinates' ranks."""

    def __init__(self, label: str, rank: int, gen_names: Optional[Sequence[str]]):
        self.rank, self.gen_names = _rank_and_names(label, rank, gen_names)

    @property
    def identity(self):
        return (0,) * self.rank

    def gen(self, index):
        return tuple(1 if i == index else 0 for i in range(self.rank))

    def canonical_key(self, g):
        return tuple(map(int_key, g))

    def render(self, g):
        if self.rank == 1:
            return str(g[0])
        return "(" + ",".join(str(a) for a in g) + ")"


class FreeAbelianGroup(_IntVectors):
    """Z^k; elements are integer vectors."""

    kind = "free_abelian"

    def __init__(self, rank: int, gen_names: Optional[Sequence[str]] = None):
        super().__init__("free abelian", rank, gen_names)

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def products(self, gs, hs):
        """Per step, one `map` of `add` per column, zipped back element-major."""
        columns = list(zip(*gs))
        by_step = [zip(*[map(operator.add, column, itertools.repeat(a))
                         for column, a in zip(columns, h)]) for h in hs]
        return list(itertools.chain.from_iterable(zip(*by_step)))

    def inv(self, g):
        return tuple(map(operator.neg, g))

    def homomorphism(self, images):
        """The linear map whose columns are the images, unless they are a
        signed permutation of the basis: then each row of the matrix holds
        one entry +-1, in a column of its own, so each coordinate of the
        image is one coordinate of g, picked by `itemgetter` and multiplied
        by its sign unless every sign is +1."""
        rows = tuple(zip(*images))
        entries = [[(i, a) for i, a in enumerate(row) if a] for row in rows]
        if sorted(e[0][0] for e in entries
                  if len(e) == 1 and e[0][1] in (1, -1)) == list(range(self.rank)):
            index, signs = zip(*(e[0] for e in entries))
            # itemgetter of one index returns the coordinate, not a tuple
            pick = operator.itemgetter(*index) if self.rank > 1 else tuple
            if -1 not in signs:
                return pick
            return lambda g: tuple(map(operator.mul, signs, pick(g)))
        return lambda g: tuple(sum(map(operator.mul, row, g)) for row in rows)

    def factor(self, g):
        return tuple((i, a) for i, a in enumerate(g) if a)

    def relators(self):
        return [((i, -1), (j, -1), (i, 1), (j, 1))
                for i, j in itertools.combinations(range(self.rank), 2)]


class CyclicGroup(GroupBackend):
    """Z/m; elements are ints in [0, m)."""

    kind = "cyclic"

    def __init__(self, order: int, gen_names: Optional[Sequence[str]] = None):
        if order < 1:
            raise ValidationError(f"cyclic order must be >= 1, got {order}")
        self.order = order
        self.gen_names = tuple(gen_names or ("g",))
        if len(self.gen_names) != 1:
            raise ValidationError("cyclic groups have exactly one generator")

    @property
    def identity(self):
        return 0

    def gen(self, index):
        return 1 % self.order

    def mul(self, g, h):
        return (g + h) % self.order

    def products(self, gs, hs):
        """The sums mod m, element-major, in one list display."""
        m = self.order
        return [(g + h) % m for g in gs for h in hs]

    def inv(self, g):
        return (-g) % self.order

    def power(self, g, k):
        return g * k % self.order

    def render(self, g):
        name = self.gen_names[0]
        if g == 0:
            return "e"
        return name if g == 1 else f"{name}^{g}"

    def factor(self, g):
        return ((0, g),) if g else ()

    def homomorphism(self, images):
        """g -> g*k mod m, for k the generator's image."""
        k, m = images[0], self.order
        return lambda g: g * k % m

    def relators(self):
        return [((0, self.order),)]

    def is_finite(self):
        return True

    def elements(self):
        return range(self.order)


class HeisenbergGroup(_IntVectors):
    """Discrete Heisenberg group as integer vectors of rank 3, (p, q, r).

    Upper unitriangular 3x3 convention: (p,q,r)(p',q',r') =
    (p+p', q+q', r+r'+p*q').  Generators a=(1,0,0), b=(0,1,0) and the
    central c=(0,0,1)=[a,b].
    """

    kind = "heisenberg"

    def __init__(self):
        super().__init__("heisenberg", 3, ("a", "b", "c"))

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def products(self, gs, hs):
        """The products, element-major, in one list display."""
        return [(p + x, q + y, r + z + p * y) for p, q, r in gs for x, y, z in hs]

    def inv(self, g):
        p, q, r = g
        return (-p, -q, p * q - r)

    def homomorphism(self, images):
        """The general `polynomial`, unless C is central (c1 = c2 = 0) and
        the matrix [[a1, b1], [a2, b2]] acting on (p, q) is a signed
        permutation: then a1*a2 = b1*b2 = 0, every term of the polynomial
        with a factor c1, c2, a1*a2 or b1*b2 vanishes, and what is left is
        (u*g[i], v*g[j], c3*r + p*(a3 + (a1*b2 - c3)*q) + b3*q), each of
        the first two coordinates one signed coordinate of (p, q)."""
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = images
        if c1 == c2 == a1 * a2 == b1 * b2 == 0 and abs(a1 * b2 - a2 * b1) == 1:
            u, v, i, j = (a1, b2, 0, 1) if a1 else (b1, a2, 1, 0)
            e = a1 * b2 - c3
            return lambda g: (u * g[i], v * g[j], c3 * g[2] + g[0] * (a3 + e * g[1]) + b3 * g[1])
        return self.polynomial(images)

    @staticmethod
    def polynomial(images):
        """g = a^p b^q c^s, s = r - pq, maps to A^p B^q C^s: the closed-form
        powers multiplied out into one polynomial in (p, q, r)."""
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = images

        def apply(g):
            p, q, r = g
            s = r - p * q
            x = p * a1 + q * b1
            return (x + s * c1, p * a2 + q * b2 + s * c2,
                    p * a3 + p * (p - 1) // 2 * a1 * a2 + q * b3 + q * (q - 1) // 2 * b1 * b2
                    + p * a1 * q * b2 + s * c3 + s * (s - 1) // 2 * c1 * c2 + x * s * c2)
        return apply

    def factor(self, g):
        p, q, r = g
        word = ((0, p), (1, q), (2, r - p * q))
        return tuple((i, e) for i, e in word if e)

    def relators(self):
        a, b, c = 0, 1, 2
        return [
            ((a, -1), (b, -1), (a, 1), (b, 1), (c, -1)),  # [a,b] = c
            ((a, -1), (c, -1), (a, 1), (c, 1)),           # c central
            ((b, -1), (c, -1), (b, 1), (c, 1)),
        ]


class PermutationGroup(GroupBackend):
    """Subgroup of Sym(degree) generated by explicit permutations.

    Elements are image tuples on points 0..degree-1; mul(g, h) applies g
    first, then h.
    """

    kind = "permutation"

    def __init__(self, degree: int, gen_names: Sequence[str], gen_images: Sequence[Sequence[int]]):
        if degree < 1:
            raise ValidationError("degree must be >= 1")
        if len(gen_names) != len(gen_images):
            raise ValidationError("one image tuple per generator name required")
        self.degree = degree
        self.gen_names = tuple(gen_names)
        self._gens = []
        for images in gen_images:
            perm = tuple(images)
            if sorted(perm) != list(range(degree)):
                raise ValidationError(f"not a permutation of 0..{degree-1}: {perm}")
            self._gens.append(perm)
        self._elements: Optional[List[Tuple[int, ...]]] = None

    @property
    def identity(self):
        return tuple(range(self.degree))

    def gen(self, index):
        return self._gens[index]

    def mul(self, g, h):
        return tuple([h[i] for i in g])

    def inv(self, g):
        out = [0] * self.degree
        for i, image in enumerate(g):
            out[image] = i
        return tuple(out)

    def render(self, g):
        cycles = []
        seen = set()
        for start in range(self.degree):
            if start in seen or g[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            point = g[start]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = g[point]
            cycles.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
        return "".join(cycles) if cycles else "e"

    def is_finite(self):
        return True

    def elements(self):
        if self._elements is None:
            self._elements = sorted(self._close(self._gens))
        return list(self._elements)


class FiniteTableGroup(GroupBackend):
    """Finite group given by its full multiplication table of indices.

    The table is checked to be a group: a Latin square with a two-sided
    identity, then associative by Light's test.  The elements a with
    (x a) y = x (a y) for all x, y include the identity and are closed
    under products, so testing the declared generators alone (|gens| n^2
    lookups) and then that positive words in them reach every index
    proves associativity.
    """

    kind = "finite_table"

    def __init__(self, table: Sequence[Sequence[int]], identity_index: int,
                 gen_names: Sequence[str], gen_indices: Sequence[int]):
        n = len(table)
        indices = list(range(n))
        self.table = tuple(tuple(row) for row in table)
        if any(sorted(row) != indices for row in self.table) or any(
                sorted(column) != indices for column in zip(*self.table)):
            raise ValidationError("table must be a Latin square over indices 0..n-1")
        if identity_index not in indices or any(
                self.table[identity_index][g] != g or self.table[g][identity_index] != g
                for g in indices):
            raise ValidationError(f"#{identity_index} is not a two-sided identity of the table")
        self.identity_index = identity_index
        self.gen_names = tuple(gen_names)
        self._gen_indices = tuple(gen_indices)
        if len(self.gen_names) != len(self._gen_indices):
            raise ValidationError("one index per generator name required")
        if any(g not in indices for g in self._gen_indices):
            raise ValidationError(f"generator indices must lie in 0..{n - 1}")
        t = self.table
        for a in sorted(set(self._gen_indices)):
            for x, y in itertools.product(indices, indices):
                if t[t[x][a]][y] != t[x][t[a][y]]:
                    raise ValidationError(f"table is not associative: "
                                          f"(#{x} #{a}) #{y} != #{x} (#{a} #{y})")
        if len(self._close(self._gen_indices)) != n:
            raise ValidationError("declared generators do not generate the table group")

    @property
    def identity(self):
        return self.identity_index

    def gen(self, index):
        return self._gen_indices[index]

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.table[g].index(self.identity_index)

    def render(self, g):
        return f"#{g}"

    def is_finite(self):
        return True

    def elements(self):
        return list(range(len(self.table)))


class DirectProduct(GroupBackend):
    """Direct product of backends; elements are tuples of components."""

    kind = "direct_product"

    def __init__(self, factors: Sequence[GroupBackend]):
        if not factors:
            raise ValidationError("direct product needs at least one factor")
        self.factors = tuple(factors)
        names: List[str] = []
        self._owner: List[Tuple[int, int]] = []  # gen index -> (factor, local index)
        for fi, backend in enumerate(self.factors):
            for li, name in enumerate(backend.gen_names):
                if name in names:
                    raise ValidationError(f"duplicate generator name across factors: {name}")
                names.append(name)
                self._owner.append((fi, li))
        self.gen_names = tuple(names)
        # per-factor bound methods, so each operation is one list display
        self._muls = [b.mul for b in self.factors]
        self._invs = [b.inv for b in self.factors]

    @property
    def identity(self):
        return tuple(b.identity for b in self.factors)

    def gen(self, index):
        fi, li = self._owner[index]
        return tuple(b.gen(li) if i == fi else b.identity
                     for i, b in enumerate(self.factors))

    def mul(self, g, h):
        return tuple([mul(a, c) for mul, a, c in zip(self._muls, g, h)])

    def inv(self, g):
        return tuple([inv(a) for inv, a in zip(self._invs, g)])

    def power(self, g, k):  # each factor's own, so a free factor checks its length
        return tuple([b.power(a, k) for b, a in zip(self.factors, g)])

    def canonical_key(self, g):
        return tuple([b.canonical_key(a) for b, a in zip(self.factors, g)])

    def products(self, gs, hs):
        """Each factor's own batch on its column of gs and hs, zipped back
        element-major; empty gs or hs has no columns, so gives []."""
        return list(zip(*[b.products(a, c)
                          for b, a, c in zip(self.factors, zip(*gs), zip(*hs))]))

    def render(self, g):
        return "(" + ", ".join(b.render(a) for b, a in zip(self.factors, g)) + ")"

    def _offset(self, fi: int) -> int:
        return sum(len(b.gen_names) for b in self.factors[:fi])

    def homomorphism(self, images):
        """Factor by factor when the product has relators and every
        generator's image lies in its own factor, else the base map: the
        walked table on a finite product without relators, which a factor's
        own map would leave unchecked, and the generic map otherwise."""
        if self.relators() is None:
            return super().homomorphism(images)
        maps = []
        for fi, backend in enumerate(self.factors):
            local = []
            for image in images[self._offset(fi):self._offset(fi + 1)]:
                if any(c != b.identity for i, (b, c) in enumerate(zip(self.factors, image))
                       if i != fi):
                    return super().homomorphism(images)
                local.append(image[fi])
            maps.append(backend.homomorphism(local))
        return lambda g: tuple([m(c) for m, c in zip(maps, g)])

    def factor(self, g):
        word: List[Tuple[int, int]] = []
        for fi, (backend, comp) in enumerate(zip(self.factors, g)):
            off = self._offset(fi)
            word.extend((off + i, e) for i, e in backend.factor(comp))
        return tuple(word)

    def relators(self):
        rels: List[Word] = []
        for fi, backend in enumerate(self.factors):
            sub = backend.relators()
            if sub is None:
                # finite factor without declared relators: check the whole
                # product along its Cayley-graph edges instead
                return None
            off = self._offset(fi)
            rels.extend(tuple((off + i, e) for i, e in rel) for rel in sub)
        # generators of distinct factors commute
        gens = [range(self._offset(fi), self._offset(fi + 1)) for fi in range(len(self.factors))]
        for left, right in itertools.combinations(gens, 2):
            rels += [((gi, -1), (gj, -1), (gi, 1), (gj, 1))
                     for gi, gj in itertools.product(left, right)]
        return rels

    def is_finite(self):
        return all(b.is_finite() for b in self.factors)

    def elements(self):
        """Every element, the first factor varying slowest, formed one at a
        time, so a partition's budget and not |G| bounds the memory."""
        def tails(i):
            if i == len(self.factors):
                yield ()
                return
            for a in self.factors[i].elements():
                for rest in tails(i + 1):
                    yield (a, *rest)
        return tails(0)


# ---------------------------------------------------------------------------
# automorphisms


class Automorphism:
    """An automorphism of a backend, given by generator images.

    verify() checks it and keeps one compiled map, `forward`, the backend's
    homomorphism for its images, which apply calls; until it has passed
    there is no map.  The inverse images are input to verify() only.
    identity_automorphism and every element of close_automorphisms are
    compiled automorphisms."""

    def __init__(self, backend: GroupBackend, name: str,
                 images: Sequence[Any], inverse_images: Optional[Sequence[Any]]):
        if len(images) != len(backend.gen_names):
            raise ValidationError("one image per declared generator required")
        self.backend = backend
        self.name = name
        self.images = tuple(images)
        self.inverse_images = tuple(inverse_images) if inverse_images is not None else None
        self.signature = tuple(map(backend.canonical_key, self.images))

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and self.backend is other.backend
                and self.signature == other.signature)

    def __hash__(self):
        return hash((id(self.backend), self.signature))

    def apply(self, g):
        return self.forward(g)

    def verify(self) -> "Automorphism":
        """Check the homomorphism property, compile both image lists, check
        on the two maps that they are mutually inverse, and only then keep
        the forward map.  The relators are evaluated on both lists, but
        inverse images equal to the images are not compiled again: they
        would give the identical map after the identical walk."""
        backend = self.backend
        if self.inverse_images is None:
            raise InverseMissing(f"automorphism {self.name!r} has no inverse images")
        rels = backend.relators()
        if rels is None and not backend.is_finite():
            # its homomorphism would be the generic map, which checks nothing
            raise NotAnAutomorphism(
                f"{self.name!r}: backend kind {backend.kind} has no relator list "
                "and is not finite; cannot verify")
        maps = []
        for images, label in ((self.images, "images"), (self.inverse_images, "inverse images")):
            for rel in rels or ():
                value = backend.evaluate(rel, images)
                if value != backend.identity:
                    raise NotAnAutomorphism(
                        f"{self.name!r}: relator {rel} maps to {backend.render(value)} "
                        f"under {label}, not the identity")
            if maps and images == self.images:
                maps.append(maps[0])
                continue
            try:
                maps.append(backend.homomorphism(images))
            except NotAnAutomorphism as exc:  # the edge walk of a finite kind
                raise NotAnAutomorphism(f"{self.name!r}: {label} {exc}") from None
        forward, backward = maps
        # both are homomorphisms, so inverting on every generator inverts everywhere
        gens = tuple(map(backend.gen, range(len(backend.gen_names))))
        for i, name in enumerate(backend.gen_names):
            try:
                inverts = forward(self.inverse_images[i]) == gens[i] == backward(self.images[i])
            except KeyError:  # an image outside the group a table covers
                inverts = False
            if not inverts:
                raise NotAnAutomorphism(
                    f"{self.name!r}: inverse images do not invert on generator {name}")
        # the shortcut comes after the walk, which also checks the generators reach G
        self.forward = _identity if self.images == gens else forward
        return self


def identity_automorphism(backend: GroupBackend) -> Automorphism:
    gens = [backend.gen(i) for i in range(len(backend.gen_names))]
    ident = Automorphism(backend, "id", gens, gens)
    ident.forward = _identity
    return ident


class AutomorphismGroup:
    """A finite, composition-closed set of compiled automorphisms that
    holds the identity.

    Its tables come from generator images alone: x after y has the images
    x(y(s)) = x.apply(y's image of s), so compose_index costs |A|^2 |S|
    applications and compiles nothing, and the inverse of x is the y with
    x after y the identity."""

    def __init__(self, backend: GroupBackend, elements: Sequence[Automorphism]):
        self.backend = backend
        self.elements = tuple(sorted(elements, key=lambda a: a.signature))
        self.order = len(self.elements)
        index = {a.signature: i for i, a in enumerate(self.elements)}
        key = backend.canonical_key
        self.identity_index = index[identity_automorphism(backend).signature]
        self._compose_table = [[index[tuple(key(x.apply(img)) for img in y.images)]
                                for y in self.elements] for x in self.elements]
        self.inverse_index = tuple(row.index(self.identity_index) for row in self._compose_table)

    def compose_index(self, i: int, j: int) -> int:
        return self._compose_table[i][j]

    def __iter__(self):
        return iter(self.elements)


def close_automorphisms(seeds: Sequence[Automorphism], bound: int = 10_000) -> AutomorphismGroup:
    """Subgroup of Aut(G) generated by the seeds, as a finite closed set.

    The closure steps by left composition with the verified seeds alone: a
    finite set closed under composition is a group.  s after a has the
    images s.apply(img) for img in a's images, so a step applies seed maps
    and compiles nothing, and a duplicate is dropped before it costs a
    compile.  Each element reached past the identity and the seeds is then
    compiled once.  Raises BudgetExceeded once the closure reaches more
    than `bound` elements.
    """
    if not seeds:
        raise ValidationError("need at least one seed automorphism")
    backend = seeds[0].backend
    for seed in seeds:
        if seed.backend is not backend:
            raise BackendMismatch("all seeds must act on the same backend")
        seed.verify()

    def successors(a):
        return (Automorphism(backend, f"{s.name}*{a.name}", [s.apply(img) for img in a.images],
                             None) for s in seeds)

    # the identity and the seeds start the first layer, so they keep their maps and names
    start = list(dict.fromkeys([identity_automorphism(backend), *seeds]))
    elements = closure(start, successors, bound)
    for a in elements[len(start):]:
        a.forward = backend.homomorphism(a.images)
    return AutomorphismGroup(backend, elements)


def orbit(A: AutomorphismGroup, g) -> Tuple[Any, ...]:
    """The A-orbit of g, deduplicated and sorted by canonical key."""
    return tuple(sorted({a.apply(g) for a in A}, key=A.backend.canonical_key))


# ---------------------------------------------------------------------------
# semidirect product GA


class SemidirectProduct(GroupBackend):
    """Pairs (g, a) in G x A with (g, a)(h, b) = (g * a^{-1}(h), a b).

    Elements are (g_element, automorphism_index) with indices into the
    canonical ordering of A.
    """

    kind = "semidirect"

    def __init__(self, group: GroupBackend, auts: AutomorphismGroup):
        if auts.backend is not group:
            raise BackendMismatch("automorphism group does not act on the given backend")
        self.group = group
        self.auts = auts
        self.gen_names = tuple(group.gen_names) + tuple(
            f"aut_{i}" for i in range(auts.order))

    @property
    def identity(self):
        return (self.group.identity, self.auts.identity_index)

    def gen(self, index):
        ngens = len(self.group.gen_names)
        if index < ngens:
            return (self.group.gen(index), self.auts.identity_index)
        return (self.group.identity, index - ngens)

    def mul(self, p, q):
        g, i = p
        h, j = q
        twisted = self.auts.elements[self.auts.inverse_index[i]].apply(h)
        return (self.group.mul(g, twisted), self.auts.compose_index(i, j))

    def products(self, gs, hs):
        """mul's products, each h twisted by a_i^{-1}'s compiled map once
        per automorphism index i instead of once per product."""
        auts, mul = self.auts, self.group.mul
        twisted = [[(auts.elements[k].forward(h), j) for h, j in hs] for k in auts.inverse_index]
        compose = auts._compose_table
        return [(mul(g, h), compose[i][j]) for g, i in gs for h, j in twisted[i]]

    def inv(self, p):
        g, i = p
        return (self.auts.elements[i].apply(self.group.inv(g)),
                self.auts.inverse_index[i])

    def canonical_key(self, p):
        g, i = p
        return (self.group.canonical_key(g), i)


# ---------------------------------------------------------------------------
# monoid balls


def monoid_balls(backend: GroupBackend, gens: Sequence[Any], radius: int,
                 budget: int = DEFAULT_BUDGET) -> GrowthTable:
    """Layers of right multiplication: S+(e, i+1) = S+(e, i) * gens \\ ball,
    each layer's products formed in one ``products`` batch.

    The table is centred at the identity; each sphere is in discovery order
    (element-major, then generator).
    """
    if not gens:
        raise ValidationError("monoid BFS needs a nonempty generator set")
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    return growth_table(backend.identity, radius, layers(
        [backend.identity], lambda layer: backend.products(layer, gens), budget))
