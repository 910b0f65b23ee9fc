"""Concrete group backends and finite automorphism groups acting on them.

A backend is a finitely generated group with computable multiplication,
inverse, identity and an injective canonical key per element.  Element
values are plain immutable Python data (ints, tuples); the backend object
carries the operations.  A canonical key is an int or a tuple whose native
order is the canonical order: integers rank 0 < 1 < -1 < 2 < -2 < ...,
vectors compare componentwise in that rank, and free words compare shorter
first, then letter by letter.

Automorphisms are given by generator images (plus mandatory inverse
images) and are checked before use: relator-bearing kinds check that
every defining relator maps to the identity, and a backend with neither
relators nor finiteness is refused.  ``GroupBackend.homomorphism`` is the
one place an image list becomes a map: finite kinds without relators walk
their Cayley graph, checking the homomorphism property on every edge, and
keep the image table; Z^k compiles to a linear map, Z/m to multiplication
by the generator's image, the Heisenberg group to one polynomial in
(p, q, r), free groups to letter substitution or, for a signed
permutation of the letters, syllable renaming, and a direct product with
relators whose generators map into their own factors to one map per
factor.  evaluate(factor(g), images) is left only to products that mix
their factors, and stays the oracle on infinite kinds (permutation and
table groups have no factor).  A verified automorphism keeps one map;
when its inverse images differ from its images they are checked on a
second compiled map that is then dropped, and when they are equal the one
map serves both ways.
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
right multiplication by a fixed generator set, producing the monoid
spheres S+(e, r) and balls B+(e, r).
"""

from __future__ import annotations

import itertools
import operator
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
           budget: int = DEFAULT_BUDGET) -> Iterator[List[Any]]:
    """Breadth-first layers: layer 0 is `start`, layer i+1 holds, in the
    order they are discovered, the elements of expand(layer i) that no
    earlier layer holds.  `expand` is a layer map: it returns every
    candidate of the next layer, repeats allowed, element by element of the
    layer it is given.  Once a layer is empty every later one is.

    The budget rule of every enumeration: BudgetExceeded is raised as soon
    as more than `budget` distinct elements have been reached.  Candidates
    are drawn one at a time, so a lazy `expand` is stopped at the first
    element over the budget; a batched one has formed one layer's
    candidates by then.
    """
    layer = list(dict.fromkeys(start))
    seen = set(layer)
    if len(seen) > budget:
        raise BudgetExceeded(budget, 0)
    radius = 0
    while True:
        yield layer
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

    def ball_elements(self) -> List[Any]:
        out = []
        for sphere in self.sphere_sets:
            out.extend(sphere)
        return sorted(out)


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
        """Every element of the subgroup `gens` generate, by BFS over them
        and their inverses."""
        steps = [*gens, *map(self.inv, gens)]
        return closure([self.identity], lambda g: (self.mul(g, t) for t in steps))


# ---------------------------------------------------------------------------
# backends


def _identity(g):
    return g


class _Memo(dict):
    """x -> fn(x), each value formed on first use and shared after."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


def _reduce(out: List[Tuple[int, int]], syllables: Iterable[Tuple[int, int]]) -> Any:
    """Append syllables to the reduced word `out`, merging equal letters."""
    for letter, exp in syllables:
        if out and out[-1][0] == letter:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((letter, merged))
        else:
            out.append((letter, exp))
    return tuple(out)


class FreeGroup(GroupBackend):
    """Free group of rank k; elements are reduced words ((letter, exp), ...)."""

    kind = "free"

    def __init__(self, rank: int, gen_names: Optional[Sequence[str]] = None):
        if rank < 1:
            raise ValidationError(f"free group rank must be >= 1, got {rank}")
        self.rank = rank
        self.gen_names = tuple(gen_names or (f"g{i+1}" for i in range(rank)))
        if len(self.gen_names) != rank:
            raise ValidationError("generator name count must equal the rank")
        self._ranked = _Memo(lambda s: (s[0], int_key(s[1]))).__getitem__

    @property
    def identity(self):
        return ()

    def gen(self, index):
        return ((index, 1),)

    def mul(self, g, h):
        return _reduce(list(g), h)

    def inv(self, g):
        return tuple((letter, -exp) for letter, exp in reversed(g))

    def homomorphism(self, images):
        """The identity on the generators' own images; syllable renaming
        when the images are a signed permutation of the letters, each image
        one letter to the power +-1 and no letter twice, since a renaming
        injective on letters keeps reduced words reduced; else letter
        substitution, then one free-reduction pass."""
        images = tuple(images)
        if images == tuple(map(self.gen, range(self.rank))):
            return _identity
        letters = {image[0][0] for image in images if len(image) == 1 and abs(image[0][1]) == 1}
        if len(letters) == len(images):
            rename = _Memo(lambda s: (images[s[0]][0][0], images[s[0]][0][1] * s[1])).__getitem__
            return lambda g: tuple(map(rename, g))
        powers = [(image, self.inv(image)) for image in images]
        return lambda g: _reduce([], itertools.chain.from_iterable(
            powers[letter][exp < 0] * abs(exp) for letter, exp in g))

    def canonical_key(self, g):
        """(length, (letter, exponent rank), ...): each pair is interned
        per backend, and pairs compare as the flat sequence would."""
        return (len(g), *map(self._ranked, g))

    def render(self, g):
        if not g:
            return "e"
        parts = []
        for letter, exp in g:
            name = self.gen_names[letter]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def factor(self, g):
        return tuple(g)

    def relators(self):
        return []


class FreeAbelianGroup(GroupBackend):
    """Z^k; elements are integer vectors."""

    kind = "free_abelian"

    def __init__(self, rank: int, gen_names: Optional[Sequence[str]] = None):
        if rank < 1:
            raise ValidationError(f"free abelian rank must be >= 1, got {rank}")
        self.rank = rank
        self.gen_names = tuple(gen_names or (f"g{i+1}" for i in range(rank)))
        if len(self.gen_names) != rank:
            raise ValidationError("generator name count must equal the rank")
        self._rank = _Memo(int_key).__getitem__

    @property
    def identity(self):
        return (0,) * self.rank

    def gen(self, index):
        return tuple(1 if i == index else 0 for i in range(self.rank))

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

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

    def canonical_key(self, g):
        """The coordinates' ranks, each interned per backend."""
        return tuple(map(self._rank, g))

    def render(self, g):
        if self.rank == 1:
            return str(g[0])
        return "(" + ",".join(str(a) for a in g) + ")"

    def factor(self, g):
        return tuple((i, a) for i, a in enumerate(g) if a)

    def relators(self):
        rels = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                rels.append(((i, -1), (j, -1), (i, 1), (j, 1)))
        return rels


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

    def inv(self, g):
        return (-g) % self.order

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


class HeisenbergGroup(GroupBackend):
    """Discrete Heisenberg group as integer triples (p, q, r).

    Upper unitriangular 3x3 convention: (p,q,r)(p',q',r') =
    (p+p', q+q', r+r'+p*q').  Generators a=(1,0,0), b=(0,1,0) and the
    central c=(0,0,1)=[a,b].
    """

    kind = "heisenberg"
    gen_names = ("a", "b", "c")

    def __init__(self):
        self._rank = _Memo(int_key).__getitem__

    @property
    def identity(self):
        return (0, 0, 0)

    def gen(self, index):
        return tuple(1 if i == index else 0 for i in range(3))

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inv(self, g):
        p, q, r = g
        return (-p, -q, p * q - r)

    def homomorphism(self, images):
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

    def canonical_key(self, g):
        """The coordinates' ranks, each interned per backend."""
        return tuple(map(self._rank, g))

    def render(self, g):
        return "(" + ",".join(str(a) for a in g) + ")"

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
    (x a) y = x (a y) for all x, y are closed under products, so testing
    the declared generators and their inverses (|gens| n^2 lookups) and
    then that they generate every index proves associativity.
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
        for a in sorted({*self._gen_indices, *map(self.inv, self._gen_indices)}):
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
        self._keys = [b.canonical_key for b in self.factors]

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

    def canonical_key(self, g):
        return tuple([key(a) for key, a in zip(self._keys, g)])

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
        for fi in range(len(self.factors)):
            for fj in range(fi + 1, len(self.factors)):
                for i in range(len(self.factors[fi].gen_names)):
                    for j in range(len(self.factors[fj].gen_names)):
                        gi = self._offset(fi) + i
                        gj = self._offset(fj) + j
                        rels.append(((gi, -1), (gj, -1), (gi, 1), (gj, 1)))
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

    verify() checks it and keeps one compiled map, the backend's
    homomorphism for its images; until it has passed there is no map to
    apply.  The inverse images are input to verify() only.
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
        self._signature = tuple(map(backend.canonical_key, self.images))

    @property
    def signature(self) -> Tuple[Any, ...]:
        return self._signature

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and self.backend is other.backend
                and self._signature == other._signature)

    def __hash__(self):
        return hash((id(self.backend), self._signature))

    def apply(self, g):
        return self._forward(g)

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
        self._forward = _identity if self.images == gens else forward
        return self


def identity_automorphism(backend: GroupBackend) -> Automorphism:
    gens = [backend.gen(i) for i in range(len(backend.gen_names))]
    ident = Automorphism(backend, "id", gens, gens)
    ident._forward = _identity
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
        a._forward = backend.homomorphism(a.images)
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
    """Layers of right multiplication: S+(e, i+1) = S+(e, i) * gens \\ ball.

    The table is centred at the identity; each sphere is in discovery order.
    """
    if not gens:
        raise ValidationError("monoid BFS needs a nonempty generator set")
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    spheres = layers([backend.identity], lambda layer: itertools.starmap(
        backend.mul, itertools.product(layer, gens)), budget)
    sphere_sets = list(map(tuple, itertools.islice(spheres, radius + 1)))
    ball_sizes = list(itertools.accumulate(len(s) for s in sphere_sets))
    return GrowthTable(backend.identity, radius, sphere_sets, ball_sizes)
