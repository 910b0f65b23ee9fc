"""Concrete group backends and finite automorphism groups acting on them.

A backend is a finitely generated group with computable multiplication,
inverse, identity and an injective canonical key per element.  Element
values are plain immutable Python data (ints, tuples, strings); the
backend object carries the operations and ``gens``, the tuple of its
declared generators, set once at construction; each backend's own
``products`` batches ``mul`` over a layer: one list display on Z^k and
on the Heisenberg group, one ``itemgetter`` per left factor on a
permutation group, a table row read by ``map`` on a table group.  A
free-group word is a string of letters, so a product concatenates and
cancels at the seam; a direct product splits a layer into factor columns
and runs each factor's own batch on its column.  A canonical key is an
int or a tuple whose native order is the canonical order: integers rank
0 < 1 < -1 < 2 < -2 < ..., vectors compare componentwise in that rank,
and free words compare fewer syllables first, then syllable by syllable.
Keys give the order elements print in, so only output paths form them.
Z^k and the Heisenberg group share one integer-vector constructor: the
rank and name checks (the free group's too), identity, generators,
rendering and keys, and one kernel compiler, the package's only ``eval``.

Automorphisms are given by generator images (plus mandatory inverse
images) and are checked before use: relator-bearing kinds check that
every defining relator maps to the identity, and a backend with neither
relators nor finiteness is refused.  ``GroupBackend.homomorphism`` is the
one place an image list becomes a map, and the map it compiles is a batch
map: a sequence of G-elements -> the list of their images, so a walk
twists a whole layer per automorphism in one call.  A permutation group
first seeks a point map c that conjugates each generator to its image
and, when every image lies in G by its stabilizer chain, compiles
g -> c g c^-1 as a memo without walking G; other finite kinds without
relators, and a permutation group with no such c, walk their Cayley
graph, checking the homomorphism property on every edge, and keep the
image table; a memo or a table maps a batch by one ``map`` of its lookup.
Z^k compiles its linear map, as it does its products, and the Heisenberg
group its polynomial in (p, q, r) to one list display over unpacked
coordinates with the nonzero terms alone, +-1 folded into their signs and
no value but int coefficients in its source; Z/m multiplies by the
generator's image in one list display; a free group joins the batch on a
separator outside its alphabet and runs one ``str.translate`` for a
signed permutation of the letters, else letter substitution and a
reduction per word; and a direct product with relators whose generators
map into their own factors runs one map per factor on its column,
passing a column its factor fixes untouched.
evaluate(factor(g), images) is left only to products that mix their
factors, and stays the oracle on infinite kinds (permutation and table
groups have no factor).  A verified automorphism keeps one map, and
``apply`` is its batch of one; when its inverse images differ from its
images they are checked on a second compiled map that is then dropped,
and when they are equal the one map serves both ways.
``close_automorphisms`` builds the finite subgroup of Aut(G) generated by
checked seeds, stepping by image lists alone, compiles each distinct
automorphism it keeps once and returns them as a tuple sorted by
signature.

A ``Budget`` is the one handle every enumeration counts against: its
limit caps each enumeration on its own, ``check`` is the only code that
raises ``BudgetExceeded``, naming the enumeration that overran, and
``layer`` passes each completed layer, with its enumeration's name, to an
optional observer, which the CLI's ``--stats`` times.  ``layers`` is the
one breadth-first enumeration of the package: balls, lengths, monoid balls
and, through ``closure``, every finite closure (the automorphism group, a
subgroup, the edge walk of a homomorphism, a permutation group's elements)
are layers of it.  It expands a whole layer at a time and holds only its
frontier and its seen set, and reads no clock.  ``closure`` wraps a
per-element expansion and yields its elements lazily, so a permutation
group's ``elements()`` is the closure of its generators in discovery
order, neither sorted nor cached nor capped: its reader (a carrier, a
partition) counts what it draws, and a draw that stops early stops the
walk.

``monoid_balls`` takes the layers of right multiplication by a fixed
generator set, one ``products`` batch per layer, producing the monoid
spheres S+(e, r) and balls B+(e, r).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Any, Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BudgetExceeded, NotAnAutomorphism, ValidationError
from .keys import int_key

Word = Tuple[Tuple[int, int], ...]  # ((generator index, nonzero exponent), ...)

DEFAULT_BUDGET = 10**6


class Budget:
    """The cap of every enumeration of one command, and the one place an
    overrun is raised.  Each enumeration is capped on its own at `limit`,
    or at a fixed cap of its own that `check` is given, and names itself,
    so an exit says which walk overran.  `observer`, if
    set, gets (name, r, size) of each layer a walk completes: the walks
    read no clock, and an observer that times layers does so itself."""

    __slots__ = ("limit", "observer")

    def __init__(self, limit: float = DEFAULT_BUDGET, observer: Optional[Callable] = None):
        self.limit, self.observer = limit, observer

    def check(self, name: str, count: int, r: Optional[int] = None, what="distinct elements",
              cap: Optional[int] = None):
        """Raise BudgetExceeded, naming `name` and the radius `r` if
        given, when `count` of `what` is more than `cap`, by default the
        limit."""
        cap = self.limit if cap is None else cap
        if count > cap:
            raise BudgetExceeded(cap, r, what, name)

    def layer(self, name: str, r: int, size: int):
        """Report a completed layer to the observer, if there is one."""
        if self.observer:
            self.observer(name, r, size)


class _Memo(dict):
    """x -> fn(x), each value formed on first use and shared after."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


def layers(start: Iterable[Any], expand: Callable[[List[Any]], Iterable[Any]],
           budget: Budget = Budget(), name: str = "the layers") -> Iterator[List[Any]]:
    """Breadth-first layers: layer 0 is `start`, layer i+1 holds, in the
    order they are discovered, the elements of expand(layer i) that no
    earlier layer holds.  `expand` is a layer map: it returns every
    candidate of the next layer, repeats allowed, element by element of the
    layer it is given.  Once a layer is empty every later one is.  Each
    layer is reported to `budget` under `name` as it is completed, before
    it is yielded.  The walk holds only its frontier and its seen set, and
    reads no clock.

    The budget rule of every enumeration: the walk `name` overruns as soon
    as more than the budget's limit of distinct elements have been
    reached.  Candidates are drawn one at a time, so a lazy `expand` is
    stopped at the first element over the limit; a batched one, which
    balls, lengths and monoid balls all take, has formed one layer's
    candidates by then.
    """
    limit = budget.limit
    layer = list(dict.fromkeys(start))
    seen = set(layer)
    budget.check(name, len(seen), 0)
    radius = 0
    while True:
        budget.layer(name, radius, len(layer))
        yield layer
        radius += 1
        fresh = []
        for v in expand(layer):
            if v not in seen:
                seen.add(v)
                fresh.append(v)
                if len(seen) > limit:
                    budget.check(name, len(seen), radius)
        layer = fresh


def closure(start: Iterable[Any], expand: Callable[[Any], Iterable[Any]],
            budget: Budget = Budget(), name: str = "the closure") -> Iterator[Any]:
    """Every element the nonempty `layers` hold, drawn lazily in discovery
    order, for a per-element `expand`: each layer is expanded element by
    element, so an `expand` that raises does so on the first bad element in
    discovery order, the budget stops the walk at its first element over,
    and a caller that stops drawing stops the walk.  It keeps no list of
    what it yielded; a caller that needs one makes it."""
    def expand_layer(layer):
        return itertools.chain.from_iterable(map(expand, layer))
    return itertools.chain.from_iterable(
        itertools.takewhile(len, layers(start, expand_layer, budget, name)))


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
    """Base class for group backends.  Subclasses set `kind`, and their
    constructors `gen_names` and `gens`, the declared generators' elements."""

    kind: str = "abstract"
    gen_names: Tuple[str, ...] = ()
    gens: Tuple[Any, ...] = ()

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

    # -- words ------------------------------------------------------------

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
        images = self.gens if images is None else images
        result = self.identity
        for index, exp in word:
            result = self.mul(result, self.power(images[index], exp))
        return result

    def factor(self, g) -> Word:
        """A word in the declared generators whose product is g.  Permutation
        and finite-table groups have none: their homomorphisms are tables."""
        raise NotImplementedError(f"{self.kind} backend does not support factoring")

    def relators(self) -> Optional[List[Word]]:
        """Defining relators, or None when the kind is checked edge by edge."""
        return None

    def homomorphism(self, images: Sequence[Any],
                     budget: Budget = Budget()) -> Callable[[Sequence[Any]], List[Any]]:
        """The batch map with the given generator images, a sequence of
        G-elements -> the list of their images: the only place an image
        list becomes a map.

        A finite kind without relators gets its image table, checked along
        every Cayley-graph edge, under `budget` (kinds that walk nothing
        ignore it): a walk from the identity over the edges
        g -> g*s sets image(g*s) = image(g)*image(s) and checks each edge
        whose target already has an image, 2|G||S| products.  Agreement on
        every edge gives image(g*w) = image(g)*image(w) for every positive
        word w, and positive words reach all of a finite group, so the map
        is multiplicative; NotAnAutomorphism names the first broken edge.
        The table covers G, as a finite kind without relators is generated
        by its declared generators (a table group checks that it is).
        Any other kind gets g -> evaluate(factor(g), images) per element,
        which checks nothing; kinds with more structure override it, and a
        permutation group tries a point conjugation before this walk.
        """
        if self.relators() is not None or not self.is_finite():
            return lambda gs: [self.evaluate(self.factor(g), images) for g in gs]
        edges = list(zip(self.gens, images, self.gen_names))
        table = {self.identity: self.identity}

        def expand(g):
            image = table[g]
            for s, s_image, name in edges:
                h, value = self.mul(g, s), self.mul(image, s_image)
                if table.setdefault(h, value) != value:
                    raise NotAnAutomorphism(
                        f"break multiplicativity at ({self.render(g)}, {name})")
                yield h

        for _ in closure([self.identity], expand, budget, "the edge walk of G"):  # every edge
            pass
        return functools.partial(_each, table.__getitem__)

    # -- finiteness -------------------------------------------------------

    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterable[Any]:
        raise NotImplementedError(f"{self.kind} backend is not finite")

    def _close(self, gens: Sequence[Any], budget: Budget = Budget(math.inf)) -> Iterator[Any]:
        """Every element of the subgroup `gens` generate in a finite group,
        drawn lazily in discovery order by ``closure`` over them alone: there
        positive words reach the whole subgroup.  Uncapped unless given a
        budget: a draw of G is capped by its reader, and a table group's
        generation check by its table."""
        return closure([self.identity], lambda g: (self.mul(g, t) for t in gens), budget,
                       "the subgroup closure of H")


# ---------------------------------------------------------------------------
# backends


_identity = list  # the batch map of the identity automorphism


def _each(f: Callable[[Any], Any], gs: Sequence[Any]) -> List[Any]:
    """[f(g) for g in gs]: the batch map of a per-element map f, compiled
    as ``functools.partial(_each, f)``."""
    return list(map(f, gs))


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
        self.gens = tuple(map(chr, range(0, 2 * rank, 2)))
        self._flip = {c: c ^ 1 for c in range(2 * rank)}

    @property
    def identity(self):
        return ""

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
        power of more than the default budget's limit of letters raises
        ValidationError."""
        if k < 0:
            g, k = self.inv(g), -k
        t = next((t for t in range(len(g)) if ord(g[t]) ^ ord(g[-1 - t]) != 1), 0)  # |u|
        letters = 2 * t + k * (len(g) - 2 * t)
        limit = Budget().limit
        if k and letters > limit:
            raise ValidationError(f"a power of {letters} letters; the limit is {limit}")
        return g[:t] + g[t:len(g) - t] * k + g[len(g) - t:] if k else ""

    def homomorphism(self, images, budget=None):
        """The batch joined on chr(2 * rank), which is no letter (and ASCII
        below rank 64, so CPython translates it on its ASCII path),
        translated letter by letter to the images in one ``translate`` and
        split back: for a signed permutation of the letters, which keeps
        reduced words reduced, that is the map, and otherwise each word is
        reduced by _cancel.  An empty batch joins to the empty word, so it
        is kept apart."""
        table = {2 * i + s: self.inv(x) if s else x for i, x in enumerate(images) for s in (0, 1)}
        sep = chr(2 * self.rank)

        def translated(gs):
            return sep.join(gs).translate(table).split(sep) if gs else []

        if len({ord(image) >> 1 for image in images if len(image) == 1}) == len(images):
            return translated
        return lambda gs: [_cancel("", g) for g in translated(gs)]

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
        self.gens = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))

    @property
    def identity(self):
        return (0,) * self.rank

    def canonical_key(self, g):
        return tuple(map(int_key, g))

    @staticmethod
    def _kernel(coordinates: Sequence[Sequence[Tuple[int, str]]],
                *loops: Tuple[str, Sequence[str]]) -> Callable[..., List[Any]]:
        """The batch kernel `lambda gs, ...: [(x0, x1, ...) for .. in gs ...]`,
        compiled once: each loop is a parameter and the names its elements
        unpack to, and x_i is the sum of c*t over the (c, t) of
        coordinates[i], each t a fixed expression in the loop names.  A term
        with c = 0 is dropped and c = +-1 folds into its sign, so an index
        map reads as bare names.  Only the coefficients, ints by ``repr``,
        are formatted into the source; anything else is refused first."""
        bad = [c for row in coordinates for c, _ in row if type(c) is not int]
        if bad:
            raise ValidationError(f"a compiled map takes int coefficients, got {bad[0]!r}")

        def items(sources):  # a tuple's items: "a, b", and "a," for one
            return ", ".join(sources) + ("," if len(sources) == 1 else "")

        def coordinate(row):
            terms = [(c < 0, t if c in (1, -1) else f"{abs(c)!r}*{t}") for c, t in row if c]
            if not terms:
                return "0"
            (negative, first), *rest = terms
            return ("-" if negative else "") + first + "".join(
                f" {'-' if minus else '+'} {t}" for minus, t in rest)

        display = items([coordinate(row) for row in coordinates])
        heads = " ".join(f"for {items(names)} in {batch}" for batch, names in loops)
        parameters = ", ".join(batch for batch, _ in loops)
        return eval(f"lambda {parameters}: [({display}) {heads}]", {"__builtins__": {}})

    def render(self, g):
        if self.rank == 1:
            return str(g[0])
        return "(" + ",".join(str(a) for a in g) + ")"


class FreeAbelianGroup(_IntVectors):
    """Z^k; elements are integer vectors."""

    kind = "free_abelian"

    def __init__(self, rank: int, gen_names: Optional[Sequence[str]] = None):
        super().__init__("free abelian", rank, gen_names)
        # mul's products, on Z^2 [(g0 + h0, g1 + h1) for g0, g1 in gs for h0, h1 in hs]
        g, h = ([f"{x}{i}" for i in range(rank)] for x in "gh")
        self.products = self._kernel([[(1, a), (1, b)] for a, b in zip(g, h)],
                                     ("gs", g), ("hs", h))

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def inv(self, g):
        return tuple(map(operator.neg, g))

    def homomorphism(self, images, budget=None):
        """The linear map whose columns are the images: coordinate j of g's
        image is the sum of images[i][j] * g_i, compiled with its nonzero
        terms alone, so the swap of z2_swap reads
        [(g1, g0) for g0, g1 in gs]."""
        g = [f"g{i}" for i in range(self.rank)]
        return self._kernel([list(zip(row, g)) for row in zip(*images)], ("gs", g))

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
        self.gens = (1 % order,)

    @property
    def identity(self):
        return 0

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

    def homomorphism(self, images, budget=None):
        """g -> g*k mod m, for k the generator's image, in one list display."""
        k, m = images[0], self.order
        return lambda gs: [g * k % m for g in gs]

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

    def homomorphism(self, images, budget=None):
        """g = a^p b^q c^s, s = r - pq, -> A^p B^q C^s: the closed-form
        powers (p,q,r)^k = (kp, kq, kr + k(k-1)/2 pq) multiplied out into
        one polynomial in (p, q, r), compiled with its nonzero terms alone,
        so the swap of heis_swap reads [(q, p, -(r - p*q)) for p, q, r in gs]."""
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = images
        s = "(r - p*q)"
        return self._kernel([
            [(a1, "p"), (b1, "q"), (c1, s)],
            [(a2, "p"), (b2, "q"), (c2, s)],
            [(a3, "p"), (a1 * a2, "(p*(p - 1)//2)"), (b3, "q"), (b1 * b2, "(q*(q - 1)//2)"),
             (a1 * b2, "p*q"), (c3, s), (c1 * c2, "((r - p*q)*(r - p*q - 1)//2)"),
             (a1 * c2, f"p*{s}"), (b1 * c2, f"q*{s}")],
        ], ("gs", "pqr"))

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


def _orbit_map(edges, start: int, target: int, free) -> Optional[dict]:
    """The point map on start's orbit that sends start to target and has
    c[s[x]] = w[c[x]] on every edge (s, w), or None when that is
    inconsistent, or not injective into the points in `free`."""
    c = {start: target}
    stack = [start]
    while stack:
        x = stack.pop()
        for s, w in edges:
            y, cy = s[x], w[c[x]]
            if y not in c:
                c[y] = cy
                stack.append(y)
            elif c[y] != cy:
                return None
    targets = set(c.values())
    return c if len(targets) == len(c) and targets <= free else None


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
        self.gens = tuple(map(tuple, gen_images))
        for perm in self.gens:
            if sorted(perm) != list(range(degree)):
                raise ValidationError(f"not a permutation of 0..{degree-1}: {perm}")
        self._chain: Optional[List[Tuple[int, List[Any], dict]]] = None

    @property
    def identity(self):
        return tuple(range(self.degree))

    def mul(self, g, h):
        return tuple([h[i] for i in g])

    def products(self, gs, hs):
        """[mul(g, h) for g in gs for h in hs], g-major: each h read through
        one ``itemgetter`` per g.  A getter of one point returns the point,
        not a tuple; on Sym(1), whose one element is (0,), g*h is h."""
        return [p for g in gs for p in map(operator.itemgetter(*g) if len(g) > 1 else tuple, hs)]

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

    def homomorphism(self, images, budget=Budget()):
        """Conjugation by a point map c with c[s[x]] = w[c[x]] for every
        generator s and its image w, when there is one and every w lies in
        G (it sifts to the identity); else the base edge walk.

        g -> c g c^-1 is an injective homomorphism of Sym(n) that sends
        each s to its w; with every w in G it maps G into G, so onto the
        finite G: an automorphism, proved without walking G.  A c alone is
        not enough: c = (1 3)(2 4) conjugates <(1 2)> onto <(3 4)>.
        The map is one ``map`` of a memo over the batch, c g c^-1 formed
        only for the elements a walk touches.  Non-homomorphisms,
        non-injective maps, images outside G and an outer automorphism of
        S6 take the walk, which raises as before."""
        c = self._conjugator(images)
        if c is None or any(self._sift(w) != self.identity for w in images):
            return super().homomorphism(images, budget)
        c_inv = self.inv(c)
        conjugate = _Memo(lambda g: tuple([c[g[y]] for y in c_inv]))
        return functools.partial(_each, conjugate.__getitem__)

    def _conjugator(self, images) -> Optional[Tuple[int, ...]]:
        """A point map c with c[s[x]] = w[c[x]] for every generator s and
        its image w, or None: orbit by orbit, the orbit's first point is
        tried on each free target, at most n^2 |S| steps.  The greedy choice
        misses no c: a c maps each orbit of G onto one orbit of the images,
        and two orbits that fit one target orbit are isomorphic G-sets, so
        any free target orbit that fits one of them fits the other."""
        edges = list(zip(self.gens, images))
        c: dict = {}
        for start in range(self.degree):
            if start not in c:
                free = set(range(self.degree)).difference(c.values())
                orbit = next(filter(None, (_orbit_map(edges, start, target, free)
                                           for target in sorted(free))), None)
                if orbit is None:
                    return None
                c.update(orbit)
        return tuple(map(c.__getitem__, range(self.degree)))

    def _sift(self, g):
        """g stripped down the stabilizer chain: the identity iff g lies in G."""
        if self._chain is None:
            self._chain = []
            for s in self.gens:
                if self._strip(s, 0) != self.identity:
                    self._extend(s, 0)
        return self._strip(g, 0)

    def _strip(self, g, level: int):
        """g times the inverse transversal element of each level from
        `level` on, until a level's orbit misses the image of its base point."""
        for base, _, transversal in self._chain[level:]:
            pair = transversal.get(g[base])
            if pair is None:
                break
            g = self.mul(g, pair[1])
        return g

    def _extend(self, g, level: int):
        """Schreier-Sims (Holt, Eick and O'Brien, ch. 4): add g, which fixes
        the base points above `level` and lies outside the group of the
        chain from `level` on, to that level's generators.  The level's
        orbit grows under them, and each Schreier generator u_p s u_q^-1
        that does not strip to the identity below is added one level down,
        so each level's stabilizer is the group of the levels below it."""
        if level == len(self._chain):
            base = next(x for x, y in enumerate(g) if x != y)
            self._chain.append((base, [], {base: (self.identity, self.identity)}))
        base, gens, transversal = self._chain[level]
        gens.append(g)
        todo = [(p, g) for p in transversal]
        while todo:
            p, s = todo.pop()
            u = self.mul(transversal[p][0], s)
            q = u[base]
            if q not in transversal:
                transversal[q] = (u, self.inv(u))
                todo += [(q, t) for t in gens]
                continue
            h = self._strip(self.mul(u, transversal[q][1]), level + 1)
            if h != self.identity:
                self._extend(h, level + 1)

    def is_finite(self):
        return True

    def elements(self):
        """G drawn lazily, the closure of its generators in discovery order:
        nothing is cached, sorted or capped, so the reader's count decides,
        and a draw that stops early, as a carrier over its budget does,
        stops the walk there."""
        return self._close(self.gens)


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
        self.gens = tuple(gen_indices)
        if len(self.gen_names) != len(self.gens):
            raise ValidationError("one index per generator name required")
        if any(g not in indices for g in self.gens):
            raise ValidationError(f"generator indices must lie in 0..{n - 1}")
        t = self.table
        for a in sorted(set(self.gens)):
            for x, y in itertools.product(indices, indices):
                if t[t[x][a]][y] != t[x][t[a][y]]:
                    raise ValidationError(f"table is not associative: "
                                          f"(#{x} #{a}) #{y} != #{x} (#{a} #{y})")
        if len(list(self._close(self.gens))) != n:
            raise ValidationError("declared generators do not generate the table group")

    @property
    def identity(self):
        return self.identity_index

    def mul(self, g, h):
        return self.table[g][h]

    def products(self, gs, hs):
        """[mul(g, h) for g in gs for h in hs], g-major: g's row read by ``map``."""
        return [p for g in gs for p in map(self.table[g].__getitem__, hs)]

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
        self.gen_names = tuple(itertools.chain.from_iterable(b.gen_names for b in self.factors))
        for i, name in enumerate(self.gen_names):
            if name in self.gen_names[:i]:
                raise ValidationError(f"duplicate generator name across factors: {name}")
        # factor i's generators are gens[_offsets[i]:_offsets[i + 1]]
        self._offsets = [0, *itertools.accumulate(len(b.gen_names) for b in self.factors)]
        e = self.identity
        self.gens = tuple(e[:i] + (g,) + e[i + 1:]
                          for i, b in enumerate(self.factors) for g in b.gens)
        # per-factor bound methods, so each operation is one list display
        self._muls = [b.mul for b in self.factors]
        self._invs = [b.inv for b in self.factors]

    @property
    def identity(self):
        return tuple(b.identity for b in self.factors)

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

    def homomorphism(self, images, budget=Budget()):
        """Factor by factor when the product has relators and every
        generator's image lies in its own factor, else the base map: the
        walked table on a finite product without relators, which a factor's
        own map would leave unchecked, and the generic map otherwise.
        Factor by factor, the batch is cut into its factor columns, each
        column mapped by its factor's batch map, or passed on untouched
        where the images are the factor's own generators, and zipped back;
        an empty batch has no columns, so gives []."""
        if self.relators() is None:
            return super().homomorphism(images, budget)
        maps = []
        for fi, backend in enumerate(self.factors):
            local = []
            for image in images[self._offsets[fi]:self._offsets[fi + 1]]:
                if any(c != b.identity for i, (b, c) in enumerate(zip(self.factors, image))
                       if i != fi):
                    return super().homomorphism(images, budget)
                local.append(image[fi])
            fixed = tuple(local) == backend.gens
            maps.append(None if fixed else backend.homomorphism(local, budget))
        return lambda gs: list(zip(*[c if m is None else m(c) for m, c in zip(maps, zip(*gs))]))

    def factor(self, g):
        word: List[Tuple[int, int]] = []
        for off, backend, comp in zip(self._offsets, self.factors, g):
            word.extend((off + i, e) for i, e in backend.factor(comp))
        return tuple(word)

    def relators(self):
        rels: List[Word] = []
        for off, backend in zip(self._offsets, self.factors):
            sub = backend.relators()
            if sub is None:
                # finite factor without declared relators: check the whole
                # product along its Cayley-graph edges instead
                return None
            rels.extend(tuple((off + i, e) for i, e in rel) for rel in sub)
        # generators of distinct factors commute
        gens = list(itertools.starmap(range, zip(self._offsets, self._offsets[1:])))
        for left, right in itertools.combinations(gens, 2):
            rels += [((gi, -1), (gj, -1), (gi, 1), (gj, 1))
                     for gi, gj in itertools.product(left, right)]
        return rels

    def is_finite(self):
        return all(b.is_finite() for b in self.factors)

    def elements(self):
        """Every element, the first factor varying slowest, formed one at a
        time.  Each later factor is drawn once, its elements kept as the draw
        gives them and replayed for each element of the factors before it,
        so what the reader takes, and not |G|, bounds the memory."""
        kept = [[] for _ in self.factors]
        def tails(i, first):  # first: each factor before i is at its first element
            if i == len(self.factors):
                yield ()
                return
            for k, a in enumerate(self.factors[i].elements() if first else kept[i]):
                if first and i:
                    kept[i].append(a)
                for rest in tails(i + 1, first and k == 0):
                    yield (a, *rest)
        return tails(0, True)


# ---------------------------------------------------------------------------
# automorphisms


class Automorphism:
    """An automorphism of a backend, given by generator images.

    verify() checks it and keeps one compiled map, `forward`, the backend's
    homomorphism for its images: a batch map, which walks call on whole
    layers and `apply` calls on a batch of one; until it has passed there
    is no map.  The inverse images are input to verify() only.
    identity_automorphism and every automorphism close_automorphisms
    returns are compiled."""

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
        """g's image: the batch map on the batch of one."""
        return self.forward((g,))[0]

    def verify(self, budget: Budget = Budget()) -> "Automorphism":
        """Check the homomorphism property, compile both image lists, check
        on the two maps that they are mutually inverse, and only then keep
        the forward map.  The relators are evaluated on both lists, but
        inverse images equal to the images are not compiled again: they
        would give the identical map after the identical walk.  An edge
        walk runs under `budget`."""
        backend = self.backend
        if self.inverse_images is None:
            raise ValidationError(f"automorphism {self.name!r} has no inverse images")
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
                maps.append(backend.homomorphism(images, budget))
            except NotAnAutomorphism as exc:  # the edge walk of a finite kind
                raise NotAnAutomorphism(f"{self.name!r}: {label} {exc}") from None
        forward, backward = maps
        # both are homomorphisms, so inverting on every generator inverts everywhere
        gens = backend.gens
        for i, name in enumerate(backend.gen_names):
            try:
                inverts = (forward(self.inverse_images[i:i + 1]) == [gens[i]]
                           == backward(self.images[i:i + 1]))
            except KeyError:  # an image outside the group a table covers
                inverts = False
            if not inverts:
                raise NotAnAutomorphism(
                    f"{self.name!r}: inverse images do not invert on generator {name}")
        # the shortcut comes after the walk, which also checks the generators reach G
        self.forward = _identity if self.images == gens else forward
        return self


def identity_automorphism(backend: GroupBackend) -> Automorphism:
    ident = Automorphism(backend, "id", backend.gens, backend.gens)
    ident.forward = _identity
    return ident


def close_automorphisms(seeds: Sequence[Automorphism],
                        budget: Budget = Budget()) -> Tuple[Automorphism, ...]:
    """Subgroup of Aut(G) generated by the seeds, as a finite closed set:
    a tuple of compiled automorphisms sorted by signature.

    The closure steps by left composition with the verified seeds alone: a
    finite set closed under composition is a group.  s after a has the
    images s's batch map gives a's images, so the walk is on image tuples:
    a step applies seed maps, and only the images it keeps become
    automorphisms.  Each one past the identity and the seeds, named by
    its place in discovery order, is then compiled once.  The seeds'
    checks, the closure and each compile run under `budget`: the closure
    overruns once it reaches more than the limit of automorphisms, and an
    edge walk once it reaches more than the limit of G-elements.
    """
    if not seeds:
        raise ValidationError("need at least one seed automorphism")
    backend = seeds[0].backend
    for seed in seeds:
        if seed.backend is not backend:
            raise ValidationError("all seeds must act on the same backend")
        seed.verify(budget)
    # the identity and the seeds start the first layer, so they keep their maps and names
    start: dict = {}
    for a in (identity_automorphism(backend), *seeds):
        start.setdefault(a.images, a)
    maps = [s.forward for s in seeds]
    reached = list(closure(start, lambda images: (tuple(f(images)) for f in maps), budget,
                           "the automorphism closure of A"))
    for k, images in enumerate(reached[len(start):], len(start)):
        a = start[images] = Automorphism(backend, f"#{k}", images, None)
        a.forward = backend.homomorphism(images, budget)
    return tuple(sorted(start.values(), key=lambda a: a.signature))


def orbit(A: Sequence[Automorphism], g) -> Tuple[Any, ...]:
    """The A-orbit of g, deduplicated and sorted by canonical key."""
    return tuple(sorted({a.apply(g) for a in A}, key=A[0].backend.canonical_key))


# ---------------------------------------------------------------------------
# monoid balls


def monoid_balls(backend: GroupBackend, gens: Sequence[Any], radius: int,
                 budget: Budget = Budget()) -> GrowthTable:
    """Layers of right multiplication: S+(e, i+1) = S+(e, i) * gens \\ ball,
    each layer's products formed in one ``products`` batch, the walk named
    the monoid ball of G.

    The table is centred at the identity; each sphere is in discovery order
    (element-major, then generator).
    """
    if not gens:
        raise ValidationError("monoid BFS needs a nonempty generator set")
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    return growth_table(backend.identity, radius, layers(
        [backend.identity], lambda layer: backend.products(layer, gens), budget,
        "the monoid ball of G"))
