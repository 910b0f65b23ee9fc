"""The kept slow paths, the instance lists, and the table that runs every
fast path against its slow path.

A row of ``ROWS`` is (walk, applies, cases, fast, oracle, compare): on each
instance named `applies`, for each case of `cases(instance)` (first the
group whose kernel runs), ``compare(fast(*case), oracle(*case))`` asserts
agreement.  A budgeted row's oracle returns the walk's rows, and both paths
must stop at the same radius at a budget inside the first row that adds two
or more elements.  ``table_test(*walks)`` is the test of the table: a test
module binds it to the names of the checks the rows took over, each row
under one name, and ``extra`` runs the rows on cases of ids of their own
(a group built in the test module, proof34's GA of a coset instance).  A
new kernel adds a row; ``tests/test_hygiene.py`` fails
on a row bound to no test and on a class defining ``products``, ``step``,
``project_all`` or ``homomorphism`` (a compiled batch map) that no row's
fast path calls.
"""

import collections
import copy
import functools
import itertools
import json
import pathlib
import re
import struct

import pytest

from mvgroups.cayley import ball, lengths, power_table, set_product
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import BudgetExceeded, WordSyntaxError
from mvgroups.groups import (DEFAULT_BUDGET, Automorphism, Budget, SemidirectProduct,
                             identity_automorphism, layers, monoid_balls, orbit)
from mvgroups.keys import int_key
from mvgroups.mvalued import (AxiomReport, CosetGroup, DoubleCosetGroup, MvGroup, OrbitGroup,
                              check_axioms)
from mvgroups.verify import sample_elements
from mvgroups.wordspec import load_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent
RADIUS = 4

# the shipped configs, and the coset instances kept out of configs/: the
# n >= 3 ones, and S4 as a table group, whose automorphism the edge walk compiles
PATHS = {p.stem: p for p in sorted([*(ROOT / "configs").glob("*.json"),
                                    *(ROOT / "tests" / "instances").glob("*.json")])}
DOCUMENTS = {name: json.loads(path.read_text()) for name, path in PATHS.items()}
KINDS = {name: document["mv"]["kind"] for name, document in DOCUMENTS.items()}
EVERY_INSTANCE = sorted(PATHS)
SHIPPED = [name for name in EVERY_INSTANCE if PATHS[name].parent.name == "configs"]
ORBIT = [name for name in EVERY_INSTANCE if KINDS[name] in ("coset", "double_coset")]
COSET = [name for name in ORBIT if KINDS[name] == "coset"]


def is_finite(group):
    """Whether a group descriptor of a config describes a finite group, read
    from its JSON alone, so that listing the instances builds none of them."""
    if group["kind"] == "direct_product":
        return all(map(is_finite, group["factors"]))
    return group["kind"] in ("cyclic", "permutation", "finite_table")


INFINITE_COSET = [name for name in COSET if not is_finite(DOCUMENTS[name]["group"])]


# ---------------------------------------------------------------------------
# the slow paths


def generic(X):
    """A copy of X that expands through the base-class MvGroup.step."""
    Y = copy.copy(X)
    Y.step = functools.partial(MvGroup.step, Y)
    return Y


def in_order(rows):
    """Each row sorted; classes are G-elements, which sort natively."""
    return [tuple(sorted(row)) for row in rows]


def sizes(rows):
    return list(itertools.accumulate(map(len, rows)))


def sorted_spheres(X, gens, x, radius, budget=DEFAULT_BUDGET):
    """S(x, 0..radius) by the generic step, each sphere sorted, as ``ball``
    once built them: the oracle of the unordered spheres."""
    return in_order(itertools.islice(layers([x], generic(X).step(gens), Budget(budget)),
                                     radius + 1))


def sorted_supports(X, z, y, radius, budget=DEFAULT_BUDGET, first=0):
    """Set(T_z^r(y)) for r = 0..radius by the generic step, each sorted, as
    ``dynamic_supports`` once built them: the oracle of the unordered
    supports, which numbers the row r that overruns r + `first`."""
    step, reached, supports = generic(X).step([z]), set(), []
    for r in range(radius + 1):
        support = tuple(sorted(set(step(supports[-1])))) if r else (y,)
        reached.update(support)
        if len(reached) > budget:
            raise BudgetExceeded(budget, r + first)
        supports.append(support)
    return supports


def support_product(X, left, right):
    """The support of left * right, sorted, every product built by oracle_mul."""
    return sorted({v for u in left for s in right for v in oracle_mul(X, u, s)})


def flatten(products):
    """The sorted concatenation of the products, a multiset of their summed
    size: the n^2-multiset of the associativity axiom, x*(y*z) being
    flatten(mul(x, w) for w in mul(y, z))."""
    return tuple(sorted(itertools.chain.from_iterable(products)))


def word_product(X, x, word):
    """The fully expanded multiset x * s1 * ... * sk (n^k entries)."""
    out = (x,)
    for s in word:
        out = flatten(X.mul(u, s) for u in out)
    return out


def word_ball(X, gens, x, radius):
    """B(x, radius) as the union of the supports of x * w over the words w
    of length at most `radius`, each expanded in full."""
    return {v for r in range(radius + 1) for word in itertools.product(gens, repeat=r)
            for v in word_product(X, x, word)}


def scalar_products(backend, gs, hs):
    """The products g*h, g-major, one scalar `mul` each: the oracle of every
    `products` batch."""
    return [backend.mul(g, h) for g in gs for h in hs]


def scalar_mv_products(X, xs, ys):
    """x*y for x in xs, then y in ys, one `oracle_mul` each: the oracle of
    `MvGroup.products` batches."""
    return [oracle_mul(X, x, y) for x in xs for y in ys]


def sorted_groups(X, values):
    """A batch of n values per pair, cut into its pairs, each a sorted n-tuple."""
    return [tuple(sorted(values[k:k + X.n])) for k in range(0, len(values), X.n)]


def bfs_words(backend):
    """Each element of a finite backend with the word that first reaches it,
    by BFS over the generators and their inverses."""
    steps = [((i, e), backend.power(backend.gens[i], e))
             for i in range(len(backend.gen_names)) for e in (1, -1)]
    words = {backend.identity: ()}
    frontier = [backend.identity]
    while frontier:
        fresh = []
        for g in frontier:
            for step, s in steps:
                h = backend.mul(g, s)
                if h not in words:
                    words[h] = words[g] + (step,)
                    fresh.append(h)
        frontier = fresh
    return words


def scalar_images(backend, images, gs):
    """Each g's image, one at a time, as the product of the images along a
    word for g: its `factor` on an infinite kind, its BFS word on a finite
    one (permutation and table groups have no factor).  The oracle of every
    compiled batch map."""
    word = bfs_words(backend).__getitem__ if backend.is_finite() else backend.factor
    return [backend.evaluate(word(g), images) for g in gs]


def starmap_spheres(backend, gens, radius, budget=DEFAULT_BUDGET):
    """The spheres of monoid_balls one scalar `mul` at a time, as it formed
    them before the products batch."""
    spheres = layers([backend.identity], lambda layer: itertools.starmap(
        backend.mul, itertools.product(layer, gens)), Budget(budget))
    return [tuple(sphere) for sphere in itertools.islice(spheres, radius + 1)]


def balls_of(spheres):
    """The ball of each radius, as the set of its spheres' elements."""
    return [set(itertools.chain.from_iterable(spheres[:r + 1])) for r in range(len(spheres))]


def projected_monoid_balls(X, gens, x, radius):
    """B_X(x, 0..radius) from the G-side identity

        B_X(x, r) = pi(x * B+_G(e, r; A.S)),

    the monoid ball over the A-orbits of the generators (Buchstaber's coset
    construction)."""
    twisted = list(dict.fromkeys(itertools.chain.from_iterable(orbit(X.auts, s) for s in gens)))
    spheres = starmap_spheres(X.backend, twisted, radius)
    return balls_of([least_members(X, [X.backend.mul(x, g) for g in sphere])
                     for sphere in spheres])


def least_members(X, gs):
    """gs's classes by the oracle: each the least member of its class under
    native `<`."""
    return [min(class_members(X, g)) for g in gs]


def g_products(X, x, y):
    """The G-products whose classes are x * y: x a(y) over a in A on a
    coset group, x h y over h in H on a double coset group."""
    mul = X.backend.mul
    return ([mul(x, a.apply(y)) for a in X.auts] if isinstance(X, CosetGroup)
            else [mul(mul(x, h), y) for h in X.subgroup])


def orbit_product(X, x, y):
    """The classes of x * y by the key oracle."""
    return sorted(key_class(X, g) for g in g_products(X, x, y))


def oracle_mul(X, x, y):
    """x * y as a sorted n-tuple; on an orbit group by the oracles, never
    through X.mul or X.project: the least members of the classes of its
    G-products.  A builtin group's mul is its definition."""
    if not isinstance(X, OrbitGroup):
        return X.mul(x, y)
    return tuple(sorted(least_members(X, g_products(X, x, y))))


def class_members(X, g):
    """The members of g's class: its A-orbit on a coset group, its double
    coset HgH on a double coset group, g alone on a builtin group."""
    if isinstance(X, CosetGroup):
        return {a.apply(g) for a in X.auts}
    if isinstance(X, DoubleCosetGroup):
        mul = X.backend.mul
        return {mul(mul(h1, g), h2) for h1 in X.subgroup for h2 in X.subgroup}
    return {g}


def key_class(X, g):
    """g's class as the pair (canonical key, least member by key), the
    projection by key kept as the oracle of the native classes; on a
    builtin group an element is its own class."""
    if not isinstance(X, OrbitGroup):
        return g
    key = X.backend.canonical_key
    return min((key(h), h) for h in class_members(X, g))


def brute_double_cosets(subgroup):
    """The S3 tuples partitioned into H g H classes, on tuples alone."""
    def mul(g, h):
        return tuple(h[g[i]] for i in range(3))

    return {frozenset(mul(mul(h1, g), h2) for h1 in subgroup for h2 in subgroup)
            for g in itertools.permutations(range(3))}


def partition(X):
    """X's class table, G-element -> class: a double coset group's partition
    of G; no other kind has one."""
    return X._classes if isinstance(X, DoubleCosetGroup) else {}


def class_forms(X, met):
    """Each G-element X's partition files, and each met class (its own
    class where the partition lacks it), with its class and that class's
    canonical form."""
    table = partition(X)
    return {g: (c, X.canonical(c)) for g, c in ((g, table.get(g, g)) for g in [*table, *met])}


def oracle_class_forms(X, met):
    """class_forms by the oracles: the least member under native `<`, and
    key_class."""
    return {g: (min(class_members(X, g)), key_class(X, g)) for g in [*partition(X), *met]}


def triple_product_left(X, x, y, z):
    """The n^2-multiset [x*(y*z)_1, ..., x*(y*z)_n] by oracle_mul, flattened."""
    return flatten(oracle_mul(X, x, w) for w in oracle_mul(X, y, z))


def triple_product_right(X, x, y, z):
    """The n^2-multiset [(x*y)_1*z, ..., (x*y)_n*z] by oracle_mul, flattened."""
    return flatten(oracle_mul(X, w, z) for w in oracle_mul(X, x, y))


def reference_check_axioms(X, sample):
    """The axiom check with every product recomputed by oracle_mul."""
    sample = list(sample)
    if X.unit not in sample:
        sample = [X.unit] + sample
    unit_witness = inverse_witness = associativity_witness = None
    for x in sample:
        expected = (x,) * X.n
        if unit_witness is None and (oracle_mul(X, X.unit, x) != expected
                                     or oracle_mul(X, x, X.unit) != expected):
            unit_witness = x
        xb = X.inv(x)
        if inverse_witness is None and (X.unit not in oracle_mul(X, xb, x)
                                        or X.unit not in oracle_mul(X, x, xb)):
            inverse_witness = x
    triples = 0
    for x, y, z in itertools.product(sample, repeat=3):
        triples += 1
        if triple_product_left(X, x, y, z) != triple_product_right(X, x, y, z):
            associativity_witness = (x, y, z)
            break
    return AxiomReport(associativity_witness is None, unit_witness is None,
                       inverse_witness is None, associativity_witness, unit_witness,
                       inverse_witness, triples, len(sample))


def cli_sample(instance):
    """The sample `mvgroups axioms` checks by default: the unit and
    --sample 10 more."""
    if instance.backend is None:
        return list(range(11))
    return sample_elements(instance, limit=11)


def compose(a, b):
    """a after b, compiled from its generator images: the oracle for the
    composition tables and the closure."""
    images = [a.apply(img) for img in b.images]
    composite = Automorphism(a.backend, f"{a.name}*{b.name}", images, None)
    composite.forward = a.backend.homomorphism(images)
    return composite


def inverse_seed(a):
    """The verified automorphism whose images are a's inverse images."""
    return Automorphism(a.backend, f"{a.name}^-1", a.inverse_images, a.images).verify()


def oracle_closure(seeds):
    """Signatures of the closure stepping by the seeds and their verified
    inverse seeds, by composing compiled automorphisms."""
    steps = [*seeds, *map(inverse_seed, seeds)]
    found = {identity_automorphism(seeds[0].backend), *steps}
    frontier = list(found)
    while frontier:
        new = {compose(a, s) for a in frontier for s in steps} - found
        found |= new
        frontier = list(new)
    return {a.signature for a in found}


# ---------------------------------------------------------------------------
# oracles of one feature each: the byte keys the canonical order was first
# defined by, the free-word key as first written, the linear map of Z^k, the
# two-sided closure of a finite group, and the character scanner parse_word
# replaced


def byte_int_key(x):
    n = (abs(x).bit_length() + 7) // 8
    return struct.pack(">I", n) + abs(x).to_bytes(n, "big") + (b"\x01" if x < 0 else b"\x00")


def byte_seq_key(parts):
    parts = list(parts)
    return struct.pack(">I", len(parts)) + b"".join(parts)


def byte_key(backend, g):
    if backend.kind == "free":
        return byte_seq_key(byte_seq_key((byte_int_key(i), byte_int_key(e)))
                            for i, e in backend.factor(g))
    if backend.kind in ("cyclic", "finite_table"):
        return byte_int_key(g)
    if backend.kind == "direct_product":
        return byte_seq_key(byte_key(b, a) for b, a in zip(backend.factors, g))
    if backend.kind == "semidirect":
        return byte_seq_key((byte_key(backend.group, g[0]), byte_int_key(g[1])))
    return byte_seq_key(map(byte_int_key, g))


def flat_key(g):
    """The free-word key as first written: (length, letter, exponent rank, ...)."""
    key = [len(g)]
    for letter, exp in g:
        key += (letter, int_key(exp))
    return tuple(key)


def linear_map(images, g):
    """sum_i g[i] * images[i]: the image of g under the linear map."""
    return tuple(sum(c * image[j] for c, image in zip(g, images)) for j in range(len(g)))


def heisenberg_polynomial(images):
    """The per-element Heisenberg map g = a^p b^q c^s, s = r - pq, ->
    A^p B^q C^s: the closed-form powers multiplied out into one polynomial
    in (p, q, r), the oracle of the compiled map's terms."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = images

    def apply(g):
        p, q, r = g
        s = r - p * q
        x = p * a1 + q * b1
        return (x + s * c1, p * a2 + q * b2 + s * c2,
                p * a3 + p * (p - 1) // 2 * a1 * a2 + q * b3 + q * (q - 1) // 2 * b1 * b2
                + p * a1 * q * b2 + s * c3 + s * (s - 1) // 2 * c1 * c2 + x * s * c2)
    return apply


def two_sided_closure(backend, gens):
    """The subgroup `gens` generate, by BFS over them and their inverses:
    the oracle for the finite closure, which steps by `gens` alone."""
    steps = [*gens, *map(backend.inv, gens)]
    seen, frontier = {backend.identity}, [backend.identity]
    while frontier:
        new = []
        for g in frontier:
            for t in steps:
                h = backend.mul(g, t)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return seen


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")


def scanner_parse_word(text):
    """The character scanner parse_word replaced, kept as its oracle."""
    pos = 0
    n = len(text)
    terms = []

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_term():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise WordSyntaxError("expected a term", pos)
        m = _NAME_RE.match(text, pos)
        if m:
            name = m.group()
            pos = m.end()
            skip_ws()
            if name == "e":
                if pos < n and text[pos] == "^":
                    raise WordSyntaxError("the identity 'e' takes no exponent", pos)
                return
            exp = 1
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                mi = _INT_RE.match(text, pos)
                if not mi:
                    raise WordSyntaxError("expected an integer exponent", pos)
                exp = int(mi.group())
                pos = mi.end()
                if exp == 0:
                    return
            terms.append((name, exp))
            return
        mi = _INT_RE.match(text, pos)
        if mi and not mi.group().startswith("-"):
            terms.append((mi.group(), 1))
            pos = mi.end()
            return
        raise WordSyntaxError("expected a term", pos)

    parse_term()
    skip_ws()
    while pos < n:
        if text[pos] != "*":
            raise WordSyntaxError("expected '*' between terms", pos)
        pos += 1
        parse_term()
        skip_ws()
    return tuple(terms)


# ---------------------------------------------------------------------------
# the cases the rows run on


def centres(X, gens):
    """The unit, each generator, and the greatest class of each sphere of radius 1-3."""
    spheres = sorted_spheres(X, gens, X.unit, 3)
    return list(dict.fromkeys([X.unit, *gens, *(max(sphere) for sphere in spheres if sphere)]))


def near_unit(instance):
    """The classes of B(e, 2)."""
    return list(itertools.chain.from_iterable(
        sorted_spheres(instance.X, instance.x_generators, instance.X.unit, 2)))


def centred(instance):
    X, gens = instance.X, instance.x_generators
    return [(X, gens, x, RADIUS) for x in centres(X, gens)]


def twisted_steps(X, gens):
    """The distinct twisted generators t(s), s in gens, then t in X.twists,
    each twist mapping the batch of one s: the steps of ``X.step``, in its
    order."""
    return list(dict.fromkeys(v for s in gens for t in X.twists for v in t((s,))))


def ball_products(X, gens, radius):
    """The backend products of a ball's spheres with the twisted steps,
    repeats and all, in discovery order."""
    steps = twisted_steps(X, gens)
    spheres = itertools.islice(layers([X.unit], X.step(gens)), radius)
    return [X.backend.mul(u, t) for sphere in spheres for u in sphere for t in steps]


def products_with_repeats(instance):
    """(X, the products of B(e, 3)'s spheres, then each again in reverse)."""
    products = ball_products(instance.X, instance.x_generators, 3)
    return [(instance.X, products + products[::-1])]


def semidirect(instance):
    """proof34's GA of a coset instance, with the generators (s, a) over s
    in S, a in A."""
    auts = instance.auts
    return (SemidirectProduct(instance.backend, auts),
            [(s, i) for s in instance.config.x_generators for i in range(len(auts))])


def semidirect_balls(name):
    """The monoid_balls case of proof34's GA of the coset instance `name`,
    as a function of the instances."""
    return lambda instances: [(*semidirect(instances[name]), RADIUS)]


def product_batches(instance):
    """(backend, gs, hs) on G, and on GA for a coset instance: gs is the
    monoid ball of radius 2 over the generators and their inverses, hs
    those steps, and each side also alone or cut short."""
    cases = []
    for backend in [instance.backend] + ([semidirect(instance)[0]] if instance.auts else []):
        gens = list(backend.gens)
        steps = list(dict.fromkeys([*gens, *map(backend.inv, gens)]))
        elements = list(itertools.chain.from_iterable(starmap_spheres(backend, steps, 2)))
        cases += [(backend, gs, hs) for gs, hs in ((elements, steps), (steps, elements[:40]),
                                                   (elements, []), ([], steps))]
    return cases


def map_batches(backend, image_lists):
    """(backend, images, gs) for each image list and each batch gs: none,
    the identity alone, and the monoid ball of radius 2 over the generators
    and their inverses, which holds the identity first."""
    gens = list(backend.gens)
    steps = list(dict.fromkeys([*gens, *map(backend.inv, gens)]))
    elements = list(itertools.chain.from_iterable(starmap_spheres(backend, steps, 2)))
    return [(backend, images, gs) for images in image_lists
            for gs in ([], elements[:1], elements)]


def pair_batches(instance):
    """(X, xs, ys): the classes of B(e, 2) against the centres, the centres
    against them, and each side alone."""
    X, near = instance.X, near_unit(instance)[:10]
    middle = centres(X, instance.x_generators)
    return [(X, xs, ys) for xs, ys in ((near, middle), (middle, near), (near, []), ([], middle))]


def classes_met(instance):
    """(X, every class a ball, a dynamic or a power table meets)."""
    X, gens = instance.X, instance.x_generators
    met = set(itertools.chain.from_iterable(ball(X, gens, X.unit, RADIUS).sphere_sets))
    for z in dict.fromkeys([gens[0], gens[-1]]):
        met.update(itertools.chain.from_iterable(iterate_dynamic(X, z, gens[-1], 6).supports))
        met.update(itertools.chain.from_iterable(power_table(X, z, 6).set_powers))
    assert len(met) > 1
    return [(X, met)]


# ---------------------------------------------------------------------------
# comparisons of a fast result with its oracle's: a table's rows and the
# sizes it derives from them, a length with the radius of its sphere, a
# power's sphere S* with its support less every earlier one


def equal(fast, expected):
    assert fast == expected


def same_spheres(table, spheres):
    assert (in_order(table.sphere_sets), table.ball_sizes) == (spheres, sizes(spheres))


def same_monoid_spheres(table, spheres):  # in discovery order
    assert (table.sphere_sets, table.ball_sizes) == (spheres, sizes(spheres))


def sphere_radii(found, spheres):  # the targets are the spheres' elements, in order
    assert found == [r for r, sphere in enumerate(spheres) for _ in sphere]


def same_supports(dynamics, supports):
    assert (in_order(dynamics.supports), dynamics.xi) == (supports, list(map(len, supports)))


def same_powers(powers, set_powers):
    assert in_order(powers.set_powers) == set_powers
    assert [set(s) for s in powers.sstar_sets] == [
        set(p).difference(*set_powers[:r]) for r, p in enumerate(set_powers)]
    assert powers.bstar_sizes == sizes(powers.sstar_sets)


def sorted_tuple_forms(X, product):
    """The canonical forms of a product's values, if it is a sorted n-tuple."""
    if type(product) is tuple and len(product) == X.n and list(product) == sorted(product):
        return sorted(map(X.canonical, product))


def same_support(product, support):
    assert type(product) is tuple and sorted(product) == support


def same_balls(table, balls):
    assert balls_of(table.sphere_sets) == balls


# ---------------------------------------------------------------------------
# the table


Row = collections.namedtuple("Row", "walk applies cases fast oracle compare budgeted",
                             defaults=[False])
# the applies-to predicates, on instance names
every, orbit_group, coset_group = (frozenset(names).__contains__
                                   for names in (EVERY_INSTANCE, ORBIT, COSET))
ROWS = [
    Row("ball", every, centred, ball, sorted_spheres, same_spheres, True),
    Row("coset_ball", coset_group, centred, ball, projected_monoid_balls, same_balls),
    Row("lengths", every,
        lambda i: [(i.X, i.x_generators, list(itertools.chain.from_iterable(
            sorted_spheres(i.X, i.x_generators, i.X.unit, RADIUS))), RADIUS)],
        lengths,
        lambda X, gens, targets, cap, budget=DEFAULT_BUDGET: sorted_spheres(
            X, gens, X.unit, cap, budget),
        sphere_radii, True),
    Row("iterate_dynamic", every,
        lambda i: [(i.X, z, y, RADIUS) for z in i.x_generators[:2]
                   for y in centres(i.X, i.x_generators)],
        iterate_dynamic, sorted_supports, same_supports, True),
    Row("power_table", every,
        lambda i: [(i.X, x, RADIUS) for x in dict.fromkeys(
            [i.x_generators[0], i.x_generators[-1]])],
        power_table, lambda X, x, radius, budget=DEFAULT_BUDGET: [(), *sorted_supports(
            X, x, x, radius - 1, budget, 1)], same_powers, True),
    Row("set_product", every,
        lambda i: [(i.X, near_unit(i), right) for right in (
            centres(i.X, i.x_generators), i.x_generators, [i.X.unit], [])],
        set_product, support_product, same_support),
    Row("mul", orbit_group,
        lambda i: [(i.X, x, y) for x, y in itertools.product(near_unit(i)[:12], repeat=2)],
        lambda X, x, y: sorted_tuple_forms(X, X.mul(x, y)), orbit_product, equal),
    Row("step", orbit_group,
        lambda i: [(i.X, i.x_generators, layer)
                   for layer in sorted_spheres(i.X, i.x_generators, i.X.unit, RADIUS)],
        lambda X, gens, layer: set(X.step(gens)(layer)),
        lambda X, gens, layer: set(generic(X).step(gens)(layer)), equal),
    Row("monoid_balls", coset_group,
        lambda i: [(i.backend, orbit(i.auts, i.x_generators[0]), RADIUS)],
        monoid_balls, starmap_spheres, same_monoid_spheres, True),
    Row("products", orbit_group, product_batches,
        lambda backend, gs, hs: backend.products(gs, hs), scalar_products, equal),
    Row("homomorphism", coset_group,
        lambda i: map_batches(i.backend, [a.images for a in i.auts]),
        lambda backend, images, gs: backend.homomorphism(images)(gs), scalar_images, equal),
    Row("mv_products", every, pair_batches,
        lambda X, xs, ys: sorted_groups(X, X.products(xs, ys)), scalar_mv_products, equal),
    Row("project_all", orbit_group, products_with_repeats,
        lambda X, gs: X.project_all(gs), least_members, equal),
    Row("classes", every, classes_met, class_forms, oracle_class_forms, equal),
    Row("check_axioms", every, lambda i: [(i.X, cli_sample(i))], check_axioms,
        reference_check_axioms, equal),
]
ROW = {row.walk: row for row in ROWS}


def first_budget_inside_a_row_of_two(rows):
    """A budget that runs out inside the first row that adds two or more
    elements to the union of the rows before it, or None; with that row."""
    reached = set()
    for r, row in enumerate(rows):
        if len(reached.union(row)) - len(reached) > 1:
            return len(reached) + 1, r
        reached.update(row)
    return None


def run_row(row, instance):
    """Every case of the row, at full radius and, if it is budgeted, at a
    budget inside its first row of two or more elements."""
    run_cases(row, row.cases(instance))


def run_cases(row, cases):
    """compare(fast, oracle) on each case, and the budget check of run_row:
    the fast walk gets a budget handle, the oracle its own int."""
    for case in cases:
        expected = row.oracle(*case)
        row.compare(row.fast(*case), expected)
        inside = row.budgeted and first_budget_inside_a_row_of_two(expected)
        walks = ((row.fast, Budget(inside[0])), (row.oracle, inside[0])) if inside else ()
        for walk, budget in walks:
            with pytest.raises(BudgetExceeded) as exc:
                walk(*case, budget=budget)
            assert exc.value.radius == inside[1]


def table_test(*walks, extra=None):
    """The test of the named rows, each on every instance it applies to;
    `extra` maps further case ids to the cases, a function of the
    instances, that each named row runs under that id."""
    rows = [ROW[walk] for walk in walks]
    extra = extra or {}

    @pytest.mark.parametrize("name", [name for name in EVERY_INSTANCE
                                      if any(row.applies(name) for row in rows)] + list(extra))
    def test(every_instance, name):
        for row in rows:
            if name in extra:
                run_cases(row, extra[name](every_instance))
            elif row.applies(name):
                run_row(row, every_instance[name])
    return test
