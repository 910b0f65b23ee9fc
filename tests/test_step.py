"""Twisted-step expansion against the generic expansion it replaces.

Every Cayley-graph walk expands through ``X.step(gens)``, a layer map.  On
an OrbitGroup that is one backend ``products`` batch of (element, twisted
generator) pairs and one ``project_all`` batch per layer, which the scalar
``project`` checks; the base-class ``MvGroup.step`` builds each product
``X.mul(u, s)`` and is kept as the oracle.  Balls,
lengths, dynamics supports and set products must agree on every coset and
double-coset config, from several centres.  Spheres and supports are
unordered: they are compared row by row, sorted, with the sorted ball and
supports of the sorted walk, kept here as the oracle; a group
whose elements cannot be ordered at all runs every walk.  The coset balls
are also checked against the G-side identity

    B_X(x, r) = pi(x_rep * B+_G(e, r; A.S)),

the monoid ball over the A-orbits of the generators (Buchstaber's coset
construction), which is a test oracle here and not a code path.
"""

import copy
import functools
import itertools
import json
import pathlib

import pytest

from mvgroups import load_instance
from mvgroups.cayley import ball, dynamic_supports, lengths, power_table, set_product
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import BudgetExceeded
from mvgroups.groups import (DEFAULT_BUDGET, Automorphism, GroupBackend, GrowthTable,
                             SemidirectProduct, layers, monoid_balls, orbit)
from mvgroups.mvalued import CosetGroup, MvGroup, NatGroup
from mvgroups.verify import run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
MV_KINDS = {p.stem: json.loads(p.read_text())["mv"]["kind"]
            for p in [*(ROOT / "configs").glob("*.json"),
                      *(ROOT / "tests" / "instances").glob("*.json")]}
ORBIT_CONFIGS = sorted(name for name, kind in MV_KINDS.items()
                       if kind in ("coset", "double_coset"))
COSET_CONFIGS = [name for name in ORBIT_CONFIGS if MV_KINDS[name] == "coset"]
RADIUS = 4


def generic(X):
    """A copy of X that expands through the base-class MvGroup.step."""
    Y = copy.copy(X)
    Y.step = functools.partial(MvGroup.step, Y)
    return Y


def centres(X, gens):
    """The unit, each generator, and the greatest class of each sphere of radius 1-3."""
    spheres = ball(generic(X), gens, X.unit, 3).sphere_sets
    return list(dict.fromkeys([X.unit, *gens, *(max(sphere) for sphere in spheres if sphere)]))


def sorted_ball(X, gens, x, radius, budget=DEFAULT_BUDGET):
    """B(x, 0..radius) with each sphere sorted, as ``ball`` once built it:
    the oracle of the unordered spheres."""
    spheres = layers([x], X.step(gens), budget)
    sphere_sets = [tuple(sorted(layer)) for layer in itertools.islice(spheres, radius + 1)]
    return GrowthTable(x, radius, sphere_sets, list(itertools.accumulate(map(len, sphere_sets))))


def sorted_dynamic_supports(X, z, y, budget=DEFAULT_BUDGET):
    """Set(T_z^r(y)) for r = 0, 1, ..., each sorted, as ``dynamic_supports``
    once built them: the oracle of the unordered supports."""
    support, reached, r = (y,), set(), 0
    step = X.step([z])
    while True:
        reached.update(support)
        if len(reached) > budget:
            raise BudgetExceeded(budget, r)
        yield support
        support = tuple(sorted(set(step(support))))
        r += 1


def in_order(rows):
    """Each row sorted; classes are G-elements, which sort natively."""
    return [tuple(sorted(row)) for row in rows]


def test_every_orbit_config_is_covered():
    assert len(ORBIT_CONFIGS) == 14
    assert {"f3_shift", "z2_dihedral", "z3_shift", "s3_doublecoset", "fibonacci5_z11",
            "fibonacci4_z5", "fibonacci3_q8"} <= set(ORBIT_CONFIGS)
    assert "s3_doublecoset" not in COSET_CONFIGS


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_balls_and_lengths_match_the_generic_step(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    Y = generic(X)
    for x in centres(X, gens):
        table = ball(X, gens, x, RADIUS)
        in_sorted_order = table._replace(sphere_sets=in_order(table.sphere_sets))
        assert in_sorted_order == sorted_ball(Y, gens, x, RADIUS), (name, X.render(x))
    targets = list(itertools.chain.from_iterable(ball(X, gens, X.unit, RADIUS).sphere_sets))
    assert lengths(X, gens, targets, RADIUS) == lengths(Y, gens, targets, RADIUS)


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_dynamics_and_set_products_match_the_generic_step(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    Y = generic(X)
    starts = centres(X, gens)
    for z, y in itertools.product(gens[:2], starts):
        fast = list(itertools.islice(dynamic_supports(X, z, y), RADIUS + 1))
        assert in_order(fast) == list(
            itertools.islice(sorted_dynamic_supports(Y, z, y), RADIUS + 1))
    left = list(itertools.chain.from_iterable(ball(X, gens, X.unit, 2).sphere_sets))
    for right in (starts, gens, [X.unit]):
        assert sorted(set_product(X, left, right)) == sorted(set_product(Y, left, right))
    assert set_product(X, left, []) == set_product(Y, left, []) == ()


class Unordered:
    """An element that hashes and compares equal by value, and has no order."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Unordered) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        raise TypeError("the walks must not order their elements")

    __le__ = __gt__ = __ge__ = __lt__


class UnorderedNat(MvGroup):
    """The builtin 2-valued group x*y = [x+y, |x-y|] on elements with no order."""

    n = 2
    unit = Unordered(0)

    def mul(self, x, y):
        return (Unordered(x.value + y.value), Unordered(abs(x.value - y.value)))

    def inv(self, x):
        return x


def values(rows):
    """Each row of Unordered elements as the sorted list of their values."""
    return [sorted(e.value for e in row) for row in rows]


def test_walks_never_compare_elements():
    U, NAT, u = UnorderedNat(), NatGroup(), Unordered
    table = ball(U, [u(1), u(2)], u(3), 5)
    oracle = sorted_ball(NAT, [1, 2], 3, 5)
    assert values(table.sphere_sets) == list(map(list, oracle.sphere_sets))
    assert table.ball_sizes == oracle.ball_sizes
    assert lengths(U, [u(2)], [u(6), u(0), u(2)]) == lengths(NAT, [2], [6, 0, 2]) == [3, 0, 1]
    supports = list(itertools.islice(dynamic_supports(U, u(1), u(0)), 6))
    assert values(supports) == list(map(list, itertools.islice(
        sorted_dynamic_supports(NAT, 1, 0), 6)))
    powers, nat_powers = power_table(U, u(2), 6), power_table(NAT, 2, 6)
    assert values(powers.sstar_sets) == [sorted(s) for s in nat_powers.sstar_sets]
    assert powers.bstar_sizes == nat_powers.bstar_sizes
    dynamics = iterate_dynamic(U, u(2), u(1), 6)
    assert dynamics.xi == iterate_dynamic(NAT, 2, 1, 6).xi
    assert sorted(e.value for e in set_product(U, [u(3)], [u(5), u(7)])) == [2, 4, 8, 10]


def budget_radius(walk, budget):
    """The radius at which `walk(budget)` raises BudgetExceeded."""
    with pytest.raises(BudgetExceeded) as exc:
        walk(budget)
    return exc.value.radius


def first_budget_inside_a_row_of_two(rows):
    """A budget that runs out inside the first row that adds two or more
    elements to the union of the rows before it, or None; with that row."""
    reached = set()
    for r, row in enumerate(rows):
        if len(reached.union(row)) - len(reached) > 1:
            return len(reached) + 1, r
        reached.update(row)
    return None


@pytest.mark.parametrize("name", sorted(MV_KINDS))
def test_unordered_walks_match_the_sorted_oracle(every_instance, name):
    """Every config: the same sets row by row, the same sizes and xi, and
    the same budget radius as the sorted walks."""
    X, gens = every_instance[name].X, every_instance[name].x_generators
    for x in dict.fromkeys([X.unit, gens[-1]]):
        table, oracle = ball(X, gens, x, RADIUS), sorted_ball(X, gens, x, RADIUS)
        assert in_order(table.sphere_sets) == oracle.sphere_sets, (name, X.render(x))
        assert table.ball_sizes == oracle.ball_sizes
        dynamics = iterate_dynamic(X, gens[0], x, RADIUS)
        supports = list(itertools.islice(sorted_dynamic_supports(X, gens[0], x), RADIUS + 1))
        assert in_order(dynamics.supports) == supports
        assert dynamics.xi == list(map(len, supports))
        for walk, oracle_rows in (
                (lambda budget: ball(X, gens, x, RADIUS, budget), oracle.sphere_sets),
                (lambda budget: iterate_dynamic(X, gens[0], x, RADIUS, budget), supports)):
            inside = first_budget_inside_a_row_of_two(oracle_rows)
            if inside is not None:
                budget, r = inside
                assert budget_radius(walk, budget) == r, name
    powers = power_table(X, gens[0], RADIUS)
    set_powers = [()] + list(itertools.islice(sorted_dynamic_supports(X, gens[0], gens[0]),
                                              RADIUS))
    assert in_order(powers.set_powers) == set_powers
    assert [set(s) for s in powers.sstar_sets] == [
        set(p).difference(*set_powers[:r]) for r, p in enumerate(set_powers)]
    assert powers.bstar_sizes == list(itertools.accumulate(map(len, powers.sstar_sets)))


@pytest.mark.parametrize("name", COSET_CONFIGS)
def test_coset_ball_is_the_projected_monoid_ball(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    assert isinstance(X, CosetGroup)
    twisted = sorted(set().union(*(orbit(X.auts, s) for s in gens)),
                     key=X.backend.canonical_key)
    monoid = monoid_balls(X.backend, twisted, RADIUS)
    for x in centres(X, gens):
        table = ball(X, gens, x, RADIUS)
        reached = set()
        for r in range(RADIUS + 1):
            reached.update(X.project(X.backend.mul(x, g)) for g in monoid.sphere_sets[r])
            assert reached == set(itertools.chain(*table.sphere_sets[:r + 1])), (name, r)


def test_z2_swap_ball_projects_once_per_node_and_twisted_step(instances):
    X, gens = instances["z2_swap"].X, instances["z2_swap"].x_generators
    # four X-generators in two pairs of equal classes, two twists each: four
    # distinct steps, where building each product makes eight projections
    steps = list(dict.fromkeys(t(s) for s in gens for t in X.twists))
    assert set(steps) == set().union(*(orbit(X.auts, s) for s in gens))
    assert (len(gens), X.n, len(steps)) == (4, 2, 4)
    Y = copy.copy(X)
    batches = []

    def project_all(gs):
        batches.append(gs)
        return X.project_all(gs)

    Y.project_all = project_all
    x = X.project((2, -1))
    for r in (0, 1, 5, 12):
        batches.clear()
        table = ball(Y, gens, x, r)
        assert table == ball(X, gens, x, r)
        # one batch per expanded sphere, in discovery order: element-major,
        # then twisted step
        assert len(batches) == r
        calls = list(itertools.chain(*batches))
        expanded = table.ball_sizes[r - 1] if r else 0
        assert len(calls) == len(steps) * expanded, r
        assert set(calls) == {X.backend.mul(u, t) for u in itertools.chain(
            *table.sphere_sets[:r]) for t in steps}
        spheres = itertools.islice(layers([x], X.step(gens)), r)  # discovery order
        assert batches == [[X.backend.mul(u, t) for u in sphere for t in steps]
                           for sphere in spheres]


def test_z2_swap_growth_takes_one_orbit_minimum_per_distinct_miss(every_instance):
    """On `growth z2_swap --radius 80` the orbit minimum runs once per
    distinct G-element that the class table misses at the start of its
    layer: 6,596 times.  Every miss is filed, so a G-element is minimized
    at most once in the walk.  (With each class the pair (key, least member
    by key) it ran 6,675 times: other representatives form other
    products.)"""
    instance = load_instance(ROOT / "configs" / "z2_swap.json")  # a fresh class table
    X, gens = instance.X, instance.x_generators
    assert len(X._moves) == 1  # the swap; the identity twist is the miss itself
    moved = []
    X._moves = [lambda g, t=t: moved.append(g) or t(g) for t in X._moves]
    filed = set(X._classes)
    table = ball(X, gens, X.unit, 80)
    assert table == ball(every_instance["z2_swap"].X, gens, X.unit, 80)
    assert len(moved) == len(set(moved)) == 6596
    # replay: a batch misses what no earlier layer looked up, and files it
    steps = tuple(dict.fromkeys(t(s) for s in gens for t in X.twists))
    expected = 0
    for sphere in table.sphere_sets[:80]:
        products = {X.backend.mul(u, t) for u in sphere for t in steps}
        expected += len(products - filed)
        filed |= products
    assert expected == 6596
    assert set(X._classes) == filed


def counted_hooks(backend):
    """Count calls of the backend's batch hook `products`, with their sizes,
    and of its scalar `mul` and `canonical_key`; the counters wrap the
    instance attributes, so a default hook's own scalar calls count too.
    No backend has a `keys` batch: walks form no canonical key."""
    assert not hasattr(backend, "keys")
    calls = {name: [] for name in ("products", "mul", "canonical_key")}
    sizes = {"products": lambda gs, hs: len(gs) * len(hs),
             "mul": lambda g, h: 1, "canonical_key": lambda g: 1}
    for name, size in sizes.items():
        fn = getattr(backend, name)

        def wrapper(*args, name=name, fn=fn, size=size):
            calls[name].append(size(*args))
            return fn(*args)
        setattr(backend, name, wrapper)
    return calls


def test_z2_swap_growth_is_one_products_batch_per_layer_without_keys(every_instance):
    """`growth z2_swap --radius 80` forms its 25,440 backend products in one
    `products` batch per layer, with no scalar `mul` and no `canonical_key`
    call: a class is its native orbit minimum."""
    instance = load_instance(ROOT / "configs" / "z2_swap.json")  # a fresh class table
    X, gens = instance.X, instance.x_generators
    calls = counted_hooks(X.backend)
    table = ball(X, gens, X.unit, 80)
    assert table == ball(every_instance["z2_swap"].X, gens, X.unit, 80)
    assert (len(calls["products"]), sum(calls["products"])) == (80, 25440)
    assert calls["mul"] == calls["canonical_key"] == []


def test_free2_swap_growth_is_one_products_batch_per_layer_without_scalar_calls(every_instance):
    """`growth free2_swap --radius 12` forms its 4,096 backend products in
    one `products` batch per layer, two steps per class, with no scalar
    `mul` and no `canonical_key` call (the default hooks made 4,096 and,
    when classes were keyed, 8,190).  Loading the config filed both
    generators, so the 4,094 later products are the orbit minima taken."""
    instance = load_instance(ROOT / "configs" / "free2_swap.json")  # a fresh class table
    X, gens = instance.X, instance.x_generators
    moved = []
    X._moves = [lambda g, t=t: moved.append(g) or t(g) for t in X._moves]
    calls = counted_hooks(X.backend)
    table = ball(X, gens, X.unit, 12)
    assert table == ball(every_instance["free2_swap"].X, gens, X.unit, 12)
    assert calls["products"] == [2 * size for size in table.sphere_sizes()[:12]]
    assert sum(calls["products"]) == 4096
    assert len(moved) == len(set(moved)) == 4094
    assert calls["mul"] == calls["canonical_key"] == []


def test_z3xF2_growth_forms_the_cyclic_column_in_one_batch_per_layer():
    """`growth z3xF2_example46 --radius 9 --center h*g1` forms the Z/3
    column of each layer in one `products` batch of the cyclic factor, with
    no scalar `mul` or `canonical_key` call (the default hook made 3,064
    products)."""
    instance = load_instance(ROOT / "configs" / "z3xF2_example46.json")
    X, gens = instance.X, instance.x_generators
    calls = counted_hooks(X.backend.factors[0])
    table = ball(X, gens, instance.element("h*g1"), 9)
    assert table.ball_sizes[-1] == 1534
    steps = len(dict.fromkeys(t(s) for s in gens for t in X.twists))
    assert calls["products"] == [steps * size for size in table.sphere_sizes()[:9]]
    assert calls["mul"] == calls["canonical_key"] == []


def test_free2_swap_monoid_balls_are_one_products_batch_per_layer():
    """The monoid ball over the swap orbit {g1, g2} to r = 11 doubles each
    sphere: 11 `products` batches of 2 x (2^11 - 1) products in all."""
    instance = load_instance(ROOT / "configs" / "free2_swap.json")
    X = instance.X
    gens = orbit(X.auts, instance.x_generators[0])
    calls = counted_hooks(X.backend)
    table = monoid_balls(X.backend, gens, 11)
    assert table.sphere_sizes() == [2 ** r for r in range(12)]
    assert calls["products"] == [2 * 2 ** r for r in range(11)]
    assert sum(calls["products"]) == 2 * (2 ** 11 - 1)
    assert calls["mul"] == calls["canonical_key"] == []


# ---------------------------------------------------------------------------
# monoid balls: one products batch per layer against the product-by-product walk


def starmap_spheres(backend, gens, radius, budget=DEFAULT_BUDGET):
    """The spheres of monoid_balls as it formed them before the products
    batch, one scalar `mul` at a time: the oracle for the batch."""
    spheres = layers([backend.identity], lambda layer: itertools.starmap(
        backend.mul, itertools.product(layer, gens)), budget)
    return [tuple(sphere) for sphere in itertools.islice(spheres, radius + 1)]


def monoid_case(every_instance, name):
    """(backend, generators): a coset config's first X-generator orbit, or
    for "heis_swap-semidirect" proof34's GA with the generators (s, a)
    over s in S, a in A."""
    if name == "heis_swap-semidirect":
        return ga_case(every_instance, "heis_swap")
    X = every_instance[name].X
    return X.backend, orbit(X.auts, every_instance[name].x_generators[0])


@pytest.mark.parametrize("name", [*COSET_CONFIGS, "heis_swap-semidirect"])
def test_monoid_balls_match_the_scalar_walk(every_instance, name):
    backend, gens = monoid_case(every_instance, name)
    table = monoid_balls(backend, gens, RADIUS)
    assert table.sphere_sets == starmap_spheres(backend, gens, RADIUS)
    # a budget that runs out inside the first sphere of two or more elements
    r = next((r for r, size in enumerate(table.sphere_sizes()) if size > 1), None)
    if r is None:
        return
    budget = table.ball_sizes[r - 1] + 1
    with pytest.raises(BudgetExceeded) as batched:
        monoid_balls(backend, gens, RADIUS, budget=budget)
    with pytest.raises(BudgetExceeded) as scalar:
        starmap_spheres(backend, gens, RADIUS, budget=budget)
    assert batched.value.radius == scalar.value.radius == r


def ga_case(every_instance, name):
    """proof34's GA of a coset config, with the generators (s, a) over s in
    S, a in A."""
    instance = every_instance[name]
    auts = instance.X.auts
    return (SemidirectProduct(instance.backend, auts),
            [(s, i) for s in instance.config.x_generators for i in range(auts.order)])


@pytest.mark.parametrize("name", ["heis_swap", "z2_swap"])
def test_semidirect_products_match_the_default_hook(every_instance, name):
    ga, gens = ga_case(every_instance, name)
    table = monoid_balls(ga, gens, RADIUS)
    spheres = layers([ga.identity], lambda layer: GroupBackend.products(ga, layer, gens))
    assert table.sphere_sets == [tuple(s) for s in itertools.islice(spheres, RADIUS + 1)]
    elements = list(itertools.chain.from_iterable(table.sphere_sets))
    for gs, hs in ((elements, gens), (gens, elements[:40]), (elements, []), ([], gens)):
        assert ga.products(gs, hs) == GroupBackend.products(ga, gs, hs)


def test_proof34_makes_no_automorphism_apply_call(monkeypatch):
    """The GA ball twists each generator once per automorphism index by a
    compiled map: `verify --suite proof34` on heis_swap made 2,160 `apply`
    calls when each product twisted its right factor."""
    applies = []
    apply = Automorphism.apply
    monkeypatch.setattr(Automorphism, "apply", lambda a, g: applies.append(g) or apply(a, g))
    instance = load_instance(ROOT / "configs" / "heis_swap.json")
    applies.clear()  # building the automorphism group applies the seeds
    assert run_suite("proof34", instance).ok
    assert applies == []


# ---------------------------------------------------------------------------
# the batched projection kernel against the scalar project


def fresh(instance):
    """The instance's group with a class table of its own: the whole
    partition of a finite G, else only the unit's class."""
    X = copy.copy(instance.X)
    X._classes = (dict(instance.X._classes) if instance.backend.is_finite()
                  else {X.unit: X.unit})
    return X


def ball_products(X, gens, radius):
    """The backend products of a ball's spheres with the twisted steps,
    repeats and all, in discovery order."""
    steps = tuple(dict.fromkeys(t(s) for s in gens for t in X.twists))
    spheres = itertools.islice(layers([X.unit], X.step(gens)), radius)
    return [X.backend.mul(u, t) for sphere in spheres for u in sphere for t in steps]


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_project_all_matches_project_on_products_with_repeats(every_instance, name):
    instance = every_instance[name]
    products = ball_products(fresh(instance), instance.x_generators, 3)
    gs = products + products[::-1]  # each product again, in reverse
    X, Y = fresh(instance), fresh(instance)
    assert X.project_all(gs) == [Y.project(g) for g in gs]
    assert X._classes == Y._classes
    # a second batch hits everywhere and files nothing new
    filed = dict(X._classes)
    assert X.project_all(gs) == [Y.project(g) for g in gs]
    assert X._classes == filed


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_project_all_files_least_and_non_least_members_of_one_class_once(every_instance, name):
    """A batch holding several members of one class takes one orbit
    minimum per member and files each member under the class."""
    instance = every_instance[name]
    X = fresh(instance)
    gs = ball_products(X, instance.x_generators, 3)
    # every class of the batch with two members in it, the least last
    members = {}
    for g in gs:
        members.setdefault(X.project(g), set()).add(g)
    batch = [g for cls, group in members.items() if len(group) > 1
             for g in sorted(group, key=lambda g: g != cls)[::-1]]
    X, Y = fresh(instance), fresh(instance)
    moved = []
    X._moves = [lambda g, t=t: moved.append(g) or t(g) for t in getattr(X, "_moves", ())]
    assert X.project_all(batch) == [Y.project(g) for g in batch]
    assert X._classes == Y._classes
    if not instance.backend.is_finite():
        assert batch, name
        assert set(X._classes) == {X.unit, *batch}
        key = X.backend.canonical_key
        for g, cls in X._classes.items():
            assert cls == min(orbit(X.auts, g)), g
            assert X.canonical(cls) == min((key(h), h) for h in orbit(X.auts, g)), g
        assert sorted(moved) == sorted([*(set(batch) - {X.unit})] * len(X._moves))


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_project_all_on_an_all_hit_batch_is_the_table_lookup(every_instance, name):
    instance = every_instance[name]
    X = fresh(instance)
    ball(X, instance.x_generators, X.unit, 3)
    filed = dict(X._classes)
    gs = [*filed, *reversed(filed)]  # each filed G-element twice
    assert X.project_all(gs) == [X._classes[g] for g in gs] == [X.project(g) for g in gs]
    assert X._classes == filed
    assert X.project_all([]) == []


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_layer_step_matches_the_generic_step_on_every_layer(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    step, oracle = X.step(gens), MvGroup.step(X, gens)
    for layer in itertools.islice(layers([X.unit], step), RADIUS + 1):
        assert set(step(layer)) == set(oracle(layer)), name
