"""The layer map every walk expands through, and the rows of the oracle table
(``tests/oracles.py``) that check the walks built on it.

Every Cayley-graph walk expands through ``X.step(gens)``, a layer map; on an
OrbitGroup that is one backend ``products`` batch of (element, twisted
generator) pairs and one ``project_all`` batch per layer.  The rows bound
here compare each walk with its kept slow path on every instance: the
sorted walks of the generic step, the coset balls with the G-side identity
B_X(x, r) = pi(x_rep * B+_G(e, r; A.S)), the monoid balls and every
``products`` batch with scalar products, ``project_all`` with the least
member of each G-element's class.  The tests below pin what the table
does not see: a group whose elements cannot be ordered runs every walk,
and the batch and projection counts of particular configs.
"""

import copy
import itertools

from mvgroups.cayley import ball, dynamic_supports, lengths, power_table, set_product
from mvgroups.dynamics import iterate_dynamic
from mvgroups.groups import (Automorphism, CyclicGroup, DirectProduct, FreeAbelianGroup,
                             FreeGroup, HeisenbergGroup, PermutationGroup, close_automorphisms,
                             identity_automorphism, layers, monoid_balls, orbit)
from mvgroups.mvalued import CosetGroup, MvGroup, NatGroup
from mvgroups.verify import run_suite
from mvgroups.wordspec import load_instance

import pytest
from oracles import (COSET, KINDS, ORBIT, PATHS, backend_batches, ball_products, in_order,
                     least_members, partition, semidirect_balls, sorted_spheres,
                     sorted_supports, table_test, twisted_steps)


def huge(rank):
    """A vector of `rank` coordinates beyond +-2**64."""
    return tuple((-1) ** i * (2**64 + 3**i) for i in range(rank))


S3 = PermutationGroup(3, ["t", "c"], [[1, 0, 2], [1, 2, 0]])
# a backend of each kind and each shape of direct product, with the further
# elements its batches take: an integer-vector kind takes one beyond
# +-2**64, on which its compiled arithmetic has to stay exact
KIND_BATCHES = [
    (FreeGroup(2), []), (FreeAbelianGroup(1), [huge(1)]), (FreeAbelianGroup(2), [huge(2)]),
    (FreeAbelianGroup(3), [huge(3)]), (CyclicGroup(6), []), (HeisenbergGroup(), [huge(3)]),
    (S3, []), (DirectProduct([CyclicGroup(3, ["h"]), FreeGroup(2)]), []),
    (DirectProduct([FreeGroup(2), S3]), []),
    (DirectProduct([FreeAbelianGroup(2), HeisenbergGroup()]), [(huge(2), huge(3))]),
]


def test_every_orbit_config_is_covered():
    assert len(ORBIT) == 15
    assert {"f3_shift", "z2_dihedral", "z3_shift", "s3_doublecoset", "fibonacci5_z11",
            "fibonacci4_z5", "fibonacci3_q8", "s4_table_conj"} <= set(ORBIT)
    assert "s3_doublecoset" not in COSET
    assert set(KINDS) - set(ORBIT) == {"nat", "nat_mutated"}


test_unordered_walks_match_the_sorted_oracle = table_test(
    "ball", "iterate_dynamic", "power_table")
test_balls_and_lengths_match_the_generic_step = table_test("lengths")
test_dynamics_and_set_products_match_the_generic_step = table_test("set_product")
test_layer_step_matches_the_generic_step_on_every_layer = table_test("step")
test_coset_ball_is_the_projected_monoid_ball = table_test("coset_ball")
test_monoid_balls_match_the_scalar_walk = table_test("monoid_balls", extra={
    f"{name}-semidirect": semidirect_balls(name) for name in COSET})
test_proof34_counts_the_ga_ball_by_a_g_walk = table_test("semidirect_ball_sizes")
test_products_match_the_scalar_products_on_every_backend_kind = table_test("products", extra={
    "kinds": lambda instances: [case for backend, more in KIND_BATCHES for case in
                                backend_batches(backend, more)]})
test_project_all_matches_project_on_products_with_repeats = table_test("project_all")


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
    oracle = sorted_spheres(NAT, [1, 2], 3, 5)
    assert values(table.sphere_sets) == list(map(list, oracle))
    assert table.ball_sizes == list(itertools.accumulate(map(len, oracle)))
    assert lengths(U, [u(2)], [u(6), u(0), u(2)]) == lengths(NAT, [2], [6, 0, 2]) == [3, 0, 1]
    supports = list(itertools.islice(dynamic_supports(U, u(1), u(0)), 6))
    assert values(supports) == list(map(list, sorted_supports(NAT, 1, 0, 5)))
    powers, nat_powers = power_table(U, u(2), 6), power_table(NAT, 2, 6)
    assert values(powers.sstar_sets) == [sorted(s) for s in nat_powers.sstar_sets]
    assert powers.bstar_sizes == nat_powers.bstar_sizes
    dynamics = iterate_dynamic(U, u(2), u(1), 6)
    assert dynamics.xi == iterate_dynamic(NAT, 2, 1, 6).xi
    assert sorted(e.value for e in set_product(U, [u(3)], [u(5), u(7)])) == [2, 4, 8, 10]


def test_z2_swap_ball_projects_once_per_node_and_twisted_step(instances):
    X, gens = instances["z2_swap"].X, instances["z2_swap"].x_generators
    # four X-generators in two pairs of equal classes, two twists each: four
    # distinct steps, where building each product makes eight projections
    steps = twisted_steps(X, gens)
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


def counted_moves(X):
    """Wrap X's twists other than the identity, `_moves`, each a batch map,
    to record the G-elements they are applied to and the size of each
    batch call."""
    moved, calls = [], []
    X._moves = [lambda gs, t=t: calls.append(len(gs)) or moved.extend(gs) or t(gs)
                for t in getattr(X, "_moves", ())]
    return moved, calls


def counted_projection(X):
    """Count X's `project_all` batches, with their sizes, the G-elements
    its `_moves` are applied to, and the sizes of their batch calls."""
    batches = []
    project_all = X.project_all
    X.project_all = lambda gs: batches.append(len(gs)) or project_all(gs)
    return (batches, *counted_moves(X))


def test_z2_swap_growth_takes_one_orbit_minimum_per_distinct_miss():
    """`growth z2_swap --radius 80` projects its 25,440 backend products in
    one `project_all` batch per layer, which applies the swap, the one twist
    besides the identity, once per product, in one batch call per layer,
    and files nothing: a coset group has no class table, before or after.
    (When each batch filed its misses, the swap ran once per distinct miss,
    6,596 times, and every product paid the table's probes.)"""
    instance = load_instance(PATHS["z2_swap"])  # patched below, so not the shared instance
    X, gens = instance.X, instance.x_generators
    expected = sorted_spheres(X, gens, X.unit, 80)
    assert (len(X._moves), hasattr(X, "_classes")) == (1, False)
    batches, moved, calls = counted_projection(X)
    table = ball(X, gens, X.unit, 80)
    assert in_order(table.sphere_sets) == expected
    assert (len(batches), sum(batches), len(moved)) == (80, 25440, 25440)
    assert (calls, moved) == (batches, list(itertools.chain.from_iterable(
        [X.backend.mul(u, t) for u in sphere for t in twisted_steps(X, gens)]
        for sphere in table.sphere_sets[:80])))
    assert not hasattr(X, "_classes")


def counted_hooks(backend):
    """Count calls of the backend's batch hook `products`, with their sizes,
    and of its scalar `mul` and `canonical_key`; the counters wrap the
    instance attributes, so a hook's own scalar calls count too.
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


def test_z2_swap_growth_is_one_products_batch_per_layer_without_keys():
    """`growth z2_swap --radius 80` forms its 25,440 backend products in one
    `products` batch per layer, with no scalar `mul` and no `canonical_key`
    call: a class is its native orbit minimum."""
    instance = load_instance(PATHS["z2_swap"])  # a class table of its own
    X, gens = instance.X, instance.x_generators
    expected = sorted_spheres(X, gens, X.unit, 80)
    calls = counted_hooks(X.backend)
    table = ball(X, gens, X.unit, 80)
    assert in_order(table.sphere_sets) == expected
    assert (len(calls["products"]), sum(calls["products"])) == (80, 25440)
    assert calls["mul"] == calls["canonical_key"] == []


def test_free2_swap_growth_is_one_products_batch_per_layer_without_scalar_calls():
    """`growth free2_swap --radius 12` forms its 4,096 backend products in
    one `products` batch per layer, two steps per class, with no scalar
    `mul` and no `canonical_key` call (the default hooks made 4,096 and,
    when classes were keyed, 8,190).  Its 12 `project_all` batches swap
    each product once, in one batch call each, and file nothing: a coset
    group has no class table, before or after."""
    instance = load_instance(PATHS["free2_swap"])  # patched below, so not the shared instance
    X, gens = instance.X, instance.x_generators
    expected = sorted_spheres(X, gens, X.unit, 12)
    assert not hasattr(X, "_classes")
    batches, moved, moves = counted_projection(X)
    calls = counted_hooks(X.backend)
    table = ball(X, gens, X.unit, 12)
    assert in_order(table.sphere_sets) == expected
    assert calls["products"] == [2 * size for size in table.sphere_sizes()[:12]]
    assert (sum(calls["products"]), len(batches), sum(batches), len(moved)) == (
        4096, 12, 4096, 4096)
    assert moves == batches  # one swap call per batch, on the whole batch
    assert calls["mul"] == calls["canonical_key"] == []
    assert not hasattr(X, "_classes")


def test_heis_swap_growth_is_one_products_batch_per_layer_without_scalar_calls():
    """`growth heis_swap --radius 9` forms its 3,596 backend products in one
    `products` batch per layer, the Heisenberg list display, with no scalar
    `mul` and no `canonical_key` call (the default hook made 3,596 `mul`
    calls), and swaps each product once in its `project_all` batch, in one
    batch call of the swap."""
    instance = load_instance(PATHS["heis_swap"])  # patched below, so not the shared instance
    X, gens = instance.X, instance.x_generators
    expected = sorted_spheres(X, gens, X.unit, 9)
    batches, moved, moves = counted_projection(X)
    calls = counted_hooks(X.backend)
    table = ball(X, gens, X.unit, 9)
    assert in_order(table.sphere_sets) == expected
    assert table.ball_sizes[-1] == 1425
    assert (len(calls["products"]), sum(calls["products"])) == (9, 3596)
    assert (len(batches), sum(batches), len(moved)) == (9, 3596, 3596)
    assert moves == batches  # one swap call per batch, on the whole batch
    assert calls["mul"] == calls["canonical_key"] == []


def test_z3xF2_growth_forms_the_cyclic_column_in_one_batch_per_layer():
    """`growth z3xF2_example46 --radius 9 --center h*g1` forms the Z/3
    column of each layer in one `products` batch of the cyclic factor, with
    no scalar `mul` or `canonical_key` call (the default hook made 3,064
    products)."""
    instance = load_instance(PATHS["z3xF2_example46"])
    X, gens = instance.X, instance.x_generators
    calls = counted_hooks(X.backend.factors[0])
    table = ball(X, gens, instance.element("h*g1"), 9)
    assert table.ball_sizes[-1] == 1534
    steps = len(twisted_steps(X, gens))
    assert calls["products"] == [steps * size for size in table.sphere_sizes()[:9]]
    assert calls["mul"] == calls["canonical_key"] == []


def test_free2_swap_monoid_balls_are_one_products_batch_per_layer():
    """The monoid ball over the swap orbit {g1, g2} to r = 11 doubles each
    sphere: 11 `products` batches of 2 x (2^11 - 1) products in all."""
    instance = load_instance(PATHS["free2_swap"])
    X = instance.X
    gens = orbit(X.auts, instance.x_generators[0])
    calls = counted_hooks(X.backend)
    table = monoid_balls(X.backend, gens, 11)
    assert table.sphere_sizes() == [2 ** r for r in range(12)]
    assert calls["products"] == [2 * 2 ** r for r in range(11)]
    assert sum(calls["products"]) == 2 * (2 ** 11 - 1)
    assert calls["mul"] == calls["canonical_key"] == []


def test_proof34_makes_no_automorphism_apply_call(monkeypatch):
    """proof34 forms its steps A.S with each automorphism's compiled batch
    map, once, and walks G: `verify --suite proof34` on heis_swap made 2,160
    `apply` calls when each product of its GA walk twisted its right
    factor, and a scalar `orbit` per generator would make them again."""
    applies = []
    apply = Automorphism.apply
    monkeypatch.setattr(Automorphism, "apply", lambda a, g: applies.append(g) or apply(a, g))
    instance = load_instance(PATHS["heis_swap"])
    applies.clear()  # building the automorphism group applies the seeds
    assert run_suite("proof34", instance).ok
    assert applies == []


# ---------------------------------------------------------------------------
# the batched projection kernel against the least class member


@pytest.mark.parametrize("name", ORBIT)
def test_project_all_files_least_and_non_least_members_of_one_class_once(every_instance, name):
    """A batch holding several members of one class, the least last, gives
    each member the least member of its class, applies each twist
    besides the identity once per member, in one batch call on the whole
    batch, and files no member."""
    instance = every_instance[name]
    gs = ball_products(instance.X, instance.x_generators, 3)
    # every class of the batch with two members in it, the least last
    members = {}
    for g, cls in zip(gs, least_members(instance.X, gs)):
        members.setdefault(cls, set()).add(g)
    batch = [g for cls, group in members.items() if len(group) > 1
             for g in sorted(group, key=lambda g: g != cls)[::-1]]
    assert batch, name
    X = copy.copy(instance.X)
    filed = dict(partition(X))
    moved, calls = counted_moves(X)
    assert X.project_all(batch) == least_members(X, batch)
    assert partition(X) == filed
    assert sorted(moved) == sorted(batch * len(X._moves))
    assert calls == [len(batch)] * len(X._moves)


@pytest.mark.parametrize("name", ORBIT)
def test_project_all_on_an_all_hit_batch_is_the_table_lookup(every_instance, name):
    """On a batch that repeats every element, a coset group's fold and a
    double coset group's partition lookup give each element its least
    member, repeats and all, and file nothing."""
    instance = every_instance[name]
    X = instance.X
    gs = list(dict.fromkeys(ball_products(X, instance.x_generators, 3)))
    gs += gs[::-1]  # each G-element twice
    filed = dict(partition(X))
    classes = X.project_all(gs)
    assert classes == least_members(X, gs)
    if KINDS[name] == "double_coset":
        assert classes == [filed[g] for g in gs]  # the partition
    assert partition(X) == filed
    assert X.project_all([]) == []


@pytest.mark.parametrize("backend", [HeisenbergGroup(), FreeAbelianGroup(2), FreeGroup(2)],
                         ids=lambda b: b.kind)
def test_coset_group_of_the_trivial_automorphism_group_is_g(backend):
    """With A = {id}, n = 1 and no twist besides the identity: `project_all`
    returns its batch as a list, and a ball is the Cayley ball of G."""
    X = CosetGroup(backend, close_automorphisms([identity_automorphism(backend)]))
    assert (X.n, X._moves) == (1, [])
    gens = list(backend.gens)
    gens += list(map(backend.inv, gens))
    gs = tuple(backend.products(gens, gens))
    assert X.project_all(gs) == list(gs)
    assert X.project_all(()) == []
    assert ball(X, gens, X.unit, 6) == monoid_balls(backend, gens, 6)
