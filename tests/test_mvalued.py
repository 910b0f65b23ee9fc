import copy
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvgroups.cayley import ball, power_table
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import InfiniteBackendUnsupported, ValidationError
from mvgroups.groups import (
    Automorphism,
    FreeAbelianGroup,
    FreeGroup,
    PermutationGroup,
    close_automorphisms,
    monoid_balls,
)
from mvgroups.mvalued import (
    CosetGroup,
    DoubleCosetGroup,
    MutatedNatGroup,
    MvGroup,
    NatGroup,
    OrbitGroup,
    check_axioms,
)
from mvgroups.wordspec import load_instance

from oracles import (COSET, EVERY_INSTANCE, INFINITE_COSET, ORBIT, PATHS, brute_double_cosets,
                     class_forms, cli_sample, key_class, least_members, oracle_class_forms,
                     reference_check_axioms, table_test, triple_product_left,
                     triple_product_right)


def assert_canonical(X, product):
    """A product is its n values as a sorted n-tuple, repeats kept."""
    assert type(product) is tuple and len(product) == X.n
    assert product == tuple(sorted(product))


# ---------------------------------------------------------------------------
# builtin 2-valued group on the non-negative integers


def test_nat_product_examples():
    X = NatGroup()
    assert X.mul(3, 5) == (2, 8)
    assert X.mul(4, 4) == (0, 8)
    assert X.mul(0, 7) == (7, 7)
    assert X.inv(9) == 9


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_nat_support_formula(x, y):
    X = NatGroup()
    assert sorted(set(X.mul(x, y))) == sorted({x + y, abs(x - y)})
    for Y in (X, MutatedNatGroup()):
        assert_canonical(Y, Y.mul(x, y))


def test_nat_axioms_hold_on_initial_segment():
    X = NatGroup()
    report = check_axioms(X, range(11))
    assert report.all_ok
    assert report.triples_checked == 11 ** 3
    assert report.elements_checked == 11


def test_mutated_nat_fails_unit_and_inverse():
    X = MutatedNatGroup()
    # range(11) is the sample `mvgroups axioms` checks by default
    for report in (check_axioms(X, range(5)), check_axioms(X, range(11))):
        # the mutation keeps associativity (both triple products are
        # {s:1, s+1:2, s+2:1} for s = x+y+z) but destroys the unit and inverse
        assert report.associativity_ok
        assert not report.unit_ok and report.unit_witness == 0
        assert not report.inverse_ok and report.inverse_witness == 1
        assert not report.all_ok


class _BrokenAt(NatGroup):
    """Ad-hoc control: one corrupted product value breaks associativity."""

    def __init__(self, pair=(2, 2), product=(1, 4)):
        self.pair, self.product = pair, product

    def mul(self, x, y):
        return self.product if (x, y) == self.pair else super().mul(x, y)


def test_associativity_failure_produces_witness():
    report = check_axioms(_BrokenAt(), range(4))
    assert not report.associativity_ok
    assert report.associativity_witness is not None
    x, y, z = report.associativity_witness
    X = _BrokenAt()
    assert triple_product_left(X, x, y, z) != triple_product_right(X, x, y, z)


def test_check_axioms_inserts_unit():
    report = check_axioms(NatGroup(), [3, 4])
    assert report.all_ok
    assert report.elements_checked == 3  # unit prepended


def test_check_axioms_rejects_empty_sample():
    with pytest.raises(ValidationError):
        check_axioms(NatGroup(), [])


def test_triple_product_total_size_is_n_squared():
    X = NatGroup()
    assert len(triple_product_left(X, 1, 1, 2)) == 4
    assert triple_product_left(X, 1, 1, 2) == (0, 2, 2, 4)
    assert triple_product_right(X, 1, 1, 2) == (0, 2, 2, 4)


# ---------------------------------------------------------------------------
# coset groups


def z_pm1():
    z = FreeAbelianGroup(1)
    neg = Automorphism(z, "neg", [(-1,)], [(-1,)]).verify()
    return CosetGroup(z, close_automorphisms([neg]))


def test_coset_projection_picks_nonnegative_rep():
    """The class is the member least under native order; the member that
    prints is the one least by canonical key, the non-negative one."""
    X = z_pm1()
    assert X.project((5,)) == X.project((-5,)) == (-5,)
    assert X.canonical(X.project((-5,)))[1] == (5,)
    assert X.unit == (0,) and X.canonical(X.unit)[1] == (0,)


def test_coset_product_matches_nat():
    X = z_pm1()
    out = X.mul(X.project((3,)), X.project((5,)))
    assert [c[1] for c in sorted(map(X.canonical, out))] == [(2,), (8,)]
    assert X.canonical(X.inv(X.project((7,))))[1] == (7,)


def test_coset_transports_builtin_nat():
    X = z_pm1()
    nat = NatGroup()
    for x in range(20):
        for y in range(20):
            lhs = sorted(X.canonical(e)[1][0] for e in X.mul(X.project((x,)), X.project((y,))))
            assert lhs == list(nat.mul(x, y))


def test_coset_product_total_size_is_order_of_A():
    X = z_pm1()
    assert X.n == 2
    out = X.mul(X.project((0,)), X.project((0,)))
    assert len(out) == 2  # stabilized orbits still give an n-family
    assert out == (X.unit, X.unit)


def test_coset_representative_independence(instances):
    inst = instances["z2_swap"]
    X, backend = inst.X, inst.backend
    rng = random.Random(42)
    for _ in range(200):
        g = (rng.randint(-6, 6), rng.randint(-6, 6))
        h = (rng.randint(-6, 6), rng.randint(-6, 6))
        base = X.mul(X.project(g), X.project(h))
        for a in X.auts:
            for b in X.auts:
                assert X.mul(X.project(a.apply(g)), X.project(b.apply(h))) == base


def test_coset_carrier_finite_backend(instances):
    X = instances["s3_conj"].X
    carrier = X.carrier()
    # conjugation by the transposition fixes e and t, swaps the two
    # 3-cycles, and swaps the remaining two transpositions
    assert len(carrier) == 4
    assert X.unit in carrier


def test_coset_axioms_full_finite_carrier(instances):
    X = instances["s3_conj"].X
    report = check_axioms(X, X.carrier())
    assert report.all_ok


def test_coset_carrier_needs_finite_backend():
    with pytest.raises(InfiniteBackendUnsupported):
        z_pm1().carrier()


# ---------------------------------------------------------------------------
# double coset groups


def s3_backend():
    return PermutationGroup(3, ["t", "c"], [[1, 0, 2], [1, 2, 0]])


def test_double_coset_s3_transposition_subgroup(instances):
    X = instances["s3_doublecoset"].X
    assert X.n == 2
    carrier = X.carrier()
    oracle = brute_double_cosets([(0, 1, 2), (1, 0, 2)])
    assert len(carrier) == len(oracle) == 2
    for reps in (set(carrier), {X.canonical(x)[1] for x in carrier}):
        for cls in oracle:
            assert len(reps & cls) == 1  # exactly one representative per class


test_coset_products_match_oracle = table_test("mul")
test_products_match_scalar_mul = table_test("mv_products")


def test_double_coset_axioms_full_carrier(instances):
    X = instances["s3_doublecoset"].X
    assert check_axioms(X, X.carrier()).all_ok


def test_double_coset_cyclic_subgroup_has_n_three():
    X = DoubleCosetGroup(s3_backend(), [(1, 2, 0)])
    assert X.n == 3
    assert len(X.carrier()) == 2
    for x, y in itertools.product(X.carrier(), repeat=2):
        assert_canonical(X, X.mul(x, y))
    assert check_axioms(X, X.carrier()).all_ok


def s4_backend(cls=PermutationGroup):
    return cls(4, ["t", "c"], [[1, 0, 2, 3], [1, 2, 3, 0]])


DOUBLE_COSETS = {
    "s3_transposition": lambda: DoubleCosetGroup(s3_backend(), [(1, 0, 2)]),
    "s3_cyclic": lambda: DoubleCosetGroup(s3_backend(), [(1, 2, 0)]),
    "s4_by_s3": lambda: DoubleCosetGroup(s4_backend(), [(1, 0, 2, 3), (0, 2, 1, 3)]),
    "s4_by_klein": lambda: DoubleCosetGroup(s4_backend(), [(1, 0, 3, 2), (2, 3, 0, 1)]),
    # the bench's S5 shape: H = Sym({0, 1, 2}), so n = 6 over 7 classes
    "s5_by_s3": lambda: DoubleCosetGroup(
        PermutationGroup(5, ["t", "c"], [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
        [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4)]),
}


@pytest.mark.parametrize("name", DOUBLE_COSETS)
def test_double_coset_partition_matches_project_oracle(name):
    X = DOUBLE_COSETS[name]()
    elements = list(X.backend.elements())
    for g in elements:
        assert X.canonical(X.project(g)) == key_class(X, g), g
    # one class per oracle class: the canonical forms of the carrier repeat nothing
    assert list(map(X.canonical, X.carrier())) == sorted(
        {key_class(X, g) for g in elements})
    if name == "s5_by_s3":
        assert (X.n, len(X.carrier())) == (6, 7)


def test_double_coset_project_makes_no_backend_mul_calls():
    class Counting(PermutationGroup):
        muls = 0

        def mul(self, g, h):
            self.muls += 1
            return super().mul(g, h)

    backend = s4_backend(Counting)
    X = DoubleCosetGroup(backend, [(1, 0, 2, 3), (0, 2, 1, 3)])
    backend.muls = 0
    for g in backend.elements():
        X.project(g)
    assert backend.muls == 0
    assert len(X.carrier()) == 2  # Sym(3)\Sym(4)/Sym(3): does g fix the point 3 or not


# ---------------------------------------------------------------------------
# the coset class table against the orbit-min oracle

@pytest.mark.parametrize("name", COSET)
def test_coset_project_matches_orbit_min_oracle(every_instance, name):
    X = every_instance[name].X
    backend = X.backend
    if backend.is_finite():
        elements = list(backend.elements())
    else:
        gens = [backend.gen(i) for i in range(len(backend.gen_names))]
        monoid = monoid_balls(backend, gens + [backend.inv(g) for g in gens], 4)
        elements = [a.apply(g) for g in itertools.chain.from_iterable(monoid.sphere_sets)
                    for a in X.auts]
    filed = dict(X._classes)
    for g in elements:
        expected = key_class(X, g)
        cls = X.project(g)
        assert cls == min(a.apply(g) for a in X.auts), g  # the native orbit minimum
        assert X.canonical(cls) == expected, g
        assert X.project(expected[1]) == cls, g  # the least member by key names it too
        assert filed.get(g, cls) == cls, g  # the partition of a finite G agrees
    assert X._classes == filed
    if backend.is_finite():
        assert list(map(X.canonical, X.carrier())) == sorted(
            {key_class(X, g) for g in elements})


@pytest.mark.parametrize("name", INFINITE_COSET)
def test_coset_class_table_files_each_class_under_its_least_member(every_instance, name):
    """Each G-element a ball's batches look up goes, by the scalar project
    as by the batch, to the least member of its class under native order,
    and those classes are the ball's; an infinite G has no class table."""
    instance = every_instance[name]
    X = copy.copy(instance.X)
    looked_up = []
    X.project_all = lambda gs: looked_up.extend(gs) or instance.X.project_all(gs)
    table = ball(X, instance.x_generators, X.unit, 6)
    classes = list(map(instance.X.project, looked_up))
    assert classes == least_members(X, looked_up)
    assert {X.unit, *classes} == set(itertools.chain(*table.sphere_sets))
    assert X._classes == {}


@pytest.mark.parametrize("name", ORBIT)
def test_every_filed_g_element_holds_its_orbit_minimum_after_every_walk(name):
    """The class table is written once, by the constructor: a finite G's
    partition, each G-element filed under the least member of its orbit
    under A (or H x H), and empty on an infinite G.  No walk, axiom check
    or parsed element writes to it."""
    instance = load_instance(PATHS[name])
    X, gens = instance.X, instance.x_generators
    filed = dict(X._classes)
    assert bool(filed) == X.backend.is_finite()
    ball(X, gens, X.unit, 4)
    iterate_dynamic(X, gens[0], gens[-1], 6)
    power_table(X, gens[-1], 6)
    check_axioms(X, cli_sample(instance))
    instance.element(f"{X.backend.gen_names[0]}^-1")
    assert X._classes == filed
    assert class_forms(X, ()) == oracle_class_forms(X, ())


test_walks_agree_with_the_key_oracle_on_every_class_met = table_test("classes")


def test_coset_balls_make_no_automorphism_apply_call(monkeypatch):
    """The twists are the compiled maps themselves, so no walk pays the
    Automorphism.apply frame."""
    applies = []
    apply = Automorphism.apply
    # patched before loading, so a twist bound to `apply` there would count
    monkeypatch.setattr(Automorphism, "apply", lambda a, g: applies.append(g) or apply(a, g))
    for name in COSET:
        instance = load_instance(PATHS[name])
        applies.clear()  # building the automorphism group applies the seeds
        table = ball(instance.X, instance.x_generators, instance.X.unit, 4)
        assert table.ball_sizes[-1] > 1, name
        assert applies == [], name


def s4_transposition_auts(cls=PermutationGroup):
    """The automorphisms of S4 that conjugation by the transposition t generates."""
    backend = s4_backend(cls)
    gens = [backend.gen(i) for i in range(2)]
    t = gens[0]
    images = [backend.mul(backend.mul(t, g), t) for g in gens]
    return close_automorphisms([Automorphism(backend, "conj", images, images).verify()])


def s4_transposition_coset(cls=PermutationGroup):
    """The coset group of S4 under conjugation by the transposition t."""
    auts = s4_transposition_auts(cls)
    return CosetGroup(auts.backend, auts)


def record_forwards(auts, calls):
    """Make each compiled map of auts append (automorphism, argument) to
    calls, through `apply` or not; a coset group built afterwards twists
    through them."""
    for a in auts:
        a.forward = lambda g, a=a, forward=a.forward: calls.append((a, g)) or forward(g)
    return auts


def test_finite_coset_project_folds_its_twists_without_keys():
    class Counting(PermutationGroup):
        keys = 0

        def canonical_key(self, g):
            self.keys += 1
            return super().canonical_key(g)

    twists = []
    auts = record_forwards(s4_transposition_auts(Counting), twists)
    X = CosetGroup(auts.backend, auts)
    backend = X.backend
    backend.keys = 0
    twists.clear()
    elements = list(backend.elements())
    for g in elements:
        X.project(g)
    # a batch of one: each twist besides the identity once, and no key
    assert (backend.keys, len(twists)) == (0, (X.auts.order - 1) * len(elements))
    carrier = X.carrier()
    # conjugation by t fixes the 4 elements of its centralizer and pairs the other 20
    assert len(carrier) == 14
    assert list(map(X.canonical, carrier)) == sorted(
        {key_class(X, g) for g in backend.elements()})


# Fibonacci groups F(2, m) = <x_0, ..., x_{m-1} | x_i x_{i+1} = x_{i+2}>, by
# their coset groups under the shift x_i -> x_{i+1} (tests/instances/):
# name -> (m, |G|, number of classes)
FIBONACCI = {"fibonacci5_z11": (5, 11, 3), "fibonacci4_z5": (4, 5, 2),
             "fibonacci3_q8": (3, 8, 4)}


@pytest.mark.parametrize("name", FIBONACCI)
def test_fibonacci_instances_satisfy_their_cyclic_presentations(every_instance, name):
    m, order, classes = FIBONACCI[name]
    instance = every_instance[name]
    backend, (shift,) = instance.backend, instance.config.automorphisms
    # x_0 is the first generator and x_{i+1} the shift's image of x_i
    xs = [backend.gen(0)]
    for _ in range(m):
        xs.append(shift.apply(xs[-1]))
    assert xs[m] == xs[0] and len(set(xs[:m])) == m
    for i in range(m):
        assert backend.mul(xs[i], xs[(i + 1) % m]) == xs[(i + 2) % m], i
    assert len(list(backend.elements())) == len(backend._close(xs[:m])) == order
    X = instance.X
    assert (X.n, len(X.carrier())) == (m, classes)
    report = check_axioms(X, X.carrier())
    assert report.all_ok and report.triples_checked == classes ** 3


def test_double_coset_rejects_infinite_backend():
    f = FreeGroup(2)
    with pytest.raises(InfiniteBackendUnsupported):
        DoubleCosetGroup(f, [f.gen(0)])


def test_class_elements_order_and_hash():
    X = z_pm1()
    a, b = X.project((2,)), X.project((-2,))
    assert a == b == (-2,) and hash(a) == hash(b)  # the native least member
    assert X.canonical(a) == (X.backend.canonical_key((2,)), (2,))  # (key, least by key)
    assert X.canonical(X.project((1,))) < X.canonical(X.project((2,)))  # key order: 1 before 2
    assert X.project((2,)) < X.project((1,))  # native order: (-2,) before (-1,)
    assert len({X.project((k,)) for k in (-3, 3, -3)}) == 1


# ---------------------------------------------------------------------------
# memoized axiom check against the unmemoized reference loop

class CountingMv(MvGroup):
    """Wraps an n-valued group and counts mul calls per ordered pair."""

    def __init__(self, X):
        self.X, self.n, self.unit = X, X.n, X.unit
        self.calls = Counter()

    def mul(self, x, y):
        self.calls[x, y] += 1
        return self.X.mul(x, y)

    def inv(self, x):
        return self.X.inv(x)


def test_check_axioms_multiplies_each_pair_once(instances):
    X = instances["s3_conj"].X
    counting = CountingMv(X)
    report = check_axioms(counting, X.carrier())
    assert report.all_ok and report.triples_checked == 4 ** 3
    assert set(counting.calls.values()) == {1}
    assert len(counting.calls) <= len(X.carrier()) ** 2
    assert report == check_axioms(X, X.carrier())


test_check_axioms_matches_unmemoized_reference = table_test("check_axioms", extra={
    name: lambda instances, make=make: [(X, X.carrier()) for X in [make()]]
    for name, make in {**DOUBLE_COSETS, "s4_transposition": s4_transposition_coset}.items()})


@pytest.mark.parametrize("name,pairs", [("s3_conj", 16), ("z2_pm1", 245), ("nat", 341),
                                        ("heis_swap", 1161), ("free2_swap", 118)])
def test_check_axioms_forms_each_pair_once(instances, name, pairs):
    """The ordered pairs the check forms on the CLI sample, each once and
    all in `X.products` batches: N^2 + 2Nm for the N sample classes and the
    m classes their table adds (heis_swap: 81 + 540 + 540), and on
    free2_swap two more for each of the 3 classes whose inverse no table
    holds.  An orbit group's batches make no scalar `X.mul` call."""
    instance = instances[name]
    X, sample = copy.copy(instance.X), cli_sample(instance)
    formed, scalar = Counter(), []
    products, mul = X.products, X.mul
    X.products = lambda xs, ys: formed.update(itertools.product(xs, ys)) or products(xs, ys)
    X.mul = lambda x, y: scalar.append((x, y)) or mul(x, y)
    report = check_axioms(X, sample)
    assert report.all_ok and report.triples_checked == len(sample) ** 3
    assert sum(formed.values()) == pairs and set(formed.values()) == {1}
    assert len(scalar) == (0 if isinstance(X, OrbitGroup) else pairs)


def test_check_axioms_on_a_sample_with_repeats(instances):
    """The 25 projections of (i, j), |i|, |j| <= 2, on z2_pm1 are 13 classes:
    witness and counts are the plain loop's over the 25, and each ordered
    pair of classes is formed once."""
    X = instances["z2_pm1"].X
    sample = [X.project((i, j)) for i in range(-2, 3) for j in range(-2, 3)]
    assert len(set(sample)) == 13
    counting = CountingMv(X)
    report = check_axioms(counting, sample)
    assert report == reference_check_axioms(X, sample)
    assert report.all_ok and report.triples_checked == 25 ** 3
    assert set(counting.calls.values()) == {1}


def test_check_axioms_matches_reference_on_associativity_failure():
    X = _BrokenAt()
    counting = CountingMv(X)
    report = check_axioms(counting, range(4))
    assert not report.associativity_ok
    assert report == reference_check_axioms(X, range(4))
    assert set(counting.calls.values()) == {1}


@pytest.mark.parametrize("pair,product,witness,triples", [
    ((3, 2), (5, 5), (1, 2, 2), 38),  # mid-row: x, y past the first, z at neither end
    ((2, 4), (6, 6), (1, 1, 4), 35),  # the last z of its row
], ids=["mid_row", "row_end"])
def test_check_axioms_witness_is_the_first_failing_triple(pair, product, witness, triples):
    X = _BrokenAt(pair, product)
    counting = CountingMv(X)
    report = check_axioms(counting, range(5))
    assert (report.associativity_witness, report.triples_checked) == (witness, triples)
    assert report == reference_check_axioms(X, range(5))
    assert set(counting.calls.values()) == {1}


class _TableMv(MvGroup):
    """An arbitrary n-valued product on range(size) read from a table, with
    unit 0 and an arbitrary inverse map: rarely an n-valued group, so each
    axiom fails at any triple or element, and an inverse may lie outside
    every table the check forms."""

    unit = 0

    def __init__(self, n, table, inverse):
        self.n, self.table, self.inverse = n, table, inverse

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self.inverse[x]


@given(st.data())
def test_check_axioms_matches_reference_on_arbitrary_tables(data):
    """Witnesses, counts and verdicts are the plain loop's on samples with
    repeats, and each ordered pair is formed at most once."""
    n, size = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    value = st.integers(0, size - 1)
    product = st.lists(value, min_size=n, max_size=n).map(lambda v: tuple(sorted(v)))
    table = data.draw(st.lists(st.lists(product, min_size=size, max_size=size),
                               min_size=size, max_size=size))
    X = _TableMv(n, table, data.draw(st.lists(value, min_size=size, max_size=size)))
    sample = data.draw(st.lists(value, min_size=1, max_size=7))
    counting = CountingMv(X)
    assert check_axioms(counting, sample) == reference_check_axioms(X, sample)
    assert set(counting.calls.values()) <= {1}


def test_check_axioms_twists_each_right_factor_once():
    """The memo forms each right factor's twisted images once; besides it,
    only the projections twist: each G-product of a pair, and each class's
    inverse, once by each twist but the identity."""
    twists = []
    auts = record_forwards(s4_transposition_auts(), twists)
    X = CosetGroup(auts.backend, auts)
    carrier = X.carrier()  # sorting it forms each class's orbit for its key
    twists.clear()
    counting = CountingMv(X)
    assert check_axioms(counting, carrier).all_ok
    formed = Counter(twists)
    rights = {y for _, y in counting.calls}
    moves = [a for i, a in enumerate(X.auts) if i != X.auts.identity_index]
    projected = [*map(X.backend.inv, carrier),
                 *(X.backend.mul(x, a.apply(y)) for x, y in counting.calls for a in X.auts)]
    assert formed == Counter(itertools.product(X.auts, rights)) + Counter(
        itertools.product(moves, projected))


@pytest.mark.parametrize("name", EVERY_INSTANCE)
def test_instances_are_freed_without_the_cycle_collector(name):
    """An instance and its backend die with their last reference: no memo
    or closure may tie either into a reference cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        instance = load_instance(PATHS[name])
        ball(instance.X, instance.x_generators, instance.X.unit, 3)
        check_axioms(instance.X, cli_sample(instance))
        refs = [weakref.ref(instance.X)]
        if instance.backend is not None:
            refs.append(weakref.ref(instance.backend))
        del instance
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
