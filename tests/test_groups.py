import functools
import itertools
import operator
import random
from collections import Counter

import pytest

from mvgroups import groups
from mvgroups.errors import (
    BackendMismatch,
    BudgetExceeded,
    InverseMissing,
    NotAnAutomorphism,
    ValidationError,
)
from mvgroups.groups import (
    Automorphism,
    CyclicGroup,
    DirectProduct,
    FreeAbelianGroup,
    FiniteTableGroup,
    FreeGroup,
    GroupBackend,
    HeisenbergGroup,
    PermutationGroup,
    SemidirectProduct,
    close_automorphisms,
    identity_automorphism,
    monoid_balls,
    orbit,
)
from mvgroups.keys import int_key
from mvgroups.mvalued import CosetGroup
from mvgroups.wordspec import build_instance, parse_config

from oracles import (COSET, PATHS, ROOT, byte_int_key, byte_key, byte_seq_key, compose,
                     flat_key, inverse_seed, linear_map, oracle_closure, scalar_products,
                     two_sided_closure)


def random_element(backend, rng, steps=6):
    g = backend.identity
    k = len(backend.gen_names)
    for _ in range(rng.randint(0, steps)):
        s = backend.gen(rng.randrange(k))
        if rng.random() < 0.5:
            s = backend.inv(s)
        g = backend.mul(g, s)
    return g


def s3():
    return PermutationGroup(3, ["t", "c"], [[1, 0, 2], [1, 2, 0]])


def all_backends():
    return [
        FreeGroup(2),
        FreeAbelianGroup(1),
        FreeAbelianGroup(2),
        CyclicGroup(6),
        HeisenbergGroup(),
        s3(),
        DirectProduct([CyclicGroup(3, ["h"]), FreeGroup(2)]),
    ]


@pytest.mark.parametrize("backend", all_backends(), ids=lambda b: b.kind)
def test_group_axioms_random_triples(backend):
    rng = random.Random(1234)
    e = backend.identity
    for _ in range(1000):
        g = random_element(backend, rng)
        h = random_element(backend, rng)
        k = random_element(backend, rng)
        assert backend.mul(backend.mul(g, h), k) == backend.mul(g, backend.mul(h, k))
        assert backend.mul(e, g) == g
        assert backend.mul(g, e) == g
        assert backend.mul(g, backend.inv(g)) == e


@pytest.mark.parametrize("backend", all_backends(), ids=lambda b: b.kind)
def test_canonical_key_injective_and_consistent(backend):
    rng = random.Random(99)
    seen = {}
    for _ in range(300):
        g = random_element(backend, rng)
        key = backend.canonical_key(g)
        if key in seen:
            assert seen[key] == g
        seen[key] = g
        assert backend.canonical_key(g) == key  # stable


def batch_backends():
    return [*all_backends(), FreeAbelianGroup(3),
            DirectProduct([FreeAbelianGroup(2), HeisenbergGroup()]),
            DirectProduct([FreeGroup(2), s3()])]


def huge_element(backend, rng):
    """An integer vector of the backend's length with every coordinate
    beyond +-2**64."""
    return tuple(rng.choice((1, -1)) * rng.randrange(2**64, 2**80) for _ in backend.identity)


@pytest.mark.parametrize("backend", batch_backends(), ids=lambda b: f"{b.kind}-{len(b.gen_names)}")
def test_batch_hooks_match_the_scalar_loops(backend):
    rng = random.Random(4321)
    gs = [random_element(backend, rng) for _ in range(40)]
    hs = [random_element(backend, rng) for _ in range(5)]
    if isinstance(backend, (FreeAbelianGroup, HeisenbergGroup)):
        gs += [huge_element(backend, rng) for _ in range(10)]
        hs.append(huge_element(backend, rng))
    for left, right in ((gs, hs), (gs, []), ([], hs), ([], []), (gs[:1], hs[:1])):
        assert backend.products(left, right) == scalar_products(backend, left, right)
    for g, h in itertools.product(gs, hs):
        assert backend.products([g], [h]) == [backend.mul(g, h)]


def free_reduced(g, h):
    """The reduced word of g then h, cancelled one letter at a time on a
    stack: an oracle that shares no code with the backend."""
    stack = []
    for letter, exp in (*g, *h):
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if stack and stack[-1] == (letter, -sign):
                stack.pop()
            else:
                stack.append((letter, sign))
    return tuple((letter, sum(sign for _, sign in run))
                 for letter, run in itertools.groupby(stack, key=operator.itemgetter(0)))


def syllable_inverse(word):
    return tuple((letter, -exp) for letter, exp in reversed(word))


LONG_WORD = ((0, 1), (1, -2), (2, 3), (0, -1), (1, 1))
LONG_INVERSE = syllable_inverse(LONG_WORD)

# name -> (gs, hs) in F3 on the letters 0, 1, 2, each meeting at its seam
FREE_SEAMS = {
    "exponent-merge": ([((0, 2), (1, 3)), ((1, -1),)], [((1, 2),), ((1, -4),)]),
    "full-cancellation": ([((0, 2), (1, 3)), ((1, 3),)], [((1, -3),)]),
    "cascade": ([LONG_WORD], [LONG_INVERSE, LONG_INVERSE[:3], LONG_INVERSE + ((2, 1),)]),
    "multi-syllable-h": ([((0, 1), (1, 1))], [((1, -1), (2, 1)), ((1, 2), (0, 1)),
                                              ((1, -1), (0, -1))]),
    "empty-words": ([(), ((0, 1),)], [(), ((0, -1),), ((1, 1),)]),
}


@pytest.mark.parametrize("case", FREE_SEAMS)
def test_free_group_seams_match_the_scalar_loops_and_free_reduction(case):
    f = FreeGroup(3)
    words = FREE_SEAMS[case]
    expected = [free_reduced(g, h) for g, h in itertools.product(*words)]
    gs, hs = [list(map(f.evaluate, side)) for side in words]

    def factored(elements):
        return list(map(f.factor, elements))
    assert factored(scalar_products(f, gs, hs)) == factored(
        GroupBackend.products(f, gs, hs)) == factored(f.products(gs, hs)) == expected
    assert f.products(gs, []) == f.products([], hs) == f.products([], []) == []
    for (g, h), reduced in zip(itertools.product(gs, hs), expected):
        assert factored(f.products([g], [h])) == [reduced]


def test_rank_one_batches_keep_their_one_tuples():
    z = FreeAbelianGroup(1)
    assert z.products([(2,), (-3,)], [(1,), (-1,)]) == [(3,), (1,), (-2,), (-4,)]
    assert list(map(z.canonical_key, [(2,), (-3,), (0,)])) == [(3,), (6,), (0,)]
    assert z.products([(2,)], [(2**70,)]) == [(2**70 + 2,)]


def test_identity_key_is_minimal_in_samples():
    for backend in all_backends():
        rng = random.Random(7)
        keys = [backend.canonical_key(random_element(backend, rng)) for _ in range(100)]
        assert backend.canonical_key(backend.identity) <= min(keys)


def test_integer_addition():
    z = FreeAbelianGroup(1)
    assert z.mul((3,), (5,)) == (8,)
    assert z.inv((7,)) == (-7,)


def test_free_reduction():
    f = FreeGroup(2)
    g1, g2 = f.gen(0), f.gen(1)
    word = f.mul(g1, f.inv(g2))  # g1*g2^-1
    assert f.mul(word, g2) == g1
    assert f.inv(f.mul(g1, g2)) == f.mul(f.inv(g2), f.inv(g1))
    # equal words in different spellings share a key
    spelled = f.mul(f.mul(g1, f.inv(g1)), g2)
    assert f.canonical_key(spelled) == f.canonical_key(g2)


def test_distinct_vectors_distinct_keys():
    z2 = FreeAbelianGroup(2)
    assert z2.canonical_key((1, 0)) != z2.canonical_key((0, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: FreeGroup(0), "free group rank must be >= 1, got 0"),
    (lambda: FreeAbelianGroup(0), "free abelian rank must be >= 1, got 0"),
    (lambda: FreeGroup(2, ["a"]), "generator name count must equal the rank"),
    (lambda: FreeAbelianGroup(2, ["a", "b", "c"]), "generator name count must equal the rank"),
], ids=["free-rank", "free-abelian-rank", "free-names", "free-abelian-names"])
def test_rank_and_name_checks_keep_their_texts(make, message):
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message


def test_heisenberg_is_a_rank_three_vector_backend():
    h = HeisenbergGroup()
    assert (h.rank, h.gen_names, h.identity) == (3, ("a", "b", "c"), (0, 0, 0))
    assert [h.gen(i) for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert h.render((1, -2, 30)) == "(1,-2,30)"


def test_heisenberg_convention():
    h = HeisenbergGroup()
    assert h.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_heisenberg_matches_matrix_oracle():
    # oracle: (p,q,r) <-> [[1,p,r],[0,1,q],[0,0,1]], multiplied directly
    def to_matrix(g):
        p, q, r = g
        return [[1, p, r], [0, 1, q], [0, 0, 1]]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    h = HeisenbergGroup()
    rng = random.Random(5)
    for _ in range(200):
        g1 = random_element(h, rng)
        g2 = random_element(h, rng)
        prod = h.mul(g1, g2)
        assert to_matrix(prod) == matmul(to_matrix(g1), to_matrix(g2))


def test_s3_inverse_of_three_cycle():
    g = s3()
    c = g.gen(1)  # (1 2 3)
    assert g.inv(c) == (2, 0, 1)  # (1 3 2)
    assert g.render(g.inv(c)) == "(1 3 2)"


# ---------------------------------------------------------------------------
# automorphisms


def swap_automorphism(f):
    return Automorphism(f, "swap", [f.gen(1), f.gen(0)], [f.gen(1), f.gen(0)]).verify()


def test_swap_generator_image():
    f = FreeGroup(2)
    swap = swap_automorphism(f)
    assert swap.apply(f.gen(0)) == f.gen(1)


def test_h_inversion_on_product_group():
    g = DirectProduct([CyclicGroup(3, ["h"]), FreeGroup(2)])
    h, g1 = g.gen(0), g.gen(1)
    images = [g.inv(h), g.gen(1), g.gen(2)]
    a = Automorphism(g, "a", images, images).verify()
    # (h, g1) -> (h^2, g1)
    assert a.apply(g.mul(h, g1)) == g.mul(g.mul(h, h), g1)


def test_identity_automorphism_fixes_everything():
    f = HeisenbergGroup()
    ident = identity_automorphism(f)
    rng = random.Random(3)
    for _ in range(50):
        g = random_element(f, rng)
        assert ident.apply(g) == g


def test_automorphism_respects_mul_and_inv():
    f = FreeGroup(2)
    a = swap_automorphism(f)
    rng = random.Random(11)
    for _ in range(1000):
        g = random_element(f, rng)
        h = random_element(f, rng)
        assert a.apply(f.mul(g, h)) == f.mul(a.apply(g), a.apply(h))
        assert a.apply(f.inv(g)) == f.inv(a.apply(g))


def test_heisenberg_swap_is_automorphism():
    h = HeisenbergGroup()
    images = [h.gen(1), h.gen(0), h.inv(h.gen(2))]
    a = Automorphism(h, "swap", images, images).verify()
    rng = random.Random(21)
    for _ in range(300):
        g1 = random_element(h, rng)
        g2 = random_element(h, rng)
        assert a.apply(h.mul(g1, g2)) == h.mul(a.apply(g1), a.apply(g2))


def test_close_swap_gives_order_two():
    f = FreeGroup(2)
    auts = close_automorphisms([swap_automorphism(f)])
    assert auts.order == 2


def test_close_identity_gives_order_one():
    auts = close_automorphisms([identity_automorphism(FreeGroup(2))])
    assert auts.order == 1


def test_doubling_is_rejected():
    # g1 -> g1^2 on a free group is not surjective; no inverse images exist
    f = FreeGroup(1)
    square = f.mul(f.gen(0), f.gen(0))
    with pytest.raises(InverseMissing):
        Automorphism(f, "double", [square], None).verify()
    with pytest.raises(NotAnAutomorphism):
        Automorphism(f, "double", [square], [f.gen(0)]).verify()


def test_shear_closure_exceeds_bound():
    z2 = FreeAbelianGroup(2)
    shear = Automorphism(z2, "shear", [(1, 0), (1, 1)], [(1, 0), (-1, 1)]).verify()
    with pytest.raises(BudgetExceeded):
        close_automorphisms([shear], bound=10)


def test_unverified_automorphism_cannot_be_applied():
    f = FreeGroup(2)
    swap = Automorphism(f, "swap", [f.gen(1), f.gen(0)], [f.gen(1), f.gen(0)])
    with pytest.raises(AttributeError):
        swap.apply(f.gen(0))
    assert swap.verify().apply(f.gen(0)) == f.gen(1)


def test_orbit_examples():
    z = FreeAbelianGroup(1)
    neg = Automorphism(z, "neg", [(-1,)], [(-1,)]).verify()
    auts = close_automorphisms([neg])
    assert orbit(auts, (5,)) == ((5,), (-5,))  # nonneg rep sorts first
    assert orbit(auts, (0,)) == ((0,),)

    f = FreeGroup(2)
    swap_group = close_automorphisms([swap_automorphism(f)])
    g1g2 = f.mul(f.gen(0), f.gen(1))
    g2g1 = f.mul(f.gen(1), f.gen(0))
    assert set(orbit(swap_group, g1g2)) == {g1g2, g2g1}


# ---------------------------------------------------------------------------
# semidirect product


def z_pm1_semidirect():
    z = FreeAbelianGroup(1)
    neg = Automorphism(z, "neg", [(-1,)], [(-1,)]).verify()
    auts = close_automorphisms([neg])
    ga = SemidirectProduct(z, auts)
    i_neg = next(i for i, a in enumerate(auts.elements) if a.apply((1,)) == (-1,))
    return ga, auts.identity_index, i_neg


def swap_group(z2):
    return close_automorphisms([swap_automorphism(z2)])


@pytest.mark.parametrize("build, message", [
    (lambda: CosetGroup(FreeAbelianGroup(2), swap_group(FreeAbelianGroup(2))),
     "automorphism group does not act on this backend"),
    (lambda: SemidirectProduct(FreeAbelianGroup(2), swap_group(FreeAbelianGroup(2))),
     "automorphism group does not act on the given backend"),
    (lambda: close_automorphisms([swap_automorphism(FreeAbelianGroup(2)),
                                  swap_automorphism(FreeAbelianGroup(2))]),
     "all seeds must act on the same backend"),
], ids=["coset", "semidirect", "close"])
def test_automorphisms_of_another_backend_raise_backend_mismatch(build, message):
    with pytest.raises(BackendMismatch) as exc:
        build()
    assert str(exc.value) == message
    assert not isinstance(exc.value, ValidationError)


def test_semidirect_left_unit_and_embedding():
    ga, i_id, i_neg = z_pm1_semidirect()
    h = ((5,), i_neg)
    assert ga.mul(ga.identity, h) == h
    assert ga.mul(((3,), i_id), ((5,), i_id)) == ((8,), i_id)


def test_semidirect_displayed_formula():
    # (3, -1)(5, +1) = (3 + (-1)^{-1}(5), -1) = (-2, -1)
    ga, i_id, i_neg = z_pm1_semidirect()
    assert ga.mul(((3,), i_neg), ((5,), i_id)) == ((-2,), i_neg)


def test_semidirect_group_axioms():
    ga, _, _ = z_pm1_semidirect()
    rng = random.Random(8)
    for _ in range(500):
        p = random_element(ga, rng)
        q = random_element(ga, rng)
        r = random_element(ga, rng)
        assert ga.mul(ga.mul(p, q), r) == ga.mul(p, ga.mul(q, r))
        assert ga.mul(p, ga.inv(p)) == ga.identity


def test_semidirect_embeds_base_group():
    ga, i_id, _ = z_pm1_semidirect()
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        assert ga.mul(((a,), i_id), ((b,), i_id)) == ((a + b,), i_id)
        assert ga.canonical_key(((a,), i_id)) != ga.canonical_key(((b,), i_id)) or a == b


# ---------------------------------------------------------------------------
# canonical order: the byte keys the order was first defined by are the oracle


def assert_same_order(items, key, oracle):
    """key orders `items` exactly as the oracle does, equal keys included."""
    for a in items:
        for b in items:
            assert (key(a) < key(b), key(a) == key(b)) == (oracle(a) < oracle(b),
                                                           oracle(a) == oracle(b))
    assert sorted(items, key=key) == sorted(items, key=oracle)


def order_backends():
    z3 = FiniteTableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, ["g"], [1])
    return [*all_backends(), z3, z_pm1_semidirect()[0],
            DirectProduct([s3(), FreeAbelianGroup(1, ["z"])])]


@pytest.mark.parametrize("backend", order_backends(), ids=lambda b: b.kind)
def test_canonical_key_matches_byte_order(backend):
    rng = random.Random(2024)
    items = list({random_element(backend, rng, steps=14): None for _ in range(120)})
    assert_same_order(items, backend.canonical_key, lambda g: byte_key(backend, g))
    assert len({backend.canonical_key(g) for g in items}) == len(items)


def test_int_key_matches_byte_order():
    items = [*range(-300, 301), 2**40, -2**40, 2**40 + 1, -(2**64), 2**64]
    assert sorted(items, key=int_key) == sorted(items, key=byte_int_key)
    assert sorted(range(-2, 3), key=int_key) == [0, 1, -1, 2, -2]


def test_signature_matches_byte_order():
    z2 = FreeAbelianGroup(2)
    swap = Automorphism(z2, "swap", [(0, 1), (1, 0)], [(0, 1), (1, 0)])
    neg = Automorphism(z2, "neg", [(-1, 0), (0, -1)], [(-1, 0), (0, -1)])
    f = FreeGroup(2)
    groups = [close_automorphisms([swap, neg]), close_automorphisms([swap_automorphism(f)]),
              close_automorphisms([Automorphism(s3(), "conj", [(1, 0, 2), (2, 0, 1)],
                                                [(1, 0, 2), (2, 0, 1)])])]
    for auts in groups:
        backend = auts.backend
        assert_same_order(list(auts), lambda a: a.signature,
                          lambda a: byte_seq_key(byte_key(backend, g) for g in a.images))


def test_free_words_order_shorter_first_then_letterwise():
    f = FreeGroup(2)
    g1, g2 = f.gen(0), f.gen(1)
    words = [f.mul(g1, g2), g2, f.identity, f.inv(g1), g1]
    assert sorted(words, key=f.canonical_key) == [f.identity, g1, f.inv(g1), g2,
                                                  f.mul(g1, g2)]


# ---------------------------------------------------------------------------
# monoid balls


def test_free_monoid_spheres_double():
    f = FreeGroup(2)
    table = monoid_balls(f, [f.gen(0), f.gen(1)], 3)
    assert table.sphere_sizes() == [1, 2, 4, 8]


def test_z_one_generator_ball_counts():
    z = FreeAbelianGroup(1)
    table = monoid_balls(z, [(1,)], 5)
    assert table.ball_sizes == [1, 2, 3, 4, 5, 6]


def test_z_two_sided_ball():
    z = FreeAbelianGroup(1)
    table = monoid_balls(z, [(1,), (-1,)], 2)
    assert table.ball_sizes[2] == 5
    assert set(table.sphere_sets[2]) == {(2,), (-2,)}


def test_monoid_sphere_invariants():
    f = FreeGroup(2)
    gens = [f.gen(0), f.gen(1)]
    table = monoid_balls(f, gens, 5)
    seen = set()
    for r, sphere in enumerate(table.sphere_sets):
        assert not (set(sphere) & seen)
        if r > 0:
            # every sphere element has a predecessor in the previous layer
            prev = set(table.sphere_sets[r - 1])
            for v in sphere:
                assert any(f.mul(u, s) == v for u in prev for s in gens)
        seen |= set(sphere)
    assert table.ball_sizes == sorted(table.ball_sizes)


def test_monoid_budget_enforced():
    f = FreeGroup(2)
    with pytest.raises(BudgetExceeded):
        monoid_balls(f, [f.gen(0), f.gen(1)], 10, budget=20)


# a Latin square with identity 0 that is not associative: the smallest
# loop that is not a group has order 5
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("table,gens,message", [
    ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], [1, 2], "Latin square"),
    ([[1, 0], [0, 1]], [1], "two-sided identity"),
    (LOOP5, [1, 2], "not associative"),
    ([[0, 1], [1, 0]], [2], "generator indices"),
], ids=["not-latin", "no-identity", "loop5", "gen-range"])
def test_finite_table_rejects_non_groups(table, gens, message):
    with pytest.raises(ValidationError, match=message):
        FiniteTableGroup(table, 0, [f"g{i}" for i in range(len(gens))], gens)


def test_finite_table_accepts_cyclic_group():
    z3 = FiniteTableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, ["g"], [1])
    assert z3.elements() == [0, 1, 2]
    assert z3.inv(1) == 2


def normalized_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and first column are
    0..n-1 in order, so that 0 is a two-sided identity."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [tuple(row) for row in rows]
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in rows[i] and all(row[j] != v for row in rows):
                rows[i][j] = v
                yield from fill(cell + 1)
                rows[i][j] = None
    return list(fill(0))


def brute_force_associative(table):
    n = range(len(table))
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x, y, z in itertools.product(n, n, n))


def positive_closure(table, gens):
    """Every index that a positive word in `gens` reaches from 0."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [v for g in frontier for v in {table[g][a] for a in gens} - reached]
        reached.update(frontier)
    return reached


def test_normalized_latin_squares_are_counted_right():
    assert [len(normalized_latin_squares(n)) for n in range(1, 6)] == [1, 1, 1, 4, 56]
    assert [tuple(row) for row in LOOP5] in normalized_latin_squares(5)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, "loop5"])
def test_lights_test_on_the_generators_agrees_with_brute_force(order):
    """Under every generator pair that generates it by positive words, a
    normalized Latin square is accepted exactly when it is associative."""
    tables = [LOOP5] if order == "loop5" else normalized_latin_squares(order)
    verdicts = set()
    for table in tables:
        associative = brute_force_associative(table)
        verdicts.add(associative)
        indices = range(len(table))
        for gens in itertools.product(indices, indices):
            if len(positive_closure(table, gens)) != len(table):
                continue
            if associative:
                assert FiniteTableGroup(table, 0, ["a", "b"], gens).elements() == list(indices)
            else:
                with pytest.raises(ValidationError, match="not associative"):
                    FiniteTableGroup(table, 0, ["a", "b"], gens)
    # every square of order <= 4 is a group; order 5 has both kinds
    assert verdicts == {"loop5": {False}, 5: {True, False}}.get(order, {True})


# ---------------------------------------------------------------------------
# compiled automorphisms against evaluating the images along a word: the
# backend's factor on infinite kinds, BFS words on finite ones

# the n >= 3 coset instances in tests/instances/, with |A|
N3_ORDERS = {"f3_shift": 3, "z2_dihedral": 8, "z3_shift": 3,
             "fibonacci5_z11": 5, "fibonacci4_z5": 4, "fibonacci3_q8": 3}
N3_INSTANCES = list(N3_ORDERS)


def sym_table(degree, cls=FiniteTableGroup):
    """Sym(degree) as a finite_table backend, with t = (1 2) and c = (1 2 ... degree)."""
    perms = sorted(itertools.permutations(range(degree)))
    index = {g: i for i, g in enumerate(perms)}
    table = [[index[tuple(h[i] for i in g)] for h in perms] for g in perms]
    points = tuple(range(degree))
    t = (1, 0) + points[2:]
    c = points[1:] + (0,)
    return cls(table, index[points], ["t", "c"], [index[t], index[c]])


def s4_table(cls=FiniteTableGroup):
    return sym_table(4, cls)


def conjugation(backend, x):
    """g -> x^-1 g x, as generator images and inverse images."""
    def conj(y, z):
        return [backend.mul(backend.mul(backend.inv(y), backend.gen(i)), z)
                for i in range(len(backend.gen_names))]
    return Automorphism(backend, "conj", conj(x, x), conj(backend.inv(x), backend.inv(x)))


FINITE_BACKENDS = {"s4_table": s4_table, "s3_inner": s3,
                   "s3_x_z2": lambda: DirectProduct([s3(), CyclicGroup(2, ["z"])])}


def conjugations(name):
    """The group of conjugations by the first generator, by every generator for s3_inner."""
    backend = FINITE_BACKENDS[name]()
    count = len(backend.gen_names) if name == "s3_inner" else 1
    return close_automorphisms([conjugation(backend, backend.gen(i)) for i in range(count)])


def sample_elements(backend, seed=2025, count=200):
    """Every element of a finite backend, else `count` seeded random ones."""
    if backend.is_finite():
        return list(backend.elements())
    rng = random.Random(seed)
    return [random_element(backend, rng, steps=10) for _ in range(count)]


def bfs_words(backend):
    """Each element of a finite backend with the word that first reaches it,
    by BFS over the generators and their inverses."""
    steps = [((i, e), backend.power(backend.gen(i), e))
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


def assert_compiled_matches_oracle(backend, auts):
    factor = bfs_words(backend).__getitem__ if backend.is_finite() else backend.factor
    for a in auts:
        for g in sample_elements(backend):
            word = factor(g)
            assert a.apply(g) == backend.evaluate(word, a.images), (a.name, g)


@pytest.mark.parametrize("name", COSET)
def test_compiled_automorphisms_match_oracle(every_instance, name):
    auts = every_instance[name].auts
    if name in N3_INSTANCES:
        assert auts.order == N3_ORDERS[name]
    assert_compiled_matches_oracle(auts.backend, auts)


@pytest.mark.parametrize("name", ["s4_table", "s3_x_z2", "s3_inner"])
def test_compiled_finite_automorphisms_match_oracle(name):
    auts = conjugations(name)
    assert auts.order == (6 if name == "s3_inner" else 2)
    assert_compiled_matches_oracle(auts.backend, auts)


def test_compiled_cyclic_automorphisms_match_oracle():
    z7 = CyclicGroup(7)
    auts = close_automorphisms([Automorphism(z7, "times3", [3], [5])])
    assert auts.order == 6  # 3 generates the units mod 7
    assert_compiled_matches_oracle(z7, auts)


def swap_two_entries(table):
    """The image table with the images of its 6th and 7th keys exchanged."""
    g, h = sorted(table)[5:7]
    return {**table, g: table[h], h: table[g]}


SUBSTITUTION = FreeGroup.homomorphism


def wrong_letter(backend, images):
    """Letter substitution that sends the second letter where the first goes."""
    return SUBSTITUTION(backend, [images[0], images[0], *images[2:]])


def shift3():
    f = FreeGroup(3)
    return Automorphism(f, "shift", [f.gen(1), f.gen(2), f.gen(0)],
                        [f.gen(2), f.gen(0), f.gen(1)])


def test_oracle_catches_a_mutated_table_entry():
    s4 = s4_table()
    conj = conjugation(s4, s4.gen(0)).verify()
    conj.forward = swap_two_entries({g: conj.apply(g) for g in s4.elements()}).__getitem__
    with pytest.raises(AssertionError):
        assert_compiled_matches_oracle(s4, [conj])


def test_oracle_catches_a_wrong_substitution_letter():
    shift = shift3().verify()
    shift.forward = wrong_letter(shift.backend, shift.images)
    with pytest.raises(AssertionError):
        assert_compiled_matches_oracle(shift.backend, [shift])


def test_verify_rejects_the_same_mutants_planted_before_compilation(monkeypatch):
    walk = FiniteTableGroup.homomorphism

    def swapped_walk(self, images):
        image = walk(self, images)
        return swap_two_entries({g: image(g) for g in self.elements()}).__getitem__

    monkeypatch.setattr(FiniteTableGroup, "homomorphism", swapped_walk)
    monkeypatch.setattr(FreeGroup, "homomorphism", wrong_letter)
    s4 = s4_table()
    for a, generator in ((conjugation(s4, s4.gen(0)), "t"), (shift3(), "g1")):
        with pytest.raises(NotAnAutomorphism,
                           match=f"inverse images do not invert on generator {generator}$"):
            a.verify()
        # a rejected automorphism keeps no map
        with pytest.raises(AttributeError):
            a.apply(a.backend.identity)


def failing_inverse_checks():
    f = FreeGroup(1)
    s = s3()
    t, c = s.gen(0), s.gen(1)
    z2 = PermutationGroup(3, ["t"], [[1, 0, 2]])  # <(1 2)>, so (2 3) lies outside it
    return [
        Automorphism(f, "double", [f.mul(f.gen(0), f.gen(0))], [f.gen(0)]),
        Automorphism(s, "half", [t, c], [t, s.inv(c)]),
        Automorphism(z2, "outside", [(0, 2, 1)], [(0, 2, 1)]),
    ]


@pytest.mark.parametrize("index", range(3), ids=["free-not-onto", "s3-another-automorphism",
                                                 "z2-image-outside-the-group"])
def test_failed_inverse_check_leaves_apply_raising(index):
    a = failing_inverse_checks()[index]
    with pytest.raises(NotAnAutomorphism, match="inverse images do not invert"):
        a.verify()
    with pytest.raises(AttributeError):
        a.apply(a.backend.identity)


# ---------------------------------------------------------------------------
# finite kinds: the Cayley-graph edge walk against the |G|^2 product oracle


def product_table_oracle(backend, images):
    """The image table by evaluating the images along BFS words, or None when
    one of the |G|^2 products breaks multiplicativity."""
    elements = list(backend.elements())
    words = bfs_words(backend)
    table = {g: backend.evaluate(words[g], images) for g in elements}
    if all(table[backend.mul(g, h)] == backend.mul(table[g], table[h])
           for g in elements for h in elements):
        return table
    return None


def edge_walk_table(backend, images):
    """The table backend.homomorphism walks, or None when the walk rejects."""
    try:
        image = backend.homomorphism(images)
    except NotAnAutomorphism:
        return None
    return {g: image(g) for g in backend.elements()}


@pytest.mark.parametrize("make", [s3, lambda: sym_table(3)], ids=["permutation", "finite_table"])
def test_edge_walk_accepts_exactly_the_homomorphisms(make):
    backend = make()
    accepted = 0
    for images in itertools.product(backend.elements(), repeat=2):
        table = edge_walk_table(backend, images)
        assert table == product_table_oracle(backend, images), images
        accepted += table is not None
    assert accepted == 10  # |End(S3)|: 6 automorphisms, 3 onto order 2, the trivial map


@pytest.mark.parametrize("make", [
    lambda: DirectProduct([CyclicGroup(3, ["h"]), FreeGroup(2)]),  # z3xF2_example46
    lambda: DirectProduct([s3(), CyclicGroup(2, ["z"])]),
], ids=["z3xF2", "s3xZ2"])
def test_direct_product_operations_match_the_generator_forms(make):
    """mul, inv, canonical_key and the factor-by-factor map, each a list
    display over per-factor bound methods, against the per-call generator
    expressions they replace."""
    backend = make()
    factors = backend.factors
    elements = sample_elements(backend)
    rng = random.Random(17)
    for g in elements:
        h = rng.choice(elements)
        assert backend.mul(g, h) == tuple(b.mul(a, c) for b, a, c in zip(factors, g, h))
        assert backend.inv(g) == tuple(b.inv(a) for b, a in zip(factors, g))
        assert backend.canonical_key(g) == tuple(
            b.canonical_key(a) for b, a in zip(factors, g))
    if backend.relators() is not None:
        h, g1, g2 = map(backend.gen, range(3))
        images = [backend.inv(h), g2, g1]
        maps = [factors[0].homomorphism([images[0][0]]),
                factors[1].homomorphism([images[1][1], images[2][1]])]
        apply = backend.homomorphism(images)
        for g in elements:
            assert apply(g) == tuple(m(c) for m, c in zip(maps, g))
            assert apply(g) == backend.evaluate(backend.factor(g), images)


def test_edge_walk_matches_oracle_on_a_finite_direct_product():
    backend = DirectProduct([s3(), CyclicGroup(2, ["z"])])
    assert backend.relators() is None  # so verify() walks the product's edges
    t, c, z = map(backend.gen, range(3))
    rng = random.Random(46)
    elements = list(backend.elements())
    candidates = [(t, c, z), (c, c, z), (t, c, t), (z, c, t)] + [
        tuple(rng.choice(elements) for _ in range(3)) for _ in range(60)]
    verdicts = set()
    for images in candidates:
        table = edge_walk_table(backend, images)
        assert table == product_table_oracle(backend, images), images
        verdicts.add(table is not None)
    assert verdicts == {True, False}
    with pytest.raises(NotAnAutomorphism, match="inverse images break multiplicativity"):
        Automorphism(backend, "bad", [t, c, z], [c, c, z]).verify()


def test_edge_walk_names_the_element_and_generator():
    backend = s3()
    c = backend.gen(1)
    # t -> c breaks t*t = e first: image(e) = e but image(t)*c = c^2
    with pytest.raises(NotAnAutomorphism,
                       match=r"^'f': images break multiplicativity at \(\(1 2\), t\)$"):
        Automorphism(backend, "f", [c, c], [c, c]).verify()


def test_edge_walk_rejects_elements_the_generators_miss():
    class Overstated(PermutationGroup):
        def elements(self):
            return sorted(itertools.permutations(range(self.degree)))

    backend = Overstated(3, ["t"], [[1, 0, 2]])
    t = backend.gen(0)
    with pytest.raises(NotAnAutomorphism, match="the generators do not reach"):
        Automorphism(backend, "id", [t], [t]).verify()


def counting_mul(cls):
    """`cls` with its mul calls counted in `self.muls`."""
    class Counting(cls):
        muls = 0

        def mul(self, g, h):
            self.muls += 1
            return super().mul(g, h)

    return Counting


@pytest.mark.parametrize("make", [
    lambda: counting_mul(PermutationGroup)(4, ["t", "c"], [[1, 0, 2, 3], [1, 2, 3, 0]]),
    lambda: s4_table(counting_mul(FiniteTableGroup))], ids=["permutation", "finite_table"])
def test_edge_walk_makes_two_products_per_edge(make):
    backend = make()
    conj = conjugation(backend, backend.gen(0))
    edges = len(backend.elements()) * len(backend.gen_names)
    assert edges == 48
    for images, label in ((conj.images, "images"), (conj.inverse_images, "inverse images")):
        backend.muls = 0
        backend.homomorphism(images)
        assert backend.muls == 2 * edges, label


def s5(cls=PermutationGroup):
    """Sym(5) with t = (1 2) and c = (1 2 3 4 5), as the bench builds it."""
    return cls(5, ["t", "c"], [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])


CLOSURE_BACKENDS = {"cyclic": lambda: CyclicGroup(6), "permutation": s3, "s5": s5,
                    "finite_table": s4_table,
                    "direct_product": FINITE_BACKENDS["s3_x_z2"]}


@pytest.mark.parametrize("name", CLOSURE_BACKENDS)
def test_finite_closure_matches_the_two_sided_closure(name):
    backend = CLOSURE_BACKENDS[name]()
    gens = [backend.gen(i) for i in range(len(backend.gen_names))]
    # every set of generators, and the cyclic subgroup of a product of two
    cases = [list(c) for r in range(len(gens) + 1) for c in itertools.combinations(gens, r)]
    cases.append([backend.mul(gens[0], gens[-1])])
    for case in cases:
        closed = backend._close(case)
        assert len(closed) == len(set(closed)), case
        assert set(closed) == two_sided_closure(backend, case), case
    elements = list(backend.elements())
    assert set(elements) == two_sided_closure(backend, gens)
    assert elements == sorted(elements)


def test_s5_elements_take_one_product_per_element_and_generator():
    backend = s5(counting_mul(PermutationGroup))
    elements = backend.elements()
    assert len(elements) == 120
    assert backend.muls == 120 * 2  # stepping by t, c, t^-1 = t and c^-1 made 480


def counting(cls):
    """`cls` with its evaluate and factor calls counted in `self.counts`."""
    class Counting(cls):
        counts = Counter()

        def evaluate(self, word, images=None):
            self.counts["evaluate"] += 1
            return super().evaluate(word, images)

        def factor(self, g):
            self.counts["factor"] += 1
            return super().factor(g)

    return Counting


def compiled_seeds():
    """Unverified automorphisms of every kind whose maps are compiled, on
    backends that count their evaluate and factor calls."""
    perm = counting(PermutationGroup)(4, ["t", "c"], [[1, 0, 2, 3], [1, 2, 3, 0]])
    table = s4_table(counting(FiniteTableGroup))
    z2 = counting(FreeAbelianGroup)(2)
    f3 = counting(FreeGroup)(3)
    z7 = counting(CyclicGroup)(7)
    # the group of z3xF2_example46, with every factor counted
    zf = counting(DirectProduct)([counting(CyclicGroup)(3, ["h"]), counting(FreeGroup)(2)])
    h, g1, g2 = map(zf.gen, range(3))
    heis = counting(HeisenbergGroup)()
    a, b, c = map(heis.gen, range(3))
    return [
        conjugation(perm, perm.gen(0)),
        conjugation(table, table.gen(0)),
        Automorphism(z2, "quarter_turn", [(0, 1), (-1, 0)], [(0, -1), (1, 0)]),
        Automorphism(z2, "swap", [(0, 1), (1, 0)], [(0, 1), (1, 0)]),
        Automorphism(f3, "shift", [f3.gen(1), f3.gen(2), f3.gen(0)],
                     [f3.gen(2), f3.gen(0), f3.gen(1)]),
        Automorphism(z7, "times3", [3], [5]),
        Automorphism(zf, "a", [zf.inv(h), g1, g2], [zf.inv(h), g1, g2]),
        Automorphism(heis, "swap", [b, a, heis.inv(c)], [b, a, heis.inv(c)]),
    ]


def test_verify_makes_no_factor_calls_on_compiled_kinds():
    seeds = compiled_seeds()
    assert [a.backend.kind for a in seeds] == [
        "permutation", "finite_table", "free_abelian", "free_abelian", "free", "cyclic",
        "direct_product", "heisenberg"]
    for a in seeds:
        counted = [a.backend, *getattr(a.backend, "factors", ())]
        for b in counted:
            b.counts = Counter()
        a.verify()
        # evaluate runs only on the defining relators, once per map
        relators = a.backend.relators()
        assert a.backend.counts == Counter(evaluate=2 * len(relators or ())), a.name
        for b in counted[1:]:
            assert b.counts == Counter(), (a.name, b.kind)


def test_compiled_apply_makes_no_evaluate_or_factor_calls():
    seeds = compiled_seeds()
    groups = [close_automorphisms([seeds[0]]), close_automorphisms([seeds[1]]),
              close_automorphisms(seeds[2:4]), close_automorphisms([seeds[4]]),
              close_automorphisms([seeds[5]]), close_automorphisms([seeds[6]]),
              close_automorphisms([seeds[7]])]
    assert [auts.order for auts in groups] == [2, 2, 8, 3, 6, 2, 2]
    for auts in groups:
        backend = auts.backend
        counted = [backend, *getattr(backend, "factors", ())]
        elements = sample_elements(backend)
        for b in counted:
            b.counts = Counter()
        for i, a in enumerate(auts):
            inverse = auts.elements[auts.inverse_index[i]]
            for g in elements:
                inverse.apply(a.apply(g))
        for b in counted:
            assert b.counts == Counter(), b.kind


def test_generic_apply_counts_as_factor_and_evaluate():
    _, mixing = product_automorphisms()
    swap = mixing[0]  # x <-> y on Z x Z mixes the factors
    swap.backend.counts = Counter()
    assert swap.apply(((1,), (2,))) == ((2,), (1,))
    assert swap.backend.counts == Counter(evaluate=1, factor=1)


def test_heisenberg_closed_form_map_matches_the_generic_map():
    # most random image triples are no homomorphism; the polynomial is
    # A^p B^q C^(r-pq) all the same, as evaluate(factor(g), images) is
    h = HeisenbergGroup()
    rng = random.Random(15)
    for _ in range(300):
        images = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)]
        closed, generic = h.homomorphism(images), GroupBackend.homomorphism(h, images)
        for _ in range(10):
            g = tuple(rng.randint(-30, 30) for _ in range(3))
            assert closed(g) == generic(g), (images, g)


SIGNED_PERMUTATIONS_2 = [((u, 0), (0, v)) for u in (1, -1) for v in (1, -1)] + [
    ((0, u), (v, 0)) for u in (1, -1) for v in (1, -1)]  # rows (a1, b1), (a2, b2)
HEISENBERG_GRID = list(itertools.product(range(-4, 5), range(-4, 5), range(-6, 7)))


@pytest.mark.parametrize("matrix", SIGNED_PERMUTATIONS_2, ids=str)
def test_heisenberg_signed_permutation_maps_match_the_polynomial(matrix):
    """A signed permutation of (p, q) with c -> c^det takes the short map,
    whatever a3 and b3 are, and it agrees with the general polynomial and
    with evaluate(factor(g), images) on the whole grid."""
    h = HeisenbergGroup()
    (a1, b1), (a2, b2) = matrix
    for a3, b3 in itertools.product((-1, 0, 2), repeat=2):
        images = [(a1, a2, a3), (b1, b2, b3), (0, 0, a1 * b2 - a2 * b1)]  # C = c^det
        fast, general = h.homomorphism(images), h.polynomial(images)
        assert fast.__code__ is not general.__code__, images
        generic = GroupBackend.homomorphism(h, images)
        for g in HEISENBERG_GRID:
            assert fast(g) == general(g) == generic(g), (images, g)


@pytest.mark.parametrize("images", [
    [(0, 1, 0), (-1, -1, 1), (0, 0, 1)],  # a -> b, b -> a^-1 b^-1, c -> their commutator
    [(1, 0, 0), (1, 0, 0), (0, 0, 0)],    # a, b -> a, c -> e
], ids=["order-3", "endomorphism"])
def test_heisenberg_maps_off_the_signed_permutations_take_the_polynomial(images):
    h = HeisenbergGroup()
    A, B, C = images
    assert h.mul(h.mul(h.inv(A), h.inv(B)), h.mul(A, B)) == C  # [A, B] = C: a homomorphism
    image, general = h.homomorphism(images), h.polynomial(images)
    assert image.__code__ is general.__code__
    generic = GroupBackend.homomorphism(h, images)
    assert [image(g) for g in HEISENBERG_GRID] == [general(g) for g in HEISENBERG_GRID] \
        == [generic(g) for g in HEISENBERG_GRID]


def product_automorphisms():
    """Automorphisms of direct products: factor-preserving ones, then ones
    that mix factors and so take the generic map."""
    zf = counting(DirectProduct)([CyclicGroup(3, ["h"]), FreeGroup(2)])
    zz = counting(DirectProduct)([FreeAbelianGroup(1, ["x"]), FreeAbelianGroup(1, ["y"])])
    hz = counting(DirectProduct)([HeisenbergGroup(), FreeAbelianGroup(2, ["u", "v"])])
    h, g1, g2 = map(zf.gen, range(3))
    x, y = zz.gen(0), zz.gen(1)
    a, b, c, u, v = map(hz.gen, range(5))
    preserving = [
        Automorphism(zf, "invert_h", [zf.inv(h), g1, g2], [zf.inv(h), g1, g2]),
        Automorphism(zf, "swap_g", [h, g2, g1], [h, g2, g1]),
        Automorphism(hz, "swap_both", [b, a, hz.inv(c), v, u], [b, a, hz.inv(c), v, u]),
    ]
    mixing = [
        Automorphism(zz, "swap", [y, x], [y, x]),
        Automorphism(zz, "shear", [x, zz.mul(x, y)], [x, zz.mul(zz.inv(x), y)]),
        Automorphism(zf, "twist", [h, zf.mul(g1, h), g2], [h, zf.mul(g1, zf.inv(h)), g2]),
    ]
    return [a.verify() for a in preserving], [a.verify() for a in mixing]


def test_direct_product_automorphisms_compile_factor_by_factor():
    preserving, mixing = product_automorphisms()
    for auts, factors_the_product in ((preserving, False), (mixing, True)):
        for a in auts:
            inverse = inverse_seed(a)
            assert_compiled_matches_oracle(a.backend, [a, inverse])
            a.backend.counts = Counter()
            for g in sample_elements(a.backend):
                a.apply(g)
                inverse.apply(g)
            # the generic map factors the product's elements; the compiled
            # one only hands each component to its own factor
            assert (a.backend.counts["factor"] > 0) == factors_the_product, a.name


# ---------------------------------------------------------------------------
# automorphism groups: tables read off generator images, closure by the seeds


TABLE_CASES = COSET + [f"compiled{i}" for i in range(6)]
COMPILED_SEED_SLICES = [slice(0, 1), slice(1, 2), slice(2, 4), slice(4, 5), slice(5, 6),
                        slice(6, 7)]


def table_case(every_instance, name):
    """The automorphism group of a coset instance or of a compiled_seeds()
    group, with its seeds."""
    if name.startswith("compiled"):
        seeds = compiled_seeds()[COMPILED_SEED_SLICES[int(name[len("compiled"):])]]
        return close_automorphisms(seeds), seeds
    instance = every_instance[name]
    return instance.auts, instance.config.automorphisms


@pytest.mark.parametrize("name", TABLE_CASES)
def test_compose_index_matches_compose(every_instance, name):
    auts, _ = table_case(every_instance, name)
    index = {a.signature: i for i, a in enumerate(auts)}
    for i, x in enumerate(auts):
        for j, y in enumerate(auts):
            assert auts.compose_index(i, j) == index[compose(x, y).signature], (x.name, y.name)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_inverse_index_inverts_on_both_sides(every_instance, name):
    auts, seeds = table_case(every_instance, name)
    ident = auts.identity_index
    assert auts.elements[ident].signature == identity_automorphism(auts.backend).signature
    elements = sample_elements(auts.backend)
    for i, a in enumerate(auts):
        inverse = auts.inverse_index[i]
        assert auts.compose_index(i, inverse) == ident == auts.compose_index(inverse, i)
        for g in elements:
            assert auts.elements[inverse].apply(a.apply(g)) == g, (a.name, g)
    for a in seeds:
        inverse = inverse_seed(a)
        for g in elements:
            assert a.apply(inverse.apply(g)) == g == inverse.apply(a.apply(g)), (a.name, g)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_closure_by_seeds_matches_closure_by_seeds_and_inverses(every_instance, name):
    auts, seeds = table_case(every_instance, name)
    signatures = [a.signature for a in auts]
    assert len(set(signatures)) == auts.order
    assert set(signatures) == oracle_closure(seeds)


def test_shear_closure_stops_at_the_same_radius():
    # words in the seeds of length r are the same set stepped from either side
    z2 = FreeAbelianGroup(2)
    shear = Automorphism(z2, "shear", [(1, 0), (1, 1)], [(1, 0), (-1, 1)]).verify()
    with pytest.raises(BudgetExceeded) as exc:
        close_automorphisms([shear], bound=10)
    assert (exc.value.budget, exc.value.radius) == (10, 9)


def compiles_while_building(config):
    """The instance `config` builds, and the image lists its backend
    compiles meanwhile.  Only calls on the backend itself count: the maps a
    direct product builds per factor are part of its one compile."""
    backend = config.backend
    compiled = []
    homomorphism = backend.homomorphism

    def counted(images):
        compiled.append(tuple(images))
        return homomorphism(images)

    backend.homomorphism = counted
    try:
        return build_instance(config), compiled
    finally:
        del backend.homomorphism


def coset_document(name, monkeypatch):
    """The config document of a coset instance: a shipped config, an n >= 3
    test instance, or the bench's generated coset of Sym(5)."""
    if name == "s5_coset":
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        return workloads.coset_config(5, tuple(range(5)))
    return PATHS[name]


@pytest.mark.parametrize("name", COSET + ["s5_coset"])
def test_each_distinct_automorphism_is_compiled_once(every_instance, monkeypatch, name):
    assert {n for n, i in every_instance.items() if i.auts is not None} == set(COSET)
    config = parse_config(coset_document(name, monkeypatch))
    instance, compiled = compiles_while_building(config)
    auts, seeds = instance.auts, config.automorphisms
    if name in every_instance:
        assert [a.signature for a in auts] == [a.signature for a in every_instance[name].auts]
    # a seed compiles its images, and its inverse images only when they differ
    seed_maps = sum(1 if a.inverse_images == a.images else 2 for a in seeds)
    # every other element but the identity once; a discarded duplicate never
    ident = identity_automorphism(auts.backend)
    others = [a.images for a in auts if a != ident and a not in seeds]
    assert len(compiled) == seed_maps + len(others)
    assert Counter(compiled[seed_maps:]) == Counter(others)
    if name in ("z2_swap", "s5_coset"):
        assert len(compiled) == 1


def guarded_products():
    """Direct products with an infinite factor and a finite factor without
    relators, each with an automorphism of every factor."""
    s3_tu = PermutationGroup(3, ["t", "u"], [[1, 0, 2], [1, 2, 0]])
    heis = DirectProduct([s3_tu, HeisenbergGroup()])
    t, u, a, b, c = map(heis.gen, range(5))
    sz = DirectProduct([s3_tu, FreeAbelianGroup(1, ["x"])])
    t, u, x = map(sz.gen, range(3))
    return [
        # breaks [a, b] = c, so a factor-by-factor compilation would be wrong
        Automorphism(heis, "f", [t, u, a, b, heis.inv(c)], [t, u, a, b, heis.inv(c)]),
        Automorphism(sz, "f", [t, u, sz.inv(x)], [t, u, sz.inv(x)]),
    ]


@pytest.mark.parametrize("index", range(2), ids=["s3-x-heisenberg", "s3-x-z"])
def test_verify_refuses_an_infinite_backend_without_relators(index):
    a = guarded_products()[index]
    assert a.backend.relators() is None and not a.backend.is_finite()
    with pytest.raises(NotAnAutomorphism, match=r"^'f': backend kind direct_product has no "
                       r"relator list and is not finite; cannot verify$"):
        a.verify()
    with pytest.raises(AttributeError):
        a.apply(a.backend.identity)


def test_finite_product_without_relators_walks_every_factor():
    # y -> x*y breaks y^2 = e in Z/4 x Z/2, yet on the generators the inverse
    # images x -> x, y -> x^-1*y pass the inverse check; the product has no
    # relators (S3 has none), so only the walk over the whole product sees it
    s3_tu = PermutationGroup(3, ["t", "u"], [[1, 0, 2], [1, 2, 0]])
    backend = DirectProduct([s3_tu, DirectProduct([CyclicGroup(4, ["x"]),
                                                   CyclicGroup(2, ["y"])])])
    t, u, x, y = map(backend.gen, range(4))
    a = Automorphism(backend, "f", [t, u, x, backend.mul(x, y)],
                     [t, u, x, backend.mul(backend.inv(x), y)])
    with pytest.raises(NotAnAutomorphism, match="^'f': images break multiplicativity at "):
        a.verify()


# ---------------------------------------------------------------------------
# free groups: signed-permutation maps and syllable keys


def signed_permutations(f):
    """Every automorphism g_i -> g_p(i)^s_i of f, with its inverse images."""
    k = f.rank
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            images = [f.evaluate(((perm[i], signs[i]),)) for i in range(k)]
            inverse = [None] * k
            for i in range(k):
                inverse[perm[i]] = f.evaluate(((i, signs[i]),))
            yield Automorphism(f, f"p{perm}s{signs}", images, inverse)


def random_words(f, rng, count=150):
    """Reduced words with exponents up to 4 in absolute value, and all their prefixes."""
    words = set()
    for _ in range(count):
        g = f.identity
        for _ in range(rng.randint(0, 8)):
            g = f.mul(g, f.power(f.gen(rng.randrange(f.rank)), rng.choice((1, 2, 4, -1, -3))))
        words.update(g[:i] for i in range(len(g) + 1))
    return sorted(words)


def assert_map_matches_oracle(f, images, words):
    image = f.homomorphism(images)
    for g in words:
        assert image(g) == f.evaluate(f.factor(g), images), (images, g)


@pytest.mark.parametrize("rank,count", [(2, 8), (3, 48)])
def test_signed_permutation_maps_match_oracle(rank, count):
    f = FreeGroup(rank)
    words = random_words(f, random.Random(rank))
    auts = [a.verify() for a in signed_permutations(f)]
    assert len(set(auts)) == count
    for a in auts:
        assert_map_matches_oracle(f, a.images, words)
    # the maps compose() compiles, and the group all of them make
    rng = random.Random(7)
    for a, b in (rng.sample(auts, 2) for _ in range(20)):
        ab = compose(a, b)
        assert [ab.apply(g) for g in words] == [a.apply(b.apply(g)) for g in words]
    closed = close_automorphisms(auts)
    assert closed.order == count
    assert_compiled_matches_oracle(f, closed)


def test_generator_images_compile_to_the_identity():
    f = FreeGroup(2)
    word = f.mul(f.gen(0), f.inv(f.gen(1)))
    assert f.homomorphism([f.gen(0), f.gen(1)])(word) is word


@pytest.mark.parametrize("images,generator", [
    ([((0, 1),), ((0, 1),)], "g2"),
    ([((0, 1),), ((0, -1),)], "g2"),
    ([((0, 2),), ((1, 1),)], "g1"),
    ([((1, 1), (0, 1)), ((1, 1),)], None),
], ids=["letters-repeat", "letters-repeat-signed", "power", "transvection"])
def test_other_images_take_the_reduction_path(images, generator):
    f = FreeGroup(2)
    images = list(map(f.evaluate, images))
    # g2*g1^-1*g2^-1*g1 folds to a word that only reduction can cancel
    words = random_words(f, random.Random(5)) + [f.evaluate(((1, 1), (0, -1), (1, -1), (0, 1)))]
    assert_map_matches_oracle(f, images, words)
    if generator is None:  # an automorphism that is no signed permutation
        Automorphism(f, "a", images, [f.evaluate(((1, -1), (0, 1))), f.gen(1)]).verify()
        return
    with pytest.raises(NotAnAutomorphism) as exc:
        Automorphism(f, "a", images, [f.gen(0), f.gen(1)]).verify()
    assert str(exc.value) == f"'a': inverse images do not invert on generator {generator}"


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_key_matches_the_flat_key(rank):
    f = FreeGroup(rank)
    words = random_words(f, random.Random(rank), count=60)
    assert_same_order(words, f.canonical_key, lambda g: flat_key(f.factor(g)))
    assert len(set(map(f.canonical_key, words))) == len(words)


def syllable_power(word, k):
    """word^k as a syllable sequence, reduced by the oracle."""
    return free_reduced((word if k >= 0 else syllable_inverse(word)) * abs(k), ())


def substituted(word, images):
    """The word with each letter replaced by its image word (syllables)."""
    return free_reduced(tuple(itertools.chain.from_iterable(
        syllable_power(images[letter], exp) for letter, exp in word)), ())


def random_syllables(rng, rank, most=6):
    """Up to `most` (letter, exp) pairs, equal letters side by side allowed."""
    return tuple((rng.randrange(rank), rng.choice((1, 2, 5, -1, -2, -5)))
                 for _ in range(rng.randint(0, most)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_letter_strings_match_the_syllable_oracle(rank):
    """Every letter-string operation of F_rank, read back through `factor`,
    against free reduction on syllables and against repeated `mul`."""
    f, rng = FreeGroup(rank), random.Random(100 + rank)
    words = [random_syllables(rng, rank) for _ in range(40)]
    # conjugates u c u^-1, whose powers keep u and u^-1 once: g2*g1^5*g2^-1 first
    words += [((1 % rank, 1), (0, 5), (1 % rank, -1))] + [
        (*u, *c, *syllable_inverse(u)) for u, c in
        ((random_syllables(rng, rank, 3), random_syllables(rng, rank, 2)) for _ in range(10))]
    elements = [f.evaluate(w) for w in words]
    for word, g in zip(words, elements):
        assert f.factor(g) == free_reduced(word, ())
        assert f.factor(f.inv(g)) == free_reduced(syllable_inverse(word), ())
        for k in range(-3, 4):
            repeated = functools.reduce(f.mul, [g if k > 0 else f.inv(g)] * abs(k), f.identity)
            assert f.factor(f.power(g, k)) == f.factor(repeated) == syllable_power(word, k)
    steps = [f.gen(i) for i in range(rank)] + [f.inv(f.gen(i)) for i in range(rank)] + [
        f.identity, *elements[:6]]
    step_words = [f.factor(h) for h in steps]
    expected = [free_reduced(f.factor(g), h) for g in elements for h in step_words]
    assert list(map(f.factor, f.products(elements, steps))) == expected
    assert [f.factor(f.mul(g, h)) for g in elements for h in steps] == expected
    # the three homomorphism paths: the identity, one translate, substitution
    letters = list(range(rank))
    rng.shuffle(letters)
    flips = [((letters[i], -1 if i == 0 else rng.choice((1, -1))),) for i in range(rank)]
    substitution = [((0, 1), (rank - 1, 2)), *flips[1:]]  # g1 -> g1^3 when rank is 1
    for images, path in (([((i, 1),) for i in range(rank)], "identity"),
                         (flips, "translate"), (substitution, "substitution")):
        image = f.homomorphism([f.evaluate(w) for w in images])
        assert image is groups._identity if path == "identity" else (
            isinstance(image, operator.methodcaller) == (path == "translate"))
        for word, g in zip(words, elements):
            assert f.factor(image(g)) == substituted(free_reduced(word, ()), images), path


def test_power_refuses_a_word_over_the_letter_limit():
    """A power is formed only when its reduced word has at most
    DEFAULT_BUDGET letters: k|c| + 2|u| for g = u c u^-1."""
    f = FreeGroup(2)
    g1, conjugate = f.gen(0), f.evaluate(((1, 1), (0, 1), (1, -1)))
    assert len(f.power(g1, -groups.DEFAULT_BUDGET)) == groups.DEFAULT_BUDGET
    assert len(f.power(conjugate, groups.DEFAULT_BUDGET - 2)) == groups.DEFAULT_BUDGET
    zf = DirectProduct([CyclicGroup(3, ["h"]), f])
    for power in (lambda: f.power(g1, groups.DEFAULT_BUDGET + 1),
                  lambda: f.power(conjugate, 1 - groups.DEFAULT_BUDGET),
                  lambda: zf.power((1, g1), 10**12)):
        with pytest.raises(ValidationError, match="letters; the limit is 1000000$"):
            power()


# ---------------------------------------------------------------------------
# free abelian groups: signed permutations of the basis compile to index maps


def random_vectors(rank, rng, count=200):
    return [tuple(rng.randint(-50, 50) for _ in range(rank)) for _ in range(count)]


def signed_permutation_images(z):
    """The images g_i -> s_i g_p(i) of every signed permutation of the basis of z."""
    k = z.rank
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            yield [z.power(z.gen(perm[i]), signs[i]) for i in range(k)]


# matrices that are no signed permutation, so they keep the linear map
OTHER_IMAGES = {
    1: [[(2,)], [(0,)]],
    2: [[(1, 1), (0, 1)], [(0, 1), (0, -1)], [(1, 0), (0, 2)], [(0, 0), (0, 1)]],
    3: [[(0, 1, 0), (0, 0, 1), (1, 1, 0)], [(1, 0, 0), (1, 0, 0), (0, 0, 1)]],
}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_abelian_maps_match_the_linear_map(rank):
    z = FreeAbelianGroup(rank)
    vectors = random_vectors(rank, random.Random(rank))
    for images in [*signed_permutation_images(z), *OTHER_IMAGES[rank]]:
        image = z.homomorphism(images)
        assert [image(g) for g in vectors] == [linear_map(images, g) for g in vectors], images


@pytest.mark.parametrize("name", ["z_pm1", "z2_swap", "z2_pm1", "z3_shift", "z2_dihedral"])
def test_free_abelian_instances_apply_index_maps(every_instance, name):
    auts = every_instance[name].auts
    z = auts.backend
    vectors = random_vectors(z.rank, random.Random(name))
    for a in auts:
        assert [a.apply(g) for g in vectors] == [linear_map(a.images, g) for g in vectors]
        # these groups permute the basis with no sign change: a bare itemgetter
        if name in ("z2_swap", "z3_shift"):
            assert isinstance(z.homomorphism(a.images), operator.itemgetter), a.name
