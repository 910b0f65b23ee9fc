from hypothesis import given
from hypothesis import strategies as st

from mvgroups.multiset import flatten
from mvgroups.mvalued import NatGroup


def test_idempotent_input():
    assert flatten([(5, 5)]) == (5, 5)  # repeats are kept, not merged


def test_nat_example_pair():
    # 3 * 5 = [x+y, |x-y|] = [8, 2], sorted
    assert NatGroup().mul(3, 5) == (2, 8)
    assert flatten([(8, 2)]) == (2, 8)


def test_collection_order_irrelevant():
    assert flatten([("a", "b", "a")]) == flatten([("a", "a", "b")]) == ("a", "a", "b")


def test_support_of_constant():
    # x * 0 = [x, x]: the generic step yields both values, its support is {x}
    X = NatGroup()
    assert X.mul(4, 0) == (4, 4)
    assert X.step([0])([4]) == [4, 4]
    assert set(X.step([0])([4])) == {4}
    # a layer map: element-major, then generator, then value
    assert X.step([0, 1])([4, 2]) == [4, 4, 3, 5, 2, 2, 1, 3]


def test_support_bounded_by_total():
    X = NatGroup()
    for x in range(6):
        for y in range(6):
            assert len(set(X.mul(x, y))) <= len(X.mul(x, y)) == X.n


def test_flatten_singletons():
    assert flatten([("a",), ("a",)]) == ("a", "a")


def test_flatten_triple_product_oracle():
    # (1*1)*2 in the 2-valued group on N: 1*1 = [0, 2]; 0*2 = [2, 2], 2*2 = [0, 4].
    # Brute force over all ordered outcomes gives {0:1, 2:2, 4:1}.
    brute = []
    for w in (0, 2):
        brute.extend([w + 2, abs(w - 2)])
    assert sorted(brute) == [0, 2, 2, 4]
    out = flatten([(0 + 2, abs(0 - 2)), (2 + 2, abs(2 - 2))])
    assert out == (0, 2, 2, 4)


def test_flatten_outer_scaling():
    # a product met m times contributes its values m times
    assert flatten([("x", "x")] * 3) == ("x",) * 6


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_make_permutation_invariant(items):
    assert flatten([items]) == flatten([list(reversed(items))])
    assert flatten([items]) == tuple(sorted(items))


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_support_is_dedup_sort(items):
    assert list(dict.fromkeys(flatten([items]))) == sorted(set(items))


@given(st.lists(st.lists(st.integers(), min_size=1, max_size=5), min_size=1, max_size=6))
def test_flatten_permutation_invariant(parts):
    parts = [tuple(p) for p in parts]
    assert flatten(parts) == flatten(list(reversed(parts)))
    assert len(flatten(parts)) == sum(len(p) for p in parts)
