import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvgroups.errors import EmptyMultiSet
from mvgroups.multiset import MultiSet, flatten


def test_idempotent_input():
    assert MultiSet.of([5, 5]).entries == ((5, 2),)
    assert MultiSet.of([5, 5]).total_size == 2


def test_nat_example_pair():
    # 3 * 5 = [x+y, |x-y|] = [8, 2]
    ms = MultiSet.of([8, 2])
    assert ms.entries == ((2, 1), (8, 1))
    assert ms.support() == (2, 8)


def test_collection_order_irrelevant():
    assert MultiSet.of(["a", "b", "a"]) == MultiSet.of(["a", "a", "b"])
    assert MultiSet.of(["a", "b", "a"]).entries == (("a", 2), ("b", 1))


def test_empty_input_rejected():
    with pytest.raises(EmptyMultiSet):
        MultiSet.of([])
    with pytest.raises(EmptyMultiSet):
        flatten([])


def test_support_of_constant():
    assert MultiSet.of(["e", "e"]).support() == ("e",)


def test_support_bounded_by_total():
    ms = MultiSet.of(["x", "x", "x", "y"])
    assert ms.support() == ("x", "y")
    assert len(ms.support()) <= ms.total_size


def test_flatten_singletons():
    out = flatten([(MultiSet.of(["a"]), 1), (MultiSet.of(["a"]), 1)])
    assert out.entries == (("a", 2),)


def test_flatten_triple_product_oracle():
    # (1*1)*2 in the 2-valued group on N: 1*1 = [0, 2]; 0*2 = [2, 2], 2*2 = [0, 4].
    # Brute force over all ordered outcomes gives {0:1, 2:2, 4:1}.
    brute = []
    for w in (0, 2):
        brute.extend([w + 2, abs(w - 2)])
    assert sorted(brute) == [0, 2, 2, 4]
    out = flatten([(MultiSet.of([0 + 2, abs(0 - 2)]), 1),
                   (MultiSet.of([2 + 2, abs(2 - 2)]), 1)])
    assert out.entries == ((0, 1), (2, 2), (4, 1))


def test_flatten_outer_scaling():
    out = flatten([(MultiSet.of(["x", "x"]), 3)])
    assert out.entries == (("x", 6),)
    assert out.total_size == 6


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_make_permutation_invariant(items):
    assert MultiSet.of(items) == MultiSet.of(list(reversed(items)))
    assert MultiSet.of(items) == MultiSet.of(sorted(items))


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_support_is_dedup_sort(items):
    assert list(MultiSet.of(items).support()) == sorted(set(items))


@given(st.lists(st.tuples(st.lists(st.integers(), min_size=1, max_size=5),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=6))
def test_flatten_permutation_invariant(parts):
    pairs = [(MultiSet.of(items), outer) for items, outer in parts]
    assert flatten(pairs) == flatten(list(reversed(pairs)))
    total = sum(ms.total_size * outer for ms, outer in pairs)
    assert flatten(pairs).total_size == total
