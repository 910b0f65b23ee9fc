import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgroups.errors import BudgetExceeded, ValidationError
from mvgroups.groups import Budget
from mvgroups.cayley import (
    ball,
    compare_generating_sets,
    lengths,
    power_table,
    set_product,
)
from mvgroups.mvalued import NatGroup

from oracles import word_ball, word_product


NAT = NatGroup()
GENS = [1]


def ball_elements(table):
    """The set of elements of the ball, over all its spheres."""
    return set(itertools.chain.from_iterable(table.sphere_sets))


# ---------------------------------------------------------------------------
# balls and spheres


def test_ball_radius_zero():
    table = ball(NAT, GENS, 3, 0)
    assert table.ball_sizes == [1]
    assert table.sphere_sets == [(3,)]


def test_ball_from_unit():
    # B(0, r) = {0..r}: 0*1 = [1,1], then each frontier element k gives k+1
    table = ball(NAT, GENS, 0, 4)
    assert table.ball_sizes == [1, 2, 3, 4, 5]
    assert table.sphere_sets[1] == (1,)
    assert sorted(ball_elements(table)) == [0, 1, 2, 3, 4]


def test_ball_two_sided_frontier():
    # 3*1 = [2, 4]: the first sphere around 3 has both neighbours
    table = ball(NAT, GENS, 3, 2)
    assert table.sphere_sets[1] == (2, 4)
    assert table.sphere_sets[2] == (1, 5)
    assert table.ball_sizes == [1, 3, 5]


def test_ball_closed_form():
    # |B(x, r)| = 1 + r + min(x, r) for the builtin group with S = {1}
    for x in range(8):
        table = ball(NAT, GENS, x, 10)
        for r in range(11):
            assert table.ball_sizes[r] == 1 + r + min(x, r)


def test_ball_sizes_monotone_and_consistent():
    table = ball(NAT, [2, 3], 5, 6)
    assert table.ball_sizes == sorted(table.ball_sizes)
    assert table.ball_sizes == [sum(map(len, table.sphere_sets[: r + 1]))
                                for r in range(7)]


def test_ball_budget_enforced():
    with pytest.raises(BudgetExceeded):
        ball(NAT, GENS, 0, 50, budget=Budget(10))


def test_ball_rejects_empty_generating_set():
    with pytest.raises(ValidationError):
        ball(NAT, [], 0, 3)


def test_ball_matches_word_expansion_oracle():
    for gens in ([1], [1, 2], [2]):
        for x in (0, 1, 3):
            table = ball(NAT, gens, x, 4)
            assert ball_elements(table) == word_ball(NAT, gens, x, 4)


# ---------------------------------------------------------------------------
# length


def test_length_examples():
    assert lengths(NAT, GENS, [0])[0] == 0
    assert lengths(NAT, GENS, [5])[0] == 5
    assert lengths(NAT, [5], [10])[0] == 2  # 5*5 = [10, 0]
    assert lengths(NAT, [2, 5], [3])[0] == 2  # 5*2 hits |5-2| = 3


def test_length_unreachable_raises():
    # products of 2s stay even, so 1 is never reached
    with pytest.raises(ValidationError, match="^element 1 not reached within radius cap 20$"):
        lengths(NAT, [2], [1], cap=20)


def test_length_cap_too_small():
    with pytest.raises(ValidationError, match="^element 30 not reached within radius cap 5$"):
        lengths(NAT, GENS, [30], cap=5)


def test_length_consistent_with_ball_spheres():
    table = ball(NAT, [1, 4], NAT.unit, 6)
    for r, sphere in enumerate(table.sphere_sets):
        for v in sphere:
            assert lengths(NAT, [1, 4], [v])[0] == r


def test_lengths_one_search_matches_length():
    targets = [7, 0, 3, 12, 3]
    assert lengths(NAT, [2, 5], targets) == [lengths(NAT, [2, 5], [v])[0] for v in targets]
    # the search stops at the last target: B(0, 3) has 4 elements, B(0, 4) has 5
    assert lengths(NAT, [1], [3, 2], budget=Budget(4)) == [3, 2]


def test_lengths_names_the_first_unreached_target():
    with pytest.raises(ValidationError, match="^element 3 not reached within radius cap 9$"):
        lengths(NAT, [2], [4, 3, 1], cap=9)


# ---------------------------------------------------------------------------
# power tables


def test_power_table_of_one():
    # Set(1^{*r}) alternates parity: {1}, {0,2}, {1,3}, {0,2,4}, ...
    table = power_table(NAT, 1, 5)
    assert sorted(table.set_powers[1]) == [1]
    assert sorted(table.set_powers[2]) == [0, 2]
    assert sorted(table.set_powers[3]) == [1, 3]
    assert sorted(table.set_powers[4]) == [0, 2, 4]
    assert table.bstar_sizes == [0, 1, 3, 4, 5, 6]
    assert [len(s) for s in table.sstar_sets] == [0, 1, 2, 1, 1, 1]


def test_power_table_row_zero_empty():
    table = power_table(NAT, 3, 2)
    assert table.sstar_sets[0] == () and table.set_powers[0] == ()
    assert table.bstar_sizes[0] == 0


def test_power_table_of_unit():
    table = power_table(NAT, 0, 4)
    assert all(p in ((), (0,)) for p in table.set_powers)
    assert table.bstar_sizes == [0, 1, 1, 1, 1]


def test_power_table_matches_full_multiset_expansion():
    # x^{*r} = x * x * ... * x, expanded as a genuine multiset
    for x in (1, 2, 3):
        table = power_table(NAT, x, 5)
        for r in range(1, 6):
            full = word_product(NAT, x, [x] * (r - 1))
            assert len(full) == NAT.n ** (r - 1)
            assert set(table.set_powers[r]) == set(full)


def test_power_budget_enforced():
    with pytest.raises(BudgetExceeded):
        power_table(NAT, 1, 100, budget=Budget(5))


def test_set_product():
    assert sorted(set_product(NAT, [1], [1])) == [0, 2]
    assert sorted(set_product(NAT, [0, 2], [1])) == [1, 3]
    assert sorted(set_product(NAT, [3], [5, 7])) == [2, 4, 8, 10]


# ---------------------------------------------------------------------------
# generating-set comparison


def test_compare_identical_sets():
    report = compare_generating_sets(NAT, GENS, GENS, 0, 10)
    assert report.constant == 2  # 1 + l_S(1) with both directions length 1
    assert report.ok


def test_compare_spec_example():
    # S = {1}, S' = {1, 2}, y = 0, y' = 5: l = 1 + l_S(5) = 6
    report = compare_generating_sets(NAT, [1], [1, 2], 5, 10)
    assert report.constant == 6
    assert report.ok
    for r, lower, middle, upper in report.rows:
        assert lower <= middle <= upper
        # the wide balls are centred at the unit, where |B(0, r)| = 1 + r
        assert (lower, upper) == (1 + r // 6, 1 + 6 * r)


def test_compare_caps_cross_lengths_at_the_radius():
    # l_S(5) = 5: found within r_max = 5, not within r_max = 4
    assert compare_generating_sets(NAT, [1], [1, 2], 5, 5).constant == 6
    with pytest.raises(ValidationError, match="^element 5 not reached within radius cap 4$"):
        compare_generating_sets(NAT, [1], [1, 2], 5, 4)


def test_compare_rows_cover_all_radii():
    report = compare_generating_sets(NAT, [1], [2, 3], 0, 8)
    assert [row[0] for row in report.rows] == list(range(9))
    assert report.ok


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3,
                unique=True))
def test_ball_contains_center_and_grows(x, gens):
    table = ball(NAT, gens, x, 5)
    assert x in ball_elements(table)
    assert table.ball_sizes == sorted(table.ball_sizes)
    spheres = [set(s) for s in table.sphere_sets]
    for a, b in itertools.combinations(spheres, 2):
        assert not (a & b)
