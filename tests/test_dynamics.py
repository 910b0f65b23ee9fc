from fractions import Fraction

import pytest

from mvgroups import dynamics, verify
from mvgroups.errors import (
    BudgetExceeded,
    ValidationError,
)
from mvgroups.dynamics import (
    bounds_check,
    classify_growth,
    iterate_dynamic,
    quadratic_bound_check,
)
from mvgroups.groups import Budget, PermutationGroup, monoid_balls
from mvgroups.mvalued import DoubleCosetGroup, NatGroup

from oracles import in_order, sorted_supports


NAT = NatGroup()


# ---------------------------------------------------------------------------
# iteration


def test_iterate_example():
    table = iterate_dynamic(NAT, 1, 0, 4)
    assert [sorted(s) for s in table.supports] == [[0], [1], [0, 2], [1, 3], [0, 2, 4]]
    assert table.xi == [1, 1, 2, 2, 3]


def test_iterate_unit_is_stationary():
    table = iterate_dynamic(NAT, 0, 7, 5)
    assert table.xi == [1] * 6
    assert all(s == (7,) for s in table.supports)


def test_iterate_radius_zero():
    table = iterate_dynamic(NAT, 3, 5, 0)
    assert table.supports == [(5,)] and table.xi == [1]


def test_iterate_budget():
    with pytest.raises(BudgetExceeded):
        iterate_dynamic(NAT, 1, 0, 30, budget=Budget(5))


def test_iterate_matches_stepwise_set_recursion():
    table = iterate_dynamic(NAT, 2, 3, 8)
    assert in_order(table.supports) == sorted_supports(NAT, 2, 3, 8)


# ---------------------------------------------------------------------------
# sandwich bounds for coset instances


def test_bounds_check_z_pm1(instances):
    inst = instances["z_pm1"]
    X = inst.X
    report = bounds_check(X, (1,), X.unit, 8)
    assert report.ok
    assert report.n == 2
    # first rows: (1/2)|S+| <= xi <= |B+| with S = {1, -1} in Z
    assert report.rows[0] == (0, Fraction(1, 2), 1, 1)
    assert report.rows[1] == (1, Fraction(1, 1), 1, 3)
    assert report.rows[2] == (2, Fraction(1, 1), 2, 5)


def test_bounds_check_orbit_generators(instances):
    inst = instances["z2_swap"]
    X = inst.X
    g = (1, 0)
    report = bounds_check(X, g, X.unit, 6)
    assert report.ok
    # the swap orbit of (1,0) is {(1,0), (0,1)}; monoid balls are the
    # lattice triangles of size (r+1)(r+2)/2
    assert report.monoid_table.ball_sizes == [
        (r + 1) * (r + 2) // 2 for r in range(7)]


def test_bounds_check_nontrivial_start(instances):
    inst = instances["z_pm1"]
    X = inst.X
    report = bounds_check(X, (1,), X.project((5,)), 10)
    assert report.ok


def counting_monoid_balls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return monoid_balls(*args, **kwargs)
    for module in (dynamics, verify):
        monkeypatch.setattr(module, "monoid_balls", counted)
    return calls


@pytest.mark.parametrize("name", ["z2_swap", "free2_swap", "s3_conj"])
def test_thm43_builds_one_monoid_ball_for_every_y(instances, monkeypatch, name):
    calls = counting_monoid_balls(monkeypatch)
    result = verify.thm43(instances[name], r_max=6)
    assert len(calls) == 1
    assert len(result.lines) == 4
    # the oracle: every y's bounds_check builds the ball itself, as the CLI's does
    monkeypatch.setattr(verify, "bounds_check", lambda X, g, y, r_max, budget, monoid:
                        bounds_check(X, g, y, r_max, budget=budget))
    assert verify.thm43(instances[name], r_max=6).lines == result.lines
    assert len(calls) == 1 + 1 + 4


# ---------------------------------------------------------------------------
# quadratic bound for involutive 2-valued groups


def test_quadratic_bound_nat_one():
    report = quadratic_bound_check(NAT, 1, 12)
    assert report.ok
    for r, xi, bound in report.rows:
        assert xi == r // 2 + 1
        assert bound == r * (r + 1)


def test_quadratic_bound_nat_various_bases():
    for x in (2, 3, 5):
        report = quadratic_bound_check(NAT, x, 10)
        assert report.ok


def test_quadratic_bound_needs_n_two():
    s3 = PermutationGroup(3, ["t", "c"], [[1, 0, 2], [1, 2, 0]])
    X = DoubleCosetGroup(s3, [(1, 2, 0)])  # |H| = 3
    with pytest.raises(ValidationError, match="^need a 2-valued group, got n = 3$"):
        quadratic_bound_check(X, X.unit, 4)


def test_quadratic_bound_needs_involution(instances):
    # in the free-group swap instance the class of g1 is not self-inverse
    inst = instances["free2_swap"]
    X = inst.X
    x = inst.element("g1")
    assert X.inv(x) != x
    with pytest.raises(ValidationError,
                       match=r"^inv\(g1\) != g1: group is not involutive$"):
        quadratic_bound_check(X, x, 4)


def test_quadratic_bound_rejects_zero_radius():
    with pytest.raises(ValidationError):
        quadratic_bound_check(NAT, 1, 0)


# ---------------------------------------------------------------------------
# classification heuristics


def test_classify_bounded():
    record = classify_growth([1, 2, 2, 2, 2, 2, 2, 2])
    assert record.kind == "bounded"
    assert record.heuristic


def test_classify_exponential():
    record = classify_growth([2 ** r for r in range(10)])
    assert record.kind == "empirically-exponential"
    assert abs(record.base - 2.0) < 0.3


def test_classify_polynomial_quadratic():
    record = classify_growth([r * r + 1 for r in range(20)])
    assert record.kind == "empirically-polynomial"
    assert abs(record.degree - 2.0) < 0.2


def test_classify_polynomial_linear():
    record = classify_growth([r + 1 for r in range(20)])
    assert record.kind == "empirically-polynomial"
    assert abs(record.degree - 1.0) < 0.2


def test_classify_inconclusive_on_decay():
    record = classify_growth([10, 9, 8, 7, 6, 5, 4, 3])
    assert record.kind == "inconclusive"


def test_classify_needs_six_rows():
    with pytest.raises(ValidationError, match="^need at least 6 rows, got 5$"):
        classify_growth([1, 2, 3, 4, 5])


def test_classify_rejects_nonpositive():
    with pytest.raises(ValidationError):
        classify_growth([1, 0, 1, 1, 1, 1])


def test_classify_ball_growth_of_builtin_is_linear():
    from mvgroups.cayley import ball
    table = ball(NAT, [1], 0, 30)
    record = classify_growth(table.ball_sizes)
    assert record.kind == "empirically-polynomial"
    assert abs(record.degree - 1.0) < 0.2
