"""The breadth-first ``layers`` primitive and the budget rule it defines.

The rule: no enumeration reaches more than `budget` distinct elements.
"""

import itertools

import pytest

from mvgroups.cayley import ball, length, power_table
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import BudgetExceeded
from mvgroups.groups import FreeGroup, layers, monoid_balls
from mvgroups.mvalued import NatGroup

NAT = NatGroup()


def z6_steps(u):
    return [(u + 3) % 6, (u + 2) % 6]


def test_layers_discovery_order_and_exhaustion():
    got = list(itertools.islice(layers([0], z6_steps), 7))
    # discovery order, not sorted order; after the first empty layer all are empty
    assert got == [[0], [3, 2], [5, 4], [1], [], [], []]


def test_layers_budget_names_budget_and_radius():
    assert sum(map(len, itertools.islice(layers([0], z6_steps, budget=6), 7))) == 6
    with pytest.raises(BudgetExceeded) as exc:
        list(itertools.islice(layers([0], z6_steps, budget=5), 7))
    assert (exc.value.budget, exc.value.radius) == (5, 3)
    assert "5" in str(exc.value) and "radius 3" in str(exc.value)


F2 = FreeGroup(2)

# name -> (run with a budget, distinct elements the run reaches)
ENUMERATIONS = {
    "ball": (lambda budget: ball(NAT, [1, 2], 3, 6, budget=budget),
             lambda table: table.ball_sizes[-1]),
    "length": (lambda budget: length(NAT, [2, 3], 9, budget=budget),
               lambda r: ball(NAT, [2, 3], NAT.unit, r).ball_sizes[-1]),
    "monoid_balls": (lambda budget: monoid_balls(F2, [F2.gen(0), F2.gen(1)], 4, budget=budget),
                     lambda table: table.ball_sizes[-1]),
    "power_table": (lambda budget: power_table(NAT, 1, 6, budget=budget),
                    lambda table: table.bstar_sizes[-1]),
    "iterate_dynamic": (lambda budget: iterate_dynamic(NAT, 2, 1, 6, budget=budget),
                        lambda table: len(set().union(*table.supports))),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_budget_caps_distinct_elements_reached(name):
    run, reached = ENUMERATIONS[name]
    n = reached(run(10**6))
    assert n > 1
    assert reached(run(n)) == n
    with pytest.raises(BudgetExceeded):
        run(n - 1)
