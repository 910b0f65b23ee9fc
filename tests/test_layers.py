"""The breadth-first ``layers`` primitive and the budget rule it defines.

The rule: no enumeration reaches more than `budget` distinct elements.
``layers`` takes a layer map; ``closure`` wraps a per-element map lazily.
"""

import itertools
import pathlib
import time

import pytest

from mvgroups import cayley
from mvgroups.cayley import ball, lengths, power_table
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import BudgetExceeded
from mvgroups.groups import Budget, FreeGroup, closure, layers, monoid_balls
from mvgroups.mvalued import NatGroup
from mvgroups.wordspec import load_instance
from oracles import twisted_steps

NAT = NatGroup()
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def z6_steps(layer):
    """The layer map of u -> u + 3, u + 2 mod 6: element-major, then step."""
    return [v for u in layer for v in ((u + 3) % 6, (u + 2) % 6)]


def test_layers_discovery_order_and_exhaustion():
    got = list(itertools.islice(layers([0], z6_steps), 7))
    # discovery order, not sorted order; after the first empty layer all are empty
    assert got == [[0], [3, 2], [5, 4], [1], [], [], []]


def test_layers_budget_names_budget_and_radius():
    assert sum(map(len, itertools.islice(layers([0], z6_steps, budget=Budget(6)), 7))) == 6
    with pytest.raises(BudgetExceeded) as exc:
        list(itertools.islice(layers([0], z6_steps, budget=Budget(5)), 7))
    assert (exc.value.budget, exc.value.radius) == (5, 3)
    assert "5" in str(exc.value) and "radius 3" in str(exc.value)


def test_closure_expands_lazily_and_stops_at_the_first_element_over_the_budget():
    expanded = []

    def successors(u):
        expanded.append(u)
        return [u + 1, u + 2]

    assert list(closure([0], lambda u: z6_steps([u]))) == [0, 3, 2, 5, 4, 1]
    # a draw expands only the layers before the element it reads
    assert list(itertools.islice(closure([0], successors), 3)) == [0, 1, 2]
    assert expanded == [0]
    expanded.clear()
    with pytest.raises(BudgetExceeded) as exc:
        list(closure([0], successors, budget=Budget(5)))
    # layers [0], [1, 2], [3, 4]: the sixth element, 5, comes from 3, and 4
    # is never expanded
    assert (exc.value.radius, expanded) == (3, [0, 1, 2, 3])


def test_on_layer_reports_each_completed_layer_before_it_is_yielded():
    reports = []
    walk = layers([0], z6_steps, Budget(4, lambda name, r, size: reports.append((r, size))))
    assert next(walk) == [0] and reports == [(0, 1)]
    assert next(walk) == [3, 2] and reports == [(0, 1), (1, 2)]
    with pytest.raises(BudgetExceeded):  # the fifth element, 4, overruns the budget
        next(walk)
    assert reports == [(0, 1), (1, 2)]


def count_clock_reads(monkeypatch):
    """Every read of `time.perf_counter`, `time.monotonic` or `time.time`,
    by any module, appended to the returned list."""
    reads = []
    for name in ("perf_counter", "monotonic", "time"):
        clock = getattr(time, name)
        monkeypatch.setattr(time, name, lambda clock=clock: reads.append(1) or clock())
    return reads


def test_layers_read_the_clock_only_for_on_layer(monkeypatch):
    """The walk reads no clock, with or without the budget's observer,
    which gets (name, radius, size) of each layer."""
    reads = count_clock_reads(monkeypatch)
    assert list(itertools.islice(layers([0], z6_steps), 7))[-1] == []
    reports = []
    list(itertools.islice(layers([0], z6_steps, Budget(observer=lambda *report: reports.append(
        report)), "the walk"), 7))
    assert reads == []
    assert reports == [("the walk", r, size) for r, size in
                       enumerate([1, 2, 2, 1, 0, 0, 0])]


def test_dynamic_supports_read_the_clock_only_for_on_layer(monkeypatch):
    """iterate_dynamic and power_table report to the budget's observer, reading no
    clock: each row is reported with its support's size, power rows from
    r = 1."""
    reads = count_clock_reads(monkeypatch)
    table, powers = iterate_dynamic(NAT, 2, 1, 6), power_table(NAT, 2, 6)
    rows = []
    budget = Budget(observer=lambda *row: rows.append(row))
    assert iterate_dynamic(NAT, 2, 1, 6, budget) == table
    assert rows == [(cayley.SUPPORTS, r, xi) for r, xi in enumerate(table.xi)]
    rows.clear()
    assert power_table(NAT, 2, 6, budget) == powers
    assert rows == [(cayley.POWERS, r, len(powers.set_powers[r])) for r in range(1, 7)]
    assert reads == []


def test_budget_raise_comes_after_at_most_one_layer_of_candidates():
    """A batched layer map forms the candidates of the layer that goes over
    the budget, and no more: every earlier batch is one sphere times the
    twisted steps, so at most budget x |steps| elements reach project_all
    in the last one."""
    instance = load_instance(CONFIGS / "z2_swap.json")
    X, gens = instance.X, instance.x_generators
    steps = set(twisted_steps(X, gens))
    spheres = ball(X, gens, X.unit, 30).sphere_sizes()
    batches = []
    project_all = X.project_all
    X.project_all = lambda gs: batches.append(len(gs)) or project_all(gs)
    with pytest.raises(BudgetExceeded) as exc:
        ball(X, gens, X.unit, 40, budget=Budget(1000))
    assert exc.value.radius == 31
    assert batches == [len(steps) * size for size in spheres]
    assert sum(spheres) <= 1000 and batches[-1] <= 1000 * len(steps)


F2 = FreeGroup(2)

# name -> (run with a budget, distinct elements the run reaches)
ENUMERATIONS = {
    "ball": (lambda budget: ball(NAT, [1, 2], 3, 6, budget=budget),
             lambda table: table.ball_sizes[-1]),
    "lengths": (lambda budget: lengths(NAT, [2, 3], [9], budget=budget),
                lambda found: ball(NAT, [2, 3], NAT.unit, found[0]).ball_sizes[-1]),
    "monoid_balls": (lambda budget: monoid_balls(F2, [F2.gens[0], F2.gens[1]], 4, budget=budget),
                     lambda table: table.ball_sizes[-1]),
    "power_table": (lambda budget: power_table(NAT, 1, 6, budget=budget),
                    lambda table: table.bstar_sizes[-1]),
    "iterate_dynamic": (lambda budget: iterate_dynamic(NAT, 2, 1, 6, budget=budget),
                        lambda table: len(set().union(*table.supports))),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_budget_caps_distinct_elements_reached(name):
    run, reached = ENUMERATIONS[name]
    n = reached(run(Budget()))
    assert n > 1
    assert reached(run(Budget(n))) == n
    with pytest.raises(BudgetExceeded):
        run(Budget(n - 1))
