"""The breadth-first ``layers`` primitive and the budget rule it defines.

The rule: no enumeration reaches more than `budget` distinct elements.
``layers`` takes a layer map; ``closure`` wraps a per-element map lazily.
"""

import itertools
import pathlib

import pytest

from mvgroups import groups
from mvgroups.cayley import ball, lengths, power_table
from mvgroups.dynamics import iterate_dynamic
from mvgroups.errors import BudgetExceeded
from mvgroups.groups import FreeGroup, closure, layers, monoid_balls
from mvgroups.mvalued import NatGroup
from mvgroups.wordspec import load_instance

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
    assert sum(map(len, itertools.islice(layers([0], z6_steps, budget=6), 7))) == 6
    with pytest.raises(BudgetExceeded) as exc:
        list(itertools.islice(layers([0], z6_steps, budget=5), 7))
    assert (exc.value.budget, exc.value.radius) == (5, 3)
    assert "5" in str(exc.value) and "radius 3" in str(exc.value)


def test_closure_expands_lazily_and_stops_at_the_first_element_over_the_budget():
    expanded = []

    def successors(u):
        expanded.append(u)
        return [u + 1, u + 2]

    assert closure([0], lambda u: z6_steps([u])) == [0, 3, 2, 5, 4, 1]
    with pytest.raises(BudgetExceeded) as exc:
        closure([0], successors, budget=5)
    # layers [0], [1, 2], [3, 4]: the sixth element, 5, comes from 3, and 4
    # is never expanded
    assert (exc.value.radius, expanded) == (3, [0, 1, 2, 3])


def test_on_layer_reports_each_completed_layer_before_it_is_yielded():
    reports = []
    walk = layers([0], z6_steps, 4, lambda r, size, seconds: reports.append((r, size)))
    assert next(walk) == [0] and reports == [(0, 1)]
    assert next(walk) == [3, 2] and reports == [(0, 1), (1, 2)]
    with pytest.raises(BudgetExceeded):  # the fifth element, 4, overruns the budget
        next(walk)
    assert reports == [(0, 1), (1, 2)]


def test_layers_read_the_clock_only_for_on_layer(monkeypatch):
    reads = []
    perf_counter = groups.time.perf_counter
    monkeypatch.setattr(groups.time, "perf_counter", lambda: reads.append(1) or perf_counter())
    assert list(itertools.islice(layers([0], z6_steps), 7))[-1] == []
    assert reads == []
    seconds = []
    list(itertools.islice(layers([0], z6_steps, on_layer=lambda *report: seconds.append(
        report[2])), 7))
    assert len(reads) == 2 * 7 and min(seconds) >= 0  # each layer's start and end


def test_dynamic_supports_read_the_clock_only_for_on_layer(monkeypatch):
    """iterate_dynamic and power_table pass `on_layer` through: each row is
    reported with its support's size, power rows from r = 1."""
    reads = []
    perf_counter = groups.time.perf_counter
    monkeypatch.setattr(groups.time, "perf_counter", lambda: reads.append(1) or perf_counter())
    table, powers = iterate_dynamic(NAT, 2, 1, 6), power_table(NAT, 2, 6)
    assert reads == []
    rows = []
    assert iterate_dynamic(NAT, 2, 1, 6, on_layer=lambda *row: rows.append(row)) == table
    assert len(reads) == 2 * 7 and min(seconds for _, _, seconds in rows) >= 0
    assert [row[:2] for row in rows] == list(enumerate(table.xi))
    rows.clear()
    assert power_table(NAT, 2, 6, on_layer=lambda *row: rows.append(row)) == powers
    assert [row[:2] for row in rows] == [(r, len(powers.set_powers[r])) for r in range(1, 7)]


def test_budget_raise_comes_after_at_most_one_layer_of_candidates():
    """A batched layer map forms the candidates of the layer that goes over
    the budget, and no more: every earlier batch is one sphere times the
    twisted steps, so at most budget x |steps| elements reach project_all
    in the last one."""
    instance = load_instance(CONFIGS / "z2_swap.json")
    X, gens = instance.X, instance.x_generators
    steps = {t(s) for s in gens for t in X.twists}
    spheres = ball(X, gens, X.unit, 30).sphere_sizes()
    batches = []
    project_all = X.project_all
    X.project_all = lambda gs: batches.append(len(gs)) or project_all(gs)
    with pytest.raises(BudgetExceeded) as exc:
        ball(X, gens, X.unit, 40, budget=1000)
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
