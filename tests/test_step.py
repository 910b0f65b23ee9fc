"""Twisted-step expansion against the generic expansion it replaces.

Every Cayley-graph walk expands through ``X.step(gens)``.  On an
OrbitGroup that is one backend product and one projection per
(element, twisted generator) pair; the base-class ``MvGroup.step``
builds each product ``X.mul(u, s)`` and is kept as the oracle.  Balls,
lengths, dynamics supports and set products must agree on every coset and
double-coset config, from several centres.  The coset balls are also
checked against the G-side identity

    B_X(x, r) = pi(x_rep * B+_G(e, r; A.S)),

the monoid ball over the A-orbits of the generators (Buchstaber's coset
construction), which is a test oracle here and not a code path.
"""

import copy
import functools
import itertools
import json
import pathlib

import pytest

from mvgroups.cayley import ball, dynamic_supports, lengths, set_product
from mvgroups.groups import monoid_balls, orbit
from mvgroups.mvalued import CosetGroup, MvGroup

ROOT = pathlib.Path(__file__).resolve().parent.parent
MV_KINDS = {p.stem: json.loads(p.read_text())["mv"]["kind"]
            for p in [*(ROOT / "configs").glob("*.json"),
                      *(ROOT / "tests" / "instances").glob("*.json")]}
ORBIT_CONFIGS = sorted(name for name, kind in MV_KINDS.items()
                       if kind in ("coset", "double_coset"))
COSET_CONFIGS = [name for name in ORBIT_CONFIGS if MV_KINDS[name] == "coset"]
RADIUS = 4


def generic(X):
    """A copy of X that expands through the base-class MvGroup.step."""
    Y = copy.copy(X)
    Y.step = functools.partial(MvGroup.step, Y)
    return Y


def centres(X, gens):
    """The unit, each generator, and the last class of each sphere of radius 1-3."""
    spheres = ball(generic(X), gens, X.unit, 3).sphere_sets
    return list(dict.fromkeys([X.unit, *gens, *(sphere[-1] for sphere in spheres if sphere)]))


def test_every_orbit_config_is_covered():
    assert len(ORBIT_CONFIGS) == 11
    assert {"f3_shift", "z2_dihedral", "z3_shift", "s3_doublecoset"} <= set(ORBIT_CONFIGS)
    assert "s3_doublecoset" not in COSET_CONFIGS


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_balls_and_lengths_match_the_generic_step(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    Y = generic(X)
    for x in centres(X, gens):
        table = ball(X, gens, x, RADIUS)
        assert table == ball(Y, gens, x, RADIUS), (name, X.render(x))
    targets = ball(X, gens, X.unit, RADIUS).ball_elements()
    assert lengths(X, gens, targets, RADIUS) == lengths(Y, gens, targets, RADIUS)


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_dynamics_and_set_products_match_the_generic_step(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    Y = generic(X)
    starts = centres(X, gens)
    for z, y in itertools.product(gens[:2], starts):
        fast = list(itertools.islice(dynamic_supports(X, z, y), RADIUS + 1))
        assert fast == list(itertools.islice(dynamic_supports(Y, z, y), RADIUS + 1))
    left = ball(X, gens, X.unit, 2).ball_elements()
    for right in (starts, gens, [X.unit]):
        assert set_product(X, left, right) == set_product(Y, left, right)
    assert set_product(X, left, []) == set_product(Y, left, []) == ()


@pytest.mark.parametrize("name", COSET_CONFIGS)
def test_coset_ball_is_the_projected_monoid_ball(every_instance, name):
    X, gens = every_instance[name].X, every_instance[name].x_generators
    assert isinstance(X, CosetGroup)
    twisted = sorted(set().union(*(orbit(X.auts, s[1]) for s in gens)),
                     key=X.backend.canonical_key)
    monoid = monoid_balls(X.backend, twisted, RADIUS)
    for x in centres(X, gens):
        table = ball(X, gens, x, RADIUS)
        reached = set()
        for r in range(RADIUS + 1):
            reached.update(X.project(X.backend.mul(x[1], g)) for g in monoid.sphere_sets[r])
            assert reached == set(itertools.chain(*table.sphere_sets[:r + 1])), (name, r)


def test_z2_swap_ball_projects_once_per_node_and_twisted_step(instances):
    X, gens = instances["z2_swap"].X, instances["z2_swap"].x_generators
    # four X-generators in two pairs of equal classes, two twists each: four
    # distinct steps, where building each product makes eight projections
    steps = set().union(*(orbit(X.auts, s[1]) for s in gens))
    assert (len(gens), X.n, len(steps)) == (4, 2, 4)
    Y = copy.copy(X)
    calls = []

    def project(g):
        calls.append(g)
        return X.project(g)

    Y.project = project
    x = X.project((2, -1))
    for r in (0, 1, 5, 12):
        calls.clear()
        table = ball(Y, gens, x, r)
        assert table == ball(X, gens, x, r)
        expanded = table.ball_sizes[r - 1] if r else 0
        assert len(calls) == len(steps) * expanded, r
        assert set(calls) == {X.backend.mul(u[1], t) for u in itertools.chain(
            *table.sphere_sets[:r]) for t in steps}
