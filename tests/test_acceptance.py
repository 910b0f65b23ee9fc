"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Every check is exact (integer / Fraction arithmetic only) and timed
against the stated runtime cap.  The verdict lines are printed unbuffered
so they survive pytest's capture in the logged output.
"""

import itertools
import time

from mvgroups.cayley import ball, compare_generating_sets
from mvgroups.dynamics import bounds_check, iterate_dynamic, quadratic_bound_check
from mvgroups.groups import monoid_balls, orbit
from mvgroups.mvalued import NatGroup, check_axioms
from mvgroups.verify import example32, example46, lemma47, proof34, thm43

from oracles import word_ball, word_product


def verdict(capsys, num, ok, started, limit, detail):
    elapsed = time.perf_counter() - started
    line = (f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {detail} "
            f"[{elapsed:.2f}s < {limit}s]")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_01_ball_closed_form(instances, capsys):
    t0 = time.perf_counter()
    result = example32(instances["nat"], r_max=50)
    verdict(capsys, 1, result.ok, t0, 5,
            "|B(x,r)| = 1 + r + min(x,r) for all x,r <= 50")


def test_criterion_02_coset_equals_builtin(instances, capsys):
    t0 = time.perf_counter()
    X = instances["z_pm1"].X
    nat = NatGroup()
    ok = True
    for x in range(101):
        cx = X.project((x,))
        for y in range(101):
            lhs = sorted(X.canonical(e)[1][0] for e in X.mul(cx, X.project((y,))))
            if lhs != list(nat.mul(x, y)):
                ok = False
    verdict(capsys, 2, ok, t0, 5,
            "coset multiplication transports to the builtin group for x,y <= 100")


def test_criterion_03_axiom_suites(instances, capsys):
    t0 = time.perf_counter()
    checks = [
        ("nat", list(range(11))),
        ("s3_conj", instances["s3_conj"].X.carrier()),
        ("s3_doublecoset", instances["s3_doublecoset"].X.carrier()),
        ("z2_pm1", [instances["z2_pm1"].X.project((i, j))
                    for i in range(-2, 3) for j in range(-2, 3)]),
    ]
    ok = True
    for name, sample in checks:
        if not check_axioms(instances[name].X, sample).all_ok:
            ok = False
    negative = check_axioms(instances["nat_mutated"].X, list(range(11)))
    witnessed = (not negative.all_ok
                 and (negative.associativity_witness is not None
                      or negative.unit_witness is not None
                      or negative.inverse_witness is not None))
    verdict(capsys, 3, ok and witnessed, t0, 30,
            "axioms hold on four carriers; mutated control fails with a witness")


def test_criterion_04_sandwich_matrix(instances, capsys):
    t0 = time.perf_counter()
    # thm43 takes g = the first X generator: g1 or a on these four
    matrix = [("z_pm1", 8), ("z2_swap", 8), ("free2_swap", 10), ("heis_swap", 8)]
    ok = all(thm43(instances[name], r_max=r_max).ok for name, r_max in matrix)
    # g = c on s3_conj (whose first X generator is t), from every class
    s3 = instances["s3_conj"]
    c = s3.backend_element("c")
    ok = ok and all(bounds_check(s3.X, c, y, 8).ok for y in s3.X.carrier())
    verdict(capsys, 4, ok, t0, 60,
            "(1/n)|S+| <= xi_y <= |B+| on 5 instances; every start point on s3_conj")


def test_criterion_05_quadratic_bound(instances, capsys):
    t0 = time.perf_counter()
    nat = NatGroup()
    ok = True
    for x in (1, 2, 3, 5):
        report = quadratic_bound_check(nat, x, 200)
        if not report.ok:
            ok = False
    one = quadratic_bound_check(nat, 1, 200)
    closed_form = all(xi == r // 2 + 1 for r, xi, _ in one.rows)
    X = instances["z2_pm1"].X
    coset_report = quadratic_bound_check(X, X.project((1, 0)), 12)
    verdict(capsys, 5, ok and closed_form and coset_report.ok, t0, 10,
            "xi_x(r) <= r(r+1); xi_1(r) = r//2 + 1 exactly up to r=200")


def test_criterion_06_bounded_dynamics(instances, capsys):
    t0 = time.perf_counter()
    result = example46(instances["z3xF2_example46"], r_max=20)
    verdict(capsys, 6, result.ok, t0, 5,
            "torsion-direction dynamic stays bounded (max xi <= 2, classified bounded)")


def test_criterion_07_exponential_side(instances, capsys):
    t0 = time.perf_counter()
    inst = instances["free2_swap"]
    X, backend = inst.X, inst.backend
    gens = orbit(X.auts, backend.gens[0])  # {g1, g2}
    mb = monoid_balls(backend, gens, 10)
    spheres_ok = mb.sphere_sizes() == [2 ** r for r in range(11)]
    table = iterate_dynamic(X, X.project(backend.gens[0]), X.unit, 10)
    xi_ok = all(table.xi[r] >= 2 ** (r - 1) for r in range(1, 11))
    verdict(capsys, 7, spheres_ok and xi_ok, t0, 30,
            "|S+(e,r)| = 2^r and xi_e(r) >= 2^(r-1) for r <= 10")


def test_criterion_08_power_sphere_lemma(instances, capsys):
    t0 = time.perf_counter()
    ok = True
    total_pairs = 0
    for name in ("nat", "s3_conj", "s3_doublecoset", "z2_pm1"):
        result = lemma47(instances[name], r_max=12)
        if not result.ok:
            ok = False
        total_pairs += 50
    verdict(capsys, 8, ok and total_pairs == 200, t0, 60,
            "S*(x,r) vanishing persists (r <= 12); sphere addition on 200 decompositions")


def test_criterion_09_semidirect_comparison(instances, capsys):
    t0 = time.perf_counter()
    result = proof34(instances["heis_swap"], r_max=5)
    verdict(capsys, 9, result.ok, t0, 60,
            "|B_X(e,r)| <= |B_GA(e,r)| for r <= 5 on the nilpotent instance")


def test_criterion_10_growth_equivalence(instances, capsys):
    t0 = time.perf_counter()
    nat = NatGroup()
    report = compare_generating_sets(nat, [1], [1, 2], 5, 30)
    verdict(capsys, 10, report.ok and report.constant == 6, t0, 10,
            "|B(0, r//6)| <= |B'(5, r)| <= |B(0, 6r)| for r <= 30 with l = 6")


def test_criterion_11_bfs_vs_multiset_oracle(instances, capsys):
    t0 = time.perf_counter()
    ok = True
    cases = [
        (instances["nat"].X, instances["nat"].x_generators, [0, 1, 3]),
        (instances["s3_conj"].X, instances["s3_conj"].x_generators,
         instances["s3_conj"].X.carrier()),
    ]
    for X, gens, starts in cases:
        for x in starts:
            # balls: BFS union equals the union of expanded word products
            table = ball(X, gens, x, 4)
            if set(itertools.chain.from_iterable(table.sphere_sets)) != word_ball(X, gens, x, 4):
                ok = False
            # dynamics: per-step supports equal expanded power supports
            for z in gens:
                dyn = iterate_dynamic(X, z, x, 4)
                for r in range(5):
                    full = word_product(X, x, [z] * r)
                    if set(dyn.supports[r]) != set(full):
                        ok = False
    verdict(capsys, 11, ok, t0, 10,
            "support BFS agrees with full n^r multiset expansion for r <= 4")
