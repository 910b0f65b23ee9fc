"""Named verification suites: one per headline claim the package reproduces.

Each suite runs an exact per-radius check and reports greppable one-line
verdicts; no verdict rests on a fitted curve.  The CLI `verify` subcommand
and the acceptance tests both call these functions.  Every suite takes only
(instance, r_max, budget): it reads its elements from the instance's X
generators, or samples them with a fixed seed, and caps each of its
enumerations with the ``Budget`` handle `budget`, under which each names
itself.  Each suite's default radius is written once, in `_SUITE_TABLE`.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from .cayley import ball, dynamic_supports, power_table, set_product
from .dynamics import bounds_check, quadratic_bound_check
from .errors import ValidationError
from .groups import Budget, SemidirectProduct, monoid_balls, orbit
from .mvalued import CosetGroup, NatGroup
from .wordspec import Instance

# fixed suite settings: a suite takes only (instance, r_max, budget)
_EXAMPLE32_X_MAX = 50
_THM43_EXTRA_Y = 3
_LEMMA47_PAIRS = 50
_LEMMA47_PAIR_R_MAX = 10
_EXAMPLE46_CAP = 2
_SEED = 0


class SuiteResult:
    """A suite's (ok, detail) verdict lines, in the order they were added."""

    __slots__ = ("suite", "lines")

    def __init__(self, suite: str):
        self.suite = suite
        self.lines: List[Tuple[bool, str]] = []

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.lines)

    def add(self, ok: bool, detail: str):
        self.lines.append((ok, detail))

    def render(self) -> str:
        return "\n".join(f"{'PASS' if ok else 'FAIL'} {self.suite} {detail}"
                         for ok, detail in self.lines)


def sample_elements(instance: Instance, limit: int = 32,
                    budget: Budget = Budget()) -> List[Any]:
    """Deterministic element sample: the full carrier if finite, else the
    unit and the next limit-1 elements nearest it: 0..limit-1 on builtin
    nat, the first `limit` of B(e, 2) in the canonical order on a coset.

    The nat sample, the carrier of a finite G or the ball overruns
    `budget` when it has more elements than the budget's limit."""
    X = instance.X
    if instance.backend is None:
        budget.check("the nat sample", limit)
        return list(range(limit))
    if instance.backend.is_finite():
        return X.carrier(budget)
    gens = instance.x_generators
    if not gens:
        raise ValidationError("instance declares no X generators to sample from")
    table = ball(X, gens, X.unit, 2, budget)
    return sorted(set().union(*table.sphere_sets), key=X.canonical)[:limit]


# ---------------------------------------------------------------------------
# suites


def example32(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Closed form |B(x, r)| = 1 + r + min(x, r) on the builtin 2-valued group."""
    result = SuiteResult("example32")
    X = instance.X
    if not isinstance(X, NatGroup):
        raise ValidationError("example32 requires a builtin_nat instance")
    failures = 0
    for x in range(_EXAMPLE32_X_MAX + 1):
        table = ball(X, instance.x_generators, x, r_max, budget)
        for r in range(r_max + 1):
            expected = 1 + r + min(x, r)
            if table.ball_sizes[r] != expected:
                failures += 1
                if failures <= 5:
                    result.add(False, f"r={r} x={x} |B|={table.ball_sizes[r]} expected={expected}")
    if failures == 0:
        result.add(True, f"r={r_max} closed form holds for all x<={_EXAMPLE32_X_MAX}")
    elif failures > 5:
        result.add(False, f"r={r_max} {failures} violations total")
    return result


def thm43(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Sandwich (1/n)|S+(e,r)| <= xi_y(r) <= |B+(e,r)| on a coset instance,
    for g the first X generator, at the unit and _THM43_EXTRA_Y sampled y."""
    result = SuiteResult("thm43")
    X = instance.X
    if not isinstance(X, CosetGroup):
        raise ValidationError("thm43 requires a coset instance")
    if not instance.config.x_generators:
        raise ValidationError("thm43 needs X_generators")
    g = instance.config.x_generators[0]

    ys = [X.unit]
    pool = [y for y in sample_elements(instance, budget=budget) if y != X.unit]
    rng = random.Random(_SEED)
    if pool:
        ys.extend(rng.sample(pool, min(_THM43_EXTRA_Y, len(pool))))

    monoid = monoid_balls(X.backend, orbit(X.auts, g), r_max, budget)
    for y in ys:
        report = bounds_check(X, g, y, r_max, budget=budget, monoid=monoid)
        bad = [r for (r, *_), v in zip(report.rows, report.verdicts) if not v]
        if bad:
            result.add(False, f"r={bad[0]} y={X.render(y)} sandwich violated")
        else:
            result.add(True, f"r={r_max} y={X.render(y)} sandwich holds")
    return result


def thm48(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Quadratic bound xi_x(r) <= r(r+1) for involutive 2-valued groups,
    for every X generator x."""
    result = SuiteResult("thm48")
    X = instance.X
    if not instance.x_generators:
        raise ValidationError("thm48 needs X_generators")
    for x in instance.x_generators:
        report = quadratic_bound_check(X, x, r_max, budget)
        if report.ok:
            margin = min(bound - xi for _, xi, bound in report.rows)
            result.add(True, f"r={r_max} x={X.render(x)} bound holds (min margin {margin})")
        else:
            r, xi, bound = next(row for row in report.rows if row[1] > row[2])
            result.add(False, f"r={r} x={X.render(x)} xi={xi} > {bound}")
    return result


def _sphere_vanishing_ok(pt) -> Optional[int]:
    """Radius of a violation of the once-empty-always-empty lemma, or None."""
    empty_at = None
    for r in range(1, pt.radius + 1):
        if not pt.sstar_sets[r]:
            if empty_at is None:
                empty_at = r
        elif empty_at is not None:
            return r
    return None


def lemma47(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Power-sphere lemma: (a) vanishing persists to r_max; (b) sphere
    addition, on _LEMMA47_PAIRS random decompositions of a radius
    <= min(r_max, _LEMMA47_PAIR_R_MAX)."""
    if r_max < 1:
        raise ValidationError("r_max must be >= 1")
    result = SuiteResult("lemma47")
    X = instance.X
    xs = sample_elements(instance, budget=budget)
    pair_r_max = min(r_max, _LEMMA47_PAIR_R_MAX)
    tables = {}
    bad_a = 0
    for x in xs:
        pt = power_table(X, x, r_max, budget)
        tables[x] = pt
        violation = _sphere_vanishing_ok(pt)
        if violation is not None:
            bad_a += 1
            result.add(False, f"r={violation} x={X.render(x)} sphere reappeared")
    if bad_a == 0:
        result.add(True, f"r={r_max} vanishing persists for {len(xs)} base points")

    rng = random.Random(_SEED)
    checked = 0
    bad_b = 0
    attempts = 0
    while checked < _LEMMA47_PAIRS and attempts < _LEMMA47_PAIRS * 20:
        attempts += 1
        x = rng.choice(xs)
        pt = tables[x]
        nonempty = [r for r in range(1, pair_r_max + 1) if pt.sstar_sets[r]]
        if not nonempty:
            continue
        k = rng.randint(1, 3)
        decomposition = [rng.choice(nonempty) for _ in range(k)]
        total = sum(decomposition)
        if total > pair_r_max:
            continue
        checked += 1
        lhs = set(pt.sstar_sets[total])
        rhs = pt.sstar_sets[decomposition[0]]
        for r_i in decomposition[1:]:
            rhs = set_product(X, rhs, pt.sstar_sets[r_i])
        if not lhs <= set(rhs):
            bad_b += 1
            result.add(False,
                       f"r={total} x={X.render(x)} decomposition={decomposition} "
                       "sphere not inside the product support")
    if bad_b == 0:
        result.add(True, f"r={pair_r_max} sphere addition holds "
                         f"on {checked} decompositions")
    return result


def example46(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Bounded dynamics over an exponential-growth backend: xi_e(r) <= 2
    for every r, for z the first X generator.

    The support at r+1 is a fixed map of the support at r, so a support
    that repeats within rows 0..r_max makes the rows periodic, and the cap
    checked on those rows holds for every r.  Without a repeat the verdict
    is unresolved.  Rows are drawn one at a time, and the first row r over
    the cap ends the suite with the verdict of rows 0..r."""
    result = SuiteResult("example46")
    X = instance.X
    if not instance.x_generators:
        raise ValidationError("example46 needs X_generators")
    if r_max < 0:
        raise ValidationError("radius must be >= 0")
    z, supports = instance.x_generators[0], []
    for r, support in zip(range(r_max + 1), dynamic_supports(X, z, X.unit, budget)):
        supports.append(support)
        if len(support) > _EXAMPLE46_CAP:
            break
    worst = max(map(len, supports))
    result.add(worst <= _EXAMPLE46_CAP, f"r={r} max xi={worst} (cap {_EXAMPLE46_CAP})")
    periodic = len(set(map(frozenset, supports))) < len(supports)
    result.add(periodic, f"r={r} classified {'bounded' if periodic else 'unresolved'}")
    return result


def proof34(instance: Instance, r_max: int, budget: Budget = Budget()) -> SuiteResult:
    """Coset ball sizes are dominated by the semidirect-product ball sizes."""
    result = SuiteResult("proof34")
    X = instance.X
    if not isinstance(X, CosetGroup):
        raise ValidationError("proof34 requires a coset instance")
    backend, auts = X.backend, X.auts
    S = instance.config.x_generators
    if not S:
        raise ValidationError("proof34 needs X_generators")

    ga = SemidirectProduct(backend, auts)
    ga_gens = [(s, i) for s in S for i in range(len(auts))]
    ga_table = monoid_balls(ga, ga_gens, r_max, budget)

    x_table = ball(X, instance.x_generators, X.unit, r_max, budget)

    ok = True
    for r in range(r_max + 1):
        if x_table.ball_sizes[r] > ga_table.ball_sizes[r]:
            ok = False
            result.add(False, f"r={r} |B_X|={x_table.ball_sizes[r]} > "
                              f"|B_GA|={ga_table.ball_sizes[r]}")
    if ok:
        result.add(True, f"r={r_max} |B_X| <= |B_GA| at every radius "
                         f"(final {x_table.ball_sizes[-1]} <= {ga_table.ball_sizes[-1]})")
    return result


# suite name -> (suite function, the criterion's stated default radius)
_SUITE_TABLE = {
    "example32": (example32, 50),
    "thm43": (thm43, 8),
    "thm48": (thm48, 12),
    "lemma47": (lemma47, 12),
    "example46": (example46, 20),
    "proof34": (proof34, 5),
}
SUITES = tuple(_SUITE_TABLE)


def run_suite(name: str, instance: Instance, r_max: Optional[int] = None,
              budget: Budget = Budget()) -> SuiteResult:
    """Dispatch by suite name with each criterion's stated default radius."""
    if name not in _SUITE_TABLE:
        raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite, default_radius = _SUITE_TABLE[name]
    return suite(instance, default_radius if r_max is None else r_max, budget)
