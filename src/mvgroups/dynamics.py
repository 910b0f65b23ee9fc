"""n-valued dynamics T_z and their growth functions.

T_z sends y to the n-multiset y * z, a sorted n-tuple; the growth
function xi_y(r) is the number of distinct elements in T_z^r(y).  The supports come from
``cayley.dynamic_supports``, the un-pruned iteration that ``power_table``
shares, under the same budget rule as every enumeration.  For coset groups
the sandwich (1/n)|S+(e, r)| <= xi_y(r) <= |B+(e, r)| relates xi to BFS
balls in the submonoid of G generated by the A-orbit of g, and that is
exactly what ``bounds_check`` computes on both sides.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ValidationError
from .groups import Budget, GrowthTable, monoid_balls, orbit
from .cayley import dynamic_supports, power_table
from .mvalued import CosetGroup, MvGroup


class DynamicsTable(NamedTuple):
    """Supports of T_z^r(y), each unordered, and their sizes xi_y(r), rows
    0..radius."""

    z: Any
    y: Any
    radius: int
    supports: List[Tuple[Any, ...]]
    xi: List[int]


def iterate_dynamic(X: MvGroup, z, y, radius: int, budget: Budget = Budget()) -> DynamicsTable:
    """Rows 0..radius of ``dynamic_supports``, which reports each row."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    supports = list(itertools.islice(dynamic_supports(X, z, y, budget), radius + 1))
    return DynamicsTable(z, y, radius, supports, [len(s) for s in supports])


class BoundsReport(NamedTuple):
    """Per-radius sandwich (1/n)|S+| <= xi <= |B+| with verdicts."""

    n: int
    rows: List[Tuple[int, Fraction, int, int]]  # (r, lower, xi, upper)
    verdicts: List[bool]
    monoid_table: GrowthTable
    dynamics_table: DynamicsTable

    @property
    def ok(self) -> bool:
        return all(self.verdicts)


def bounds_check(X: CosetGroup, g, y, r_max: int, budget: Budget = Budget(),
                 monoid: Optional[GrowthTable] = None) -> BoundsReport:
    """Monoid-ball sandwich for z = pi(g): monoid of the A-orbit of g vs xi_y.
    `monoid`, if given, is that monoid's table to radius r_max, which no y
    changes."""
    mb = monoid or monoid_balls(X.backend, orbit(X.auts, g), r_max, budget)
    dt = iterate_dynamic(X, X.project(g), y, r_max, budget)
    rows = [(r, Fraction(sphere, X.n), xi, upper) for r, (sphere, xi, upper)
            in enumerate(zip(mb.sphere_sizes(), dt.xi, mb.ball_sizes))]
    verdicts = [lower <= xi <= upper for _, lower, xi, upper in rows]
    return BoundsReport(X.n, rows, verdicts, mb, dt)


class QuadraticBoundReport(NamedTuple):
    """xi_x(r) <= r(r+1) for an involutive 2-valued group, with margins."""

    rows: List[Tuple[int, int, int]]  # (r, xi, bound)

    @property
    def ok(self) -> bool:
        return all(xi <= bound for _, xi, bound in self.rows)


def quadratic_bound_check(X: MvGroup, x, r_max: int,
                          budget: Budget = Budget()) -> QuadraticBoundReport:
    """Check xi_x(r) = |Set(x^{*r})| <= r(r+1) for 1 <= r <= r_max.

    Requires n = 2 and inv = id; the involution condition is checked on
    every element the power iteration visits.
    """
    if r_max < 1:
        raise ValidationError("r_max must be >= 1")
    if X.n != 2:
        raise ValidationError(f"need a 2-valued group, got n = {X.n}")
    pt = power_table(X, x, r_max, budget)
    for a in sorted({x}.union(*pt.set_powers), key=X.canonical):
        if X.inv(a) != a:
            raise ValidationError(
                f"inv({X.render(a)}) != {X.render(a)}: group is not involutive")
    rows = [(r, len(pt.set_powers[r]), r * (r + 1)) for r in range(1, r_max + 1)]
    return QuadraticBoundReport(rows)


# ---------------------------------------------------------------------------
# empirical classification


class ClassificationRecord(NamedTuple):
    """Heuristic growth verdict; never a proof (the caveat flag is always set)."""

    kind: str  # bounded | empirically-polynomial | empirically-exponential | inconclusive
    degree: Optional[float] = None
    base: Optional[float] = None
    heuristic: bool = True
    detail: str = ""


# the least table length the classifier accepts
CLASSIFY_MIN_ROWS = 6
# exponential verdict needs every one of the last few successive ratios
# to clear this factor; tuned for desk-scale radii
EXPONENTIAL_RATIO_THRESHOLD = 1.3
RATIO_WINDOW = 5


def classify_growth(values: Sequence[int]) -> ClassificationRecord:
    """Classify a table of sizes indexed by radius 0..len-1."""
    values = list(values)
    if len(values) < CLASSIFY_MIN_ROWS:
        raise ValidationError(f"need at least {CLASSIFY_MIN_ROWS} rows, got {len(values)}")
    if any(v < 1 for v in values):
        raise ValidationError("table sizes must be positive")

    tail = values[-RATIO_WINDOW:]
    if len(set(tail)) == 1:
        return ClassificationRecord("bounded", detail=f"last {RATIO_WINDOW} rows = {tail[0]}")

    ratios = [values[i + 1] / values[i]
              for i in range(len(values) - RATIO_WINDOW, len(values) - 1)]
    if min(ratios) >= EXPONENTIAL_RATIO_THRESHOLD:
        base = math.exp(sum(math.log(q) for q in ratios) / len(ratios))
        return ClassificationRecord(
            "empirically-exponential", base=base,
            detail=f"min successive ratio {min(ratios):.3f} over last {RATIO_WINDOW} rows")

    # least-squares fit of log size against log radius over the last two thirds
    start = max(1, len(values) - (2 * len(values)) // 3)
    xs = [math.log(r) for r in range(start, len(values)) if r >= 1]
    ys = [math.log(values[r]) for r in range(start, len(values)) if r >= 1]
    if len(xs) < 2 or len(set(xs)) < 2:
        return ClassificationRecord("inconclusive", detail="too few distinct radii for a fit")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((a - mean_x) ** 2 for a in xs)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    slope = sxy / sxx
    if slope < 0:
        return ClassificationRecord("inconclusive", detail=f"negative fit slope {slope:.3f}")
    return ClassificationRecord(
        "empirically-polynomial", degree=slope,
        detail=f"log-log fit over radii {start}..{len(values) - 1}")

