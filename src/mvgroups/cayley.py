"""Cayley-graph exploration of an n-valued group.

Balls and lengths are the ``layers`` of support expansion: layer i+1 is
the set of values of mul(u, s) over layer-i elements u and generators s,
minus everything already reached.  The empty product is admitted, so x
itself is in B(x, r) for every r (this is what makes the closed form
|B(x, r)| = 1 + r + min(x, r) of the builtin 2-valued group come out
right at small radii).

Every walk here (balls, lengths, dynamics supports, set products)
expands through ``X.step(gens)``, a whole layer at a time.  A coset or
double-coset group twists its generators once per walk and forms a
layer's (element, twisted generator) products in one ``products`` batch,
without building the sorted product, and projects them in one batch: a
coset group folds each product's orbit minimum, itself a G-element, by
compare-select and files none, calling each automorphism's compiled
batch map once on the whole batch (``Automorphism.apply`` is that map's
batch of one, for scalar callers), and a double coset group looks each
up in its partition.  Z^k and the Heisenberg group form the products in
one list display each, a free group concatenates at the seam, and a direct
product runs each factor's batch on its column.  The budget still counts
classes.

Power supports are the iterates of T_x from x (``dynamic_supports``), which
are not pruned: Set(x^{*r}) may contain elements of earlier powers.
Every enumeration here takes the command's ``Budget`` and names itself to
it: it overruns once more than the budget's limit of distinct elements
have been reached, and reports each layer to the budget's observer under
its name.  No walk reads a clock: ``--stats`` in the CLI stamps the
reports of the walk its command prints.

No walk compares elements: spheres keep discovery order, and supports and
set products are unordered tuples, since the growth functions count them.
The CLI sorts a set into the canonical order, by ``X.canonical``, only
where it prints it.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import ValidationError
from .groups import Budget, GrowthTable, growth_table, layers
from .mvalued import MvGroup

# the names the walks here report and overrun under
BALL, LENGTHS, SUPPORTS, POWERS = ("the ball of X", "the length search of X",
                                   "the supports of T_z", "the power supports of x")


class PowerTable(NamedTuple):
    """Cumulative power supports B*(x, r) and their spheres S*(x, r).

    Row 0 is empty by convention; ``set_powers[r]`` is Set(x^{*r}) for
    r >= 1 (index 0 unused, kept as an empty tuple).  Rows are unordered.
    """

    base: Any
    radius: int
    sstar_sets: List[Tuple[Any, ...]]
    bstar_sizes: List[int]
    set_powers: List[Tuple[Any, ...]]


def ball(X: MvGroup, gens: Sequence[Any], x, radius: int,
         budget: Budget = Budget()) -> GrowthTable:
    """B(x, 0..radius) via support BFS; S(x, 0) = {x}, and each sphere in
    the order ``layers`` discovers it, which reports each sphere as BALL."""
    if not gens:
        raise ValidationError("ball BFS needs a nonempty generating set")
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    return growth_table(x, radius, layers([x], X.step(gens), budget, BALL))


def lengths(X: MvGroup, gens: Sequence[Any], targets: Sequence[Any], cap: int = 64,
            budget: Budget = Budget()) -> List[int]:
    """The length of each target, from one BFS: the least m with the target
    in the support of some m-fold generator product.

    The unit has length 0 (empty product).  Raises ValidationError
    naming the first target not reached within the radius cap.
    """
    found, wanted = {}, set(targets)
    spheres = layers([X.unit], X.step(gens), budget, LENGTHS)
    for r, layer in enumerate(itertools.islice(spheres, cap + 1)):
        found.update(dict.fromkeys(wanted.intersection(layer), r))
        wanted.difference_update(found)
        if not wanted or not layer:
            break
    for x in targets:
        if x not in found:
            raise ValidationError(
                f"element {X.render(x)} not reached within radius cap {cap}")
    return [found[x] for x in targets]


def dynamic_supports(X: MvGroup, z, y, budget: Budget = Budget(), name: str = SUPPORTS,
                     first: int = 0) -> Iterator[Tuple[Any, ...]]:
    """Set(T_z^r(y)) for r = 0, 1, ..., each an unordered tuple: T_z sends
    u to u * z.

    Unlike ``layers`` nothing is pruned, because xi counts elements that
    recur.  Row r is numbered r + `first`, both in the report of each
    support within the budget, made before it is yielded, and in an
    overrun, at the row where more than the budget's limit of distinct
    elements have been reached.  Like ``layers``, the walk reads no clock.
    """
    support, reached, r = (y,), set(), 0
    step = X.step([z])
    while True:
        reached.update(support)
        budget.check(name, len(reached), r + first)
        budget.layer(name, r + first, len(support))
        yield support
        support = tuple(set(step(support)))
        r += 1


def power_table(X: MvGroup, x, radius: int, budget: Budget = Budget()) -> PowerTable:
    """Supports of powers: Set(x^{*1}) = {x}, Set(x^{*(i+1)}) = Set(x^{*i}) * x,
    unordered; each sphere S*(x, r) keeps the order of its support.  The
    walk is POWERS, and it reports (r, |Set(x^{*r})|) for r = 1, 2, ...;
    an overrun names the power r that overran."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    set_powers = [()] + list(itertools.islice(dynamic_supports(X, x, x, budget, POWERS, 1),
                                              radius))
    sstar_sets: List[Tuple[Any, ...]] = []
    cumulative = set()
    for support in set_powers:
        sstar_sets.append(tuple(v for v in support if v not in cumulative))
        cumulative.update(support)
    bstar_sizes = list(itertools.accumulate(len(s) for s in sstar_sets))
    return PowerTable(x, radius, sstar_sets, bstar_sizes, set_powers)


def set_product(X: MvGroup, left: Sequence[Any], right: Sequence[Any]) -> Tuple[Any, ...]:
    """Support of the product of two subsets viewed as multisets, unordered."""
    return tuple(set(X.step(right)(left)))


# ---------------------------------------------------------------------------
# generating-set comparison


class CompareReport(NamedTuple):
    constant: int
    rows: List[Tuple[int, int, int, int]]  # (r, lower, middle, upper)
    violations: List[int]

    @property
    def ok(self) -> bool:
        return not self.violations


def compare_generating_sets(X: MvGroup, gens: Sequence[Any], gens2: Sequence[Any],
                            y2, r_max: int, budget: Budget = Budget()) -> CompareReport:
    """Check the growth-equivalence sandwich between (S, e) and (S', y') data.

    The constant is l = 1 + max of the four cross-lengths (y' and inv(y')
    with respect to S, the S'-elements with respect to S, and the
    S-elements with respect to S'), each measured from the unit e, which
    is why the wide balls are centred there; the check asserts
    |B(e, floor(r/l))| <= |B'(y', r)| <= |B(e, l*r)| for every r <= r_max.
    The cross-lengths are searched to radius r_max: a longer one would
    leave only e in every lower ball.  At r_max = 0 the one row is
    1 <= 1 <= 1 for any l, so none is searched and l = 1.
    """
    if r_max < 0:
        raise ValidationError("radius must be >= 0")
    l = 1
    if r_max > 0:
        cross = (lengths(X, gens, [y2, X.inv(y2), *gens2], r_max, budget)
                 + lengths(X, gens2, gens, r_max, budget))
        l += max(cross)
    wide = ball(X, gens, X.unit, l * r_max, budget)
    other = ball(X, gens2, y2, r_max, budget)
    rows = []
    violations = []
    for r in range(r_max + 1):
        lower = wide.ball_sizes[r // l]
        middle = other.ball_sizes[r]
        upper = wide.ball_sizes[l * r]
        rows.append((r, lower, middle, upper))
        if not lower <= middle <= upper:
            violations.append(r)
    return CompareReport(l, rows, violations)

