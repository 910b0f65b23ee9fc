"""Finite multisets with multiplicities, the support map, and flattening.

Multisets are the carrier of n-valued products: ``mul(x, y)`` on an
n-valued group always lands in a total-size-n multiset.  Elements must be
hashable and mutually orderable (plain ints, or coset and double-coset
classes, which are (canonical key, least member) tuples).  Multiplicities
are Python ints, so they are arbitrary precision by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Tuple

from .errors import EmptyMultiSet


@dataclass(frozen=True)
class MultiSet:
    """Canonical sorted run-length form: ((element, multiplicity), ...)."""

    entries: Tuple[Tuple[Any, int], ...]
    total_size: int

    def __post_init__(self):
        if not self.entries:
            raise EmptyMultiSet("multiset must contain at least one element")
        total = 0
        prev = None
        for elem, mult in self.entries:
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            if prev is not None and not prev < elem:
                raise ValueError("entries must be strictly ascending")
            prev = elem
            total += mult
        if total != self.total_size:
            raise ValueError(
                f"total_size {self.total_size} != sum of multiplicities {total}"
            )

    @classmethod
    def of(cls, items: Sequence[Any]) -> "MultiSet":
        """Collect items into canonical form; order of input is irrelevant."""
        if not items:
            raise EmptyMultiSet("cannot build a multiset from no items")
        counts = Counter(items)
        entries = tuple((elem, counts[elem]) for elem in sorted(counts))
        return cls(entries, len(items))

    def support(self) -> Tuple[Any, ...]:
        """The Set map: distinct elements, in ascending order."""
        return tuple(elem for elem, _ in self.entries)

    def __iter__(self):
        return iter(self.entries)


def flatten(parts: Iterable[Tuple[MultiSet, int]]) -> MultiSet:
    """Union of multisets with multiplicities scaled by the outer ones.

    This is the n^2-multiset builder used by the associativity axiom: the
    triple product x*(y*z) is flatten([(mul(x, w), m) for (w, m) in mul(y, z)]).
    """
    counts: Counter = Counter()
    total = 0
    seen_any = False
    for ms, outer in parts:
        seen_any = True
        if outer < 1:
            raise ValueError(f"outer multiplicity must be >= 1, got {outer}")
        for elem, mult in ms.entries:
            counts[elem] += mult * outer
        total += ms.total_size * outer
    if not seen_any:
        raise EmptyMultiSet("cannot flatten an empty collection of multisets")
    entries = tuple((elem, counts[elem]) for elem in sorted(counts))
    return MultiSet(entries, total)
