"""Multisets as sorted tuples, and the flattening of n-valued products.

An n-valued product ``mul(x, y)`` is an n-multiset.  Elements are hashable
and mutually orderable (plain ints, or coset and double-coset classes,
which are G-elements), so the canonical form of a multiset is the sorted
tuple of its members, repeats kept: two products are equal exactly when
their tuples are, and ``len`` is the total size.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Tuple


def flatten(products: Iterable[Tuple[Any, ...]]) -> Tuple[Any, ...]:
    """The sorted concatenation of the products, a multiset of their summed size.

    This is the n^2-multiset of the associativity axiom: the triple product
    x*(y*z) is flatten([mul(x, w) for w in mul(y, z)]).  The chain is sorted
    at C speed; callers pass lists, and any iterable works.
    """
    return tuple(sorted(itertools.chain.from_iterable(products)))
