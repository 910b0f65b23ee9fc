"""The canonical integer rank.

Integers rank as 0 < 1 < -1 < 2 < -2 < ...; in particular the canonical
representative of a {k, -k} orbit is the non-negative member.  Backends
build their canonical keys from these ranks as plain ints and tuples, whose
native order is the canonical order.
"""


def int_key(x: int) -> int:
    return 2 * x - 1 if x > 0 else -2 * x
