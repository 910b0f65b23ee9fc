"""Canonical byte keys.

Every group element gets an injective, total-orderable byte key that is
stable across runs and platforms.  Keys are built from a prefix-free
integer atom and a prefix-free sequence combinator, so lexicographic
comparison of concatenations is well defined.

Integer keys order as 0 < 1 < -1 < 2 < -2 < ...; in particular the
canonical representative of a {k, -k} orbit is the non-negative member.
"""

from __future__ import annotations

import struct


def int_key(x: int) -> bytes:
    mag = abs(x)
    nbytes = (mag.bit_length() + 7) // 8
    sign = b"\x00" if x >= 0 else b"\x01"
    return struct.pack(">I", nbytes) + mag.to_bytes(nbytes, "big") + sign


def seq_key(parts) -> bytes:
    parts = list(parts)
    return struct.pack(">I", len(parts)) + b"".join(parts)
