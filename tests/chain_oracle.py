"""Reference loops for the two chain primitives with fast production forms.

:func:`repro.blockchain.varint.encode` answers small values from a table
and :meth:`repro.sim.rng.RngStream.randbytes` draws all its bytes at once.
The loops below are the plain definitions both must reproduce byte for
byte, and for ``randbytes`` with the same generator state afterwards.
"""

from __future__ import annotations

import random


def varint_encode(value: int) -> bytes:
    """Base-128 little-endian, one 7-bit group per byte, high bit = more."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def randbytes(rng: random.Random, n: int) -> bytes:
    """``n`` bytes as ``n`` separate 8-bit draws."""
    return bytes(rng.getrandbits(8) for _ in range(n))
