"""Monero-style varint (base-128 little-endian, same wire format as
unsigned LEB128). Kept as its own module because block serialization
documents itself in terms of *varints* and the blockchain code should not
reach into the WebAssembly package for them.
"""

from __future__ import annotations

#: the one-byte encodings, which every length and small field uses
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode(value: int) -> bytes:
    """Encode a non-negative integer as a Monero varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, new_offset)``."""
    result = 0
    shift = 0
    i = offset
    while True:
        if i >= len(data):
            raise ValueError("truncated varint")
        byte = data[i]
        result |= (byte & 0x7F) << shift
        i += 1
        if not byte & 0x80:
            return result, i
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")
