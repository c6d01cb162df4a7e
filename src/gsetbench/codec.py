"""Hex codec for spin configurations.

A configuration of n +-1 spins is stored as a hex string of exactly
ceil(n/4) digits. Each digit encodes four bits most significant bit
first; bit i (0-based, reading the string left to right) belongs to
variable i+1. A 0 bit is spin -1, a 1 bit is spin +1. When n is not a
multiple of 4 the trailing pad bits of the last digit must be zero.

Solution files may carry ``#`` comment lines (conventionally
``# instance=<name> n=<n>``) before the hex payload; whitespace inside
the payload is ignored.
"""

from __future__ import annotations

import numpy as np

_HEX = "0123456789abcdef"


class HexDecodeError(ValueError):
    """Invalid hex payload. Carries the offending character and its position."""

    def __init__(self, message: str, position: int | None = None, char: str | None = None):
        super().__init__(message)
        self.position = position
        self.char = char


def decode_hex(text: str, n: int) -> tuple[int, ...]:
    """Decode a hex string into a configuration of n spins in {-1, +1}.

    Whitespace is stripped before decoding. The cleaned string must
    contain exactly ceil(n/4) hex digits (case-insensitive); pad bits
    beyond variable n must be zero. Positions in error messages index
    the cleaned string, 0-based.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cleaned = "".join(text.split()).lower()
    expected = (n + 3) // 4
    for pos, ch in enumerate(cleaned):
        if ch not in _HEX:
            raise HexDecodeError(
                f"invalid hex character {ch!r} at position {pos}",
                position=pos,
                char=ch,
            )
    if len(cleaned) != expected:
        raise HexDecodeError(
            f"expected {expected} hex digits for n={n}, got {len(cleaned)}"
        )
    # unpackbits reads bytes most significant bit first, two digits a byte
    padded = bytes.fromhex(cleaned + "0" * (expected % 2))
    bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8))
    pad = np.flatnonzero(bits[n:])
    if len(pad):
        raise HexDecodeError(f"nonzero pad bit {pad[0] + 1} past variable {n}")
    return tuple((bits[:n].astype(np.int64) * 2 - 1).tolist())


def encode_hex(spins) -> str:
    """Encode spins in {-1, +1} as a lowercase hex string, zero-padded."""
    if not isinstance(spins, np.ndarray):
        spins = tuple(spins)
    if not len(spins):
        raise ValueError("cannot encode an empty configuration")
    values = np.asarray(spins)
    up = values == 1
    if not (up | (values == -1)).all():
        i, s = next((i, s) for i, s in enumerate(spins) if s != 1 and s != -1)
        raise ValueError(f"spin {i + 1} is {s!r}, expected -1 or +1")
    # packbits fills bytes most significant bit first
    return np.packbits(up).tobytes().hex()[: (len(spins) + 3) // 4]


def global_flip(spins) -> tuple[int, ...]:
    """Negate every spin. Cut value and Ising energy are invariant."""
    return tuple(-s for s in spins)


def strip_solution_text(text: str) -> str:
    """Drop ``#`` comment lines, returning the raw hex payload."""
    payload_lines = [
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    ]
    return "\n".join(payload_lines)


def read_solution_header(text: str) -> dict[str, str]:
    """Parse ``key=value`` pairs out of leading ``#`` comment lines."""
    meta: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.lstrip()
        if not stripped.startswith("#"):
            break
        for tok in stripped[1:].split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                meta[k] = v
    return meta
