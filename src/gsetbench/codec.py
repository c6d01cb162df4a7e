"""Hex codec for spin configurations.

A configuration of n +-1 spins is stored as a hex string of exactly
ceil(n/4) digits. Each digit encodes four bits most significant bit
first; bit i (0-based, reading the string left to right) belongs to
variable i+1. A 0 bit is spin -1, a 1 bit is spin +1. When n is not a
multiple of 4 the trailing pad bits of the last digit must be zero.

A solution file holds the hex payload and ``#`` header lines
(conventionally ``# instance=<name> n=<n>``) anywhere among its lines;
whitespace inside the payload is ignored.
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


def decode_hex(text: str, n: int) -> np.ndarray:
    """Decode a hex string into a read-only int8 array of n spins in {-1, +1}.

    Whitespace is stripped before decoding. The cleaned string must
    contain exactly ceil(n/4) hex digits (case-insensitive); pad bits
    beyond variable n must be zero. Positions in error messages index
    the lowercased cleaned string, 0-based.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cleaned = "".join(text.split())
    try:
        # fromhex reads both cases and refuses every other character
        packed = bytes.fromhex(cleaned + "0" * (len(cleaned) % 2))
    except ValueError:
        pos, ch = next((pos, ch) for pos, ch in enumerate(cleaned.lower()) if ch not in _HEX)
        raise HexDecodeError(
            f"invalid hex character {ch!r} at position {pos}", position=pos, char=ch
        ) from None
    expected = (n + 3) // 4
    if len(cleaned) != expected:
        raise HexDecodeError(
            f"expected {expected} hex digits for n={n}, got {len(cleaned)}"
        )
    # unpackbits reads bytes most significant bit first
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8)).view(np.int8)
    pad = np.flatnonzero(bits[n:])
    if len(pad):
        raise HexDecodeError(f"nonzero pad bit {pad[0] + 1} past variable {n}")
    bits *= 2
    bits -= 1
    bits.flags.writeable = False
    return bits[:n]


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


def read_solution(text: str) -> tuple[dict[str, str], str]:
    """Solution file text as (header, payload).

    Every line whose first non-blank character is ``#`` is a header line;
    its ``key=value`` tokens make the header, a later key winning. The
    payload is every other line with its whitespace removed.
    """
    header: dict[str, str] = {}
    payload: list[str] = []
    for line in text.splitlines():
        stripped = line.lstrip()
        if stripped.startswith("#"):
            header.update(tok.split("=", 1) for tok in stripped[1:].split() if "=" in tok)
        else:
            payload.append(line)
    return header, "".join("".join(payload).split())
