from collections import Counter

import numpy as np
import pytest

from conftest import random_config
from gsetbench.codec import (
    HexDecodeError,
    decode_hex,
    encode_hex,
    read_solution,
)


def test_decode_known_digits():
    assert np.array_equal(decode_hex("f", 4), (1, 1, 1, 1))
    assert np.array_equal(decode_hex("0", 4), (-1, -1, -1, -1))
    # a = 1010: msb-first, bit i is variable i+1
    assert np.array_equal(decode_hex("a", 4), (1, -1, 1, -1))
    assert np.array_equal(decode_hex("1", 4), (-1, -1, -1, 1))


def test_decode_partial_last_digit():
    # n=5 needs 2 digits; the last 3 bits are padding and must be 0
    assert np.array_equal(decode_hex("f8", 5), (1, 1, 1, 1, 1))
    assert np.array_equal(decode_hex("f0", 5), (1, 1, 1, 1, -1))
    with pytest.raises(HexDecodeError, match="pad"):
        decode_hex("f4", 5)


def test_decode_is_case_insensitive_and_ignores_whitespace():
    assert np.array_equal(decode_hex("AB", 8), decode_hex("ab", 8))
    assert np.array_equal(decode_hex(" a\nb\t", 8), decode_hex("ab", 8))


def test_decode_rejects_wrong_length():
    with pytest.raises(HexDecodeError, match="expected 2 hex digits"):
        decode_hex("abc", 8)
    with pytest.raises(HexDecodeError, match="expected 2 hex digits"):
        decode_hex("a", 8)


def test_decode_reports_bad_character_with_position():
    with pytest.raises(HexDecodeError) as exc_info:
        decode_hex("ab l cd", 24)
    err = exc_info.value
    assert err.char == "l"
    assert err.position == 2  # position indexes the whitespace-stripped string


def test_decode_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        decode_hex("f", 0)


def test_encode_known_values():
    assert encode_hex((1, 1, 1, 1)) == "f"
    assert encode_hex((1, -1, 1, -1)) == "a"
    assert encode_hex((1,)) == "8"  # pad bits are zero
    assert encode_hex((-1, -1, -1, -1, 1)) == "08"


def test_encode_rejects_bad_spins():
    with pytest.raises(ValueError, match="spin 2"):
        encode_hex((1, 0, 1))
    with pytest.raises(ValueError):
        encode_hex(())


def test_roundtrip_random_configs():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 65))
        spins = random_config(rng, n)
        assert np.array_equal(decode_hex(encode_hex(spins), n), spins)


def test_read_solution_payload_drops_header_lines():
    text = "# instance=G81 n=20000\nabcd\n ef\t01 \n"
    assert read_solution(text) == ({"instance": "G81", "n": "20000"}, "abcdef01")


def test_read_solution_header():
    # every line whose first non-blank character is # is a header line,
    # wherever it stands, and a later key wins
    text = "# instance=G77 n=14000\n# note extra=1\nabcd\n\n  # n=9 late=yes\nef\n"
    header, payload = read_solution(text)
    assert header == {"instance": "G77", "n": "9", "extra": "1", "late": "yes"}
    assert payload == "abcdef"


def reference_decode(text, n):
    """Spins as a list, or the error as (message, position, char), read one
    character and one bit at a time."""
    cleaned = "".join(text.split()).lower()
    for pos, ch in enumerate(cleaned):
        if ch not in "0123456789abcdef":
            return f"invalid hex character {ch!r} at position {pos}", pos, ch
    expected = (n + 3) // 4
    if len(cleaned) != expected:
        return f"expected {expected} hex digits for n={n}, got {len(cleaned)}", None, None
    bits = [int(ch, 16) >> (3 - b) & 1 for ch in cleaned for b in range(4)]
    for i in range(n, len(bits)):
        if bits[i]:
            return f"nonzero pad bit {i - n + 1} past variable {n}", None, None
    return [2 * bit - 1 for bit in bits[:n]]


# 'İ' lowercases to two characters, which shifts every later position
NOT_HEX = ["g", "l", "x", "-", "_", "\x00", "é", "０", "Ａ", "٣", "İ", "K", "ß", "\U0001f600"]


def random_payload(rng, n):
    """Hex text for n spins with random case and whitespace, and now and
    then nonzero pad bits, a digit too many or too few, or characters
    that are not hex digits."""
    digits = list(f"{int(rng.integers(0, 2**62)):016x}" * ((n + 63) // 64))[: (n + 3) // 4]
    if rng.random() < 0.5 and n % 4:
        digits[-1] = "f"
    roll = rng.random()
    if roll < 0.1:
        digits.append("0")
    elif roll < 0.2:
        digits.pop()
    for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.5 else 0):
        digits.insert(int(rng.integers(0, len(digits) + 1)), str(rng.choice(NOT_HEX)))
    text = "".join(ch.upper() if rng.random() < 0.3 else ch for ch in digits)
    for _ in range(int(rng.integers(0, 4))):
        k = int(rng.integers(0, len(text) + 1))
        text = text[:k] + str(rng.choice([" ", "\n", "\t", "\r\n", "　", "\x1f"])) + text[k:]
    return text


def test_decode_agrees_with_a_bit_by_bit_reference():
    rng = np.random.default_rng(22)
    outcomes = Counter()
    for _ in range(3000):
        n = int(rng.integers(1, 150))
        text = random_payload(rng, n)
        want = reference_decode(text, n)
        try:
            got = decode_hex(text, n)
        except HexDecodeError as exc:
            assert (str(exc), exc.position, exc.char) == want, text
            outcomes[str(exc).split()[0]] += 1
        else:
            assert isinstance(want, list) and got.tolist() == want, text
            outcomes["decoded"] += 1
    assert set(outcomes) == {"decoded", "invalid", "expected", "nonzero"}
    assert min(outcomes.values()) > 200


@pytest.mark.parametrize("char", NOT_HEX)
def test_decode_reports_each_kind_of_bad_character(char):
    text = f"a B\n{char}c"
    with pytest.raises(HexDecodeError) as excinfo:
        decode_hex(text, 12)
    err = excinfo.value
    assert (str(err), err.position, err.char) == reference_decode(text, 12)
    assert err.position == 2
