import numpy as np
import pytest

from conftest import random_config
from gsetbench.codec import (
    HexDecodeError,
    decode_hex,
    encode_hex,
    read_solution_header,
    strip_solution_text,
)


def test_decode_known_digits():
    assert decode_hex("f", 4) == (1, 1, 1, 1)
    assert decode_hex("0", 4) == (-1, -1, -1, -1)
    # a = 1010: msb-first, bit i is variable i+1
    assert decode_hex("a", 4) == (1, -1, 1, -1)
    assert decode_hex("1", 4) == (-1, -1, -1, 1)


def test_decode_partial_last_digit():
    # n=5 needs 2 digits; the last 3 bits are padding and must be 0
    assert decode_hex("f8", 5) == (1, 1, 1, 1, 1)
    assert decode_hex("f0", 5) == (1, 1, 1, 1, -1)
    with pytest.raises(HexDecodeError, match="pad"):
        decode_hex("f4", 5)


def test_decode_is_case_insensitive_and_ignores_whitespace():
    assert decode_hex("AB", 8) == decode_hex("ab", 8)
    assert decode_hex(" a\nb\t", 8) == decode_hex("ab", 8)


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
        assert decode_hex(encode_hex(spins), n) == spins


def test_strip_solution_text_drops_comment_lines():
    text = "# instance=G81 n=20000\nabcd\nef01\n"
    assert "".join(strip_solution_text(text).split()) == "abcdef01"


def test_read_solution_header():
    text = "# instance=G77 n=14000\n# note extra=1\nabcd\n# not parsed\n"
    header = read_solution_header(text)
    assert header == {"instance": "G77", "n": "14000", "extra": "1"}
