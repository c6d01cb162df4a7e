"""Problem instances: Gset-format parsing, toroidal grid generation.

An instance is an undirected weighted graph with vertices numbered 1..n
and signed integer edge weights. The on-disk format is the plain text
Gset layout: a header line ``n m`` followed by m lines ``u v w``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np


class GsetFormatError(ValueError):
    """Raised when instance text or edge data violates the format."""


# The solvers sum every edge weight twice in int64, so the absolute
# weights of one instance must sum to less than this.
_WEIGHT_SUM_LIMIT = 2**62

# A Gset number: optionally signed ASCII decimal digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True, init=False, eq=False)
class ProblemInstance:
    """Immutable weighted graph: ``n`` and three read-only int64 arrays in
    the input's edge order, 0-based endpoints ``eu < ev`` and weights ``ew``.

    It is built from (u, v, w) triples with 1-based endpoints in either
    order, as a sequence or an (m, 3) integer array, checked once:
    endpoints are normalised to u < v, and self-loops, endpoints outside
    1..n and duplicate edges (in either orientation) are rejected with
    distinct messages. Equality and hashing compare n and the edges;
    ``name`` is a label.
    """

    n: int
    eu: np.ndarray = field(repr=False)
    ev: np.ndarray = field(repr=False)
    ew: np.ndarray = field(repr=False)
    name: str = ""
    # the solvers' colour classes and neighbour slots, built on first use
    _sweep_layout: tuple | None = field(default=None, repr=False)

    def __init__(self, n: int, edges, name: str = "") -> None:
        eu, ev, ew = _canonical_edges(n, edges)
        for key, value in zip(("n", "eu", "ev", "ew", "name"), (int(n), eu, ev, ew, name)):
            object.__setattr__(self, key, value)

    def _key(self) -> tuple:
        return self.n, self.eu.tobytes(), self.ev.tobytes(), self.ew.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, ProblemInstance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def m(self) -> int:
        return len(self.ew)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical (u, v, w) triples, 1-based with u < v, in input order."""
        return tuple(zip((self.eu + 1).tolist(), (self.ev + 1).tolist(), self.ew.tolist()))

    def total_weight(self) -> int:
        """Sum of all edge weights (exact integer)."""
        return int(self.ew.sum())


def _canonical_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one edge check: raw triples to read-only (eu, ev, ew) arrays.

    The first failing edge wins; on one edge a self-loop is reported
    before a range error, and a range error before a duplicate. The
    absolute weights are summed last.
    """
    if n < 1:
        raise GsetFormatError(f"vertex count must be positive, got {n}")
    u, v, w = np.asarray(edges, dtype=np.int64).reshape(len(edges), 3).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop, out_of_range = u == v, (lo < 1) | (hi > n)
    failing = loop | out_of_range | _repeats(n, lo, hi)
    if failing.any():
        i = int(np.argmax(failing))
        if loop[i]:
            raise GsetFormatError(f"edge {i + 1}: self-loop at vertex {u[i]}")
        if out_of_range[i]:
            raise GsetFormatError(
                f"edge {i + 1}: endpoint out of range 1..{n}: ({u[i]}, {v[i]})"
            )
        raise GsetFormatError(f"edge {i + 1}: duplicate edge ({lo[i]}, {hi[i]})")

    # |w| as uint64, where |-2^63| fits; the sum is taken exactly only
    # when m copies of the largest |w| would reach the limit
    size = np.abs(w).view(np.uint64)
    if len(w) and int(size.max()) * len(w) >= _WEIGHT_SUM_LIMIT:
        for i, total in enumerate(accumulate(size.tolist())):
            if total >= _WEIGHT_SUM_LIMIT:
                raise GsetFormatError(f"edge {i + 1}: absolute edge weights sum to 2^62 or more")
    lo -= 1
    hi -= 1
    arrays = (lo, hi, w.copy())
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _repeats(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the edges whose pair (lo, hi) occurs at a lower index.

    A stable sort puts each repeat of a pair after its first occurrence.
    Below n = 2^31 it sorts one int64 key, lo*(n+1) + hi, which is
    one-to-one on pairs within 1..n. An edge out of range may share its
    key with another edge, but then it is marked itself or precedes the
    edge it marks, so the first failing edge and its message stand.
    """
    if n < 2**31:
        key = lo * (n + 1)
        key += hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        same = key[1:] == key[:-1]
    else:
        order = np.lexsort((hi, lo))
        sorted_lo, sorted_hi = lo[order], hi[order]
        same = (sorted_lo[1:] == sorted_lo[:-1]) & (sorted_hi[1:] == sorted_hi[:-1])
    repeat = np.zeros(len(lo), dtype=bool)
    repeat[order[1:]] = same
    return repeat


def parse_gset(text: str, name: str = "") -> ProblemInstance:
    """Parse Gset-format text into a ProblemInstance.

    The format is whitespace-tolerant: tokens are read in sequence
    regardless of line breaks. The first two tokens are n and m,
    followed by exactly 3*m edge tokens. Anything after ``#`` on a
    line is ignored. Every number must fit in a 64-bit integer.

    Well-formed ASCII text is read in one C pass; any other text, and
    every error, goes through the token reader.
    """
    text = _uncommented(text)
    values = _plain_numbers(text)
    if values is not None and len(values) >= 2:
        n, m = int(values[0]), int(values[1])
        if n >= 1 and m >= 0 and len(values) == 2 + 3 * m:
            return ProblemInstance(n, values[2:].reshape(m, 3), name=name)
    return _read_tokens(text, name)


def _uncommented(text: str) -> str:
    """``text`` with everything after ``#`` on each line removed."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return text


# below this magnitude np.fromstring's clamp at the int64 bounds is never hit
_PLAIN_LIMIT = 10**18


def _plain_numbers(text: str) -> np.ndarray | None:
    """Every number of ``text`` as int64, or None unless ``text`` is ASCII
    tokens ``[+-]?[0-9]+``, each below 10^18 in magnitude, separated by C
    whitespace (bytes 9-13 and 32; ``str.split`` also splits at bytes
    28-31, which ``np.fromstring`` does not).
    """
    if not text.isascii():
        return None
    # padded with a space at each end, so every byte has both neighbours
    raw = np.frombuffer(f" {text} ".encode("ascii"), dtype=np.uint8)
    space = (raw == 32) | ((raw >= 9) & (raw <= 13))
    digit = (raw >= 48) & (raw <= 57)
    sign = (raw == 43) | (raw == 45)
    signs = np.count_nonzero(sign)
    # every byte is whitespace, a digit or a sign (three disjoint classes),
    # and every sign starts its token and is followed by a digit
    if (np.count_nonzero(space) + np.count_nonzero(digit) + signs != len(raw)
            or np.count_nonzero(space[:-1] & sign[1:]) != signs
            or np.count_nonzero(sign[:-1] & digit[1:]) != signs):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    # one value a token, each token between two whitespace edges; this
    # also catches whitespace-only text, which reads as [0]
    if 2 * len(values) != np.count_nonzero(space[:-1] != space[1:]):
        return None
    if len(values) and not (-_PLAIN_LIMIT < values.min() and values.max() < _PLAIN_LIMIT):
        return None
    return values


def _read_tokens(text: str, name: str) -> ProblemInstance:
    """The token reader behind ``parse_gset``, on comment-free text: each
    token is checked in order, so the first fault met raises."""
    tokens = text.split()

    def line_of(k: int) -> int:
        for lineno, line in enumerate(text.splitlines(), start=1):
            k -= len(line.split())
            if k < 0:
                return lineno

    def integer(k: int) -> int:
        """Token k, or the error that a reader in token order meets there."""
        what = (
            ("vertex count", "edge count")[k] if k < 2
            else f"edge {(k + 1) // 3} {'weight' if k % 3 == 1 else 'endpoint'}"
        )
        if k >= len(tokens):
            raise GsetFormatError(f"unexpected end of input while reading {what}")
        if not _DECIMAL.fullmatch(tokens[k]):
            raise GsetFormatError(
                f"line {line_of(k)}: expected integer {what}, got {tokens[k]!r}"
            )
        value = int(tokens[k])
        if not -(2**63) <= value < 2**63:
            raise GsetFormatError(f"line {line_of(k)}: {what} {tokens[k]} does not fit in 64 bits")
        return value

    n, m = integer(0), integer(1)
    if n < 1:
        raise GsetFormatError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise GsetFormatError(f"edge count must be non-negative, got {m}")
    end = 2 + 3 * m
    values = np.array([integer(k) for k in range(2, end)], dtype=np.int64).reshape(m, 3)
    if len(tokens) > end:
        raise GsetFormatError(
            f"line {line_of(end)}: trailing token {tokens[end]!r} after {m} edges"
        )
    return ProblemInstance(n, values, name=name)


def write_gset(instance: ProblemInstance) -> str:
    """Serialise an instance to canonical Gset text: ``n m``, then one
    1-based ``u v w`` line per edge in input order, newline-terminated."""
    values = np.column_stack((instance.eu + 1, instance.ev + 1, instance.ew)).ravel().tolist()
    return f"{instance.n} {instance.m}\n" + "%d %d %d\n" * instance.m % tuple(values)


def load_gset(path) -> ProblemInstance:
    """Read a Gset file; the instance name is the file's stem."""
    from pathlib import Path

    p = Path(path)
    return parse_gset(p.read_text(), name=p.stem)


def check_seed(seed, what: str = "seed") -> int:
    """``seed`` as an int, refused unless it is an integer of one 64-bit
    word; ``what`` names it in the message."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {seed!r}") from None
    if not (0 <= value < 2**64):
        raise ValueError(f"{what} must fit in 64 bits, got {value}")
    return value


@dataclass(frozen=True)
class TorusSpec:
    """Parameters of a synthetic toroidal grid instance.

    The torus is a rows x cols square grid with periodic boundaries:
    every vertex has degree 4 (right and down neighbours, wrapping).
    Weights are drawn uniformly from {-1, +1} using the given seed, so
    the same spec always produces the same instance.
    """

    rows: int
    cols: int
    seed: int

    def __post_init__(self) -> None:
        if self.rows < 3 or self.cols < 3:
            raise ValueError(
                f"torus must be at least 3x3, got {self.rows}x{self.cols}"
            )
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def name(self) -> str:
        return f"torus:{self.rows}x{self.cols}:{self.seed}"


def generate_torus(spec: TorusSpec) -> ProblemInstance:
    """Generate the toroidal grid instance described by ``spec``.

    Vertices are numbered row-major starting at 1: vertex id of grid
    cell (r, c) with 1-based r, c is (r-1)*cols + c. For each vertex in
    id order the edge to its right neighbour is emitted first, then the
    edge to the neighbour below; weights follow that emission order.
    """
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    r, c = np.divmod(np.arange(n), cols)
    right = r * cols + (c + 1) % cols
    down = (r + 1) % rows * cols + c
    edges = np.empty((2 * n, 3), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(1, n + 1), 2)
    edges[0::2, 1], edges[1::2, 1] = right + 1, down + 1
    rng = np.random.default_rng(spec.seed)
    edges[:, 2] = rng.integers(0, 2, size=2 * n) * 2 - 1
    return ProblemInstance(n, edges, name=spec.name)


def parse_torus_name(name: str) -> TorusSpec:
    """Parse a ``torus:RxC:SEED`` label back into a TorusSpec."""
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "torus":
        raise ValueError(f"not a torus name: {name!r}")
    dims = parts[1].split("x")
    if len(dims) != 2:
        raise ValueError(f"bad torus dimensions in {name!r}")
    try:
        rows, cols, seed = int(dims[0]), int(dims[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"bad torus name {name!r}") from None
    return TorusSpec(rows=rows, cols=cols, seed=seed)
