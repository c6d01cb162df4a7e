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
from pathlib import Path

import numpy as np


class GsetFormatError(ValueError):
    """Raised when instance text or edge data violates the format."""


# The solvers sum every edge weight twice in int64, so the absolute
# weights of one instance must sum to less than this.
_WEIGHT_SUM_LIMIT = 2**62

# Every integer read from outside the program, in Gset text, a config,
# a log, a command line, a torus name or a solution header: optionally
# signed ASCII decimal digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """``int(text)`` if ``_DECIMAL`` spells ``text``: ``int`` alone also
    reads ``1_0`` and non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _ascii_float(text: str) -> float:
    """``float(text)`` if ``text`` is ASCII without ``_``; ``nan`` and
    ``inf`` pass, to be refused where out of range."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _read_utf8(path, data: bytes | None = None) -> str:
    """The text of file ``path``, or of ``data`` already read from it, as
    UTF-8; other bytes are refused by a ValueError that names the file."""
    try:
        return (Path(path).read_bytes() if data is None else data).decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    # the solvers' sweep layout, built on first use
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
    # a clean edge list is checked by reductions and one sorted key; a
    # failing one is checked again edge by edge, to name its first fault
    if len(w) and not (int(lo.min()) >= 1 and int(hi.max()) <= n
                       and not np.any(lo == hi) and _distinct(n, lo, hi)):
        loop, out_of_range = u == v, (lo < 1) | (hi > n)
        i = int(np.argmax(loop | out_of_range | _repeats(n, lo, hi)))
        if loop[i]:
            raise GsetFormatError(f"edge {i + 1}: self-loop at vertex {u[i]}")
        if out_of_range[i]:
            raise GsetFormatError(
                f"edge {i + 1}: endpoint out of range 1..{n}: ({u[i]}, {v[i]})"
            )
        raise GsetFormatError(f"edge {i + 1}: duplicate edge ({lo[i]}, {hi[i]})")

    # the sum is taken exactly only when m copies of the largest |w|
    # would reach the limit; |w| is a Python int, then uint64, where
    # |-2^63| fits
    w = w.copy()
    if len(w) and max(int(w.max()), -int(w.min())) * len(w) >= _WEIGHT_SUM_LIMIT:
        for i, total in enumerate(accumulate(np.abs(w).view(np.uint64).tolist())):
            if total >= _WEIGHT_SUM_LIMIT:
                raise GsetFormatError(f"edge {i + 1}: absolute edge weights sum to 2^62 or more")
    lo -= 1
    hi -= 1
    arrays = (lo, hi, w)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _distinct(n: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether no pair (lo, hi) of edges in range 1..n occurs twice: one
    key, sorted in place, below n = 2^31, and ``_repeats`` above."""
    if n >= 2**31:
        return not _repeats(n, lo, hi).any()
    key = _pair_key(n, lo, hi)
    # a stable sort finds the runs of a nearly sorted list, as a torus's is
    key.sort(kind="stable")
    return not np.any(key[1:] == key[:-1])


def _pair_key(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo*(n+1) + hi, one int64 key per edge, one-to-one on pairs within
    1..n below n = 2^31."""
    key = lo * (n + 1)
    key += hi
    return key


def _repeats(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the edges whose pair (lo, hi) occurs at a lower index.

    A stable sort puts each repeat of a pair after its first occurrence.
    Below n = 2^31 it sorts one int64 key, ``_pair_key``. An edge out of
    range may share its key with another edge, but then it is marked
    itself or precedes the edge it marks, so the first failing edge and
    its message stand.
    """
    if n < 2**31:
        key = _pair_key(n, lo, hi)
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
        try:
            value = _decimal(tokens[k])
        except ValueError:
            raise GsetFormatError(
                f"line {line_of(k)}: expected integer {what}, got {tokens[k]!r}"
            ) from None
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
    p = Path(path)
    return parse_gset(_read_utf8(p), name=p.stem)


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
    edges = np.empty((2 * n, 3), dtype=np.int64)
    # [r, c, k] is the right (k = 0) or down (k = 1) edge of cell (r, c)
    grid = edges.reshape(rows, cols, 2, 3)
    cell = grid[:, :, 0, 0]
    np.add.outer(np.arange(1, n + 1, cols), np.arange(cols), out=cell)
    grid[:, :, 1, 0] = cell
    grid[:, :-1, 0, 1], grid[:, -1, 0, 1] = cell[:, 1:], cell[:, 0]
    grid[:-1, :, 1, 1], grid[-1, :, 1, 1] = cell[1:], cell[0]
    weights = grid[..., 2]
    np.multiply(np.random.default_rng(spec.seed).integers(0, 2, size=(rows, cols, 2)), 2,
                out=weights)
    weights -= 1
    return ProblemInstance(n, edges, name=spec.name)


def torus_grid(instance: ProblemInstance):
    """``(rows, cols, right_w, down_w)`` if ``instance`` is a rows x cols
    torus numbered row by row as ``generate_torus`` numbers it, else None.

    ``right_w[r, c]`` is the weight of the edge from cell (r, c) to
    (r, c + 1 mod cols) and ``down_w[r, c]`` that of the edge to
    (r + 1 mod rows, c): int64 (rows, cols) arrays. The grid is read from
    the edge arrays alone, in O(m), so neither the name nor the order of
    the edges or of their endpoints matters.
    """
    n, eu, ev = instance.n, instance.eu, instance.ev
    # vertex 0's neighbours are 1, cols - 1, cols and (rows - 1) cols
    first = np.sort(ev[eu == 0])
    if instance.m != 2 * n or len(first) != 4:
        return None
    cols = int(first[2])
    rows, extra = divmod(n, cols)
    if extra or rows < 3:
        return None
    # an edge belongs to the cell it leaves rightward or downward: its
    # lower end unless it wraps from the last column or the last row.
    # With rows, cols >= 3 the four gaps 1, cols - 1, cols and
    # (rows - 1) cols are distinct, so no edge is both. side[v] is -1 in
    # the first column, 1 in the last and 0 elsewhere.
    side = np.zeros((rows, cols), dtype=np.int8)
    side[:, 0], side[:, -1] = -1, 1
    gap, eu_side = ev - eu, np.take(side, eu)
    right_wrap = (gap == cols - 1) & (eu_side == -1)
    right = right_wrap | ((gap == 1) & (eu_side != 1))
    down_wrap = gap == (rows - 1) * cols
    if not (right | down_wrap | (gap == cols)).all():
        return None
    # an edge's (cell, direction) slot names the edge, and duplicate
    # edges are refused, so the 2n edges fill the 2n slots once each
    slot = 2 * np.where(right_wrap | down_wrap, ev, eu) + ~right
    weights = np.empty(2 * n, dtype=np.int64)
    weights[slot] = instance.ew
    return rows, cols, weights[0::2].reshape(rows, cols), weights[1::2].reshape(rows, cols)


def parse_torus_name(name: str) -> TorusSpec:
    """Parse a ``torus:RxC:SEED`` label back into a TorusSpec."""
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "torus":
        raise ValueError(f"not a torus name: {name!r}")
    dims = parts[1].split("x")
    if len(dims) != 2:
        raise ValueError(f"bad torus dimensions in {name!r}")
    try:
        rows, cols, seed = _decimal(dims[0]), _decimal(dims[1]), _decimal(parts[2])
    except ValueError:
        raise ValueError(f"bad torus name {name!r}") from None
    return TorusSpec(rows=rows, cols=cols, seed=seed)
