"""Problem instances: Gset-format parsing, toroidal grid generation.

An instance is an undirected weighted graph with vertices numbered 1..n
and signed integer edge weights. The on-disk format is the plain text
Gset layout: a header line ``n m`` followed by m lines ``u v w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GsetFormatError(ValueError):
    """Raised when instance text or edge data violates the format."""


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable weighted graph.

    Edges are stored canonically as (u, v, w) with 1 <= u < v <= n.
    Equality compares structure only; ``name`` is a label and two
    instances with identical edges compare equal regardless of it.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    name: str = field(default="", compare=False)

    # 0-indexed numpy views of the edge list, built once for fast evaluation
    _eu: np.ndarray = field(init=False, repr=False, compare=False)
    _ev: np.ndarray = field(init=False, repr=False, compare=False)
    _ew: np.ndarray = field(init=False, repr=False, compare=False)
    _adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # the solvers' colour classes and neighbour slots, built on first use
    _sweep_layout: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GsetFormatError(f"vertex count must be positive, got {self.n}")
        eu = np.empty(len(self.edges), dtype=np.int64)
        ev = np.empty(len(self.edges), dtype=np.int64)
        ew = np.empty(len(self.edges), dtype=np.int64)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for i, (u, v, w) in enumerate(self.edges):
            if not (1 <= u < v <= self.n):
                raise GsetFormatError(
                    f"edge {i + 1}: endpoints ({u}, {v}) not canonical for n={self.n}"
                )
            eu[i] = u - 1
            ev[i] = v - 1
            ew[i] = w
            adj[u].append((v, w))
            adj[v].append((u, w))
        object.__setattr__(self, "_eu", eu)
        object.__setattr__(self, "_ev", ev)
        object.__setattr__(self, "_ew", ew)
        object.__setattr__(
            self, "_adjacency", tuple(tuple(nbrs) for nbrs in adj)
        )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        name: str = "",
    ) -> "ProblemInstance":
        """Build an instance from raw (u, v, w) triples.

        Endpoints may arrive in either order; they are normalised to
        u < v. Self-loops, endpoints outside 1..n, and duplicate edges
        (in either orientation) are rejected with distinct messages.
        """
        if n < 1:
            raise GsetFormatError(f"vertex count must be positive, got {n}")
        seen: set[tuple[int, int]] = set()
        canonical: list[tuple[int, int, int]] = []
        for i, (u, v, w) in enumerate(edges):
            if u == v:
                raise GsetFormatError(f"edge {i + 1}: self-loop at vertex {u}")
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GsetFormatError(
                    f"edge {i + 1}: endpoint out of range 1..{n}: ({u}, {v})"
                )
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GsetFormatError(f"edge {i + 1}: duplicate edge ({u}, {v})")
            seen.add((u, v))
            canonical.append((u, v, int(w)))
        return cls(n=n, edges=tuple(canonical), name=name)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Neighbour lists indexed by vertex id; entry 0 is unused."""
        return self._adjacency

    def total_weight(self) -> int:
        """Sum of all edge weights (exact integer)."""
        return int(self._ew.sum())


def _tokens_with_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield lineno, tok


def parse_gset(text: str, name: str = "") -> ProblemInstance:
    """Parse Gset-format text into a ProblemInstance.

    The format is whitespace-tolerant: tokens are read in sequence
    regardless of line breaks. The first two tokens are n and m,
    followed by exactly 3*m edge tokens. Anything after ``#`` on a
    line is ignored.
    """
    stream = _tokens_with_lines(text)

    def next_int(what: str) -> tuple[int, int]:
        try:
            lineno, tok = next(stream)
        except StopIteration:
            raise GsetFormatError(f"unexpected end of input while reading {what}")
        try:
            return lineno, int(tok)
        except ValueError:
            raise GsetFormatError(
                f"line {lineno}: expected integer {what}, got {tok!r}"
            ) from None

    _, n = next_int("vertex count")
    _, m = next_int("edge count")
    if n < 1:
        raise GsetFormatError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise GsetFormatError(f"edge count must be non-negative, got {m}")

    edges: list[tuple[int, int, int]] = []
    for i in range(m):
        _, u = next_int(f"edge {i + 1} endpoint")
        _, v = next_int(f"edge {i + 1} endpoint")
        _, w = next_int(f"edge {i + 1} weight")
        edges.append((u, v, w))

    leftover = next(stream, None)
    if leftover is not None:
        raise GsetFormatError(
            f"line {leftover[0]}: trailing token {leftover[1]!r} after {m} edges"
        )
    return ProblemInstance.from_edges(n, edges, name=name)


def write_gset(instance: ProblemInstance) -> str:
    """Serialise an instance to canonical Gset text."""
    lines = [f"{instance.n} {instance.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in instance.edges)
    return "\n".join(lines) + "\n"


def load_gset(path) -> ProblemInstance:
    """Read a Gset file; the instance name is the file's stem."""
    from pathlib import Path

    p = Path(path)
    return parse_gset(p.read_text(), name=p.stem)


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
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

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
    pairs: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            vid = r * cols + c + 1
            right = r * cols + (c + 1) % cols + 1
            down = ((r + 1) % rows) * cols + c + 1
            pairs.append((vid, right))
            pairs.append((vid, down))
    rng = np.random.default_rng(spec.seed)
    weights = rng.integers(0, 2, size=len(pairs)) * 2 - 1
    edges = [(u, v, int(w)) for (u, v), w in zip(pairs, weights)]
    return ProblemInstance.from_edges(n, edges, name=spec.name)


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
