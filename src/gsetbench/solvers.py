"""Baseline heuristic solvers: greedy local search and simulated annealing.

Both solvers walk over single-variable flips. One sweep visits every
variable exactly once, one colour class at a time, in a fixed order:
the classes come from a greedy colouring of the graph in vertex order,
and a class is an independent set, so every flip in it is decided on
the same neighbour spins and each cut delta stays an exact integer
(chromatic Gibbs sampling; Gonzalez et al., "Parallel Gibbs Sampling:
From Colored Fields to Thin Junction Trees", AISTATS 2011). On a
torus with an even number of rows and of columns, numbered row by row,
that colouring is the checkerboard, built in closed form, and each
half's local fields are read from slices of the other half's spins, a
stencil on the checkerboard halves (Jacobs and Rebbi, J. Comput. Phys.
41, 203, 1981; Isakov et al., Comput. Phys. Commun. 192, 265, 2015).
A torus with an odd side is coloured in closed form too, every other
graph by a loop, and both gather their fields through neighbour index
arrays, one per neighbour slot. Greedy accepts only strictly improving
flips and stops early after a sweep with no flip; simulated annealing
accepts non-worsening flips always and worsening flips with
probability exp(delta / T), cooling T on a geometric schedule from
temp_start to temp_end across the sweep budget, and always consumes
the whole budget.

Trials run as a batch of one config under many seeds, R of them, held
in one of two memory orders. Trial-major, the spins are an (R, n)
array with one row per trial, and each op runs one colour class wide.
Trial-minor, they are an (n, R) array whose row p holds every trial's
spin at position p: a class's fields are one np.take of all its slots'
neighbour rows, one multiply by (count, 1) weights and one add per
slot, and every op runs R wide, as multi-replica kernels keep the
replica axis innermost (Isakov et al. 2015). The rule, from the layout
and the batch's size alone: a batch is trial-minor exactly when its
classes are slots and R is at least its widest class's vertex count.
So an even torus's stencil is trial-major at any R, and so is a slot
batch narrower than its widest class, where the trial-minor ops would
run fewer than a class wide. ``scripts/kernel_shapes.py`` measures
``run_trials``, set-up included, in ns per spin update (median over six
fresh processes of the minimum of 20 calls, 2-core host, Python 3.11,
numpy 2.4):

    instance                  R    order        annealing  greedy
    torus:100x100:1           4    trial-major   7.1        5.6
    torus:100x100:1           26   trial-major   7.1        3.8
    torus:101x100:3           8    trial-major  10.0        8.3
    torus:101x100:3           26   trial-major  10.0        7.5
    torus:4x5:1003            400  trial-minor  22.5       25.7
    random, n 800, degree 48  100  trial-minor  42.2       35.3

A trial's randomness is counter-based: word c of the trial with seed s
is output c + 1 of the SplitMix64 stream seeded at s (Steele, Lea and
Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014),
which ``splitmix64`` computes for whole arrays of seeds and counters.
Initial spin v (0-based) is +1 exactly when bit 63 of word v is set.
The mix's last step, z ^= z >> 31, leaves bit 63 as it is, so the
initial draw stops before it and reads bit 63 as the int64 sign. It
runs in the sweep's position order, position p drawing word order[p]
(``_sweep_layout``), so the spins need no reordering, and in blocks of
at most 2^13 words (64 KB) through one scratch array: glibc's malloc
may map a temporary of 128 KB or more afresh on each call, and then
each of its pages costs a page fault. At annealing sweep t (0-based),
vertex v's uniform is x 2^-53 with x = word (t + 1) n + v >> 11,
numpy's own 53-bit construction of a double in [0, 1), and the initial
draw is this formula's sweep -1; each colour class computes its own
words from its vertex ids. A batch computes them, and the other arrays
of its size that a sweep writes, in arrays it allocates once. Greedy
draws nothing after the initial spins. A trial is therefore a
deterministic function of (instance, config, seed), whatever batch it
runs in, and greedy with a longer budget only extends the same
trajectory.

A trial's starting cut comes from the same class views as its sweeps:
every class's local fields h on the initial spins give the energy E =
1/2 sum_v s_v h_v, and the cut is (W - E) / 2, W the total weight. The
final guard recomputes every best cut from the instance's edges
(``evaluate.cut_values``), which share nothing with the layout.

A flip of delta d at temperature T is accepted when x < k = ceil(e
2^53), e = exp(min(d, 0) / T). That is the rule x 2^-53 < e for every
e in [0, 1]: x 2^-53 is exact and e 2^53 only shifts e's exponent, so
the integer x is below e 2^53 exactly when it is below k. A
non-worsening flip has k = 2^53 and is always accepted; at a T so small
that d / T overflows, the exponent takes its limit -inf and k = 0, so a
worsening flip never is. With int8 fields (no vertex's sum of |w| above
127, as on every +-1 torus) a delta takes at most 255 values, so each
sweep computes k once per delta, into a 256-entry table indexed by the
delta's byte; wider fields compute k per flip.

The words of seed s are mix(s + k γ) for k = 1, 2, ..., so two trials
share a word only if their seeds differ by a multiple of γ smaller
than the number of words used, modulo 2^64. With T trials of C words
each, the chance of that is about T^2 C / 2^64: about 1e-4 for 1000
trials of G81 size (n = 20000) and 80 000 sweeps.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from gsetbench.evaluate import cut_values
from gsetbench.instances import ProblemInstance, check_seed, torus_grid

GREEDY = "greedy_local_search"
ANNEALING = "simulated_annealing"
KINDS = (GREEDY, ANNEALING)

DEFAULT_TEMP_START = 3.0
DEFAULT_TEMP_END = 0.05

# SplitMix64's increment γ and its output mix's two multipliers
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# the initial spins' words are drawn in blocks of at most this many
_DRAW_BLOCK = 2**13

# campaign worker threads share instances; one of them builds the layout
_LAYOUT_LOCK = threading.Lock()

# every int8 delta, at the index of its byte
_BYTE_DELTAS = np.arange(256, dtype=np.uint8).view(np.int8)


@dataclass(frozen=True)
class SolverConfig:
    """A trial's schedule, everything but its seed: trials under equal
    configs differ only in their random streams."""

    kind: str
    sweeps: int
    temp_start: float | None = None
    temp_end: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}, expected one of {KINDS}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be positive, got {self.sweeps}")
        if self.kind == ANNEALING:
            if self.temp_start is None or self.temp_end is None:
                raise ValueError("simulated annealing needs temp_start and temp_end")
            # an infinite start would make every later temperature NaN,
            # and a ratio that rounds to 0 would make them 0
            if not (0.0 < self.temp_end < self.temp_start < np.inf):
                raise ValueError(
                    f"need 0 < temp_end < temp_start < inf, got "
                    f"({self.temp_start}, {self.temp_end})"
                )
            if self.temp_end / self.temp_start == 0.0:
                raise ValueError(f"temp_end / temp_start rounds to 0, got "
                                 f"({self.temp_start}, {self.temp_end})")
        elif self.temp_start is not None or self.temp_end is not None:
            raise ValueError("greedy local search takes no temperatures")


def default_config(
    kind: str,
    sweeps: int,
    temp_start: float | None = None,
    temp_end: float | None = None,
) -> SolverConfig:
    """SolverConfig with unset annealing temperatures taken from the
    standard schedule."""
    if kind == ANNEALING:
        temp_start = DEFAULT_TEMP_START if temp_start is None else temp_start
        temp_end = DEFAULT_TEMP_END if temp_end is None else temp_end
    return SolverConfig(kind=kind, sweeps=sweeps, temp_start=temp_start, temp_end=temp_end)


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One trial's outcome; ``best_spins`` is a read-only int8 row of
    +-1 spins in vertex order."""

    best_cut: int
    best_spins: np.ndarray
    sweeps_executed: int
    wall_time_s: float


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """The outcome of a batch of trials, row i being trial i's: int64
    ``best_cuts`` and ``sweeps_executed``, the read-only (R, n) int8
    ``best_spins`` in vertex order, and the wall time per trial.

    It is also the sequence of the trials' ``TrialResult``s, each made
    when it is read."""

    best_cuts: np.ndarray
    best_spins: np.ndarray
    sweeps_executed: np.ndarray
    wall_time_s: float

    def __len__(self) -> int:
        return len(self.best_cuts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return TrialResult(best_cut=int(self.best_cuts[i]), best_spins=self.best_spins[i],
                           sweeps_executed=int(self.sweeps_executed[i]),
                           wall_time_s=self.wall_time_s)


def splitmix64(seeds, counters) -> np.ndarray:
    """(len(seeds), len(counters)) uint64 array of stream words: entry
    (i, j) is word ``counters[j]`` of the stream seeded at ``seeds[i]``,
    output ``counters[j] + 1`` of SplitMix64 seeded there.

    Both arguments are 1-D sequences of integers in 0..2^64-1, taken as
    uint64 arrays, whose arithmetic wraps modulo 2^64 without the warning
    that numpy scalar arithmetic gives.
    """
    z = np.add.outer(np.asarray(seeds, dtype=np.uint64),
                     (np.asarray(counters, dtype=np.uint64) + 1) * SPLITMIX_GAMMA)
    _premix(z)
    z ^= z >> 31
    return z


def _premix(z: np.ndarray, shifted: np.ndarray | None = None) -> None:
    """SplitMix64's output mix of the uint64 states ``z``, in place, but
    for its last step ``z ^= z >> 31``, which leaves bit 63 as it is;
    the shifted states go to ``shifted`` if given."""
    for shift, multiplier in zip((30, 27), SPLITMIX_MULTIPLIERS):
        z ^= np.right_shift(z, shift, out=shifted)
        z *= multiplier


def _initial_spins(seeds: np.ndarray, order: np.ndarray, minor: bool) -> np.ndarray:
    """The initial +-1 spins of the trials seeded at ``seeds``, a uint64
    array, in position order: a C-contiguous int8 array, (n, R)
    trial-minor and (R, n) trial-major, whose position p holds bit 63 of
    word ``order[p]``, drawn block by block (see the module docstring)."""
    batch, n = len(seeds), len(order)
    spins = np.empty((n, batch) if minor else (batch, n), dtype=np.int8)
    # a block is `across` positions of `down` trials
    across = _DRAW_BLOCK // min(batch, _DRAW_BLOCK) if minor else min(n, _DRAW_BLOCK)
    down = _DRAW_BLOCK // across
    steps = np.empty(across, dtype=np.uint64)
    scratch = np.empty(across * down, dtype=np.uint64)
    for lo in range(0, n, across):
        hi = min(lo + across, n)
        # position p's state is s + (order[p] + 1) γ
        step = np.multiply(order[lo:hi].view(np.uint64), SPLITMIX_GAMMA, out=steps[:hi - lo])
        step += SPLITMIX_GAMMA
        for top in range(0, batch, down):
            bottom = min(top + down, batch)
            z = scratch[:(hi - lo) * (bottom - top)]
            if minor:
                z = np.add.outer(step, seeds[top:bottom], out=z.reshape(hi - lo, bottom - top))
                block = spins[lo:hi, top:bottom]
            else:
                z = np.add.outer(seeds[top:bottom], step, out=z.reshape(bottom - top, hi - lo))
                block = spins[top:bottom, lo:hi]
            _premix(z)
            np.less(z.view(np.int64), 0, out=block.view(np.bool_))
            block *= 2
            block -= 1
    return spins


def _temperature(config: SolverConfig, sweep_index: int) -> float:
    if config.sweeps == 1:
        return config.temp_start
    frac = sweep_index / (config.sweeps - 1)
    return config.temp_start * (config.temp_end / config.temp_start) ** frac


def _sweep_layout(instance: ProblemInstance):
    """The instance's colour classes as runs of renumbered positions.

    Returns ``(order, classes, field)``. ``order[p]`` is the vertex
    (0-based) at position p: the classes of the greedy colouring in
    vertex order in turn, each by falling degree, so that a class's
    spins are one contiguous slice. Each class is ``(lo, hi, weights)``:
    it holds positions ``lo:hi``, and ``_local_fields`` reads its fields
    through ``weights``, which take one of two forms.

    An R x C torus with R and C even, numbered row by row (as
    ``instances.torus_grid`` recognises it, whatever its name), has two
    classes, the checkerboard halves: cells (r, c) with r + c even, then
    the others, each in vertex order and so an (R, C/2) block whose
    entry (r, j) is cell (r, 2j) or (r, 2j + 1). Its ``weights`` are four
    stacked (R, C/2) planes: at (r, j), the weights of the cell's edges
    to the other half's entries (r, j), (r, j - 1 or j + 1), (r + 1, j)
    and (r - 1, j), wrapping; the second is j - 1 where the cell is
    (r, 2j) and j + 1 where it is (r, 2j + 1).

    On every other graph ``weights`` are slots: slot k is ``(count,
    neighbours, weights)``, the positions of the k-th neighbour of the
    class's first ``count`` vertices (those with degree above k) and the
    edge weights. Summing the slots gives every local field with no
    padding, so the work per class is its number of edge ends.

    Every weight has the dtype ``field``: the narrowest of int8, int16,
    int32 and int64 that holds the instance's largest per-vertex sum of
    |w|, which bounds every partial field sum and every flip delta. The
    layout is built once and cached on the instance; only the solvers
    build it, and the threads of a campaign share it.
    """
    with _LAYOUT_LOCK:
        if instance._sweep_layout is None:
            object.__setattr__(instance, "_sweep_layout", _build_layout(instance))
    return instance._sweep_layout


def _field_dtype(largest: int):
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if largest <= np.iinfo(t).max)


def _sum_dtype(width: int, field):
    """The narrowest dtype that holds a row sum of ``width`` deltas of
    dtype ``field``, each at most that dtype's largest value in
    magnitude. A class's vertices are independent, so its deltas sum to
    the cut change of flipping them all, below 2^62 in magnitude."""
    return _field_dtype(min(width * int(np.iinfo(field).max), 2**62))


def _build_layout(instance: ProblemInstance):
    grid = torus_grid(instance)
    if grid is not None and grid[0] % 2 == 0 and grid[1] % 2 == 0:
        return _torus_layout(*grid)
    n = instance.n
    src = np.concatenate((instance.eu, instance.ev))
    dst = np.concatenate((instance.ev, instance.eu))
    weight = np.concatenate((instance.ew, instance.ew))
    by_src = np.argsort(src, kind="stable")
    dst, weight = dst[by_src], weight[by_src]
    degree = np.bincount(src, minlength=n)
    # CSR rows: v's neighbours are dst[indptr[v]:indptr[v + 1]]
    indptr = np.concatenate(([0], np.cumsum(degree)))
    # the absolute weights sum below 2^62, so twice that fits in int64
    running = np.concatenate(([0], np.cumsum(np.abs(weight))))
    field = _field_dtype(int((running[indptr[1:]] - running[indptr[:-1]]).max()))
    weight = weight.astype(field)
    colour = (_greedy_colouring(instance, dst[by_src >= instance.m]) if grid is None
              else _torus_colouring(*grid[:2]))

    order = np.lexsort((-degree, colour))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    bounds = np.searchsorted(colour[order], np.arange(colour.max() + 2)).tolist()
    classes = []
    for lo, hi in zip(bounds, bounds[1:]):
        vertices = order[lo:hi]
        vertex_degree = degree[vertices]
        slots = []
        for k in range(int(vertex_degree[0])):
            count = int(np.count_nonzero(vertex_degree > k))
            at = indptr[vertices[:count]] + k
            slots.append((count, position[dst[at]], weight[at]))
        classes.append((lo, hi, tuple(slots)))
    return order, tuple(classes), field


def _greedy_colouring(instance: ProblemInstance, lower: np.ndarray) -> np.ndarray:
    """Each vertex's colour in the greedy colouring in vertex order: the
    smallest colour that no lower-numbered neighbour has. ``lower`` holds
    each vertex's lower-numbered neighbours, vertex by vertex."""
    # a colour is kept as the bit 1 << colour; Python ints stay exact
    # past 64 colours
    lower = lower.tolist()
    ends = np.cumsum(np.bincount(instance.ev, minlength=instance.n)).tolist()
    bit = []
    for start, end in zip([0] + ends, ends):
        used = 0
        for u in lower[start:end]:
            used |= bit[u]
        bit.append(~used & (used + 1))  # the lowest clear bit of used
    return np.fromiter(map(int.bit_length, bit), np.int64, instance.n) - 1


def _torus_colouring(rows: int, cols: int) -> np.ndarray:
    """The greedy colouring of a rows x cols torus numbered row by row,
    in closed form: the checkerboard (r + c) mod 2 on the even rows and
    columns, 2 + r mod 2 down an odd last column, 2 + c mod 2 along an
    odd last row and 0 at the corner of both.

    Cell (r, c)'s lower-numbered neighbours are the cells to its left
    and above and, in the last column or row, the wrapped cells (r, 0)
    or (0, c). Off an odd last column or row, these hold the
    checkerboard's other colour. A cell of an odd last column meets both
    checkerboard colours, to its left and at (r, 0), and the cell above
    it, so it takes 2 + r mod 2; so does a cell of an odd last row,
    along the row. The corner of both meets only colours 2 and 3.
    """
    r, c = np.arange(rows), np.arange(cols)
    colour = np.add.outer(r, c) % 2
    if cols % 2:
        colour[:, -1] = 2 + r % 2
    if rows % 2:
        colour[-1] = 2 + c % 2
        if cols % 2:
            colour[-1, -1] = 0
    return colour.ravel()


def _torus_layout(rows: int, cols: int, right_w: np.ndarray, down_w: np.ndarray):
    """The layout of an even torus in closed form (see ``_sweep_layout``).

    Numbered row by row, every cell but cell 0 has a lower-numbered
    neighbour, to its left or above, and all of them lie on the other
    colour of the checkerboard, so by induction the greedy colouring is
    the checkerboard; all degrees are 4, so each class stays in vertex
    order.
    """
    # left_w[r, c] and up_w[r, c] are the weights of the edges from
    # (r, c - 1) and (r - 1, c), wrapping
    left_w, up_w = np.roll(right_w, 1, axis=1), np.roll(down_w, 1, axis=0)
    size = np.abs(right_w) + np.abs(left_w) + np.abs(down_w) + np.abs(up_w)
    field = _field_dtype(int(size.max()))
    # [r, j, b] of each is cell (r, 2j + b)'s entry
    half = cols // 2
    cells, right, left, down, up = (a.reshape(rows, half, 2) for a in (
        np.arange(rows * cols), right_w, left_w, down_w, up_w))
    order = np.empty((2, rows, half), dtype=np.int64)
    classes = []
    for k in (0, 1):
        planes = np.empty((4, rows, half), dtype=field)
        # class k holds the cells (r, 2j) of the rows r = k mod 2 and the
        # cells (r, 2j + 1) of the others; its beside edge is the left
        # edge of the first and the right edge of the second
        for b, beside in ((0, left), (1, right)):
            r = slice((k + b) % 2, None, 2)
            order[k, r] = cells[r, :, b]
            planes[0, r] = right[r, :, 0]
            planes[1, r] = beside[r, :, b]
            planes[2, r] = down[r, :, b]
            planes[3, r] = up[r, :, b]
        classes.append((k * rows * half, (k + 1) * rows * half, planes))
    return order.ravel(), tuple(classes), field


def _thresholds(delta: np.ndarray, temp: float) -> np.ndarray:
    """The uint64 acceptance thresholds k = ceil(exp(min(d, 0) / temp)
    2^53) of the deltas d: annealing accepts a flip when its 53-bit
    integer is below its k (see the module docstring)."""
    # d / temp overflows at a tiny temp; the exponent then takes its
    # limit -inf, and k is 0
    with np.errstate(over="ignore"):
        k = np.exp(np.minimum(delta, 0) / temp)
    k *= 2.0**53
    return np.ceil(k, out=k).astype(np.uint64)


def _trial_minor(classes, batch: int) -> bool:
    """Whether a batch of ``batch`` trials over ``classes`` is held
    trial-minor: slot classes, and no fewer trials than the widest class
    has vertices (see the module docstring)."""
    return (not isinstance(classes[0][2], np.ndarray)
            and batch >= max(hi - lo for lo, hi, _ in classes))


class _Scratch:
    """A batch's work buffers, each made flat on its first request and
    handing out the C-contiguous array of a shape at its head, so that
    the classes, and a greedy batch's shrinking set of live trials, share
    it; a larger request makes a new buffer."""

    def __init__(self):
        self._flat = {}

    def __call__(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _stencil_arrays(batch: int, plane: np.ndarray, spin_dtype, scratch: _Scratch) -> tuple:
    """The fields, a product, the padded other half and its beside
    neighbours, for an even torus's classes, whose planes are all of
    ``plane``'s shape and dtype."""
    rows, width = plane.shape
    shape = (batch, rows, width)
    return (scratch("fields", shape, plane.dtype), scratch("product", shape, plane.dtype),
            scratch("padded", (batch, rows + 2, width), spin_dtype),
            scratch("beside", shape, spin_dtype))


def _slot_gather(slots, width: int, field) -> tuple:
    """A slot class's slots as one gather, ``(neighbours, weights,
    later)``: every slot's positions and weights end to end, the first
    slot's padded to the class's ``width`` with position 0 and weight 0,
    and the ``(count, offset)`` of each later slot. The first ``width``
    products of the gather are then one term of every vertex's field, a
    vertex of degree 0 included, and each later slot's ``count`` products
    add to the first ``count`` of them."""
    pad = width - (slots[0][0] if slots else 0)
    parts = (*slots[:1], (pad, np.zeros(pad, np.int64), np.zeros(pad, field)), *slots[1:])
    later, offset = [], width
    for count, _, _ in slots[1:]:
        later.append((count, offset))
        offset += count
    return (np.concatenate([neighbours for _, neighbours, _ in parts]),
            np.concatenate([weights for _, _, weights in parts]), later)


def _slot_view(gather: tuple, width: int, field, spins: np.ndarray, minor: bool,
               scratch: _Scratch) -> tuple:
    """The arrays that ``_local_fields`` computes a slot class's fields
    in, for ``spins`` held trial-minor or not: ``(axis, neighbours,
    weights, gathered, product, fields, sums)``. The gather runs along
    the position ``axis``, its weights are shaped to multiply it, the
    class's fields are the head of the product, and ``sums`` pairs each
    later slot's products with the fields they add to."""
    neighbours, weights, later = gather
    if minor:
        shape, weights = (len(neighbours), spins.shape[1]), weights[:, None]
    else:
        shape = (len(spins), len(neighbours))
    gathered = scratch("gathered", shape, spins.dtype)
    product = gathered if gathered.dtype == field else scratch("products", shape, field)

    def part(lo, hi):
        return product[lo:hi] if minor else product[:, lo:hi]

    sums = [(part(0, count), part(offset, offset + count)) for count, offset in later]
    return int(not minor), neighbours, weights, gathered, product, part(0, width), sums


def _class_views(spins: np.ndarray, classes, gathers, field, minor: bool,
                 scratch: _Scratch) -> list:
    """Per class, ``(block, view, accept)`` for ``spins``: the class's
    spins, the arrays that ``_local_fields`` computes its fields in and a
    bool array of the block's shape; all but the block are heads of
    ``scratch``'s buffers. ``gathers`` holds each slot class's
    ``_slot_gather`` and None for an even torus's classes."""
    views = []
    for (lo, hi, weights), gather in zip(classes, gathers):
        block = spins[lo:hi] if minor else spins[:, lo:hi]
        if gather is None:
            view = _stencil_arrays(len(spins), weights[0], spins.dtype, scratch)
        else:
            view = _slot_view(gather, hi - lo, field, spins, minor, scratch)
        views.append((block, view, scratch("accept", block.shape, bool)))
    return views


def _local_fields(spins, lo: int, hi: int, weights, field, view: tuple | None = None):
    """The array of sum_j w_vj * s_j at positions lo:hi, of dtype
    ``field`` and laid out as ``spins``: (R, hi - lo) trial-major, (hi -
    lo, R) trial-minor. It is computed from the class's ``weights`` (see
    ``_sweep_layout``), an even torus's planes by slices of the other
    half, slots by one gather, in the arrays of ``view``, from
    ``_stencil_arrays`` or ``_slot_view``; without a view, ``spins`` are
    trial-major and new arrays are made.
    """
    if isinstance(weights, np.ndarray):
        batch = len(spins)
        same, beside_w, down, up = weights
        rows, width = same.shape
        fields, product, padded, beside = view or _stencil_arrays(batch, same, spins.dtype,
                                                                  _Scratch())
        # class 0 comes first and holds cell (0, 0), so its entries are
        # the even cells of their pairs on the even rows
        k = int(lo > 0)
        other = (spins[:, :lo] if k else spins[:, hi:]).reshape(batch, rows, width)
        np.multiply(other, same, out=fields)
        # row r of other is row r + 1 of padded, which wraps at both ends
        np.concatenate((other[:, -1:], other, other[:, :1]), axis=1, out=padded)
        fields += np.multiply(padded[:, 2:], down, out=product)
        fields += np.multiply(padded[:, :-2], up, out=product)
        left, right = slice(k, None, 2), slice(1 - k, None, 2)
        beside[:, left, 1:] = other[:, left, :-1]
        beside[:, left, 0] = other[:, left, -1]
        beside[:, right, :-1] = other[:, right, 1:]
        beside[:, right, -1] = other[:, right, 0]
        fields += np.multiply(beside, beside_w, out=product)
        return fields.reshape(batch, hi - lo)
    axis, neighbours, slot_weights, gathered, product, fields, sums = view or _slot_view(
        _slot_gather(weights, hi - lo, field), hi - lo, field, spins, False, _Scratch())
    # mode="wrap" lets np.take gather straight into its out=
    np.take(spins, neighbours, axis=axis, mode="wrap", out=gathered)
    np.multiply(gathered, slot_weights, out=product)
    for total, part in sums:
        total += part
    return fields


def _gathers(classes, field) -> list:
    """Each class's ``_slot_gather``, or None for an even torus's."""
    return [None if isinstance(weights, np.ndarray) else _slot_gather(weights, hi - lo, field)
            for lo, hi, weights in classes]


def _starting_cuts(total_weight: int, spins, classes, field, views, minor: bool) -> np.ndarray:
    """Each trial's cut from its classes' local fields h: C = (W - E) / 2
    with W the total weight and energy E = 1/2 sum_v s_v h_v, since every
    edge's term w s_u s_v appears at both its ends. |E| and |W| are at
    most the sum of |w|, below 2^62, so every sum stays exact in int64."""
    twice_energy = np.zeros(spins.shape[int(minor)], dtype=np.int64)
    for (lo, hi, weights), (block, view, _) in zip(classes, views):
        energies = _local_fields(spins, lo, hi, weights, field, view)
        energies *= block
        twice_energy += energies.sum(axis=int(not minor), dtype=_sum_dtype(hi - lo, field))
    twice_energy //= 2
    return np.subtract(total_weight, twice_energy, out=twice_energy) // 2


def _anneal(spins, current, best, best_spins, seeds, config, layout, minor, views,
            scratch) -> None:
    """Run a batch's annealing sweeps, updating its spins, cuts, best cuts
    and best spins in place, with ``views`` the classes' ``_class_views``
    in ``scratch``. The arrays of the batch's size that a sweep writes are
    allocated once, before the first sweep; only the thresholds of fields
    wider than int8 are not."""
    order, classes, field = layout
    n = len(order)
    axis, trials = int(not minor), int(minor)
    # int8 fields bound |delta| by 127, so a delta's byte indexes a table
    byte_deltas = field == np.int8
    steps = []
    for (lo, hi, weights), (block, view, accept) in zip(classes, views):
        # sweep t draws word (t + 1) n + v for vertex v, whose state is
        # s + (v + 1) γ + (t + 1) n γ: a class's base plus one offset
        base = (order[lo:hi].astype(np.uint64) + 1) * SPLITMIX_GAMMA
        steps.append((lo, hi, weights, view, _sum_dtype(hi - lo, field),
                      base[:, None] if minor else base, block, accept,
                      *(scratch(name, block.shape, np.uint64)
                        for name in ("words", "shifts", "limits"))))
    # the improved trials' spins are gathered at the head of one buffer
    scratch("improved", spins.shape, spins.dtype)
    for sweep in range(config.sweeps):
        temp = _temperature(config, sweep)
        if byte_deltas:
            table = _thresholds(_BYTE_DELTAS, temp)
        offset = seeds + (sweep + 1) * n * SPLITMIX_GAMMA % 2**64
        if not minor:
            offset = offset[:, None]
        for lo, hi, weights, view, sum_dtype, base, block, accept, x, shifted, limit in steps:
            delta = _local_fields(spins, lo, hi, weights, field, view)
            delta *= block
            # the word's top 53 bits x make the uniform x 2^-53 in [0, 1)
            np.add(offset, base, out=x)
            _premix(x, shifted)
            x ^= np.right_shift(x, 31, out=shifted)
            x >>= 11
            if byte_deltas:
                # the byte, not the signed delta, is the cheap index; it
                # takes the spent shifted words' place
                index = shifted.view(np.intp)
                np.copyto(index, delta.view(np.uint8))
                np.less(x, np.take(table, index, mode="wrap", out=limit), out=accept)
            else:
                np.less(x, _thresholds(delta, temp), out=accept)
            current += np.multiply(delta, accept, out=delta).sum(axis=axis, dtype=sum_dtype)
            # -1 = 0b1...11 and +1 = 0b0...01 differ in every bit but the
            # lowest, so xor with -2 flips a spin and xor with 0 keeps it
            flip = accept.view(np.int8)
            block ^= np.multiply(flip, -2, out=flip)
            improved = np.flatnonzero(current > best)
            if len(improved):
                best[improved] = current[improved]
                shape = (n, len(improved)) if minor else (len(improved), n)
                best_spins[_trials_at(improved, minor)] = np.take(
                    spins, improved, axis=trials, mode="wrap",
                    out=scratch("improved", shape, spins.dtype))


def _trials_at(index, minor: bool):
    """The index of trials ``index`` in an array of the batch's order."""
    return (slice(None), index) if minor else index


def _climb(spins, current, best, best_spins, config, layout, minor, views, gathers,
           scratch) -> np.ndarray:
    """Run a batch's greedy sweeps, writing each trial's best cut and best
    spins; returns the sweeps each trial executed. ``views`` are the
    classes' ``_class_views`` from ``gathers`` in ``scratch``. The arrays
    of the batch's size that a sweep writes are allocated once, before
    the first sweep.

    A trial stops after a sweep without a flip, which leaves its spins as
    they were, so that a further sweep would flip nothing either. When
    trials stop, a trial-major batch moves the others to the head of one
    of two spin buffers, so that later sweeps cost what they cost; a
    trial-minor batch, where a trial is one column of every op, sweeps
    its stopped trials on unchanged.
    """
    order, classes, field = layout
    n, batch = len(order), len(current)
    axis = int(not minor)
    sweeps_executed = np.full(batch, config.sweeps, dtype=np.int64)
    # the batch rows of the trials in spins, and which of them still sweep
    live, running = np.arange(batch), np.ones(batch, dtype=bool)
    sum_dtypes = [_sum_dtype(hi - lo, field) for lo, hi, _ in classes]
    held, spare = spins.reshape(-1), None if minor else np.empty(spins.size, spins.dtype)
    for sweep in range(config.sweeps):
        flipped = np.zeros(len(live), dtype=bool)
        for (lo, hi, weights), sum_dtype, (block, view, accept) in zip(classes, sum_dtypes,
                                                                       views):
            delta = _local_fields(spins, lo, hi, weights, field, view)
            delta *= block
            np.greater(delta, 0, out=accept)
            flipped |= accept.any(axis=axis)
            current += np.multiply(delta, accept, out=delta).sum(axis=axis, dtype=sum_dtype)
            flip = accept.view(np.int8)
            block ^= np.multiply(flip, -2, out=flip)
        stopping = running & ~flipped
        if not stopping.any():
            continue
        sweeps_executed[live[stopping]] = sweep + 1
        running &= flipped
        if not running.any():
            break
        if not minor:
            done, kept = np.flatnonzero(stopping), np.flatnonzero(running)
            best[live[done]] = current[done]
            # the spare buffer takes the stopped trials after the kept ones
            best_spins[live[done]] = np.take(
                spins, done, axis=0, mode="wrap",
                out=spare[len(kept) * n:len(live) * n].reshape(len(done), n))
            spins = np.take(spins, kept, axis=0, mode="wrap",
                            out=spare[:len(kept) * n].reshape(len(kept), n))
            held, spare = spare, held
            live, current, running = live[kept], current[kept], running[kept]
            views = _class_views(spins, classes, gathers, field, minor, scratch)
    best[live], best_spins[_trials_at(live, minor)] = current, spins
    return sweeps_executed


def run_trials(instance: ProblemInstance, config: SolverConfig, seeds) -> TrialBatch:
    """Run one trial of ``config`` per seed, as one batch.

    Trial i's outcome, row i of the batch, depends on (instance, config,
    seeds[i]) alone, not on the batch; the wall time per trial is the
    batch's divided by its size. Every seed must be an integer of one
    64-bit word, and all are checked before any trial runs; a 1-D uint64
    array holds nothing else and is taken as it is.
    """
    start = time.perf_counter()
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        seeds = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
    if not seeds.size:
        raise ValueError("a batch needs at least one trial")
    layout = order, classes, field = _sweep_layout(instance)
    minor = _trial_minor(classes, len(seeds))
    # trial r's spin at position p is spins[r, p] trial-major and spins[p,
    # r] trial-minor, C-contiguous either way
    spins = _initial_spins(seeds, order, minor)
    gathers, scratch = _gathers(classes, field), _Scratch()
    views = _class_views(spins, classes, gathers, field, minor, scratch)
    current = _starting_cuts(instance.total_weight(), spins, classes, field, views, minor)
    # trial i's best state so far; greedy only climbs, so its best is the
    # state it stops in, written when it stops and at the end of the batch
    best, best_spins = current.copy(), spins.copy()
    if config.kind == ANNEALING:
        _anneal(spins, current, best, best_spins, seeds, config, layout, minor, views, scratch)
        sweeps_executed = np.full(len(seeds), config.sweeps, dtype=np.int64)
    else:
        sweeps_executed = _climb(spins, current, best, best_spins, config, layout, minor,
                                 views, gathers, scratch)
    by_vertex = np.empty((len(seeds), instance.n), dtype=np.int8)
    by_vertex[:, order] = best_spins.T if minor else best_spins
    by_vertex.flags.writeable = False

    # every trial's cut, recomputed from scratch in one pass
    if not np.array_equal(cut_values(instance, by_vertex), best):
        raise RuntimeError("internal cut accounting drifted from recomputation")
    return TrialBatch(best_cuts=best, best_spins=by_vertex, sweeps_executed=sweeps_executed,
                      wall_time_s=(time.perf_counter() - start) / len(seeds))


def run_trial(instance: ProblemInstance, config: SolverConfig, seed: int) -> TrialResult:
    """Run one solver trial; deterministic in (instance, config, seed)."""
    return run_trials(instance, config, [seed])[0]
