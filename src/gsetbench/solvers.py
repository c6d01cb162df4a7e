"""Baseline heuristic solvers: greedy local search and simulated annealing.

Both solvers walk over single-variable flips. One sweep visits every
variable exactly once, one colour class at a time, in a fixed order:
the classes come from a greedy colouring of the graph in vertex order,
and a class is an independent set, so every flip in it is decided on
the same neighbour spins and each cut delta stays an exact integer
(chromatic Gibbs sampling; Gonzalez et al., "Parallel Gibbs Sampling:
From Colored Fields to Thin Junction Trees", AISTATS 2011). It is
still exactly that colouring: a parity guess made in numpy is checked
against the greedy rule, and a loop colours only the vertices from the
first one the guess gets wrong. Greedy accepts only strictly improving
flips and stops early after a sweep with no flip; simulated annealing
accepts non-worsening flips always and worsening flips with
probability exp(delta / T), cooling T on a geometric schedule from
temp_start to temp_end across the sweep budget, and always consumes
the whole budget.

Trials run as a batch of one config under many seeds, one row of an
(R, n) spin array per trial. A trial's randomness is counter-based:
word c of the trial with seed s is output c + 1 of the SplitMix64
stream seeded at s (Steele, Lea and Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014), which ``splitmix64``
computes for whole arrays of seeds and counters. Initial spin v
(0-based) is +1 exactly when bit 63 of word v is set. At annealing
sweep t (0-based), vertex v's uniform is x 2^-53 with x = word
(t + 1) n + v >> 11, numpy's own 53-bit construction of a double in
[0, 1); each colour class computes its own words from its vertex ids.
Greedy draws nothing after the initial spins. A trial is therefore a
deterministic function of (instance, config, seed), whatever batch it
runs in, and greedy with a longer budget only extends the same
trajectory.

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

import threading
import time
from dataclasses import dataclass

import numpy as np

from gsetbench.evaluate import cut_values
from gsetbench.instances import ProblemInstance, check_seed

GREEDY = "greedy_local_search"
ANNEALING = "simulated_annealing"
KINDS = (GREEDY, ANNEALING)

DEFAULT_TEMP_START = 3.0
DEFAULT_TEMP_END = 0.05

# SplitMix64's increment γ and its output mix's two multipliers
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

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
    z ^= z >> 30
    z *= SPLITMIX_MULTIPLIERS[0]
    z ^= z >> 27
    z *= SPLITMIX_MULTIPLIERS[1]
    z ^= z >> 31
    return z


def _temperature(config: SolverConfig, sweep_index: int) -> float:
    if config.sweeps == 1:
        return config.temp_start
    frac = sweep_index / (config.sweeps - 1)
    return config.temp_start * (config.temp_end / config.temp_start) ** frac


def _sweep_layout(instance: ProblemInstance):
    """The instance's colour classes as runs of renumbered positions.

    Returns ``(order, classes, field)``. ``order[p]`` is the vertex
    (0-based) at position p: the colour classes in turn, each by falling
    degree, so that a class's spins are one contiguous slice. The
    classes are the greedy colouring in vertex order; a checked parity
    guess colours a leading run of vertices at once (all of them on a
    row-major even torus), and a loop colours the rest. Each class
    is ``(lo, hi, slots)``: it holds positions ``lo:hi``, and its slot k
    is ``(count, neighbours, weights)``, the positions of the k-th
    neighbour of its first ``count`` vertices (those with degree above
    k) and the edge weights. Summing the slots gives every local field
    with no padding, so the work per class is its number of edge ends.
    Every slot's weights have the dtype ``field``: the narrowest of
    int8, int16, int32 and int64 that holds the instance's largest
    per-vertex sum of |w|, which bounds every partial field sum and
    every flip delta. The layout is built once and cached on the
    instance; only the solvers build it.
    """
    with _LAYOUT_LOCK:
        if instance._sweep_layout is None:
            object.__setattr__(instance, "_sweep_layout", _build_layout(instance))
    return instance._sweep_layout


def _build_layout(instance: ProblemInstance):
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
    largest = int((running[indptr[1:]] - running[indptr[:-1]]).max())
    field = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if largest <= np.iinfo(t).max)
    weight = weight.astype(field)

    # greedy colouring in vertex order: each vertex takes the smallest
    # colour that no lower-numbered neighbour has. A row's entries from
    # the second half of src, after the others, are its lower-numbered
    # neighbours. The loop runs from the first vertex the parity guess
    # gets wrong, a colour kept as the bit 1 << colour; Python ints
    # stay exact past 64 colours.
    lower = dst[by_src >= instance.m]
    lower_ptr = np.concatenate(([0], np.cumsum(np.bincount(instance.ev, minlength=n))))
    colour, checked = _parity_guess(lower, lower_ptr)
    if checked < n:
        bit = (1 << colour[:checked]).tolist()
        lower = lower.tolist()
        ends = lower_ptr[checked:].tolist()
        for start, end in zip(ends, ends[1:]):
            used = 0
            for u in lower[start:end]:
                used |= bit[u]
            bit.append(~used & (used + 1))  # the lowest clear bit of used
        colour = np.fromiter(map(int.bit_length, bit), np.int64, n) - 1

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


def _parity_guess(lower: np.ndarray, lower_ptr: np.ndarray) -> tuple[np.ndarray, int]:
    """A guess at the greedy colouring in vertex order, and the number
    of leading vertices it colours as that colouring does.

    Vertex v's lower-numbered neighbours are ``lower[lower_ptr[v]:
    lower_ptr[v + 1]]``. v's guess is its depth parity in the forest
    where each vertex points at its first lower-numbered neighbour. The
    count is the first vertex whose guess is not the smallest colour
    missing among its lower-numbered neighbours' guesses, or n: the
    greedy colouring is the one colouring where no vertex breaks that
    rule, so by induction it agrees with the guess up to there.
    """
    has_lower = np.diff(lower_ptr) > 0
    starts = lower_ptr[:-1][has_lower]
    ancestor = np.arange(len(has_lower))
    ancestor[has_lower] = lower[starts]
    # pointer doubling: guess[v] is the parity of the path from v to
    # ancestor[v], and every ancestor ends at its tree's root
    guess = has_lower.astype(np.int64)
    while not np.array_equal(further := ancestor[ancestor], ancestor):
        guess ^= guess[ancestor]
        ancestor = further
    used = np.zeros_like(guess)
    used[has_lower] = np.bitwise_or.reduceat(1 << guess[lower], starts)
    # the smallest colour missing from the bits used, for used in 0..3
    wrong = np.flatnonzero(np.array([0, 1, 0, 2])[used] != guess)
    return guess, int(wrong[0]) if len(wrong) else len(guess)


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


def _local_fields(spins: np.ndarray, lo: int, hi: int, slots, field) -> np.ndarray:
    """(R, hi - lo) array of sum_j w_vj * s_j at positions lo:hi, of
    dtype ``field``."""
    fields = np.zeros((spins.shape[0], hi - lo), dtype=field)
    for count, neighbours, weights in slots:
        fields[:, :count] += np.take(spins, neighbours, axis=1) * weights
    return fields


def run_trials(instance: ProblemInstance, config: SolverConfig, seeds) -> list[TrialResult]:
    """Run one trial of ``config`` per seed, as one batch.

    Trial i's result depends on (instance, config, seeds[i]) alone, not
    on the batch; each result's wall time is the batch's divided by its
    size. Every seed must be an integer of one 64-bit word, and all are
    checked before any trial runs.
    """
    start = time.perf_counter()
    seeds = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
    if not seeds.size:
        raise ValueError("a batch needs at least one trial")
    order, classes, field = _sweep_layout(instance)
    n, batch = instance.n, len(seeds)
    annealing = config.kind == ANNEALING
    # int8 fields bound |delta| by 127, so a delta's byte indexes a table
    byte_deltas = field == np.int8

    # spin v starts at +1 exactly when bit 63 of word v is set
    initial = (splitmix64(seeds, np.arange(n)) >> 63).astype(np.int8)
    initial *= 2
    initial -= 1
    current = cut_values(instance, initial)
    # spins[r, p] is trial r's spin at position p; np.take keeps the rows
    # C-contiguous, where initial[:, order] would come out column-major
    spins = np.take(initial, order, axis=1)
    # trial i's best state so far; greedy only climbs, so its best is the
    # state it stops in, written when it stops and at the end of the batch
    best, best_spins = current.copy(), spins.copy()
    sweeps_executed = np.full(batch, config.sweeps, dtype=np.int64)
    # batch rows of the trials still sweeping: a greedy trial stops
    # after a sweep without a flip
    live = np.arange(batch)

    for sweep in range(config.sweeps):
        if annealing:
            temp = _temperature(config, sweep)
            if byte_deltas:
                table = _thresholds(_BYTE_DELTAS, temp)
        flipped = np.zeros(len(live), dtype=bool)
        for lo, hi, slots in classes:
            block = spins[:, lo:hi]
            delta = block * _local_fields(spins, lo, hi, slots, field)
            if annealing:
                # sweep t draws word (t + 1) n + v for vertex v, and its
                # top 53 bits x make the uniform x 2^-53 in [0, 1)
                x = splitmix64(seeds, order[lo:hi] + (sweep + 1) * n)
                x >>= 11
                # the byte, not the signed delta, is the cheap index
                accept = x < (np.take(table, delta.view(np.uint8)) if byte_deltas
                              else _thresholds(delta, temp))
            else:
                accept = delta > 0
                flipped |= accept.any(axis=1)
            block *= 1 - 2 * accept.view(np.int8)
            current += (delta * accept).sum(axis=1)
            if annealing:
                improved = current > best
                if improved.any():
                    best[improved] = current[improved]
                    best_spins[improved] = spins[improved]
        if not annealing and not flipped.all():
            done = ~flipped
            best[live[done]] = current[done]
            best_spins[live[done]] = spins[done]
            sweeps_executed[live[done]] = sweep + 1
            live, spins, current = live[flipped], spins[flipped], current[flipped]
            if not len(live):
                break
    if not annealing:
        best[live], best_spins[live] = current, spins
    by_vertex = np.empty_like(best_spins)
    by_vertex[:, order] = best_spins
    by_vertex.flags.writeable = False

    # every trial's cut, recomputed from scratch in one pass
    if not np.array_equal(cut_values(instance, by_vertex), best):
        raise RuntimeError("internal cut accounting drifted from recomputation")
    wall = (time.perf_counter() - start) / batch
    return [
        TrialResult(best_cut=cut, best_spins=row, sweeps_executed=executed, wall_time_s=wall)
        for cut, row, executed in zip(best.tolist(), by_vertex, sweeps_executed.tolist())
    ]


def run_trial(instance: ProblemInstance, config: SolverConfig, seed: int) -> TrialResult:
    """Run one solver trial; deterministic in (instance, config, seed)."""
    return run_trials(instance, config, [seed])[0]
