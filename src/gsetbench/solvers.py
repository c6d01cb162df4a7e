"""Baseline heuristic solvers: greedy local search and simulated annealing.

Both solvers walk over single-variable flips. One sweep visits every
variable exactly once, one colour class at a time, in a fixed order:
the classes come from a greedy colouring of the graph in vertex order,
and a class is an independent set, so every flip in it is decided on
the same neighbour spins and each cut delta stays an exact integer
(chromatic Gibbs sampling; Gonzalez et al., "Parallel Gibbs Sampling:
From Colored Fields to Thin Junction Trees", AISTATS 2011). Greedy
accepts only strictly improving flips and stops early after a sweep
with no flip; simulated annealing accepts non-worsening flips always
and worsening flips with probability exp(delta / T), cooling T on a
geometric schedule from temp_start to temp_end across the sweep
budget, and always consumes the whole budget.

Trials run as a batch of one config under many seeds, one row of an
(R, n) spin array per trial, each row with its own stream: numpy's
PCG64 seeded as ``PCG64(seed)`` seeds it, with the four seed words
``SeedSequence(seed).generate_state(4, np.uint64)`` (hashed for the
whole batch at once). Initial spin i is +1 exactly when bit 31 of the
i-th 32-bit half of the stream's raw 64-bit outputs is set, low half
first, which is ``Generator.integers(0, 2)`` spin by spin. Annealing
then takes one uniform per spin per sweep from ``Generator.random``, a
run of sweeps' uniforms in one call (successive calls continue one
stream, so the run length never changes a number); greedy draws nothing
after the initial spins. A trial is therefore a deterministic function
of (instance, config, seed), whatever batch it runs in, and greedy with
a longer budget only extends the same trajectory.
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

# An annealing trial draws the uniforms of a run of sweeps in one call:
# the run fits in _RUN_UNIFORMS per trial and _BATCH_UNIFORMS (2 MB) over
# the batch, and is one sweep at least. A G72-size trial (n = 10000) thus
# draws one sweep at a time, and a 20-spin trial up to 204 sweeps.
_RUN_UNIFORMS = 1 << 12
_BATCH_UNIFORMS = 1 << 18

# campaign worker threads share instances; one of them builds the layout
_LAYOUT_LOCK = threading.Lock()


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
            if not (0.0 < self.temp_end < self.temp_start):
                raise ValueError(
                    f"need 0 < temp_end < temp_start, got "
                    f"({self.temp_start}, {self.temp_end})"
                )
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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 column of init * mult**k mod 2^32, k < count."""
    return np.array([[init * pow(mult, k, 1 << 32) % (1 << 32)] for k in range(count)],
                    dtype=np.uint32)


# numpy's SeedSequence hash (numpy.random.bit_generator): its pool of
# four uint32 words is built with the running constant _HASH_A, and its
# output state drawn with _HASH_B. Each hashmix call steps the constant
# once, so the k-th call of either uses rows k and k + 1.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row k of ``values`` under
    constants ``consts[k]`` and ``consts[k + 1]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), 4) uint64 array whose row i is
    ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``, the words
    ``PCG64(seeds[i])`` seeds itself with.

    A seed is the entropy of one uint32 word below 2^32 and of two from
    there; the pool's words past the entropy hash a 0, so one word hashes
    as two with a high word of 0.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _HASH_A[:5])
    # each word in turn is mixed into the three others
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        k = 4 + 3 * src
        mixed = pool[others] * _MIX_L - _hashmix(pool[src], _HASH_A[k : k + 4]) * _MIX_R
        pool[others] = mixed ^ (mixed >> _XSHIFT)
    # eight uint32 words, cycling over the pool, paired low word first
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


class _SeedWords:
    """A seed sequence holding one row of ``_seed_words``: PCG64 asks
    its seed sequence for four uint64 words, and gets that row.

    It is registered as a numpy ``ISeedSequence`` when first used, not
    subclassed, so that importing the package does not load numpy.random,
    which numpy 2 loads only on first use.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_streams(seeds: list[int]) -> list[np.random.PCG64]:
    """Each seed's PCG64, in the state ``PCG64(seed)`` starts in."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    return [np.random.PCG64(_SeedWords(row)) for row in words]


def _initial_spins(streams: list[np.random.PCG64], n: int) -> np.ndarray:
    """(len(streams), n) int8 array of +-1 spins, one row per stream,
    the spins ``Generator(stream).integers(0, 2, size=n) * 2 - 1`` gives.

    That draws each spin by Lemire's method on a 32-bit output, taking
    a raw 64-bit output's low half and then its high half; with a range
    of two it never rejects, and the spin is bit 31 of the half.
    """
    half = (n + 1) // 2
    raw = np.empty((len(streams), half), dtype=np.uint64)
    for row, stream in zip(raw, streams):
        row[:] = stream.random_raw(half)
    # spin 2k is bit 31 of output k and spin 2k + 1 its bit 63, taken by
    # shifts, so byte order does not matter, and written in place
    spins = np.empty((len(streams), 2 * half), dtype=np.int8)
    np.right_shift(raw, np.uint64(63), out=spins[:, 1::2], casting="unsafe")
    raw >>= np.uint64(31)
    np.bitwise_and(raw, np.uint64(1), out=spins[:, 0::2], casting="unsafe")
    spins *= 2
    spins -= 1
    return np.ascontiguousarray(spins[:, :n])


def _temperature(config: SolverConfig, sweep_index: int) -> float:
    if config.sweeps == 1:
        return config.temp_start
    frac = sweep_index / (config.sweeps - 1)
    return config.temp_start * (config.temp_end / config.temp_start) ** frac


def _sweep_layout(instance: ProblemInstance):
    """The instance's colour classes as runs of renumbered positions.

    Returns ``(order, classes)``. ``order[p]`` is the vertex (0-based)
    at position p: the colour classes in turn, each by falling degree,
    so that a class's spins are one contiguous slice. Each class is
    ``(lo, hi, slots)``: it holds positions ``lo:hi``, and its slot k is
    ``(count, neighbours, weights)``, the positions of the k-th
    neighbour of its first ``count`` vertices (those with degree above
    k) and the edge weights. Summing the slots gives every local field
    with no padding, so the work per class is its number of edge ends.
    Every slot's weights have one dtype: the narrowest of int8, int16,
    int32 and int64 that holds the instance's largest per-vertex sum of
    |w|, which bounds every partial field sum and every flip delta. The
    layout is built once and cached on the instance; only the solvers
    build it.
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
    # colour that no lower-numbered neighbour has, kept as the bit
    # 1 << colour; Python ints stay exact past 64 colours. A row's
    # entries from the second half of src, after the others, are its
    # lower-numbered neighbours.
    lower = dst[by_src >= instance.m].tolist()
    ends = np.cumsum(np.bincount(instance.ev, minlength=n)).tolist()
    bit = []
    for start, end in zip([0] + ends, ends):
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
    return order, tuple(classes)


def _local_fields(spins: np.ndarray, lo: int, hi: int, slots) -> np.ndarray:
    """(R, hi - lo) array of sum_j w_vj * s_j at positions lo:hi, in the
    slot weights' dtype (int8 for a class with no edges)."""
    dtype = slots[0][2].dtype if slots else np.int8
    fields = np.zeros((spins.shape[0], hi - lo), dtype=dtype)
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
    seeds = [check_seed(seed) for seed in seeds]
    if not seeds:
        raise ValueError("a batch needs at least one trial")
    order, classes = _sweep_layout(instance)
    n, batch = instance.n, len(seeds)
    annealing = config.kind == ANNEALING

    streams = _trial_streams(seeds)
    initial = _initial_spins(streams, n)
    current = cut_values(instance, initial)
    # spins[r, p] is trial r's spin at position p; np.take keeps the rows
    # C-contiguous, where initial[:, order] would come out column-major
    spins = np.take(initial, order, axis=1)
    if annealing:
        generators = [np.random.Generator(stream) for stream in streams]
        best, best_spins = current.copy(), spins.copy()
        run = max(1, min(config.sweeps, _RUN_UNIFORMS // n, _BATCH_UNIFORMS // (batch * n)))
        draws = np.empty((batch, run, n))
    sweeps_executed = np.full(batch, config.sweeps, dtype=np.int64)
    # batch rows of the trials still sweeping: a greedy trial stops
    # after a sweep without a flip, and its state is then final
    live = np.arange(batch)
    final_cut = np.empty(batch, dtype=np.int64)
    final_spins = np.empty((batch, n), dtype=np.int8)

    for sweep in range(config.sweeps):
        if annealing:
            temp = _temperature(config, sweep)
            step = sweep % run
            if not step:
                length = min(run, config.sweeps - sweep)
                for block, rng in zip(draws, generators):
                    rng.random(out=block[:length])
            # uniforms[r, v]: trial r's uniform for vertex v in this sweep
            uniforms = draws[:, step]
        flipped = np.zeros(len(live), dtype=bool)
        for lo, hi, slots in classes:
            block = spins[:, lo:hi]
            delta = block * _local_fields(spins, lo, hi, slots)
            if annealing:
                # exp(min(delta, 0) / T) is 1 for a non-worsening flip, and u < 1
                u = np.take(uniforms, order[lo:hi], axis=1)
                accept = u < np.exp(np.minimum(delta, 0) / temp)
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
            final_cut[live[done]] = current[done]
            final_spins[live[done]] = spins[done]
            sweeps_executed[live[done]] = sweep + 1
            live, spins, current = live[flipped], spins[flipped], current[flipped]
            if not len(live):
                break
    if annealing:
        final_cut[live], final_spins[live] = best, best_spins
    else:
        final_cut[live], final_spins[live] = current, spins
    by_vertex = np.empty_like(final_spins)
    by_vertex[:, order] = final_spins
    by_vertex.flags.writeable = False

    # every trial's cut, recomputed from scratch in one pass
    if not np.array_equal(cut_values(instance, by_vertex), final_cut):
        raise RuntimeError("internal cut accounting drifted from recomputation")
    wall = (time.perf_counter() - start) / batch
    return [
        TrialResult(best_cut=cut, best_spins=row, sweeps_executed=executed, wall_time_s=wall)
        for cut, row, executed in zip(final_cut.tolist(), by_vertex, sweeps_executed.tolist())
    ]


def run_trial(instance: ProblemInstance, config: SolverConfig, seed: int) -> TrialResult:
    """Run one solver trial; deterministic in (instance, config, seed)."""
    return run_trials(instance, config, [seed])[0]
