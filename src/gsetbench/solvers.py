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

Trials run as a batch, one row of an (R, n) spin array per trial, and
every row has its own generator seeded from its config. The generator
draws the initial configuration and, for annealing, one uniform per
spin per sweep; greedy draws nothing after the initial spins. A trial
is therefore a deterministic function of (instance, config), whatever
batch it runs in, and greedy with a longer budget only extends the
same trajectory.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from gsetbench.evaluate import cut_value
from gsetbench.instances import ProblemInstance

GREEDY = "greedy_local_search"
ANNEALING = "simulated_annealing"
KINDS = (GREEDY, ANNEALING)

DEFAULT_TEMP_START = 3.0
DEFAULT_TEMP_END = 0.05

# campaign worker threads share instances; one of them builds the layout
_LAYOUT_LOCK = threading.Lock()


@dataclass(frozen=True)
class SolverConfig:
    kind: str
    sweeps: int
    seed: int
    temp_start: float | None = None
    temp_end: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}, expected one of {KINDS}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be positive, got {self.sweeps}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
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
    seed: int,
    temp_start: float | None = None,
    temp_end: float | None = None,
) -> SolverConfig:
    """SolverConfig with unset annealing temperatures taken from the
    standard schedule."""
    if kind == ANNEALING:
        temp_start = DEFAULT_TEMP_START if temp_start is None else temp_start
        temp_end = DEFAULT_TEMP_END if temp_end is None else temp_end
    return SolverConfig(
        kind=kind,
        sweeps=sweeps,
        seed=seed,
        temp_start=temp_start,
        temp_end=temp_end,
    )


@dataclass(frozen=True)
class TrialResult:
    best_cut: int
    best_spins: tuple[int, ...]
    sweeps_executed: int
    wall_time_s: float
    seed: int


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
    The layout is built once and cached on the instance; only the
    solvers build it.
    """
    with _LAYOUT_LOCK:
        if instance._sweep_layout is None:
            object.__setattr__(instance, "_sweep_layout", _build_layout(instance))
    return instance._sweep_layout


def _build_layout(instance: ProblemInstance):
    n = instance.n
    src = np.concatenate((instance._eu, instance._ev))
    dst = np.concatenate((instance._ev, instance._eu))
    weight = np.concatenate((instance._ew, instance._ew))
    by_src = np.argsort(src, kind="stable")
    dst, weight = dst[by_src], weight[by_src]
    degree = np.bincount(src, minlength=n)
    first = np.cumsum(degree) - degree

    # greedy colouring in vertex order: each vertex takes the smallest
    # colour that no lower-numbered neighbour has
    colour = [0] * n
    for v, neighbours in enumerate(instance.adjacency[1:]):
        used = {colour[u - 1] for u, _ in neighbours if u <= v}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    colour = np.array(colour)

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
            at = first[vertices[:count]] + k
            slots.append((count, position[dst[at]], weight[at]))
        classes.append((lo, hi, tuple(slots)))
    return order, tuple(classes)


def _local_fields(spins: np.ndarray, lo: int, hi: int, slots) -> np.ndarray:
    """(R, hi - lo) array of sum_j w_vj * s_j at positions lo:hi."""
    fields = np.zeros((spins.shape[0], hi - lo), dtype=np.int64)
    for count, neighbours, weights in slots:
        fields[:, :count] += np.take(spins, neighbours, axis=1) * weights
    return fields


def run_trials(instance: ProblemInstance, configs) -> list[TrialResult]:
    """Run trials that share one config apart from the seed, as one batch.

    Trial i's result depends on (instance, configs[i]) alone, not on the
    batch; each result's wall time is the batch's divided by its size.
    """
    start = time.perf_counter()
    configs = list(configs)
    if not configs:
        raise ValueError("a batch needs at least one trial")
    template = configs[0]
    schedule = (template.kind, template.sweeps, template.temp_start, template.temp_end)
    for config in configs:
        if (config.kind, config.sweeps, config.temp_start, config.temp_end) != schedule:
            raise ValueError("trials in one batch must share their config apart from the seed")
    order, classes = _sweep_layout(instance)
    n, batch = instance.n, len(configs)
    annealing = template.kind == ANNEALING

    generators = [np.random.default_rng(config.seed) for config in configs]
    # spins[r, p] is trial r's spin at position p
    spins = np.empty((batch, n), dtype=np.int64)
    for row, rng in zip(spins, generators):
        row[:] = rng.integers(0, 2, size=n)[order]
    spins *= 2
    spins -= 1
    # sum_v s_v * field_v counts every edge's w s_u s_v once from each end
    twice_energy = sum(
        (spins[:, lo:hi] * _local_fields(spins, lo, hi, slots)).sum(axis=1)
        for lo, hi, slots in classes
    )
    current = (instance.total_weight() - twice_energy // 2) // 2
    if annealing:
        best, best_spins = current.copy(), spins.copy()
        uniforms = np.empty((batch, n))
    sweeps_executed = np.full(batch, template.sweeps, dtype=np.int64)
    # batch rows of the trials still sweeping: a greedy trial stops
    # after a sweep without a flip, and its state is then final
    live = np.arange(batch)
    final_cut = np.empty(batch, dtype=np.int64)
    final_spins = np.empty((batch, n), dtype=np.int8)

    for sweep in range(template.sweeps):
        if annealing:
            temp = _temperature(template, sweep)
            for row, rng in zip(uniforms, generators):
                rng.random(out=row)
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

    for cut, row in zip(final_cut, by_vertex):
        if int(cut) != cut_value(instance, row):
            raise RuntimeError("internal cut accounting drifted from recomputation")
    wall = (time.perf_counter() - start) / batch
    return [
        TrialResult(
            best_cut=int(cut),
            best_spins=tuple(row.tolist()),
            sweeps_executed=int(executed),
            wall_time_s=wall,
            seed=config.seed,
        )
        for config, cut, row, executed in zip(configs, final_cut, by_vertex, sweeps_executed)
    ]


def run_trial(instance: ProblemInstance, config: SolverConfig) -> TrialResult:
    """Run one solver trial; deterministic in (instance, config)."""
    return run_trials(instance, [config])[0]
