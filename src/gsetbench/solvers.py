"""Baseline heuristic solvers: greedy local search and simulated annealing.

Both solvers walk over single-variable flips. One sweep visits every
variable exactly once in a fresh random permutation. Greedy accepts
only strictly improving flips and stops early after a sweep with no
flip; simulated annealing accepts non-worsening flips always and
worsening flips with probability exp(delta / T), cooling T on a
geometric schedule from temp_start to temp_end across the sweep
budget, and always consumes the whole budget.

Trials are deterministic functions of (instance, config): the seed
drives the initial configuration, the per-sweep permutations and the
acceptance draws through a single generator.
"""

from __future__ import annotations

import math
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


def run_trial(instance: ProblemInstance, config: SolverConfig) -> TrialResult:
    """Run one solver trial; deterministic in (instance, config)."""
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n = instance.n
    spins = (rng.integers(0, 2, size=n) * 2 - 1).tolist()

    # 0-indexed neighbour lists; the inner loop is hot, keep it flat
    adj = [tuple((j - 1, w) for j, w in instance.adjacency[k]) for k in range(1, n + 1)]

    current = cut_value(instance, spins)
    best = current
    best_spins = tuple(spins)
    sweeps_executed = 0
    annealing = config.kind == ANNEALING

    for sweep in range(config.sweeps):
        temp = _temperature(config, sweep) if annealing else 0.0
        flipped = False
        for i in rng.permutation(n).tolist():
            s_i = spins[i]
            delta = 0
            for j, w in adj[i]:
                delta += w * spins[j]
            delta *= s_i
            if annealing:
                # draw only for worsening moves so the stream stays aligned
                accept = delta >= 0 or rng.random() < math.exp(delta / temp)
            else:
                accept = delta > 0
            if accept:
                spins[i] = -s_i
                current += delta
                flipped = True
                if current > best:
                    best = current
                    best_spins = tuple(spins)
        sweeps_executed = sweep + 1
        if not annealing and not flipped:
            break

    if best != cut_value(instance, best_spins):
        raise RuntimeError("internal cut accounting drifted from recomputation")
    return TrialResult(
        best_cut=best,
        best_spins=best_spins,
        sweeps_executed=sweeps_executed,
        wall_time_s=time.perf_counter() - start,
        seed=config.seed,
    )
