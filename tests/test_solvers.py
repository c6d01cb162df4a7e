import math

import numpy as np
import pytest

from conftest import random_config, random_instance
from gsetbench.evaluate import cut_value, evaluate_solution, flip_delta_cut
from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus
from gsetbench.oracle import exact_max_cut
from gsetbench.solvers import (
    ANNEALING,
    GREEDY,
    KINDS,
    SolverConfig,
    _sweep_layout,
    _temperature,
    default_config,
    run_trial,
    run_trials,
)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown solver kind"):
        SolverConfig(kind="tabu", sweeps=1, seed=0)
    with pytest.raises(ValueError, match="sweeps"):
        SolverConfig(kind=GREEDY, sweeps=0, seed=0)
    with pytest.raises(ValueError, match="64 bits"):
        SolverConfig(kind=GREEDY, sweeps=1, seed=-1)
    with pytest.raises(ValueError, match="temp_start"):
        SolverConfig(kind=ANNEALING, sweeps=1, seed=0)
    with pytest.raises(ValueError, match="temp_end < temp_start"):
        SolverConfig(kind=ANNEALING, sweeps=1, seed=0, temp_start=1.0, temp_end=2.0)
    with pytest.raises(ValueError, match="no temperatures"):
        SolverConfig(kind=GREEDY, sweeps=1, seed=0, temp_start=1.0)


def test_default_config_fills_annealing_schedule():
    config = default_config(ANNEALING, 50, seed=3)
    assert (config.temp_start, config.temp_end) == (3.0, 0.05)
    greedy = default_config(GREEDY, 50, seed=3)
    assert greedy.temp_start is None and greedy.temp_end is None


def test_temperature_schedule_endpoints():
    config = default_config(ANNEALING, 10, seed=0)
    assert _temperature(config, 0) == 3.0
    assert _temperature(config, 9) == pytest.approx(0.05)
    assert _temperature(config, 4) < _temperature(config, 3)
    one = default_config(ANNEALING, 1, seed=0)
    assert _temperature(one, 0) == 3.0


def test_trials_are_deterministic():
    inst = generate_torus(TorusSpec(5, 5, seed=7))
    for kind in (GREEDY, ANNEALING):
        config = default_config(kind, 30, seed=123)
        a = run_trial(inst, config)
        b = run_trial(inst, config)
        assert a.best_cut == b.best_cut
        assert a.best_spins == b.best_spins
        assert a.sweeps_executed == b.sweeps_executed
        assert a.seed == 123


def test_best_cut_matches_reported_spins():
    rng = np.random.default_rng(41)
    for kind in (GREEDY, ANNEALING):
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(4, 16)))
            result = run_trial(inst, default_config(kind, 20, seed=int(rng.integers(2**32))))
            assert cut_value(inst, result.best_spins) == result.best_cut


def test_greedy_converges_to_local_optimum():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    result = run_trial(inst, default_config(GREEDY, 10_000, seed=5))
    assert result.sweeps_executed < 10_000  # stopped on a no-flip sweep
    deltas = [flip_delta_cut(inst, result.best_spins, k) for k in range(1, inst.n + 1)]
    assert max(deltas) <= 0


def test_annealing_always_consumes_budget():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    result = run_trial(inst, default_config(ANNEALING, 37, seed=5))
    assert result.sweeps_executed == 37


def test_greedy_best_cut_monotone_in_budget():
    inst = generate_torus(TorusSpec(6, 6, seed=11))
    for seed in (1, 2, 3):
        cuts = [
            run_trial(inst, default_config(GREEDY, sweeps, seed=seed)).best_cut
            for sweeps in (1, 2, 3, 4, 6, 8)
        ]
        assert cuts == sorted(cuts)


def test_solvers_never_beat_the_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        inst = random_instance(rng, int(rng.integers(6, 15)))
        optimum, _ = exact_max_cut(inst)
        for kind in (GREEDY, ANNEALING):
            result = run_trial(inst, default_config(kind, 40, seed=int(rng.integers(2**32))))
            assert result.best_cut <= optimum


def test_wall_time_recorded():
    inst = generate_torus(TorusSpec(3, 3, seed=1))
    result = run_trial(inst, default_config(GREEDY, 5, seed=1))
    assert result.wall_time_s > 0


def kernel_instances():
    """An even torus, the odd 4x5 torus, and random graphs, one of them
    with isolated vertices."""
    rng = np.random.default_rng(8)
    sparse = random_instance(rng, 10, edge_prob=0.25)
    return [
        generate_torus(TorusSpec(6, 6, seed=3)),
        generate_torus(TorusSpec(4, 5, seed=1000)),
        ProblemInstance.from_edges(sparse.n + 2, sparse.edges),
        random_instance(rng, 9),
    ]


def reference_trial(instance, config):
    """The kernel's sweep, spin by spin in plain Python.

    Colour classes from greedy colouring in vertex order, visited in
    colour order; one uniform per vertex per annealing sweep, indexed by
    vertex; best cut checked after each class.
    """
    n = instance.n
    colour = []
    for v in range(1, n + 1):
        used = {colour[u - 1] for u, _ in instance.adjacency[v] if u < v}
        colour.append(min(set(range(len(used) + 1)) - used))
    classes = [[v for v in range(n) if colour[v] == c] for c in range(max(colour) + 1)]

    rng = np.random.default_rng(config.seed)
    spins = (rng.integers(0, 2, size=n) * 2 - 1).tolist()
    current = cut_value(instance, spins)
    best, best_spins = current, tuple(spins)
    annealing = config.kind == ANNEALING
    for sweep in range(config.sweeps):
        if annealing:
            temp = _temperature(config, sweep)
            uniforms = rng.random(n)
        flipped = False
        for members in classes:
            for v in members:
                delta = spins[v] * sum(w * spins[j - 1] for j, w in instance.adjacency[v + 1])
                if annealing:
                    accept = uniforms[v] < math.exp(min(delta, 0) / temp)
                else:
                    accept = delta > 0
                if accept:
                    spins[v] = -spins[v]
                    current += delta
                    flipped = True
            if current > best:
                best, best_spins = current, tuple(spins)
        if not annealing and not flipped:
            return best, best_spins, sweep + 1
    return best, best_spins, config.sweeps


def outcome(result):
    return result.best_cut, result.best_spins, result.sweeps_executed


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_spin_by_spin_reference(kind):
    for inst in kernel_instances():
        for seed in range(4):
            config = default_config(kind, 12, seed=seed)
            assert outcome(run_trial(inst, config)) == reference_trial(inst, config)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sweeps", (2, 25))
def test_batched_trials_equal_single_trials(kind, sweeps):
    for inst in kernel_instances():
        configs = [default_config(kind, sweeps, seed=s) for s in range(100, 107)]
        single = [outcome(run_trial(inst, config)) for config in configs]
        for size in (1, 3, len(configs)):
            batched = [
                result
                for i in range(0, len(configs), size)
                for result in run_trials(inst, configs[i : i + size])
            ]
            assert [outcome(r) for r in batched] == single
            assert [r.seed for r in batched] == [c.seed for c in configs]


def test_batch_rejects_mixed_configs():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    with pytest.raises(ValueError, match="at least one"):
        run_trials(inst, [])
    with pytest.raises(ValueError, match="apart from the seed"):
        run_trials(inst, [default_config(GREEDY, 5, seed=1), default_config(GREEDY, 6, seed=2)])


def test_colour_classes_partition_vertices_into_independent_sets():
    # an even torus is a checkerboard; on the odd 4x5 torus greedy order
    # needs a third colour at (0, 4) and a fourth at (1, 4)
    tori = [
        (generate_torus(TorusSpec(6, 6, seed=3)), 2),
        (generate_torus(TorusSpec(4, 8, seed=4)), 2),
        (generate_torus(TorusSpec(4, 5, seed=1000)), 4),
    ]
    others = [(inst, None) for inst in kernel_instances()[2:]]
    for inst, expected in tori + others:
        order, classes = _sweep_layout(inst)
        assert sorted(order.tolist()) == list(range(inst.n))
        bounds = [lo for lo, _, _ in classes] + [inst.n]
        assert bounds[0] == 0 and all(a < b for a, b in zip(bounds, bounds[1:]))
        assert all(hi == bounds[c + 1] for c, (_, hi, _) in enumerate(classes))
        class_of = np.empty(inst.n, dtype=np.int64)
        for c, (lo, hi, _) in enumerate(classes):
            class_of[order[lo:hi]] = c
        for u, v, _ in inst.edges:
            assert class_of[u - 1] != class_of[v - 1]
        if expected is not None:
            assert len(classes) == expected


def test_layout_is_built_once_by_the_solvers_only():
    inst = generate_torus(TorusSpec(5, 5, seed=9))
    spins = random_config(np.random.default_rng(1), inst.n)
    evaluate_solution(inst, spins)
    cut_value(inst, spins)
    assert inst._sweep_layout is None
    run_trial(inst, default_config(GREEDY, 3, seed=1))
    layout = inst._sweep_layout
    assert layout is not None
    run_trial(inst, default_config(ANNEALING, 3, seed=1))
    assert inst._sweep_layout is layout
