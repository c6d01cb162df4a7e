import math

import numpy as np
import pytest

from conftest import (
    naive_cut,
    naive_flip_delta,
    neighbour_lists,
    random_config,
    random_instance,
    weight_matrix,
)
from gsetbench.evaluate import cut_value, evaluate_solution
from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus
from gsetbench.oracle import exact_max_cut
from gsetbench.solvers import (
    ANNEALING,
    GREEDY,
    KINDS,
    _BATCH_UNIFORMS,
    _RUN_UNIFORMS,
    SolverConfig,
    _initial_spins,
    _seed_words,
    _sweep_layout,
    _temperature,
    _trial_streams,
    default_config,
    run_trial,
    run_trials,
)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown solver kind"):
        SolverConfig(kind="tabu", sweeps=1)
    with pytest.raises(ValueError, match="sweeps"):
        SolverConfig(kind=GREEDY, sweeps=0)
    with pytest.raises(ValueError, match="64 bits"):
        run_trial(generate_torus(TorusSpec(3, 3, seed=1)), SolverConfig(kind=GREEDY, sweeps=1), -1)
    with pytest.raises(ValueError, match="temp_start"):
        SolverConfig(kind=ANNEALING, sweeps=1)
    with pytest.raises(ValueError, match="temp_end < temp_start"):
        SolverConfig(kind=ANNEALING, sweeps=1, temp_start=1.0, temp_end=2.0)
    with pytest.raises(ValueError, match="no temperatures"):
        SolverConfig(kind=GREEDY, sweeps=1, temp_start=1.0)
    # an infinite start made every later temperature NaN, so no flip was
    # accepted; a ratio that rounds to 0 made the later temperatures 0
    with pytest.raises(ValueError, match="temp_start < inf, got \\(inf, 1.0\\)"):
        SolverConfig(kind=ANNEALING, sweeps=5, temp_start=math.inf, temp_end=1.0)
    with pytest.raises(ValueError, match="temp_start < inf, got \\(nan, 1.0\\)"):
        SolverConfig(kind=ANNEALING, sweeps=5, temp_start=math.nan, temp_end=1.0)
    with pytest.raises(ValueError, match="rounds to 0, got \\(1e\\+308, 1e-308\\)"):
        SolverConfig(kind=ANNEALING, sweeps=5, temp_start=1e308, temp_end=1e-308)
    # the smallest ratio that stays positive is a schedule
    config = SolverConfig(kind=ANNEALING, sweeps=5, temp_start=1.0, temp_end=5e-324)
    assert all(_temperature(config, k) > 0 for k in range(5))


def test_non_integer_seeds_are_refused_and_integer_types_run_alike():
    inst = generate_torus(TorusSpec(3, 3, seed=1))
    config = default_config(ANNEALING, 5)
    for seed in (3.0, 1.5, "3", None, np.float64(2.0)):
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            run_trial(inst, config, seed)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.0"):
        run_trials(inst, config, [1, 2.0])
    for seed, same in ((np.uint64(2**64 - 1), 2**64 - 1), (np.int64(7), 7),
                       (np.uint8(200), 200), (True, 1)):
        assert_same_outcome(outcome(run_trial(inst, config, seed)),
                            outcome(run_trial(inst, config, same)))
    with pytest.raises(ValueError, match="seed must fit in 64 bits, got -1"):
        run_trial(inst, config, np.int64(-1))


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_seed_words_equal_seed_sequence_state():
    # seeds below 2^32 are one entropy word, the others two
    seeds = STREAM_SEEDS + np.random.default_rng(14).integers(
        2**64, size=1000, dtype=np.uint64).tolist()
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@pytest.mark.parametrize("n", (1, 2, 3, 20, 99, 10001))
def test_raw_bit_initial_spins_equal_generator_integers(n):
    streams = _trial_streams(STREAM_SEEDS)
    for stream, seed in zip(streams, STREAM_SEEDS):
        assert stream.state == np.random.PCG64(seed).state
    spins = _initial_spins(streams, n)
    assert spins.shape == (len(STREAM_SEEDS), n) and spins.dtype == np.int8
    for row, stream, seed in zip(spins, streams, STREAM_SEEDS):
        reference = np.random.Generator(np.random.PCG64(seed))
        assert np.array_equal(row, reference.integers(0, 2, size=n) * 2 - 1)
        # the stream goes on where integers() leaves it
        assert np.random.Generator(stream).random(3).tolist() == reference.random(3).tolist()


def test_default_config_fills_annealing_schedule():
    config = default_config(ANNEALING, 50)
    assert (config.temp_start, config.temp_end) == (3.0, 0.05)
    greedy = default_config(GREEDY, 50)
    assert greedy.temp_start is None and greedy.temp_end is None


def test_temperature_schedule_endpoints():
    config = default_config(ANNEALING, 10)
    assert _temperature(config, 0) == 3.0
    assert _temperature(config, 9) == pytest.approx(0.05)
    assert _temperature(config, 4) < _temperature(config, 3)
    one = default_config(ANNEALING, 1)
    assert _temperature(one, 0) == 3.0


def test_trials_are_deterministic():
    inst = generate_torus(TorusSpec(5, 5, seed=7))
    for kind in (GREEDY, ANNEALING):
        config = default_config(kind, 30)
        a = run_trial(inst, config, 123)
        b = run_trial(inst, config, 123)
        assert a.best_cut == b.best_cut
        assert np.array_equal(a.best_spins, b.best_spins)
        assert a.sweeps_executed == b.sweeps_executed


def test_best_cut_matches_reported_spins():
    rng = np.random.default_rng(41)
    for kind in (GREEDY, ANNEALING):
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(4, 16)))
            result = run_trial(inst, default_config(kind, 20), int(rng.integers(2**32)))
            assert cut_value(inst, result.best_spins) == result.best_cut


def test_greedy_converges_to_local_optimum():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    result = run_trial(inst, default_config(GREEDY, 10_000), 5)
    assert result.sweeps_executed < 10_000  # stopped on a no-flip sweep
    w = weight_matrix(inst)
    deltas = [naive_flip_delta(w, result.best_spins, k) for k in range(1, inst.n + 1)]
    assert max(deltas) <= 0


def test_annealing_always_consumes_budget():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    result = run_trial(inst, default_config(ANNEALING, 37), 5)
    assert result.sweeps_executed == 37


def test_greedy_best_cut_monotone_in_budget():
    inst = generate_torus(TorusSpec(6, 6, seed=11))
    for seed in (1, 2, 3):
        cuts = [
            run_trial(inst, default_config(GREEDY, sweeps), seed).best_cut
            for sweeps in (1, 2, 3, 4, 6, 8)
        ]
        assert cuts == sorted(cuts)


def test_solvers_never_beat_the_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        inst = random_instance(rng, int(rng.integers(6, 15)))
        optimum, _ = exact_max_cut(inst)
        for kind in (GREEDY, ANNEALING):
            result = run_trial(inst, default_config(kind, 40), int(rng.integers(2**32)))
            assert result.best_cut <= optimum


def test_wall_time_recorded():
    inst = generate_torus(TorusSpec(3, 3, seed=1))
    result = run_trial(inst, default_config(GREEDY, 5), 1)
    assert result.wall_time_s > 0


def hub_instance(rng, n, hub_sum):
    """A random graph on vertices 2..n plus vertex 1 joined to all of
    them, its absolute weights summing to ``hub_sum``: for hub_sum well
    above 5n, no other vertex's sum of |w| comes near it."""
    rest = random_instance(rng, n - 1)
    share, extra = divmod(hub_sum, n - 1)
    edges = [(1, v, int(sign) * (share + (v - 2 < extra)))
             for v, sign in zip(range(2, n + 1), rng.choice((-1, 1), size=n - 1))]
    edges += [(u + 1, v + 1, w) for u, v, w in rest.edges]
    return ProblemInstance(n, edges)


def scaled_instance(rng, n, limit):
    """A random graph whose weights are scaled so that their absolute
    values sum to just under ``limit``."""
    base = random_instance(rng, n)
    scale = (limit - 1) // sum(abs(w) for _, _, w in base.edges)
    return ProblemInstance(n, [(u, v, w * scale) for u, v, w in base.edges])


def kernel_instances():
    """An even torus, the odd 4x5 torus, random graphs, one of them with
    isolated vertices, and weighted graphs whose local fields need int8
    (largest sum of |w| at a vertex 127), int16 (128), int32 and int64
    (absolute weights summing to just under 2^62)."""
    rng = np.random.default_rng(8)
    sparse = random_instance(rng, 10, edge_prob=0.25)
    return [
        generate_torus(TorusSpec(6, 6, seed=3)),
        generate_torus(TorusSpec(4, 5, seed=1000)),
        ProblemInstance(sparse.n + 2, sparse.edges),
        random_instance(rng, 9),
        hub_instance(rng, 9, 127),
        hub_instance(rng, 9, 128),
        scaled_instance(rng, 9, 2**31),
        scaled_instance(rng, 9, 2**62),
    ]


def greedy_colouring(instance):
    """Each vertex's colour (0-based vertices): the smallest colour that
    no lower-numbered neighbour has, found with sets."""
    lower = [[] for _ in range(instance.n)]
    for u, v, _ in instance.edges:
        lower[max(u, v) - 1].append(min(u, v) - 1)
    colour = []
    for v in range(instance.n):
        used = {colour[u] for u in lower[v]}
        colour.append(min(set(range(len(used) + 1)) - used))
    return colour


def reference_trial(instance, config, seed):
    """The kernel's sweep, spin by spin in plain Python.

    Colour classes from greedy colouring in vertex order, visited in
    colour order; one uniform per vertex per annealing sweep, indexed by
    vertex; best cut checked after each class. Neighbours, cuts and the
    cooling schedule are computed here, sharing no code with the package.
    """
    n = instance.n
    neighbours = neighbour_lists(instance)
    colour = greedy_colouring(instance)
    classes = [[v for v in range(n) if colour[v] == c] for c in range(max(colour) + 1)]

    rng = np.random.default_rng(seed)
    spins = (rng.integers(0, 2, size=n) * 2 - 1).tolist()
    current = naive_cut(instance, spins)
    best, best_spins = current, tuple(spins)
    annealing = config.kind == ANNEALING
    for sweep in range(config.sweeps):
        if annealing:
            frac = sweep / (config.sweeps - 1) if config.sweeps > 1 else 0.0
            temp = config.temp_start * (config.temp_end / config.temp_start) ** frac
            uniforms = rng.random(n)
        flipped = False
        for members in classes:
            for v in members:
                delta = spins[v] * sum(w * spins[j - 1] for j, w in neighbours[v + 1])
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


def assert_same_outcome(got, expected):
    """Equal best cuts and sweeps executed, and best spins equal as arrays."""
    (cut, spins, sweeps), (expected_cut, expected_spins, expected_sweeps) = got, expected
    assert (cut, sweeps) == (expected_cut, expected_sweeps)
    assert np.array_equal(spins, expected_spins)


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_spin_by_spin_reference(kind):
    for inst in kernel_instances():
        # 2^32 and 2^64 - 1 are seeds of two 32-bit words
        for seed in (0, 1, 2, 3, 2**32, 2**64 - 1):
            config = default_config(kind, 12)
            assert_same_outcome(outcome(run_trial(inst, config, seed)),
                                reference_trial(inst, config, seed))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sweeps", (2, 25))
def test_batched_trials_equal_single_trials(kind, sweeps):
    for inst in kernel_instances():
        config = default_config(kind, sweeps)
        seeds = range(100, 107)
        single = [outcome(run_trial(inst, config, seed)) for seed in seeds]
        for size in (1, 3, len(seeds)):
            batched = [
                result
                for i in range(0, len(seeds), size)
                for result in run_trials(inst, config, seeds[i : i + size])
            ]
            assert len(batched) == len(single)
            for result, expected in zip(batched, single):
                assert_same_outcome(outcome(result), expected)


def test_uniform_draw_boundaries_keep_the_streams():
    # 200 trials of a 9x11 torus draw 13 sweeps' uniforms at a time, so
    # 30 sweeps take three draws; one trial alone draws them in one. A
    # hot schedule keeps late sweeps finding new best cuts.
    inst = generate_torus(TorusSpec(9, 11, seed=5))
    config = default_config(ANNEALING, 30, temp_start=3.0, temp_end=1.5)
    seeds = range(200)
    sweeps = config.sweeps
    run = _BATCH_UNIFORMS // (len(seeds) * inst.n)
    assert run < sweeps // 2 and sweeps % run and sweeps <= _RUN_UNIFORMS // inst.n
    batched = run_trials(inst, config, seeds)
    for result, seed in zip(batched, seeds):
        assert_same_outcome(outcome(result), outcome(run_trial(inst, config, seed)))
    for result, seed in zip(batched[:2], seeds):
        assert_same_outcome(outcome(result), reference_trial(inst, config, seed))


def test_best_spins_are_read_only_int8_rows():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    for result in run_trials(inst, default_config(ANNEALING, 5), range(3)):
        assert result.best_spins.dtype == np.int8
        assert result.best_spins.shape == (inst.n,)
        with pytest.raises(ValueError, match="read-only"):
            result.best_spins[0] = 1


def test_integrity_guard_recomputes_every_trial_of_a_batch():
    # corrupt one slot's cached weights: the kernel's incremental cuts
    # then disagree with the cuts recomputed from the instance's edges
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    _, classes = _sweep_layout(inst)
    _, _, slots = classes[0]
    _, _, weights = slots[0]
    weights *= 3
    with pytest.raises(RuntimeError, match="internal cut accounting drifted from recomputation"):
        run_trials(inst, default_config(ANNEALING, 5), range(6))


def test_batch_rejects_mixed_configs():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    with pytest.raises(ValueError, match="at least one"):
        run_trials(inst, default_config(GREEDY, 5), [])


def test_colour_classes_partition_vertices_into_independent_sets():
    # an even torus is a checkerboard; on the odd 4x5 torus greedy order
    # needs a third colour at (0, 4) and a fourth at (1, 4)
    tori = [
        (generate_torus(TorusSpec(6, 6, seed=3)), 2),
        (generate_torus(TorusSpec(4, 8, seed=4)), 2),
        (generate_torus(TorusSpec(4, 5, seed=1000)), 4),
    ]
    rng = np.random.default_rng(12)
    graph = random_instance(rng, 15, edge_prob=0.4)
    # the same graph, its edges shuffled and some given high end first
    shuffled = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                for u, v, w in rng.permutation(np.array(graph.edges)).tolist()]
    complete = [(u, v, 1) for u in range(1, 71) for v in range(u + 1, 71)]
    others = [
        *((inst, None) for inst in kernel_instances()),
        (ProblemInstance(1, []), 1),
        (graph, None),
        (ProblemInstance(graph.n, shuffled), None),
        # K_70 needs 70 colours, more bits than a 64-bit word holds
        (ProblemInstance(70, complete), 70),
    ]
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
        assert class_of.tolist() == greedy_colouring(inst)
        if expected is not None:
            assert len(classes) == expected
    assert _sweep_layout(ProblemInstance(graph.n, shuffled))[0].tolist() == (
        _sweep_layout(graph)[0].tolist()
    )


def test_slot_weights_take_the_narrowest_field_dtype():
    # the weighted kernel instances' largest sums of |w| at a vertex are
    # 127, 128, about 10^9 and about 2^61
    expected = [np.int8] * 6 + [np.int16, np.int32, np.int64]
    instances = [generate_torus(TorusSpec(100, 100, seed=1))] + kernel_instances()
    for inst, dtype in zip(instances, expected, strict=True):
        _, classes = _sweep_layout(inst)
        assert {weights.dtype for _, _, slots in classes for _, _, weights in slots} == {
            np.dtype(dtype)
        }


def test_layout_is_built_once_by_the_solvers_only():
    inst = generate_torus(TorusSpec(5, 5, seed=9))
    spins = random_config(np.random.default_rng(1), inst.n)
    evaluate_solution(inst, spins)
    cut_value(inst, spins)
    assert inst._sweep_layout is None
    run_trial(inst, default_config(GREEDY, 3), 1)
    layout = inst._sweep_layout
    assert layout is not None
    run_trial(inst, default_config(ANNEALING, 3), 1)
    assert inst._sweep_layout is layout
