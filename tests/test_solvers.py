import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_stencil_fields_equal_gathers,
    naive_cut,
    naive_flip_delta,
    neighbour_lists,
    random_config,
    random_instance,
    reference_splitmix64,
    reference_torus_layout,
    weight_matrix,
)
from gsetbench import instances, solvers
from gsetbench.campaign import read_log
from gsetbench.codec import decode_hex
from gsetbench.evaluate import cut_value, cut_values, evaluate_solution
from gsetbench.instances import (
    ProblemInstance,
    TorusSpec,
    generate_torus,
    load_gset,
    torus_grid,
)
from gsetbench.oracle import exact_max_cut
from gsetbench.solvers import (
    ANNEALING,
    GREEDY,
    KINDS,
    SolverConfig,
    _BYTE_DELTAS,
    _initial_spins,
    _sweep_layout,
    _temperature,
    _thresholds,
    _torus_layout,
    default_config,
    run_trial,
    run_trials,
    splitmix64,
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


def test_stream_words_equal_python_splitmix64():
    seeds = STREAM_SEEDS + np.random.default_rng(14).integers(
        2**64, size=1000, dtype=np.uint64).tolist()
    counters = list(range(70)) + [2**32 - 1, 2**32, 2**40 - 1, 2**40, 2**40 + 1,
                                  3 * 2**41 + 5, 2**63, 2**64 - 1]
    words = splitmix64(np.array(seeds, dtype=np.uint64), np.array(counters, dtype=np.uint64))
    assert words.shape == (len(seeds), len(counters)) and words.dtype == np.uint64
    assert words.tolist() == [[reference_splitmix64(s, c) for c in counters] for s in seeds]


def test_splitmix64_reference_vectors():
    # first three outputs of the reference SplitMix64 stream from 1234567,
    # and distinct words along one stream
    assert splitmix64([1234567], range(3))[0].tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    assert len(set(splitmix64([42], range(1000))[0].tolist())) == 1000


@pytest.mark.parametrize("batch, n", [(1, 1), (3, 2**13 - 1), (3, 2**13), (2, 2**13 + 1),
                                      (2, 20000), (400, 20), (26, 10000)])
def test_initial_spins_are_the_top_bits_of_the_stream_words(batch, n):
    # the block draw in position order, both memory orders, on shapes at
    # and across its block bounds, with the last seed at 2^64 - 1 so that
    # a state wraps: position p takes bit 63 of word order[p]
    rng = np.random.default_rng(n)
    seeds = rng.integers(2**64, size=batch, dtype=np.uint64)
    seeds[-1] = 2**64 - 1
    order = rng.permutation(n)
    expected = (splitmix64(seeds, order) >> 63).astype(np.int8) * 2 - 1
    for minor, by_position in ((False, expected), (True, expected.T)):
        spins = _initial_spins(seeds, order, minor)
        assert spins.dtype == np.int8 and spins.flags.c_contiguous
        assert np.array_equal(spins, by_position)


def test_initial_draw_keeps_its_temporaries_small():
    # the words are drawn block by block, so the peak stays far below the
    # (R, n) uint64 array of all of them, 2 MB here
    seeds = np.arange(26, dtype=np.uint64)
    order = np.random.default_rng(3).permutation(10000)
    for minor in (False, True):
        tracemalloc.start()
        try:
            spins = _initial_spins(seeds, order, minor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < spins.nbytes + 256 * 1024


def test_annealing_sweeps_allocate_nothing_of_the_batch_size(monkeypatch):
    # 26 rows of a G72-size torus: one class's uint64 words are 1 MB and
    # its int8 arrays 127 KB. Each sweep starts by building its threshold
    # table, so the peak traced between two of those calls, above what
    # was live at the first, is what one sweep allocates at once.
    inst = generate_torus(TorusSpec(100, 100, seed=1))
    thresholds = solvers._thresholds
    marks = []

    def marking(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return thresholds(*args)

    monkeypatch.setattr(solvers, "_thresholds", marking)
    tracemalloc.start()
    try:
        run_trials(inst, default_config(ANNEALING, 6), range(26))
    finally:
        tracemalloc.stop()
    sweeps = [peak - live for (live, _), (_, peak) in zip(marks, marks[1:])]
    assert len(sweeps) == 5
    assert max(sweeps) < 128 * 1024


def sweep_peaks(monkeypatch, inst, config, batch):
    """The peak traced during each whole sweep of a batch, above what
    was live when it began: a sweep begins at its first class's fields,
    and the first such call of a batch, which computes the starting cut
    before the sweeps' buffers are made, begins no sweep."""
    local_fields = solvers._local_fields
    marks = []

    def marking(spins, lo, *args):
        if lo == 0:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return local_fields(spins, lo, *args)

    monkeypatch.setattr(solvers, "_local_fields", marking)
    tracemalloc.start()
    try:
        run_trials(inst, config, range(batch))
    finally:
        tracemalloc.stop()
    marks = marks[1:]
    return [peak - live for (live, _), (_, peak) in zip(marks, marks[1:])]


def test_greedy_sweeps_allocate_nothing_of_the_batch_size(monkeypatch):
    # 26 rows of a G72-size torus: its spins are 254 KB. Four trials stop
    # after three sweeps and the others after four, so the third sweep
    # ends by moving the 22 still sweeping to the other spin buffer.
    inst = generate_torus(TorusSpec(100, 100, seed=1))
    assert not solvers._trial_minor(_sweep_layout(inst)[1], 26)
    sweeps = sweep_peaks(monkeypatch, inst, default_config(GREEDY, 50), 26)
    assert len(sweeps) == 3
    assert max(sweeps) < 128 * 1024


def dense_graph(n, degree, seed):
    """A random graph joining each vertex pair with probability degree /
    (n - 1) by a +-1 edge, like Gset's G1-G10 at n = 800 and degree 48."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < degree / (n - 1)
    weights = rng.choice((-1, 1), size=int(keep.sum()))
    return ProblemInstance(n, np.column_stack((u[keep] + 1, v[keep] + 1, weights)))


@pytest.mark.parametrize("kind", KINDS)
def test_trial_minor_sweeps_allocate_nothing_of_the_batch_size(monkeypatch, kind):
    # 100 trials of a G1-size random graph run trial-minor; a class's
    # gathered neighbour spins reach about 300 KB
    inst = dense_graph(800, 48, seed=1)
    assert solvers._trial_minor(_sweep_layout(inst)[1], 100)
    sweeps = sweep_peaks(monkeypatch, inst, default_config(kind, 6), 100)
    assert len(sweeps) == 5
    assert max(sweeps) < 128 * 1024


def test_a_batch_holds_its_trials_as_arrays():
    inst = generate_torus(TorusSpec(6, 8, seed=2))
    seeds = np.array([5, 2**64 - 1, 0], dtype=np.uint64)
    for kind in KINDS:
        config = default_config(kind, 7)
        batch = run_trials(inst, config, seeds)
        assert batch.best_cuts.dtype == batch.sweeps_executed.dtype == np.int64
        assert batch.best_cuts.shape == batch.sweeps_executed.shape == (3,)
        assert batch.best_spins.shape == (3, inst.n)
        assert not batch.best_spins.flags.writeable
        assert batch.wall_time_s >= 0
        # a uint64 array of seeds runs as the same seeds listed as ints
        listed = run_trials(inst, config, seeds.tolist())
        assert np.array_equal(listed.best_cuts, batch.best_cuts)
        assert np.array_equal(listed.best_spins, batch.best_spins)
        for i, seed in enumerate(seeds.tolist()):
            assert_same_outcome(outcome(batch[i]), outcome(run_trial(inst, config, seed)))
            assert (batch.best_cuts[i], batch.sweeps_executed[i]) == (
                batch[i].best_cut, batch[i].sweeps_executed)


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


def float_rule(x, delta, temp):
    """The Metropolis rule as the spin-by-spin reference states it: a
    flip is accepted when its uniform x 2^-53 is below exp(min(d, 0) / T)."""
    # at a tiny T the exponent's limit is -inf, and the probability 0
    with np.errstate(over="ignore"):
        return x * 2.0**-53 < np.exp(np.minimum(delta, 0) / temp)


# int16, int32 and int64 deltas reaching each width's extremes; the
# test adds all 256 int8 deltas
WIDE_DELTAS = {
    np.int16: [0, 1, -1, -2, 127, -128, 128, -129, 2**15 - 1, -(2**15 - 1), -(2**15)],
    np.int32: [0, -1, -300, 2**15 - 1, -(2**15 - 1), 2**31 - 1, -(2**31 - 1)],
    np.int64: [0, -1, -(2**15 - 1), 2**40, -(2**40), -(2**40) - 1, 2**62 - 1, -(2**62 - 1)],
}


@pytest.mark.parametrize("temp", (1e-310, 1e-300, 0.05, 1.0, 3.0, 1e300))
def test_acceptance_table_equals_the_float_rule(temp):
    # the int8 table entries and per-flip thresholds of wider deltas,
    # against the float rule at the words (k << 11) - 1, k << 11 and
    # (k << 11) + 2047, kept to 64 bits, and 200 random words per delta
    rng = np.random.default_rng(21)
    table = _thresholds(_BYTE_DELTAS, temp)
    assert table.dtype == np.uint64 and table.shape == (256,)
    int8 = np.arange(-128, 128, dtype=np.int8)
    cases = [(int8, table[int8.view(np.uint8)])]
    for dtype, values in WIDE_DELTAS.items():
        delta = np.array(values, dtype=dtype)
        cases.append((delta, _thresholds(delta, temp)))
    for delta, k in cases:
        assert k.dtype == np.uint64
        assert (k[delta >= 0] == 2**53).all() and (k <= 2**53).all()
        edges = [[min(max(int(t) * 2**11 + offset, 0), 2**64 - 1) for t in k]
                 for offset in (-1, 0, 2047)]
        words = np.vstack((np.array(edges, dtype=np.uint64),
                           rng.integers(0, 2**64, (200, len(delta)), dtype=np.uint64)))
        x = words >> 11
        accept = x < k
        assert np.array_equal(accept, float_rule(x, np.tile(delta, (len(words), 1)), temp))
        # x = k - 1 is accepted and x = k is not, and k = 0 accepts nothing
        assert accept[0, k > 0].all() and not accept[1, k < 2**53].any()
        assert not accept[:, k == 0].any()
    if temp < 1e-290:
        # exp(d / T) is 0, or d / T overflows to -inf: no worsening flip
        assert all((k[delta < 0] == 0).all() for delta, k in cases)


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


def weighted_torus(rng, rows, cols, largest):
    """A rows x cols torus numbered as ``generate_torus`` numbers it, its
    weights nonzero integers of |w| up to largest / 4, and vertex 1's four
    at largest / 4, so that its sum of |w|, ``largest``, is the largest."""
    base = generate_torus(TorusSpec(rows, cols, seed=0))
    size = rng.integers(1, largest // 4 + 1, size=base.m)
    size[(base.eu == 0) | (base.ev == 0)] = largest // 4
    weights = size * rng.choice((-1, 1), size=base.m)
    return ProblemInstance(base.n, np.column_stack((base.eu + 1, base.ev + 1, weights)))


def kernel_instances():
    """An even torus, the odd 4x5 torus, random graphs, one of them with
    isolated vertices, weighted graphs whose local fields need int8
    (largest sum of |w| at a vertex 127), int16 (128), int32 and int64
    (absolute weights summing to just under 2^62), and an even torus
    whose fields need int16 (128)."""
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
        weighted_torus(rng, 6, 4, 128),
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
    colour order; best cut checked after each class. Spin v starts at +1
    when bit 63 of word v of the seed's stream is set, and at annealing
    sweep t vertex v's uniform is word (t + 1) n + v shifted to 53 bits.
    Neighbours, cuts, stream words and the cooling schedule are computed
    here, sharing no code with the package.
    """
    n = instance.n
    neighbours = neighbour_lists(instance)
    colour = greedy_colouring(instance)
    classes = [[v for v in range(n) if colour[v] == c] for c in range(max(colour) + 1)]

    spins = [1 if reference_splitmix64(seed, v) >> 63 else -1 for v in range(n)]
    current = naive_cut(instance, spins)
    best, best_spins = current, tuple(spins)
    annealing = config.kind == ANNEALING
    for sweep in range(config.sweeps):
        if annealing:
            frac = sweep / (config.sweeps - 1) if config.sweeps > 1 else 0.0
            temp = config.temp_start * (config.temp_end / config.temp_start) ** frac
            uniforms = [(reference_splitmix64(seed, (sweep + 1) * n + v) >> 11) * 2.0**-53
                        for v in range(n)]
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
        # seed 2^64 - 1's stream state wraps past 2^64 at its first word
        for seed in (0, 1, 2, 3, 2**32, 2**64 - 1):
            config = default_config(kind, 12)
            assert_same_outcome(outcome(run_trial(inst, config, seed)),
                                reference_trial(inst, config, seed))


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("kind", ("annealing", "greedy"))
@pytest.mark.parametrize("weights", ("300", "2e40"))
def test_weighted_logs_match_the_spin_by_spin_reference(kind, weights):
    # fields in int16 (|w| up to 300) and int64 (|w| up to 2^40): each
    # logged trial's schedule and seed, run by the kernel and by the
    # reference, give the logged outcome
    inst = load_gset(DATA / f"weighted_{weights}.gset")
    records = read_log(DATA / f"weighted_{weights}_{kind}.log")
    assert len(records) == 6
    for record in records:
        expected = reference_trial(inst, record.solver, record.seed)
        assert_same_outcome(outcome(run_trial(inst, record.solver, record.seed)), expected)
        assert (record.best_cut, record.sweeps_executed) == (expected[0], expected[2])
        if record.spins_hex is not None:
            assert np.array_equal(decode_hex(record.spins_hex, inst.n), expected[1])


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


def order_batches():
    """(instance, batch size, trial-minor) triples on which both memory
    orders run: 400 trials of the odd 4x5 torus, whose widest class has 8
    vertices, and a random graph of n = 40 and average degree about 13
    at its widest class's width plus one, at that width and at one trial
    fewer."""
    graph = random_instance(np.random.default_rng(33), 40, edge_prob=0.35)
    _, classes, _ = _sweep_layout(graph)
    widest = max(hi - lo for lo, hi, _ in classes)
    return [(generate_torus(TorusSpec(4, 5, seed=1000)), 400, True), (graph, widest + 1, True),
            (graph, widest, True), (graph, widest - 1, False)]


@pytest.mark.parametrize("kind", KINDS)
def test_both_memory_orders_match_the_reference_and_single_trials(kind):
    config = default_config(kind, 12)
    for inst, batch, minor in order_batches():
        assert solvers._trial_minor(_sweep_layout(inst)[1], batch) == minor
        seeds = [2**64 - 1, *range(batch - 1)]
        for result, seed in zip(run_trials(inst, config, seeds), seeds, strict=True):
            expected = reference_trial(inst, config, seed)
            assert_same_outcome(outcome(result), expected)
            assert_same_outcome(outcome(run_trial(inst, config, seed)), expected)


def test_even_tori_and_narrow_slot_batches_stay_trial_major():
    # an even torus at any batch size, and a slot batch below its widest
    # class; one trial at or above it runs trial-minor
    even = _sweep_layout(generate_torus(TorusSpec(4, 4, seed=2)))[1]
    assert not any(solvers._trial_minor(even, batch) for batch in (1, 8, 400, 10**6))
    odd = _sweep_layout(generate_torus(TorusSpec(101, 100, seed=3)))[1]
    widest = max(hi - lo for lo, hi, _ in odd)
    assert [solvers._trial_minor(odd, batch) for batch in (8, widest - 1, widest)] == [
        False, False, True]


def test_uniform_draw_boundaries_keep_the_streams():
    # 200 annealing trials of a 9x11 torus, 30 sweeps: sweep t of every
    # trial draws words (t+1)n .. (t+2)n-1 of its own stream, whether the
    # trial runs in the batch or alone. A hot schedule keeps late sweeps
    # finding new best cuts.
    inst = generate_torus(TorusSpec(9, 11, seed=5))
    config = default_config(ANNEALING, 30, temp_start=3.0, temp_end=1.5)
    seeds = range(200)
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
    # corrupt one class's cached weights, each weight plane of the even
    # torus in turn and a slot of the odd one: the starting cuts and the
    # kernel's incremental cuts, both read through the layout, then
    # disagree with the cuts recomputed from the instance's edges
    corrupted = []
    for plane in range(4):
        even = generate_torus(TorusSpec(4, 4, seed=2))
        _, classes, _ = _sweep_layout(even)
        _, _, planes = classes[0]
        planes[plane] *= 3
        corrupted.append((even, KINDS))
    odd = generate_torus(TorusSpec(4, 5, seed=1000))
    _, classes, _ = _sweep_layout(odd)
    _, _, slots = classes[0]
    _, _, weights = slots[0]
    weights *= 3
    corrupted.append((odd, (ANNEALING,)))
    for inst, kinds in corrupted:
        for kind in kinds:
            with pytest.raises(RuntimeError,
                               match="internal cut accounting drifted from recomputation"):
                run_trials(inst, default_config(kind, 5), range(6))
    # and the same slot corruption in a trial-minor batch, of both kinds
    minor = generate_torus(TorusSpec(4, 5, seed=1000))
    _, classes, _ = _sweep_layout(minor)
    _, _, slots = classes[0]
    _, _, weights = slots[0]
    weights *= 3
    assert solvers._trial_minor(classes, 400)
    for kind in KINDS:
        with pytest.raises(RuntimeError,
                           match="internal cut accounting drifted from recomputation"):
            run_trials(minor, default_config(kind, 5), range(400))


def test_a_batch_recomputes_its_cuts_from_the_edges_once(monkeypatch):
    # the starting cuts come from the layout's fields; only the final
    # guard reads the edges, for all trials in one pass
    calls = []

    def counting(instance, spins):
        calls.append(spins.shape)
        return cut_values(instance, spins)

    monkeypatch.setattr(solvers, "cut_values", counting)
    for shape, batch in (((6, 8), 5), ((4, 5), 400), ((4, 5), 3)):
        inst = generate_torus(TorusSpec(*shape, seed=1000))
        for kind in KINDS:
            calls.clear()
            run_trials(inst, default_config(kind, 5), range(batch))
            assert calls == [(batch, inst.n)]


def starting_cuts(inst, by_vertex):
    """The starting cuts that ``run_trials`` computes from the layout's
    fields for the (R, n) spins ``by_vertex``, held in the memory order
    of a batch of R trials."""
    order, classes, field = _sweep_layout(inst)
    minor = solvers._trial_minor(classes, len(by_vertex))
    spins = np.ascontiguousarray(by_vertex[:, order].T if minor else by_vertex[:, order])
    views = solvers._class_views(spins, classes, solvers._gathers(classes, field), field,
                                 minor, solvers._Scratch())
    return solvers._starting_cuts(inst.total_weight(), spins, classes, field, views, minor)


def test_the_starting_cut_from_fields_equals_the_cut_of_the_edges():
    # every layout and memory order, fields of every dtype, and one trial
    graph, _, _ = order_batches()[1]
    widest = max(hi - lo for lo, hi, _ in _sweep_layout(graph)[1])
    rng = np.random.default_rng(21)
    cases = [
        (generate_torus(TorusSpec(6, 8, seed=2)), 5, False, np.int8),
        (generate_torus(TorusSpec(101, 100, seed=3)), 8, False, np.int8),
        (generate_torus(TorusSpec(4, 5, seed=1000)), 400, True, np.int8),
        (graph, widest - 1, False, np.int8),
        (graph, widest, True, np.int8),
        (load_gset(DATA / "weighted_300.gset"), 6, False, np.int16),
        (scaled_instance(rng, 9, 2**31), 7, True, np.int32),
        (load_gset(DATA / "weighted_2e40.gset"), 6, False, np.int64),
        (weighted_torus(rng, 6, 4, 128), 1, False, np.int16),
    ]
    for inst, batch, minor, field in cases:
        _, classes, got_field = _sweep_layout(inst)
        assert (solvers._trial_minor(classes, batch), got_field) == (minor, field)
        seeds = np.array([2**64 - 1, *range(batch - 1)], dtype=np.uint64)
        by_vertex = (splitmix64(seeds, np.arange(inst.n)) >> 63).astype(np.int8) * 2 - 1
        assert np.array_equal(starting_cuts(inst, by_vertex), cut_values(inst, by_vertex))


def test_the_starting_cut_is_exact_near_the_weight_sum_limit():
    # a matching of positive weights whose sum W sits just under 2^62:
    # fully cut, the energy is -W, twice it is 2 - 2^63 and W - E = 2W
    # is just under 2^63, so each step must stay inside int64
    pairs, limit = 5, 2**62
    weights = [limit // pairs - 1] * (pairs - 1)
    weights.append(limit - 1 - sum(weights))
    inst = ProblemInstance(2 * pairs, [(2 * k + 1, 2 * k + 2, w) for k, w in enumerate(weights)])
    assert inst.total_weight() == limit - 1 and _sweep_layout(inst)[2] == np.int64
    rng = np.random.default_rng(4)
    by_vertex = np.array([[1, -1] * pairs, [1, 1] * pairs, [-1, 1] * pairs,
                          random_config(rng, 2 * pairs), random_config(rng, 2 * pairs)],
                         dtype=np.int8)
    expected = [naive_cut(inst, spins) for spins in by_vertex.tolist()]
    assert expected[:3] == [limit - 1, 0, limit - 1]
    assert starting_cuts(inst, by_vertex).tolist() == expected
    assert cut_values(inst, by_vertex).tolist() == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pairs, sum_dtype", [(258, np.int16), (259, np.int32)])
def test_a_class_row_sum_is_exact_in_its_narrow_dtype(monkeypatch, kind, pairs, sum_dtype):
    # a matching of weight-127 edges has int8 fields and two classes of
    # `pairs` vertices; from all spins up, the first sweep flips every
    # vertex of the first class, whose deltas of 127 sum to pairs * 127,
    # 32766 at width 258 (int16's largest is 32767) and 32893 at 259
    inst = ProblemInstance(2 * pairs, [(2 * k + 1, 2 * k + 2, 127) for k in range(pairs)])
    _, classes, field = _sweep_layout(inst)
    assert field == np.int8 and [hi - lo for lo, hi, _ in classes] == [pairs, pairs]
    assert solvers._sum_dtype(pairs, field) == sum_dtype
    monkeypatch.setattr(solvers, "_initial_spins",
                        lambda seeds, order, minor: np.ones(
                            (len(order), len(seeds)) if minor else (len(seeds), len(order)),
                            dtype=np.int8))
    batch = run_trials(inst, default_config(kind, 1), range(3))
    assert batch.best_cuts.tolist() == [pairs * 127] * 3


def test_batch_rejects_mixed_configs():
    inst = generate_torus(TorusSpec(4, 4, seed=2))
    with pytest.raises(ValueError, match="at least one"):
        run_trials(inst, default_config(GREEDY, 5), [])


# a path 1-3-4-2: bipartite, but vertex 2 is a second root, so 4 sees
# both colours below it and takes a third
SECOND_ROOT_PATH = ProblemInstance(4, [(1, 3, 1), (3, 4, 1), (2, 4, 1)])


def test_colour_classes_partition_vertices_into_independent_sets():
    # an even torus is a checkerboard; on the odd 4x5 torus greedy order
    # needs a third colour at (0, 4) and a fourth at (1, 4), and an odd
    # side of 101 needs four too
    tori = [
        (generate_torus(TorusSpec(6, 6, seed=3)), 2),
        (generate_torus(TorusSpec(4, 8, seed=4)), 2),
        (generate_torus(TorusSpec(100, 100, seed=1)), 2),
        (generate_torus(TorusSpec(4, 5, seed=1000)), 4),
        (generate_torus(TorusSpec(4, 5, seed=1003)), 4),
        (generate_torus(TorusSpec(101, 100, seed=3)), 4),
        (generate_torus(TorusSpec(100, 101, seed=3)), 4),
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
        (SECOND_ROOT_PATH, 3),
        (graph, None),
        (ProblemInstance(graph.n, shuffled), None),
        # K_70 needs 70 colours, more bits than a 64-bit word holds
        (ProblemInstance(70, complete), 70),
    ]
    for inst, expected in tori + others:
        order, classes, _ = _sweep_layout(inst)
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


def test_tori_are_coloured_in_closed_form(monkeypatch):
    # every torus that torus_grid recognises, odd sides included, takes
    # the closed-form colouring, equal to the greedy colouring; the loop
    # colours the other graphs
    for rows in range(3, 14):
        for cols in range(3, 14):
            inst = generate_torus(TorusSpec(rows, cols, seed=rows * cols))
            expected = greedy_colouring(inst)
            assert solvers._torus_colouring(rows, cols).tolist() == expected
            if rows % 2 or cols % 2:
                with monkeypatch.context() as patch:
                    patch.setattr(solvers, "_greedy_colouring",
                                  lambda *a: pytest.fail("a torus was coloured by the loop"))
                    order, classes, _ = solvers._build_layout(inst)
                class_of = np.empty(inst.n, dtype=np.int64)
                for c, (lo, hi, _) in enumerate(classes):
                    class_of[order[lo:hi]] = c
                assert class_of.tolist() == expected


def test_slot_weights_take_the_narrowest_field_dtype():
    # the weighted kernel instances' largest sums of |w| at a vertex are
    # 127, 128, about 10^9, about 2^61 and 128; the even tori (the first
    # two and the last) carry weight planes, the others slots
    expected = [np.int8] * 6 + [np.int16, np.int32, np.int64, np.int16]
    graphs = [generate_torus(TorusSpec(100, 100, seed=1))] + kernel_instances()
    even = {0, 1, len(graphs) - 1}
    for i, (inst, dtype) in enumerate(zip(graphs, expected, strict=True)):
        _, classes, field = _sweep_layout(inst)
        assert field == dtype
        if i in even:
            rows, cols, _, _ = torus_grid(inst)
            arrays = [planes for _, _, planes in classes]
            assert {planes.shape for planes in arrays} == {(4, rows, cols // 2)}
        else:
            arrays = [weights for _, _, slots in classes for _, _, weights in slots]
        assert {weights.dtype for weights in arrays} == {np.dtype(dtype)}


def test_torus_layout_equals_the_cell_by_cell_reference():
    rng = np.random.default_rng(6)
    tori = [generate_torus(TorusSpec(rows, cols, seed=rows * cols))
            for rows, cols in ((4, 4), (4, 6), (6, 4), (100, 100))]
    for inst in tori + [weighted_torus(rng, 6, 8, 128)]:
        order, classes, field = _torus_layout(*torus_grid(inst))
        expected_order, expected_classes, expected_field = reference_torus_layout(
            *torus_grid(inst))
        assert field == expected_field
        assert order.dtype == np.int64 and np.array_equal(order, expected_order)
        for (lo, hi, planes), (expected_lo, expected_hi, expected_planes) in zip(
                classes, expected_classes, strict=True):
            assert (lo, hi) == (expected_lo, expected_hi)
            assert planes.dtype == field
            assert np.array_equal(planes, expected_planes)
    assert field == np.int16


def test_torus_stencil_fields_equal_the_gathered_fields():
    rng = np.random.default_rng(5)
    tori = [generate_torus(TorusSpec(rows, cols, seed=rows + cols))
            for rows in (4, 6, 8) for cols in (4, 6, 10)]
    for inst in tori + [weighted_torus(rng, 6, 4, 128), weighted_torus(rng, 4, 8, 2**20)]:
        assert_stencil_fields_equal_gathers(inst, rng, batches=(1, 3, 8, 26))


def test_layout_is_built_once_by_the_solvers_only(monkeypatch):
    inst = generate_torus(TorusSpec(5, 5, seed=9))
    spins = random_config(np.random.default_rng(1), inst.n)
    # checking a solution reads no grid either
    with monkeypatch.context() as patch:
        for module in (instances, solvers):
            patch.setattr(module, "torus_grid", lambda *a: pytest.fail("the grid was read"))
        evaluate_solution(inst, spins)
        cut_value(inst, spins)
    assert inst._sweep_layout is None
    run_trial(inst, default_config(GREEDY, 3), 1)
    layout = inst._sweep_layout
    assert layout is not None
    run_trial(inst, default_config(ANNEALING, 3), 1)
    assert inst._sweep_layout is layout
