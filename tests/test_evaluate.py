import numpy as np
import pytest

from conftest import (
    naive_cut,
    naive_energy,
    naive_flip_delta,
    random_config,
    random_instance,
    weight_matrix,
)
from gsetbench import evaluate
from gsetbench.evaluate import (
    EvaluationReport,
    cut_value,
    cut_values,
    evaluate_solution,
    format_quality_percent,
    ising_energy,
    solution_quality,
)
from gsetbench.instances import ProblemInstance


def test_single_edge_known_values():
    k2 = ProblemInstance(2, [(1, 2, 1)])
    assert cut_value(k2, (1, -1)) == 1
    assert cut_value(k2, (1, 1)) == 0
    assert ising_energy(k2, (1, -1)) == -1
    assert ising_energy(k2, (1, 1)) == 1


def test_negative_weight_edge():
    k2 = ProblemInstance(2, [(1, 2, -3)])
    assert cut_value(k2, (1, -1)) == -3
    assert ising_energy(k2, (1, -1)) == 3


def test_energy_cut_identity_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(25):
        inst = random_instance(rng, int(rng.integers(2, 20)))
        spins = random_config(rng, inst.n)
        assert ising_energy(inst, spins) == inst.total_weight() - 2 * cut_value(inst, spins)


def test_agrees_with_naive_double_loop():
    rng = np.random.default_rng(32)
    for _ in range(15):
        inst = random_instance(rng, int(rng.integers(2, 14)))
        spins = random_config(rng, inst.n)
        assert cut_value(inst, spins) == naive_cut(inst, spins)
        assert ising_energy(inst, spins) == naive_energy(inst, spins)


def test_batched_cuts_agree_with_naive_double_loop():
    # the solvers' integrity guard: one int8 row per trial
    rng = np.random.default_rng(35)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 14)))
        rows = [random_config(rng, inst.n) for _ in range(4)]
        cuts = cut_values(inst, np.array(rows, dtype=np.int8))
        assert cuts.dtype == np.int64
        assert cuts.tolist() == [naive_cut(inst, spins) for spins in rows]


def test_global_flip_leaves_cut_and_energy_unchanged():
    rng = np.random.default_rng(33)
    for _ in range(10):
        inst = random_instance(rng, 12)
        spins = random_config(rng, 12)
        flipped = tuple(-s for s in spins)
        assert cut_value(inst, spins) == cut_value(inst, flipped)
        assert ising_energy(inst, spins) == ising_energy(inst, flipped)


def test_flip_delta_matches_recomputation():
    rng = np.random.default_rng(34)
    for _ in range(10):
        inst = random_instance(rng, 10)
        w = weight_matrix(inst)
        spins = list(random_config(rng, 10))
        for k in range(1, 11):
            before = cut_value(inst, spins)
            delta = naive_flip_delta(w, spins, k)
            spins[k - 1] = -spins[k - 1]
            assert cut_value(inst, spins) == before + delta
            spins[k - 1] = -spins[k - 1]


def test_rejects_wrong_length_or_invalid_spins():
    inst = ProblemInstance(2, [(1, 2, 1)])
    with pytest.raises(ValueError, match="2 variables"):
        cut_value(inst, (1, -1, 1))
    with pytest.raises(ValueError, match="-1 or"):
        ising_energy(inst, (1, 0))


NOT_SPINS = [
    [1.5, -1], np.array([1.9, -1.2]), ["1", "-1"], np.array([1.0, -1.0]),
    [True, True], np.array([1, 1], dtype=np.uint8), [1, 2**64], [1, None],
]


@pytest.mark.parametrize("spins", NOT_SPINS, ids=repr)
@pytest.mark.parametrize("score", [cut_value, ising_energy, evaluate_solution])
def test_only_integer_spins_of_plus_or_minus_one_are_scored(score, spins):
    # each of these once truncated or cast to (1, -1) or (1, 1)
    inst = ProblemInstance(2, [(1, 2, 1)])
    with pytest.raises(ValueError, match="^spins must be -1 or \\+1$"):
        score(inst, spins)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_signed_integer_arrays_are_scored_without_a_copy(dtype):
    inst = ProblemInstance(3, [(1, 2, 2), (2, 3, -1)])
    spins = np.array([1, -1, -1], dtype=dtype)
    assert evaluate_solution(inst, spins) == evaluate_solution(inst, [1, -1, -1])
    assert evaluate._spin_array(inst, spins) is spins


def test_solution_quality():
    assert solution_quality(14060, 14060) == 1.0
    assert round(solution_quality(14058, 14060), 5) == 0.99986
    with pytest.raises(ValueError):
        solution_quality(5, 0)


def test_format_quality_percent():
    assert format_quality_percent(0.99986) == "99.986%"
    assert format_quality_percent(1.0) == "100.000%"


def test_evaluation_report_kv_line():
    inst = ProblemInstance(2, [(1, 2, 1)], name="k2")
    report = evaluate_solution(inst, (1, -1), best_known=1)
    assert report == EvaluationReport(instance="k2", n=2, cut=1, energy=-1, quality=1.0)
    assert report.to_kv() == "instance=k2 n=2 cut=1 energy=-1 quality=100.000%"
    bare = evaluate_solution(inst, (1, -1))
    assert bare.to_kv() == "instance=k2 n=2 cut=1 energy=-1"
