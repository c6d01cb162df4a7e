import itertools

import numpy as np
import pytest

from conftest import naive_cut, random_instance
from gsetbench import oracle
from gsetbench.cli import main
from gsetbench.evaluate import cut_value
from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus
from gsetbench.oracle import MAX_ORACLE_N, exact_max_cut


def brute_force_max(instance):
    return max(
        cut_value(instance, spins)
        for spins in itertools.product((-1, 1), repeat=instance.n)
    )


def test_single_edge():
    inst = ProblemInstance(2, [(1, 2, 1)])
    cut, config = exact_max_cut(inst)
    assert cut == 1
    assert np.array_equal(config, (1, -1))


def test_four_cycle_is_fully_cut():
    inst = ProblemInstance(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    cut, config = exact_max_cut(inst)
    assert cut == 4
    assert np.array_equal(config, (1, -1, 1, -1))


def test_triangle_cuts_two_edges():
    inst = ProblemInstance(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    cut, _ = exact_max_cut(inst)
    assert cut == 2


def test_tie_break_prefers_lowest_encoding():
    # vertex 3 is isolated: both settings tie, the -1 one encodes lower
    inst = ProblemInstance(3, [(1, 2, 1)])
    cut, config = exact_max_cut(inst)
    assert cut == 1
    assert np.array_equal(config, (1, -1, -1))


def test_spin_one_is_always_plus():
    rng = np.random.default_rng(51)
    for _ in range(5):
        inst = random_instance(rng, int(rng.integers(2, 12)))
        _, config = exact_max_cut(inst)
        assert config[0] == 1


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(52)
    for _ in range(6):
        inst = random_instance(rng, int(rng.integers(2, 11)))
        cut, config = exact_max_cut(inst)
        assert cut == brute_force_max(inst)
        assert cut_value(inst, config) == cut


def test_result_is_deterministic():
    inst = generate_torus(TorusSpec(3, 3, seed=1))
    (cut_a, config_a), (cut_b, config_b) = exact_max_cut(inst), exact_max_cut(inst)
    assert cut_a == cut_b and np.array_equal(config_a, config_b)


def test_regression_small_torus():
    cut, config = exact_max_cut(generate_torus(TorusSpec(3, 3, seed=1)))
    assert cut == 4
    from gsetbench.codec import encode_hex

    assert encode_hex(config) == "ac0"


def test_single_vertex():
    inst = ProblemInstance(n=1, edges=())
    cut, config = exact_max_cut(inst)
    assert cut == 0 and np.array_equal(config, (1,))


def test_size_limit():
    inst = ProblemInstance(n=MAX_ORACLE_N + 1, edges=())
    with pytest.raises(ValueError, match="limited"):
        exact_max_cut(inst)


def weighted_instance(rng, n, weights, edge_prob=0.5):
    """Random instance on n vertices with weights drawn from ``weights``;
    it may have isolated vertices and no edges at all."""
    edges = [(u, v, int(rng.choice(weights)))
             for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < edge_prob]
    return ProblemInstance(n, edges)


def encoding(spins):
    """Spin i is bit 2^(n-i), +1 a set bit."""
    return int("".join("1" if s > 0 else "0" for s in spins), 2)


def naive_optimum(instance):
    """(maximum cut, smallest maximising encoding) over the configurations
    with spin 1 = +1, each scored by the weight-matrix ``naive_cut``."""
    configs = [(1, *rest) for rest in itertools.product((-1, 1), repeat=instance.n - 1)]
    cuts = [naive_cut(instance, spins) for spins in configs]
    best = max(cuts)
    return best, min(encoding(s) for s, cut in zip(configs, cuts) if cut == best)


# ±1; {-2..2}, whose zeros and isolated vertices force ties; ±2^40
WEIGHT_SETS = {"pm1": (-1, 1), "small": (-2, -1, 0, 1, 2), "2e40": (-(2**40), 2**40)}


@pytest.mark.parametrize("weights", sorted(WEIGHT_SETS))
def test_matches_a_naive_enumeration_and_its_smallest_maximiser(weights):
    rng = np.random.default_rng(53)
    for n in range(1, 13):
        inst = weighted_instance(rng, n, WEIGHT_SETS[weights])
        cut, config = exact_max_cut(inst)
        assert (cut, encoding(config)) == naive_optimum(inst)
        assert config.dtype == np.int8 and not config.flags.writeable


def test_block_size_does_not_change_the_result(monkeypatch):
    # blocks of 1 configuration, and of counts that do not divide 2^(n-1),
    # so a tie may straddle a block boundary
    rng = np.random.default_rng(54)
    instances = [ProblemInstance(6, [(1, 2, 0), (3, 4, 0)])]  # every configuration ties
    instances += [weighted_instance(rng, n, WEIGHT_SETS["small"]) for n in range(1, 11)]
    for inst in instances:
        expected = naive_optimum(inst)
        half = 1 << (inst.n - 1)
        # the constant at 1, then blocks of 3, 5, 7, 2^(n-1) - 1 and
        # 2^(n-1) + 3 configurations of n + m spin and edge entries each
        for block in (1, *(k * (inst.n + inst.m) for k in (3, 5, 7, half - 1, half + 3))):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            cut, config = exact_max_cut(inst)
            assert (cut, encoding(config)) == expected


# `gsetbench oracle` output on the 4x5 tori of the benchmark's
# time-to-target panel
PANEL_OPTIMA = (
    "14 c00dd", "8 90110", "14 a4050", "14 c6d9a", "10 8c084", "16 a37ad", "14 9f9b4",
    "14 bab45", "8 86d61", "12 b1eef", "14 85c48", "10 8e6d4", "12 82811", "18 cb064",
    "14 8bbaf", "12 82183", "12 b912e", "14 a2c2c", "18 91640", "10 f71ff", "20 b1468",
    "12 95864", "18 a6c6f", "10 9b062",
)


@pytest.mark.parametrize("seed", range(1000, 1000 + len(PANEL_OPTIMA)))
def test_panel_optima_are_pinned(capsys, seed):
    assert main(["oracle", f"torus:4x5:{seed}"]) == 0
    cut, config = PANEL_OPTIMA[seed - 1000].split()
    assert capsys.readouterr() == (f"cut={cut} config={config}\n", "")
