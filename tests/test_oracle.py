import itertools

import numpy as np
import pytest

from conftest import random_instance
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
