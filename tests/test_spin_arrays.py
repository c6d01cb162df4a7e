"""Every public producer of a spin configuration returns the one spin
representation: a read-only int8 array of shape (n,) holding -1 and +1."""

import numpy as np
import pytest

from gsetbench.codec import decode_hex
from gsetbench.instances import TorusSpec, generate_torus
from gsetbench.oracle import exact_max_cut
from gsetbench.solvers import ANNEALING, GREEDY, default_config, run_trial, run_trials

TORUS = generate_torus(TorusSpec(3, 5, seed=4))

PRODUCERS = {
    "decode_hex": lambda: [decode_hex("a5c2", TORUS.n)],
    "exact_max_cut": lambda: [exact_max_cut(TORUS)[1]],
    "run_trial": lambda: [run_trial(TORUS, default_config(GREEDY, 5), 1).best_spins],
    "run_trials": lambda: list(run_trials(TORUS, default_config(ANNEALING, 5), range(3)).best_spins),
}


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
def test_spins_are_read_only_int8_arrays(produce):
    for spins in produce():
        assert type(spins) is np.ndarray
        assert spins.dtype == np.int8 and spins.shape == (TORUS.n,)
        assert np.all(np.abs(spins) == 1)
        with pytest.raises(ValueError, match="read-only"):
            spins[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            spins *= -1
