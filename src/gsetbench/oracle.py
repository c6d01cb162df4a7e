"""Exact Max-Cut by exhaustive enumeration, for small instances only.

With zero local fields the cut is invariant under negating all spins,
so spin 1 can be fixed to +1 and only 2^(n-1) configurations need
visiting. The walk is a Gray code over spins 2..n: successive
configurations differ in one spin, so each step costs one incremental
delta evaluation instead of a full recompute.

Ties are broken deterministically: among maximising configurations in
the enumerated half (spin 1 = +1), the one whose bitstring encodes to
the smallest binary value wins, reading spin i as bit 2^(n-i) with +1
as a set bit.
"""

from __future__ import annotations

import numpy as np

from gsetbench.evaluate import cut_value
from gsetbench.instances import ProblemInstance

MAX_ORACLE_N = 24


def exact_max_cut(instance: ProblemInstance) -> tuple[int, np.ndarray]:
    """Maximum cut and one maximising configuration (spin 1 fixed at +1),
    as a read-only int8 array."""
    n = instance.n
    if n > MAX_ORACLE_N:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_N}, got {n}"
        )

    # (neighbour, weight) pairs of each vertex, 0-based, built once
    neighbours = [[] for _ in range(n)]
    for u, v, w in zip(instance.eu.tolist(), instance.ev.tolist(), instance.ew.tolist()):
        neighbours[u].append((v, w))
        neighbours[v].append((u, w))

    spins = [1] + [-1] * (n - 1)
    current = cut_value(instance, spins)
    enc = 1 << (n - 1)  # spin 1 is the most significant bit
    best_cut, best_enc = current, enc

    # Gray-code walk over spins 2..n: step t flips the spin at 0-based
    # index k, the bit length of the lowest set bit of t, so every
    # configuration of the free spins is visited exactly once.
    for t in range(1, 1 << (n - 1)):
        k = (t & -t).bit_length()
        acc = 0
        for j, w in neighbours[k]:
            acc += w * spins[j]
        current += spins[k] * acc
        spins[k] = -spins[k]
        enc ^= 1 << (n - 1 - k)
        if current > best_cut or (current == best_cut and enc < best_enc):
            best_cut, best_enc = current, enc

    # spin i is bit n - i of the encoding, +1 a set bit
    config = (best_enc >> np.arange(n - 1, -1, -1) & 1).astype(np.int8) * 2 - 1
    config.flags.writeable = False
    return best_cut, config
