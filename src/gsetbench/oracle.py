"""Exact Max-Cut by exhaustive enumeration, for small instances only.

With zero local fields the cut is invariant under negating all spins,
so spin 1 can be fixed to +1 and only 2^(n-1) configurations need
scoring. They are scored in blocks, in increasing encoding order, by
``evaluate.cut_values``, the formula ``cut_value`` uses.

Ties are broken deterministically: among maximising configurations in
the enumerated half (spin 1 = +1), the one whose bitstring encodes to
the smallest binary value wins, reading spin i as bit 2^(n-i) with +1
as a set bit.
"""

from __future__ import annotations

import numpy as np

from gsetbench.evaluate import cut_values
from gsetbench.instances import ProblemInstance

MAX_ORACLE_N = 24

# spin and edge entries per block, n + m per configuration, which keeps
# a block's temporaries to tens of KB (66 KB at peak on a 4x5 torus)
_BLOCK = 1 << 13


def exact_max_cut(instance: ProblemInstance) -> tuple[int, np.ndarray]:
    """Maximum cut and one maximising configuration (spin 1 fixed at +1),
    as a read-only int8 array."""
    n = instance.n
    if n > MAX_ORACLE_N:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_N}, got {n}"
        )

    rows = max(1, _BLOCK // (n + instance.m))
    # spin 1 is the top bit, so the encodings run 2^(n-1)..2^n - 1 and fit int32
    end = 1 << n
    shifts = np.arange(n - 1, -1, -1, dtype=np.int32)
    # every maximum is >= 0 (all spins +1 cut nothing); argmax takes a
    # block's first maximiser and only a strictly larger cut replaces the
    # best, so the smallest maximising encoding wins
    best_cut, best_enc = -1, 0
    for start in range(end >> 1, end, rows):
        encodings = np.arange(start, min(start + rows, end), dtype=np.int32)
        bits = encodings[:, np.newaxis] >> shifts & 1
        cuts = cut_values(instance, bits.astype(np.int8) * 2 - 1)
        i = int(np.argmax(cuts))
        if cuts[i] > best_cut:
            best_cut, best_enc = int(cuts[i]), start + i

    config = (best_enc >> shifts & 1).astype(np.int8) * 2 - 1
    config.flags.writeable = False
    return best_cut, config
