"""Shared helpers: random instances, neighbour lists, deliberately
naive evaluators and a pure-Python SplitMix64.

The naive evaluators iterate the full vertex-pair weight matrix, with
no shortcuts, and the neighbour lists are built from ``edges`` here, so
neither shares a code path with the package's edge-array code.
"""

from dataclasses import replace
from unittest import mock

import numpy as np

from gsetbench import solvers
from gsetbench.instances import ProblemInstance


def random_instance(rng, n, edge_prob=0.5, max_weight=5, name=""):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((u, v, int(rng.integers(-max_weight, max_weight + 1))))
    if not edges:
        edges.append((1, 2, int(rng.integers(1, max_weight + 1))))
    return ProblemInstance(n, edges, name=name)


def random_config(rng, n):
    return tuple(int(s) for s in rng.choice((-1, 1), size=n))


def neighbour_lists(instance):
    """(neighbour, weight) pairs of each 1-based vertex, in edge order;
    entry 0 is unused."""
    lists = [[] for _ in range(instance.n + 1)]
    for u, v, w in instance.edges:
        lists[u].append((v, w))
        lists[v].append((u, w))
    return lists


def weight_matrix(instance):
    n = instance.n
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v, wt in instance.edges:
        w[u][v] = wt
        w[v][u] = wt
    return w


def naive_cut(instance, spins):
    w = weight_matrix(instance)
    total = 0
    for i in range(1, instance.n + 1):
        for j in range(i + 1, instance.n + 1):
            total += w[i][j] * (1 - spins[i - 1] * spins[j - 1]) // 2
    return total


def naive_flip_delta(w, spins, k):
    """Change in cut if 1-based variable k flipped, from row k of the
    weight matrix ``w``: s_k * sum_j w_kj * s_j on the pre-flip spins."""
    return spins[k - 1] * sum(wt * s for wt, s in zip(w[k][1:], spins))


def naive_energy(instance, spins):
    w = weight_matrix(instance)
    total = 0
    for i in range(1, instance.n + 1):
        for j in range(i + 1, instance.n + 1):
            total += w[i][j] * spins[i - 1] * spins[j - 1]
    return total


def reference_splitmix64(seed, counter):
    """Output counter + 1 of SplitMix64 seeded at ``seed`` (Steele, Lea
    and Flood, OOPSLA 2014), in Python ints: the state advances by γ per
    output and each output is the state's mix."""
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def deterministic_fields(summary):
    """A campaign summary without its wall-clock figures: equal across
    serial, parallel, resumed and replayed runs of one campaign."""
    return replace(
        summary,
        avg_trial_time_s=None,
        targets=tuple(replace(t, trial_time_s=None) for t in summary.targets),
    )


def reference_torus_layout(rows, cols, right_w, down_w):
    """An even torus's sweep layout, ``(order, classes, field)``, built
    cell by cell from its definition in ``solvers._sweep_layout``: class k
    holds the cells (r, c) with r + c = k mod 2 in vertex order, and its
    entry (r, c // 2) carries the weights of the cell's edges to the pair
    cell (r, c xor 1), to the other side, down and up."""
    right_w, down_w = np.asarray(right_w).tolist(), np.asarray(down_w).tolist()
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    largest = max(abs(right_w[r][c]) + abs(right_w[r][c - 1]) + abs(down_w[r][c])
                  + abs(down_w[r - 1][c]) for r, c in cells)
    field = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if largest <= np.iinfo(t).max)
    order, classes = [], []
    for k in (0, 1):
        lo = len(order)
        planes = np.zeros((4, rows, cols // 2), dtype=field)
        for r, c in cells:
            if (r + c) % 2 == k:
                order.append(r * cols + c)
                beside = right_w[r][c] if c % 2 else right_w[r][c - 1]
                planes[:, r, c // 2] = (right_w[r][c - c % 2], beside, down_w[r][c],
                                        down_w[r - 1][c])
        classes.append((lo, len(order), planes))
    return np.array(order, dtype=np.int64), tuple(classes), field


def assert_stencil_fields_equal_gathers(instance, rng, batches=(1, 3, 8)):
    """The solvers lay ``instance`` out as an even torus, and each class's
    stencil fields equal those gathered through the slot layout, built
    with the torus unrecognised, on random spins of each batch size."""
    order, classes, field = solvers._sweep_layout(instance)
    with mock.patch.object(solvers, "torus_grid", lambda _: None):
        gathered_order, gathered, gathered_field = solvers._build_layout(instance)
    assert np.array_equal(order, gathered_order) and field == gathered_field
    assert len(classes) == len(gathered) == 2
    for batch in batches:
        spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(batch, instance.n))
        for (lo, hi, planes), (_, _, slots) in zip(classes, gathered):
            assert isinstance(planes, np.ndarray) and isinstance(slots, tuple)
            fields = solvers._local_fields(spins, lo, hi, planes, field)
            assert fields.dtype == field
            assert np.array_equal(fields, solvers._local_fields(spins, lo, hi, slots, field))
