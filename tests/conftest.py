"""Shared helpers: random instances, neighbour lists and deliberately
naive evaluators.

The naive evaluators iterate the full vertex-pair weight matrix, with
no shortcuts, and the neighbour lists are built from ``edges`` here, so
neither shares a code path with the package's edge-array code.
"""

import numpy as np

from gsetbench.instances import ProblemInstance


def random_instance(rng, n, edge_prob=0.5, max_weight=5, name=""):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((u, v, int(rng.integers(-max_weight, max_weight + 1))))
    if not edges:
        edges.append((1, 2, int(rng.integers(1, max_weight + 1))))
    return ProblemInstance.from_edges(n, edges, name=name)


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


def naive_energy(instance, spins):
    w = weight_matrix(instance)
    total = 0
    for i in range(1, instance.n + 1):
        for j in range(i + 1, instance.n + 1):
            total += w[i][j] * spins[i - 1] * spins[j - 1]
    return total
