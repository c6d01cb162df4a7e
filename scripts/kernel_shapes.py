#!/usr/bin/env python3
"""
Time the sweep kernel on the batch shapes that decide its memory order.

Prints one line per shape and solver kind: the instance, the batch size
R, the batch's memory order, the sweep budget and ``run_trials`` time in
ns per spin update, the minimum over the repeats (the layout is built
once, by a first untimed call). Everything runs in this process, with
numpy and the package alone:

    PYTHONPATH=src python scripts/kernel_shapes.py [--repeats 5] [--toy]

The shapes are an even torus, swept by stencil, an odd torus at two
batches narrower than its widest colour class, both trial-major, and
two trial-minor batches: the 400 trials of a 4x5 torus that the
``ttt-exact`` benchmark workload runs, and a random graph of n = 800
and average degree about 48, like Gset's G1-G10. ``--toy`` runs small
stand-ins of each, for a smoke test.
"""

import argparse
import time

import numpy as np

from gsetbench import solvers
from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus

# (instance label, batch sizes, annealing sweeps, greedy sweeps)
SHAPES = (
    ("torus:100x100:1", (4, 26), 20, 50),
    ("torus:101x100:3", (8, 26), 20, 50),
    ("torus:4x5:1003", (400,), 10, 20),
    ("random:800:48:1", (100,), 20, 50),
)
TOY_SHAPES = (
    ("torus:6x6:1", (4,), 2, 3),
    ("torus:7x6:3", (2, 26), 2, 3),
    ("torus:4x5:1003", (40,), 2, 3),
    ("random:40:12:1", (20,), 2, 3),
)


def build(label: str) -> ProblemInstance:
    """A ``torus:RxC:SEED`` torus, or a ``random:N:DEGREE:SEED`` graph:
    each vertex pair joined with probability DEGREE / (N - 1) by a +-1
    edge, both drawn from numpy's generator seeded at SEED."""
    kind, *shape, seed = label.split(":")
    seed = int(seed)
    if kind == "torus":
        rows, cols = map(int, shape[0].split("x"))
        return generate_torus(TorusSpec(rows, cols, seed=seed))
    n, degree = map(int, shape)
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < degree / (n - 1)
    weights = rng.choice((-1, 1), size=int(keep.sum()))
    return ProblemInstance(n, np.column_stack((u[keep] + 1, v[keep] + 1, weights)),
                           name=label)


def ns_per_update(instance, config, batch: int, repeats: int) -> float:
    seeds = np.arange(batch, dtype=np.uint64)
    solvers.run_trials(instance, config, seeds)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = solvers.run_trials(instance, config, seeds)
        best = min(best, time.perf_counter() - start)
    updates = instance.n * int(result.sweeps_executed.sum())
    return best / updates * 1e9


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--toy", action="store_true", help="small stand-ins of each shape")
    args = parser.parse_args(argv)
    for label, batches, anneal_sweeps, greedy_sweeps in TOY_SHAPES if args.toy else SHAPES:
        instance = build(label)
        _, classes, _ = solvers._sweep_layout(instance)
        for batch in batches:
            order = "trial-minor" if solvers._trial_minor(classes, batch) else "trial-major"
            for kind, sweeps in ((solvers.ANNEALING, anneal_sweeps),
                                 (solvers.GREEDY, greedy_sweeps)):
                config = solvers.default_config(kind, sweeps)
                ns = ns_per_update(instance, config, batch, args.repeats)
                print(f"{label:<16} R={batch:<4} {order:<11} {kind:<20} "
                      f"sweeps={sweeps:<3} {ns:8.2f} ns/update", flush=True)


if __name__ == "__main__":
    main()
