#!/usr/bin/env python3
"""
Highest and average cut as a function of trial length.

Runs one full campaign per sweep budget on a fixed torus and prints
the resulting curve, the standard way to show how solution quality
saturates as trials get longer. Every rung reuses the campaign's master
seed, so rung k's trial i is rung k-1's trial i with a longer budget
(``gsetbench campaign`` runs a ``sweep_scan`` config the same way).
Greedy local search has a strict budget-prefix guarantee (same seed,
longer budget, never worse), so its highest-cut curve is non-decreasing
by construction; annealing re-stretches its cooling schedule to the
budget, so its curve is only statistically increasing.

Run:
    python demos/04_sweep_ladder.py [--csv out.csv]
"""

import argparse
import io
import sys
from dataclasses import replace

from gsetbench.campaign import CampaignConfig, run_campaign, write_scan_csv
from gsetbench.instances import TorusSpec, generate_torus
from gsetbench.solvers import ANNEALING, GREEDY, default_config

LADDER = (1, 3, 10, 30, 100)
TRIALS = 30


def run_ladder(torus, kind):
    config = CampaignConfig(
        solver=default_config(kind, sweeps=LADDER[0]),
        num_trials=TRIALS,
        master_seed=1414,
    )
    return [
        run_campaign(torus, replace(config, solver=replace(config.solver, sweeps=sweeps)), workers=4)
        for sweeps in LADDER
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default=None, help="write the annealing curve as CSV")
    args = parser.parse_args(argv)

    torus = generate_torus(TorusSpec(8, 8, seed=7))
    print(f"instance {torus.name}: n={torus.n} m={torus.m}, "
          f"{TRIALS} trials per ladder rung\n")

    curves = {}
    for kind in (GREEDY, ANNEALING):
        summaries = run_ladder(torus, kind)
        curves[kind] = summaries
        print(kind)
        for s in summaries:
            bar = "*" * int(s.average_cut)
            print(f"  {s.sweeps_per_trial:>5} sweeps: highest {s.highest_cut:>3} "
                  f"average {s.average_cut:>6.2f} {bar}")
        print()

    greedy_highs = [s.highest_cut for s in curves[GREEDY]]
    assert greedy_highs == sorted(greedy_highs), "greedy prefix guarantee violated"
    print(f"greedy highest-cut curve is non-decreasing: {greedy_highs}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            write_scan_csv(curves[ANNEALING], fh)
        print(f"wrote {args.csv}")
    else:
        buf = io.StringIO()
        write_scan_csv(curves[ANNEALING], buf)
        print("annealing curve as CSV:\n" + buf.getvalue())


if __name__ == "__main__":
    sys.exit(main())
