#!/usr/bin/env python3
"""
A reproducible solver campaign on a synthetic torus.

Runs 100 independent simulated-annealing trials on an 8x8 +-1 torus,
logs every trial, and summarizes success statistics against two
targets. The campaign is fully determined by the master seed: run the
script twice and the cut statistics are identical (only wall-clock
fields move).

Run:
    python demos/02_torus_campaign.py
"""

import tempfile
from pathlib import Path

from gsetbench.campaign import CampaignConfig, read_log, replay_record, run_campaign
from gsetbench.instances import TorusSpec, generate_torus
from gsetbench.metrics import TargetSpec
from gsetbench.solvers import ANNEALING, default_config


def main():
    torus = generate_torus(TorusSpec(8, 8, seed=42))
    print(f"instance {torus.name}: n={torus.n} m={torus.m} total_weight={torus.total_weight()}")

    # n = 64 is beyond exhaustive enumeration, so aim at fixed cut values:
    # probe campaigns on this instance (600 annealing trials of up to
    # 10,000 sweeps, under three cooling schedules) never exceed 46
    config = CampaignConfig(
        instance_name=torus.name,
        solver=default_config(ANNEALING, sweeps=200, seed=0),
        num_trials=100,
        master_seed=8675309,
        targets=(TargetSpec("best_seen", 46), TargetSpec("within_two", 44)),
    )

    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "torus_campaign.log"
        summary = run_campaign(torus, config, log_path=log_path, workers=4)

        print(f"\n{config.num_trials} trials x {config.solver.sweeps} sweeps "
              f"(master seed {config.master_seed})")
        print(f"highest cut {summary.highest_cut}, lowest {summary.min_cut}, "
              f"mean {summary.average_cut:.2f}")
        print("cut histogram:")
        for cut in sorted(summary.cut_histogram, reverse=True):
            count = summary.cut_histogram[cut]
            print(f"  {cut:>4} {'#' * count} ({count})")

        print("\ntarget statistics (r = expected repetitions for 99% confidence):")
        for outcome in summary.targets:
            if outcome.repetitions is None:
                print(f"  {outcome.label}: never reached in {outcome.trials} trials")
                continue
            print(f"  {outcome.label} (cut >= {outcome.cut}): "
                  f"P_s = {outcome.successes}/{outcome.trials}, "
                  f"r = {outcome.repetitions:.2f}, "
                  f"sweeps to target = {outcome.stt_sweeps:,.0f}, "
                  f"time to target = {outcome.ttt_s * 1000:.1f} ms")

        # every line of the log is enough to re-run its trial bit-exactly
        records = read_log(log_path)
        probe = records[len(records) // 2]
        replayed = replay_record(torus, probe)
        print(f"\nreplayed trial {probe.index} from {log_path.name}: "
              f"best_cut {replayed.best_cut} == logged {probe.best_cut}")
    return summary


if __name__ == "__main__":
    main()
