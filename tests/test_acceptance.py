"""End-to-end acceptance checks for the toolkit.

One test per criterion, and for criterion 1 one per instance; each
prints a PASS line with the measured numbers (visible with ``pytest -s``).
The first two criteria need the actual Gset instance files, which are
too large to bundle: point GSET_DIR at a directory containing G72, G77
and G81 to enable them.
The bundled record bitstrings are verbatim transcriptions from a lossy
source (see README); supply complete copies via GSETBENCH_SOLUTIONS_DIR
to run the bit-exact validation end to end.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_stencil_fields_equal_gathers,
    deterministic_fields,
    naive_cut,
    naive_energy,
    naive_flip_delta,
    neighbour_lists,
    random_config,
    random_instance,
    weight_matrix,
)
from gsetbench.campaign import (
    CampaignConfig,
    read_log,
    replay_record,
    run_campaign,
)
from gsetbench.codec import (
    HexDecodeError,
    decode_hex,
    encode_hex,
    read_solution,
)
from gsetbench.evaluate import (
    cut_value,
    format_quality_percent,
    ising_energy,
    solution_quality,
)
from gsetbench.instances import TorusSpec, generate_torus, load_gset, torus_grid
from gsetbench.metrics import (
    TargetOutcome,
    TargetSpec,
    project_hw_ttt,
    repetitions_to_target,
)
from gsetbench.oracle import exact_max_cut
from gsetbench.registry import load_registry, locate_instance_file, solution_text
from gsetbench.solvers import ANNEALING, GREEDY, default_config, run_trial

GOLDEN_CUTS = {"G72": 7_008, "G77": 9_940, "G81": 14_060}
GOLDEN_ENERGIES = {"G72": -14_022, "G77": -19_672, "G81": -28_086}
GOLDEN_TOTAL_WEIGHTS = {"G72": -6, "G77": 208, "G81": 34}


def _require_instance(name):
    if not os.environ.get("GSET_DIR"):
        pytest.skip(
            "requires locally supplied Gset instance files: "
            "set GSET_DIR to a directory containing G72, G77, G81"
        )
    try:
        path = locate_instance_file(name)
    except FileNotFoundError as exc:
        pytest.skip(str(exc))
    return load_gset(path)


def _solution_payload(name):
    header, payload = read_solution(solution_text(name))
    return payload, header


@pytest.mark.parametrize("name", sorted(GOLDEN_CUTS))
def test_criterion_1_record_solutions_validate_bit_exactly(name):
    instance = _require_instance(name)
    # each file is an even torus numbered row by row, so the solvers
    # sweep it by stencil, and its stencil fields equal the gathers
    assert torus_grid(instance) is not None, f"{name} is not a row-major torus"
    assert_stencil_fields_equal_gathers(instance, np.random.default_rng(1))
    payload, _ = _solution_payload(name)
    expected_digits = (instance.n + 3) // 4
    supplied = os.environ.get("GSETBENCH_SOLUTIONS_DIR")
    if len(payload) != expected_digits and not (
            supplied and (Path(supplied) / f"{name}.txt").exists()):
        pytest.skip(
            f"bundled {name} bitstring is an incomplete transcription "
            f"({len(payload)} of {expected_digits} hex digits); supply a "
            "complete copy via GSETBENCH_SOLUTIONS_DIR to run this check"
        )

    substituted = False
    try:
        spins = decode_hex(payload, instance.n)
    except HexDecodeError as err:
        # the G81 source prints one stray non-hex character; the
        # documented repair is an explicit l -> 1 substitution
        assert name == "G81" and err.char == "l", err
        substituted = True
        spins = decode_hex(payload.replace("l", "1"), instance.n)

    start = time.perf_counter()
    cut = cut_value(instance, spins)
    energy = ising_energy(instance, spins)
    elapsed = time.perf_counter() - start
    assert cut == GOLDEN_CUTS[name]
    assert energy == GOLDEN_ENERGIES[name]
    assert elapsed < 1.0
    print(f"PASS criterion 1: {name}: cut={cut} energy={energy} "
          f"substituted={substituted} ({elapsed * 1000:.1f} ms)")


def test_criterion_2_energy_cut_weight_identity():
    registry = load_registry()
    for name, weight in GOLDEN_TOTAL_WEIGHTS.items():
        entry = registry[name]
        assert entry.best_energy == weight - 2 * entry.best_cut
    checked_files = []
    if os.environ.get("GSET_DIR"):
        for name, weight in GOLDEN_TOTAL_WEIGHTS.items():
            try:
                path = locate_instance_file(name)
            except FileNotFoundError:
                continue
            assert load_gset(path).total_weight() == weight
            checked_files.append(name)
    print(
        "PASS criterion 2: best energy == total weight - 2*best cut pins "
        f"total weights {GOLDEN_TOTAL_WEIGHTS}; file sums confirmed for "
        f"{checked_files or 'none (GSET_DIR unset)'}"
    )


def test_criterion_3_published_metric_reproduction():
    # (sweeps per trial, successes, trials, published STT,
    #  published hardware time at 2 ns/sweep, printed significant figures)
    rows = [
        (80_000, 66, 100, 342_000.0, 0.7e-3, 1),
        (2_000_000, 21, 100, 39.1e6, 78e-3, 2),
        (100_000, 86, 100, 234_000.0, 0.5e-3, 1),
        (3_000_000, 3, 100, 454e6, 910e-3, 2),
        (1_500_000, 34, 100, 16.6e6, 33e-3, 2),
    ]
    # a sixth published 99.9% row (S=80,000, 55/100, STT 577,000) is
    # inconsistent with the stated repetition formula, which gives
    # 461,378; it is excluded here and documented in the README

    def round_sig(x, figures):
        exponent = math.floor(math.log10(abs(x)))
        return round(x, -(exponent - (figures - 1)))

    checked = []
    for sweeps, successes, trials, published_stt, published_hw, figures in rows:
        stt = TargetOutcome(TargetSpec("99.9%", 0), successes, trials, sweeps).stt_sweeps
        assert abs(stt - published_stt) / published_stt < 0.01
        hw = project_hw_ttt(stt)
        assert round_sig(hw, figures) == published_hw
        checked.append(f"{stt:,.0f}~{published_stt:,.0f}")

    g77_speedup, g81_speedup = 25_800 / 39.4, 276_000 / 77.5
    assert abs(g77_speedup - 655) / 655 < 0.01
    assert abs(g81_speedup - 3_560) / 3_560 < 0.01
    print(
        "PASS criterion 3: five STT rows within 1% (" + ", ".join(checked) + "); "
        "hardware projections match at printed precision; "
        f"speedups {g77_speedup:.0f} and {g81_speedup:.0f}"
    )


def test_criterion_4_quality_thresholds():
    thresholds = {
        "G72": 7_000.99,
        "G77": 9_930.06,
        "G81": 14_045.94,
    }
    for name, expected in thresholds.items():
        assert round(0.999 * GOLDEN_CUTS[name], 2) == expected
    assert format_quality_percent(solution_quality(14_058, 14_060)) == "99.986%"
    print(
        "PASS criterion 4: 99.9% thresholds "
        f"{sorted(thresholds.values())} and 14058/14060 prints 99.986%"
    )


def test_criterion_5_property_suite():
    rng = np.random.default_rng(20250814)

    # (a) edge-array evaluators vs naive double loop on all 2^n configs
    import itertools

    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(4, 13)))
        for spins in itertools.product((-1, 1), repeat=inst.n):
            assert cut_value(inst, spins) == naive_cut(inst, spins)
            assert ising_energy(inst, spins) == naive_energy(inst, spins)

    # (b) delta accumulation vs recomputation on 1,000-flip walks
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(4, 25)))
        w = weight_matrix(inst)
        spins = list(random_config(rng, inst.n))
        running = cut_value(inst, spins)
        for step in range(1, 1001):
            k = int(rng.integers(1, inst.n + 1))
            running += naive_flip_delta(w, spins, k)
            spins[k - 1] = -spins[k - 1]
            if step % 100 == 0:
                assert running == cut_value(inst, spins)

    # (c) codec round-trip identity
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        spins = random_config(rng, n)
        assert np.array_equal(decode_hex(encode_hex(spins), n), spins)

    # (d) global-flip invariance
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(2, 20)))
        spins = random_config(rng, inst.n)
        flipped = tuple(-s for s in spins)
        assert cut_value(inst, spins) == cut_value(inst, flipped)
        assert ising_energy(inst, spins) == ising_energy(inst, flipped)

    # (e) oracle == naive enumeration (n <= 12); bounds solvers (n <= 24)
    for _ in range(5):
        inst = random_instance(rng, int(rng.integers(4, 13)))
        best = max(
            cut_value(inst, s) for s in itertools.product((-1, 1), repeat=inst.n)
        )
        assert exact_max_cut(inst)[0] == best
    for n in (16, 20, 24):
        inst = random_instance(rng, n, edge_prob=0.2)
        optimum, config = exact_max_cut(inst)
        assert cut_value(inst, config) == optimum
        for kind in (GREEDY, ANNEALING):
            trial = run_trial(inst, default_config(kind, 30), int(rng.integers(2**32)))
            assert trial.best_cut <= optimum

    # (f) torus structure invariants
    for _ in range(10):
        spec = TorusSpec(
            rows=int(rng.integers(3, 9)),
            cols=int(rng.integers(3, 9)),
            seed=int(rng.integers(2**64, dtype=np.uint64)),
        )
        inst = generate_torus(spec)
        assert inst.m == 2 * spec.rows * spec.cols
        assert all(len(nbrs) == 4 for nbrs in neighbour_lists(inst)[1:])

    print("PASS criterion 5: evaluator, delta, codec, symmetry, oracle "
          "and generator properties all hold")


def test_criterion_6_desk_scale_campaign():
    torus = generate_torus(TorusSpec(4, 4, seed=1))
    optimum, _ = exact_max_cut(torus)
    config = CampaignConfig(
        solver=default_config(ANNEALING, 50),
        num_trials=100,
        master_seed=20250814,
        targets=(TargetSpec("optimum", optimum),),
    )
    start = time.perf_counter()
    serial = run_campaign(torus, config, workers=1)
    parallel = run_campaign(torus, config, workers=4)
    elapsed = time.perf_counter() - start
    outcome = serial.targets[0]
    assert outcome.successes >= 80
    assert serial.highest_cut == optimum
    assert deterministic_fields(serial) == deterministic_fields(parallel)
    assert elapsed < 10.0
    print(
        f"PASS criterion 6: {outcome.successes}/100 trials reached the "
        f"optimum cut {optimum}; serial == 4-worker summary; "
        f"{elapsed:.2f} s total"
    )


def test_criterion_7_sweep_ladder_shape():
    torus = generate_torus(TorusSpec(5, 5, seed=3))
    config = CampaignConfig(
        solver=default_config(GREEDY, 10),
        num_trials=20,
        master_seed=99,
    )
    summaries = [run_campaign(torus, replace(config, solver=replace(config.solver, sweeps=s)))
                 for s in (10, 30, 100, 300)]
    highs = [s.highest_cut for s in summaries]
    assert highs == sorted(highs)
    for s in summaries:
        assert s.highest_cut >= s.average_cut
    print(
        "PASS criterion 7: highest cut non-decreasing over ladder "
        f"{[s.sweeps_per_trial for s in summaries]} -> {highs}, highest >= average everywhere"
    )


def test_criterion_8_log_lines_replay_exactly(tmp_path):
    torus = generate_torus(TorusSpec(4, 4, seed=1))
    records = []
    for kind, sweeps in ((ANNEALING, 40), (GREEDY, 25)):
        # one log per campaign: a log that holds records takes no new campaign
        log = tmp_path / f"{kind}.log"
        config = CampaignConfig(
            solver=default_config(kind, sweeps),
            num_trials=6,
            master_seed=4242,
        )
        run_campaign(torus, config, log_path=log, include_spins=True)
        records += read_log(log)
    assert len(records) == 12
    for record in records:
        result = replay_record(torus, record)  # raises on mismatch
        assert result.best_cut == record.best_cut
    print(f"PASS criterion 8: replayed {len(records)} logged trials bit-exactly")
