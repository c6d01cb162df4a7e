"""gsetbench benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload validate-g81 [--seed 1] [--seconds 30] [--trace 0]

Workloads are validate-g81, campaign-g72 and ttt-exact (see bench/README.md).
The default seed is 1; seed 2 is the documented second seed for re-checking
a claim on inputs that were not used while writing it. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--toy`` shrinks every input for a quick schema smoke run.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import MODULES, SpanIndex, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL, TOY, WORKLOADS, calibrate, scale_between)

CLEARED_ENV = ("GSET_DIR", "GSETBENCH_REGISTRY", "GSETBENCH_SOLUTIONS_DIR")
SETUP_REPEATS = 5


def git_head(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_program():
    src = ROOT / "src"
    if not (src / "gsetbench" / "cli.py").is_file():
        raise ImportError(f"no gsetbench sources under {src}")
    sys.path.insert(0, str(src))
    import gsetbench
    from gsetbench import cli

    if Path(gsetbench.__file__).resolve().parent != (src / "gsetbench").resolve():
        raise ImportError(f"gsetbench imported from {gsetbench.__file__}, not {src}")
    return gsetbench, cli


def timed_step(workload, i):
    start = time.perf_counter()
    step = workload.step(i)
    step.elapsed = time.perf_counter() - start
    return step


def run_phase(workload, seconds, min_steps):
    """Steps 0, 1, ... until `seconds` have passed and min_steps are done."""
    steps = []
    deadline = time.perf_counter() + seconds
    while len(steps) < min_steps or time.perf_counter() < deadline:
        steps.append(timed_step(workload, len(steps)))
    return steps


def host_speeds(steps):
    return [scale for s in steps for timings in s.times.values() for _, scale in timings]


def tally(steps):
    attempted = sum(s.ops for s in steps)
    failures = [f for s in steps for f in s.failures]
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return attempted, len(failures)


def end_to_end(workload, seconds):
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        workload.setup()
        raw_setup_times.append(time.perf_counter() - start)
        setup_times.append(raw_setup_times[-1] * scale_between(before, calibrate()))
    steps = run_phase(workload, seconds, workload.min_steps)
    primary, secondary, lines = workload.headline(steps)
    raw_primary, raw_secondary, _ = workload.headline(steps, scaled=False)
    attempted, failed = tally(steps)
    lines += [
        f"host_speed {statistics.median(host_speeds(steps)):.4g} share of the reference "
        "(times above and below are at reference speed)",
        f"unscaled setup_s {statistics.median(raw_setup_times):.6g} s, "
        f"primary_s {raw_primary:.6g} s, secondary_s {raw_secondary:.6g} s",
    ]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "primary_s": (primary, "s"),
        "secondary_s": (secondary, "s"),
    }
    lines.append(f"fail_frac {failed / attempted:.6g} share ({failed} of {attempted} operations)")
    lines.append(f"steps {len(steps)} count")
    return metrics, lines, attempted, failed


def traced(workload, package, seconds, spans_path):
    """Per-layer metrics from spans, and the cost of tracing the same steps."""
    short = {"simulated_annealing": "anneal", "greedy_local_search": "greedy"}
    hooks = {
        "instances.parse_gset": lambda a, r: {"edges": r.m},
        "instances.generate_torus": lambda a, r: {"edges": r.m},
        "solvers.run_trial": lambda a, r: {
            "kind": short[a[1].kind], "updates": r.sweeps_executed * a[0].n,
            "sweeps": r.sweeps_executed},
        "campaign.run_campaign": lambda a, r: {
            "kind": short[r.kind], "trials": r.num_trials,
            "successes": r.targets[0].successes if r.targets else 0},
        "oracle.exact_max_cut": lambda a, r: {"configs": 2 ** (a[0].n - 1)},
    }
    tracer = Tracer(package, hooks)

    workload.on_call = tracer.begin_op
    with tracer:
        workload.setup()
    parallel = workload.parallel_efficiency()
    first_step_op = tracer.op + 1
    # each step runs untraced and then traced, so both halves see the same
    # inputs and the same spells of host speed
    plain, steps = [], []
    deadline = time.perf_counter() + seconds
    while not steps or time.perf_counter() < deadline:
        plain.append(timed_step(workload, len(steps)))
        with tracer:
            steps.append(timed_step(workload, len(steps)))
    tracer.write(spans_path)

    index = SpanIndex(tracer.spans)
    step_ops = set(range(first_step_op, tracer.op + 1))
    attrs = tracer.attrs
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def sum_attr(name, key, kind=None, ops=step_ops):
        return sum(attrs[s][key] for s in index.by_name(name, ops)
                   if s in attrs and (kind is None or attrs[s]["kind"] == kind))

    put("instances.parse_gset_s", index.mean_duration("instances.parse_gset"), "s")
    put("instances.generate_torus_s", index.mean_duration("instances.generate_torus"), "s")
    put("instances.edges", sum_attr("instances.parse_gset", "edges")
        + sum_attr("instances.generate_torus", "edges"), "count")
    put("codec.decode_hex_s", index.mean_duration("codec.decode_hex"), "s")
    put("codec.encode_hex_s", index.mean_duration("codec.encode_hex"), "s")
    put("evaluate.cut_value_s", index.mean_duration("evaluate.cut_value"), "s")
    put("evaluate.ising_energy_s", index.mean_duration("evaluate.ising_energy"), "s")
    put("registry.load_registry_s", index.mean_duration("registry.load_registry"), "s")
    put("cli.resolve_instance_s", index.mean_duration("cli.resolve_instance"), "s")

    oracle_spans = index.by_name("oracle.exact_max_cut")
    oracle_time = sum(index.duration[s] for s in oracle_spans)
    put("oracle.exact_max_cut_s", index.mean_duration("oracle.exact_max_cut"), "s")
    put("oracle.configs_per_s",
        sum(attrs[s]["configs"] for s in oracle_spans) / oracle_time if oracle_time else 0.0, "1/s")

    trial_spans = index.by_name("solvers.run_trial", step_ops)
    for kind in ("anneal", "greedy"):
        mine = [s for s in trial_spans if attrs[s]["kind"] == kind]
        updates = sum(attrs[s]["updates"] for s in mine)
        kernel = sum(index.self_time[s] for s in mine)
        put(f"solvers.ns_per_update.{kind}", kernel / updates * 1e9 if updates else 0.0, "ns")
        put(f"solvers.run_trial_s.{kind}",
            sum(index.duration[s] for s in mine) / len(mine) if mine else 0.0, "s")
        put(f"solvers.spin_updates.{kind}", updates, "count")
        put(f"solvers.trials.{kind}", len(mine), "count")
        put(f"solvers.successes.{kind}", sum_attr("campaign.run_campaign", "successes", kind),
            "count")
    put("solvers.sweeps_executed.greedy",
        sum(attrs[s]["sweeps"] for s in trial_spans if attrs[s]["kind"] == "greedy"), "count")

    campaigns = index.by_name("campaign.run_campaign", step_ops)
    in_campaign = [s for s in trial_spans
                   if index.ancestor_named(s, "campaign.run_campaign")]
    campaign_trials = sum(attrs[s]["trials"] for s in campaigns)
    overhead = (sum(index.duration[s] for s in campaigns)
                - sum(index.duration[s] for s in in_campaign))
    put("campaign.overhead_s_per_trial", overhead / campaign_trials if campaign_trials else 0.0,
        "s")
    put("campaign.read_log_s", index.mean_duration("campaign.read_log"), "s")
    put("campaign.summarize_s", index.mean_duration("campaign.summarize"), "s")
    put("campaign.log_bytes", sum(s.counts["log_bytes"] for s in steps), "count")
    put("campaign.parallel_efficiency", parallel, "share")

    for kind in ("anneal", "greedy"):
        r = workload.ttt(steps, kind)[1] if hasattr(workload, "ttt") else 0.0
        put(f"metrics.r.{kind}", r, "reps")

    self_time = index.module_self_time(step_ops)
    for module in MODULES:
        put(f"{module}.self_s", self_time[module] / len(steps), "s")

    put("trace_overhead_frac",
        sum(s.elapsed for s in steps) / sum(s.elapsed for s in plain) - 1, "share")
    put("trace.steps", len(steps), "count")

    attempted, failed = tally(plain + steps)
    lines = [f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
             "*.self_s are seconds per traced step; *_s of a function are seconds per call"]
    return metrics, lines, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    try:
        package, cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy

    out_dir = ROOT / ".bench_work"
    work = out_dir / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](cli, args.seed, TOY if args.toy else FULL, work)
        print(f"env python={platform.python_version()} numpy={numpy.__version__} "
              f"cpu_count={os.cpu_count()} git_head={git_head(ROOT) or 'unavailable'}")
        print(f"env cleared {' '.join(CLEARED_ENV)}")
        print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} toy={int(args.toy)}")
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, lines, attempted, failed = traced(workload, package, args.seconds,
                                                        spans_path)
        else:
            metrics, lines, attempted, failed = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    if not finite:
        print("error: a metric is not finite", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
