"""The three benchmark workloads and the benchmark's own reference checks.

Every program call goes through ``gsetbench.cli.main(argv)`` in-process,
with ``--workers 1`` (the default), so interpreter start-up stays out of
the timings. Each workload runs numbered steps; step i is a fixed
function of (seed, i), so a traced run can repeat each step on the same
inputs. Output checks use the benchmark's own edge lists, hex codec, cut
formula and log parser, never gsetbench's.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = {"anneal": "simulated_annealing", "greedy": "greedy_local_search"}
CONFIDENCE = 0.99
# Calibration loop time of the reference host (2-core sandbox, Python 3.11);
# timings are reported as seconds on a host where the loop takes this long.
REFERENCE_CALIBRATION_S = 0.0015


@dataclass(frozen=True)
class Sizes:
    validate_torus: tuple[int, int] = (100, 200)  # G81 size: n=20000, m=40000
    validate_solutions: int = 4
    campaign_torus: tuple[int, int] = (100, 100)  # G72 size: n=10000, m=20000
    campaign_rounds: int = 16
    campaign_trials: tuple[tuple[str, int, int], ...] = (
        ("anneal", 4, 20), ("greedy", 8, 50))  # (kind, trials, sweep budget)
    ttt_torus: tuple[int, int] = (4, 5)  # n=20, the oracle's 2^19 walk
    ttt_panel: int = 24
    ttt_trials: tuple[tuple[str, int, int], ...] = (
        ("anneal", 400, 10), ("greedy", 400, 20))


FULL = Sizes()
TOY = Sizes(
    validate_torus=(6, 8), validate_solutions=2,
    campaign_torus=(6, 6), campaign_rounds=2,
    campaign_trials=(("anneal", 2, 5), ("greedy", 2, 10)),
    ttt_torus=(3, 4), ttt_panel=2,
    ttt_trials=(("anneal", 20, 5), ("greedy", 20, 10)),
)


# ---------------------------------------------------------------- reference

def read_edges(path):
    """(n, u, v, w) from a Gset file, 0-based endpoints, parsed with numpy."""
    tokens = np.array(Path(path).read_text().split(), dtype=np.int64)
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:].reshape(m, 3)
    return n, body[:, 0] - 1, body[:, 1] - 1, body[:, 2]


def cut_and_energy(edges, spins):
    _, u, v, w = edges
    opposite = spins[u] != spins[v]
    return int(w[opposite].sum()), int((w * spins[u] * spins[v]).sum())


def spins_to_hex(spins):
    """Spin i is bit i read left to right, +1 a set bit, zero padded."""
    bits = (spins > 0).astype(np.uint8)
    digits = np.packbits(bits).tobytes().hex()
    return digits[: (len(spins) + 3) // 4]


def hex_to_spins(text, n):
    digits = "".join(text.split())
    raw = bytes.fromhex(digits + "0" * (len(digits) % 2))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]
    return bits.astype(np.int64) * 2 - 1


def key_values(line):
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def read_log(path):
    return [key_values(line) for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def repetitions(p_s):
    """r = ln(1 - c) / ln(1 - P_s), floored at 1; inf when P_s is 0."""
    if p_s <= 0.0:
        return math.inf
    if p_s >= 1.0:
        return 1.0
    return max(1.0, math.log(1.0 - CONFIDENCE) / math.log(1.0 - p_s))


def p90(values):
    """90th percentile, exclusive method as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def calibrate():
    """Best of 3 timings of a fixed pure-Python loop, garbage collector off.

    The host's speed drifts by tens of percent within seconds, so each timed
    call is bracketed by this loop; the loop calls nothing in gsetbench, so
    no change to the program can move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            acc, table = 0, {}
            for i in range(12000):
                u, v, w = (i, i + 1, i % 3)
                acc += u * w - v
                if w == 0:
                    table[i] = (u, acc)
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def samples(steps, key, scaled=True):
    """Seconds recorded under `key`, at reference host speed if scaled."""
    return [t * (scale if scaled else 1.0) for s in steps for t, scale in s.times[key]]


def ratio(num, den):
    """num / den, or inf when nothing was measured (every call failed)."""
    return num / den if den else math.inf


def median(values):
    return statistics.median(values) if values else math.inf


# ---------------------------------------------------------------- harness

@dataclass
class Call:
    seconds: float
    rc: int | None
    out: str
    err: str
    scale: float = 1.0  # reference / host speed around the call, if timed


def scale_between(before, after):
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


@dataclass
class Step:
    """Timings, counts and failed checks of one workload step."""

    ops: int = 0
    failures: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    elapsed: float = 0.0

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def record(self, key, call):
        self.times[key].append((call.seconds, call.scale))


class Workload:
    name = ""
    min_steps = 1

    def __init__(self, cli, seed, sizes, workdir):
        self.cli = cli
        self.seed = seed
        self.sizes = sizes
        self.work = Path(workdir)
        self.on_call = None  # a traced run opens one span op per program call

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    def call(self, *argv, timed=False):
        """Run one gsetbench command in-process; a timed call is calibrated."""
        argv = [str(a) for a in argv]
        before = calibrate() if timed else None
        if self.on_call is not None:
            self.on_call(argv[0])
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # the benchmark must keep running and count the failure
                rc = None
                traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
        scale = scale_between(before, calibrate()) if timed else 1.0
        return Call(seconds, rc, out.getvalue(), err.getvalue(), scale)

    def expect_ok(self, step, c, what):
        return step.check(c.rc == 0, f"{what}: exit {c.rc}: {c.err.strip()[-300:]}")

    def replay(self, step, instance, record):
        """Re-run one logged trial through `solve`; best_cut must match."""
        argv = ["solve", instance, "--kind", record["kind"],
                "--sweeps", record["sweeps"], "--seed", record["seed"]]
        if "temp_start" in record:
            argv += ["--temp-start", record["temp_start"], "--temp-end", record["temp_end"]]
        c = self.call(*argv)
        if self.expect_ok(step, c, "replay"):
            got = key_values(c.out).get("best_cut")
            step.check(got == record["best_cut"],
                       f"replay of trial {record['index']}: best_cut {got} "
                       f"!= logged {record['best_cut']}")

    def logged_campaign(self, step, i, short, instance, config, trials, *report_args):
        """Run a campaign with a log; check `report` and one replay.

        Returns the logged records, or [] when the campaign failed.
        """
        log = self.work / f"{short}.log"
        log.unlink(missing_ok=True)
        c = self.call("campaign", config, "--log", log, timed=True)
        step.ops += 1
        if not self.expect_ok(step, c, f"{short} campaign"):
            return []
        step.record(f"campaign.{short}", c)
        records = read_log(log)
        step.counts["log_bytes"] += log.stat().st_size
        step.check(len(records) == trials,
                   f"{instance} {short}: {len(records)} of {trials} trials logged")
        rep = self.call("report", log, *report_args, timed=True)
        step.ops += 1
        step.record("report", rep)
        if self.expect_ok(step, rep, "report"):
            step.check(rep.out == c.out, f"{instance} {short}: report differs from campaign")
        if records:
            self.replay(step, instance, records[i % len(records)])
        return records

    def write_torus(self, rows, cols, torus_seed, path):
        """Write a torus with `gen-torus` and read back its edge list."""
        c = self.call("gen-torus", rows, cols, "--seed", torus_seed, "-o", path)
        if c.rc != 0:
            raise RuntimeError(f"gen-torus failed: {c.err.strip()}")
        return read_edges(path)

    def setup(self):
        raise NotImplementedError

    def step(self, i) -> Step:
        raise NotImplementedError

    def headline(self, steps, scaled=True):
        """(primary_s, secondary_s, report lines) from a phase's steps."""
        raise NotImplementedError

    def parallel_config(self):
        """Annealing campaign config to time at 1 and 2 workers, if any."""
        return None

    def parallel_efficiency(self):
        """t1 / (w * t_w) for w = min(2, nproc); 0 when there is no campaign."""
        config = self.parallel_config()
        if config is None:
            return 0.0
        workers = min(2, len(os.sched_getaffinity(0)))
        times = []
        for w in (1, workers):
            c = self.call("campaign", config, "--workers", w, timed=True)
            if c.rc != 0:
                raise RuntimeError(f"parallel campaign failed: {c.err.strip()}")
            times.append(c.seconds * c.scale)
        return times[0] / (workers * times[1])


# ---------------------------------------------------------------- workloads

class ValidateG81(Workload):
    """Record check at G81 size: parse, decode, cut and energy, registry."""

    name = "validate-g81"

    def setup(self):
        rows, cols = self.sizes.validate_torus
        rng = self.rng(1)
        torus_seed = int(rng.integers(2**32))
        self.instance = self.work / f"torus-{rows}x{cols}-{torus_seed}.txt"
        self.edges = self.write_torus(rows, cols, torus_seed, self.instance)
        n = self.edges[0]
        self.total_weight = int(self.edges[3].sum())
        self.solutions = []
        for k in range(self.sizes.validate_solutions):
            spins = rng.integers(0, 2, size=n) * 2 - 1
            digits = spins_to_hex(spins)
            body = "\n".join(digits[j:j + 100] for j in range(0, len(digits), 100))
            path = self.work / f"solution-{k}.txt"
            path.write_text(f"# instance={self.instance.stem} n={n}\n{body}\n")
            self.solutions.append((path, *cut_and_energy(self.edges, spins)))

    def step(self, i):
        step = Step(ops=1)
        path, cut, energy = self.solutions[i % len(self.solutions)]
        c = self.call("validate", self.instance, path, "--expect-cut", cut, timed=True)
        step.record("validate", c)
        if self.expect_ok(step, c, "validate"):
            lines = c.out.splitlines() or [""]
            kv = key_values(lines[0])
            got_cut, got_energy = int(kv.get("cut", -1)), int(kv.get("energy", 0))
            step.check(got_cut == cut and got_energy == energy,
                       f"validate printed cut={got_cut} energy={got_energy}, "
                       f"expected cut={cut} energy={energy}")
            step.check(self.total_weight == got_energy + 2 * got_cut,
                       f"W={self.total_weight} != E + 2C on {lines[0]!r}")
            step.check(lines[-1] == f"PASS cut matches expected {cut}",
                       f"validate did not PASS: {lines[-1]!r}")
        return step

    def headline(self, steps, scaled=True):
        times = samples(steps, "validate", scaled)
        mid, tail = median(times), p90(times)
        return mid, tail, [
            f"validate_s.p50 {mid:.6g} s",
            f"validate_s.p90 {tail:.6g} s",
            f"validate_calls {len(times)} count",
            "primary_s = validate_s.p50, secondary_s = validate_s.p90",
        ]


class CampaignG72(Workload):
    """Annealing and greedy campaigns on a G72-size torus, spins logged."""

    name = "campaign-g72"

    def setup(self):
        rows, cols = self.sizes.campaign_torus
        rng = self.rng(2)
        torus_seed = int(rng.integers(2**32))
        self.instance = f"torus:{rows}x{cols}:{torus_seed}"
        self.edges = self.write_torus(rows, cols, torus_seed, self.work / "g72.txt")
        self.configs = []
        for r in range(self.sizes.campaign_rounds):
            round_configs = []
            for short, trials, sweeps in self.sizes.campaign_trials:
                path = self.work / f"{short}-{r}.cfg"
                path.write_text(
                    f"instance = {self.instance}\nkind = {KINDS[short]}\n"
                    f"sweeps = {sweeps}\nnum_trials = {trials}\n"
                    f"master_seed = {int(rng.integers(2**63))}\ninclude_spins = true\n")
                round_configs.append((short, trials, path))
            self.configs.append(round_configs)

    def step(self, i):
        step = Step()
        n = self.edges[0]
        for short, trials, config in self.configs[i % len(self.configs)]:
            records = self.logged_campaign(step, i, short, self.instance, config, trials)
            step.counts[f"updates.{short}"] += sum(int(r["sweeps_executed"]) for r in records) * n
            for r in records:
                got, _ = cut_and_energy(self.edges, hex_to_spins(r["spins"], n))
                step.check(got == int(r["best_cut"]),
                           f"{short} trial {r['index']}: logged spins cut {got} "
                           f"!= best_cut {r['best_cut']}")
        return step

    def headline(self, steps, scaled=True):
        lines, costs = [], []
        for short, _, _ in self.sizes.campaign_trials:
            wall = sum(samples(steps, f"campaign.{short}", scaled))
            updates = sum(s.counts[f"updates.{short}"] for s in steps)
            costs.append(ratio(wall, updates))
            lines += [f"spin_updates_per_s.{short} {ratio(updates, wall):.6g} 1/s",
                      f"campaign_calls.{short} "
                      f"{sum(len(s.times[f'campaign.{short}']) for s in steps)} count",
                      f"spin_updates.{short} {updates} count"]
        lines.append("primary_s = 1/spin_updates_per_s.anneal, "
                     "secondary_s = 1/spin_updates_per_s.greedy")
        return costs[0], costs[1], lines

    def parallel_config(self):
        return self.configs[0][0][2]


class TttExact(Workload):
    """Exact-target time-to-target on a fixed panel of 4x5 tori."""

    name = "ttt-exact"

    def setup(self):
        rows, cols = self.sizes.ttt_torus
        # The panel is fixed and only the trial streams follow the seed:
        # TTT differs several-fold between 4x5 instances (greedy P_s 0.04
        # to 0.43 over 16 of them), so a panel drawn from the seed would
        # measure instance choice rather than the program.
        self.panel = []
        for k in range(self.sizes.ttt_panel):
            torus_seed = 1000 + k
            edges = self.write_torus(rows, cols, torus_seed, self.work / f"ttt-{k}.txt")
            self.panel.append((f"torus:{rows}x{cols}:{torus_seed}", edges))
        # the first pass must cover the whole panel
        self.min_steps = len(self.panel)

    def step(self, i):
        step = Step(ops=1)
        k = i % len(self.panel)
        name, edges = self.panel[k]
        step.counts["panel_index"] = k
        o = self.call("oracle", name, timed=True)
        step.record("oracle", o)
        if not self.expect_ok(step, o, "oracle"):
            return step
        kv = key_values(o.out)
        if not step.check("cut" in kv and "config" in kv, f"{name}: oracle printed {o.out!r}"):
            return step
        optimum = int(kv["cut"])
        got, _ = cut_and_energy(edges, hex_to_spins(kv["config"], edges[0]))
        step.check(got == optimum, f"{name}: oracle config cuts {got}, oracle says {optimum}")
        rng = self.rng(3, i)
        for short, trials, sweeps in self.sizes.ttt_trials:
            config = self.work / f"ttt-{short}.cfg"
            config.write_text(
                f"instance = {name}\nkind = {KINDS[short]}\nsweeps = {sweeps}\n"
                f"num_trials = {trials}\nmaster_seed = {int(rng.integers(2**63))}\n"
                f"target = opt {optimum}\n")
            records = self.logged_campaign(step, i, short, name, config, trials,
                                           "--target", f"opt:{optimum}")
            cuts = [int(r["best_cut"]) for r in records]
            step.check(max(cuts, default=optimum) <= optimum,
                       f"{name} {short}: best_cut {max(cuts)} exceeds optimum {optimum}")
            step.counts[f"trials.{short}"] += len(cuts)
            step.counts[f"successes.{short}"] += sum(cut >= optimum for cut in cuts)
        return step

    def ttt(self, steps, short, scaled=True):
        """Pooled time-to-target over the panel, each instance weighted once.

        P_s is the mean over panel instances of each instance's success
        share, so instances that a partial second pass ran twice do not
        count twice; time per trial is pooled over every campaign.
        """
        per_instance = defaultdict(lambda: [0, 0])
        for s in steps:
            acc = per_instance[s.counts["panel_index"]]
            acc[0] += s.counts[f"successes.{short}"]
            acc[1] += s.counts[f"trials.{short}"]
        shares = [succ / trials for succ, trials in per_instance.values() if trials]
        p_s = statistics.fmean(shares) if shares else 0.0
        wall = sum(samples(steps, f"campaign.{short}", scaled))
        trials = sum(s.counts[f"trials.{short}"] for s in steps)
        r = repetitions(p_s)
        successes = sum(s.counts[f"successes.{short}"] for s in steps)
        return ratio(wall, trials) * r, r, p_s, successes, trials

    def headline(self, steps, scaled=True):
        lines, ttts = [], []
        for short, _, _ in self.sizes.ttt_trials:
            ttt, r, p_s, successes, trials = self.ttt(steps, short, scaled)
            ttts.append(ttt)
            lines += [f"ttt_s.{short} {ttt:.6g} s",
                      f"metrics.r.{short} {r:.6g} reps (P_s {p_s:.4f}, mean over instances)",
                      f"solvers.successes.{short} {successes} of {trials} trials"]
        lines += [f"oracle_s {median(samples(steps, 'oracle', scaled)):.6g} s",
                  f"report_s {median(samples(steps, 'report', scaled)):.6g} s",
                  f"instances_run {len(steps)} count (panel of {len(self.panel)})",
                  "primary_s = ttt_s.anneal, secondary_s = ttt_s.greedy"]
        return ttts[0], ttts[1], lines

    def parallel_config(self):
        name, _ = self.panel[0]
        short, trials, sweeps = self.sizes.ttt_trials[0]
        config = self.work / "ttt-parallel.cfg"
        config.write_text(f"instance = {name}\nkind = {KINDS[short]}\nsweeps = {sweeps}\n"
                          f"num_trials = {trials}\nmaster_seed = {self.seed}\n")
        return config


WORKLOADS = {w.name: w for w in (ValidateG81, CampaignG72, TttExact)}
