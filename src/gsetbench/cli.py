"""Command line front end.

Subcommands:

* ``validate``  decode a solution file and check it against expectations
* ``evaluate``  decode and score a solution file
* ``oracle``    exact optimum of a small instance
* ``gen-torus`` write a random toroidal grid instance
* ``solve``     run a single solver trial
* ``campaign``  run a multi-trial campaign from a config file
* ``report``    recompute a summary from an existing campaign log
* ``project``   hardware time implied by a sweeps-to-target figure

Instances are named by file path, by ``torus:ROWSxCOLS:SEED``, or by a
registry name such as G81 (searched in --instance-dir or $GSET_DIR).
All failures exit nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from gsetbench import campaign as campaign_mod
from gsetbench.codec import (
    HexDecodeError,
    decode_hex,
    encode_hex,
    read_solution_header,
    strip_solution_text,
)
from gsetbench.evaluate import evaluate_solution
from gsetbench.instances import (
    GsetFormatError,
    ProblemInstance,
    TorusSpec,
    generate_torus,
    load_gset,
    parse_torus_name,
    write_gset,
)
from gsetbench.metrics import (
    DEFAULT_CONFIDENCE,
    DEFAULT_HW_SWEEP_TIME_S,
    TargetSpec,
    project_hw_ttt,
    write_summary_csv,
)
from gsetbench.oracle import exact_max_cut
from gsetbench.registry import load_registry, locate_instance_file
from gsetbench.solvers import ANNEALING, GREEDY, default_config, run_trial


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit code 1."""


def human_time(seconds: float) -> str:
    """Scale a duration to a readable unit, 3 significant digits.

    A unit is kept down to a tenth of it (0.468 ms rather than 468 us),
    matching how sub-millisecond projections are usually quoted.
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if seconds >= 0.1 * scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds / 1e-9:.3g} ns"


def resolve_instance(spec: str, search_dir=None) -> ProblemInstance:
    """Instance from a path, a torus:RxC:SEED label, or a registry name."""
    path, entry = Path(spec), None
    if not path.exists():
        if spec.startswith("torus:"):
            return generate_torus(parse_torus_name(spec))
        entry = load_registry().get(spec)
        if entry is None:
            raise CliError(
                f"cannot resolve instance {spec!r}: not a file, not torus:RxC:SEED, "
                "not a registered name"
            )
        path = locate_instance_file(spec, search_dir)
    try:
        instance = load_gset(path)
    except GsetFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if entry is not None and (instance.n, instance.m) != (entry.n, entry.m):
        raise CliError(
            f"{path}: expected n={entry.n} m={entry.m} for {spec}, "
            f"file has n={instance.n} m={instance.m}"
        )
    return instance


def _read_text(path_arg: str) -> str:
    if path_arg == "-":
        return sys.stdin.read()
    return Path(path_arg).read_text()


def _best_known_for(args, instance, header) -> int | None:
    """--best-known, else the best cut of the first registry entry named by
    --name, the solution header or the instance; its n and m must match,
    and a best_energy it holds must make best_energy + 2*best_cut the
    instance's total weight (W = E + 2C)."""
    if getattr(args, "best_known", None) is not None:
        return args.best_known
    registry = load_registry()
    for candidate in (getattr(args, "name", None), header.get("instance"), instance.name):
        if candidate and candidate in registry:
            entry = registry[candidate]
            if entry.n != instance.n or entry.m != instance.m:
                raise CliError(
                    f"cannot score against {candidate}: registry has n={entry.n} "
                    f"m={entry.m}, instance has n={instance.n} m={instance.m}"
                )
            weight = instance.total_weight()
            if entry.best_energy is not None and entry.best_energy + 2 * entry.best_cut != weight:
                raise CliError(
                    f"cannot score against {candidate}: registry best_energy="
                    f"{entry.best_energy} + 2*best_cut={entry.best_cut} is not the "
                    f"instance's total weight {weight}"
                )
            return entry.best_cut
    return None


def _decode_solution(args, instance) -> tuple[np.ndarray, dict[str, str], list[str]]:
    """Shared by validate/evaluate: read file, apply substitutions, decode."""
    text = _read_text(args.solution)
    header = read_solution_header(text)
    if "n" in header:
        try:
            declared = int(header["n"])
        except ValueError:
            raise CliError(f"solution header has non-integer n={header['n']!r}")
        if declared != instance.n:
            raise CliError(
                f"solution header says n={declared}, instance has n={instance.n}"
            )
    payload = "".join(strip_solution_text(text).split())
    notes: list[str] = []
    for sub in getattr(args, "substitute", None) or ():
        if len(sub) != 3 or sub[1] != "=" :
            raise CliError(f"--substitute expects CHAR=CHAR, got {sub!r}")
        old, new = sub[0], sub[2]
        positions = [i for i, c in enumerate(payload) if c == old]
        payload = payload.replace(old, new)
        if positions:
            notes.append(
                f"substitute {old}={new}: {len(positions)} replacement(s), "
                f"first at position {positions[0]}"
            )
        else:
            notes.append(f"substitute {old}={new}: no occurrences")
    try:
        spins = decode_hex(payload, instance.n)
    except HexDecodeError as exc:
        raise CliError(f"{args.solution}: {exc}") from exc
    return spins, header, notes


def _print_report(report, fmt: str) -> None:
    if fmt == "csv":
        quality = "" if report.quality is None else f"{report.quality:.10g}"
        print("instance,n,cut,energy,quality")
        print(f"{report.instance},{report.n},{report.cut},{report.energy},{quality}")
    else:
        print(report.to_kv())


def cmd_validate(args) -> int:
    """The validate and evaluate subcommands; evaluate takes no
    --substitute or --expect-cut."""
    instance = resolve_instance(args.instance, args.instance_dir)
    spins, header, notes = _decode_solution(args, instance)
    best_known = _best_known_for(args, instance, header)
    for note in notes:
        print(note)
    report = evaluate_solution(instance, spins, best_known=best_known)
    _print_report(report, args.format)
    if args.expect_cut is not None:
        if report.cut == args.expect_cut:
            print(f"PASS cut matches expected {args.expect_cut}")
            return 0
        print(f"FAIL cut {report.cut} != expected {args.expect_cut}")
        return 1
    return 0


def cmd_oracle(args) -> int:
    instance = resolve_instance(args.instance, args.instance_dir)
    cut, config = exact_max_cut(instance)
    hexstr = encode_hex(config)
    if args.format == "csv":
        print("cut,config")
        print(f"{cut},{hexstr}")
    else:
        print(f"cut={cut} config={hexstr}")
    return 0


def cmd_gen_torus(args) -> int:
    spec = TorusSpec(rows=args.rows, cols=args.cols, seed=args.seed)
    text = write_gset(generate_torus(spec))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    instance = resolve_instance(args.instance, args.instance_dir)
    config = default_config(args.kind, args.sweeps, args.temp_start, args.temp_end)
    # refuse a name the record cannot hold before the trial runs
    campaign_mod.check_loggable(instance.name)
    result = run_trial(instance, config, args.seed)
    record = campaign_mod.trial_record(0, instance.name, config, args.seed, result,
                                       args.include_spins)
    print(campaign_mod.format_record(record))
    return 0


def _add_target(targets: list[TargetSpec], fields, default_confidence: float,
                usage: str, where: str) -> None:
    """Append the target of LABEL CUT [CONFIDENCE] ``fields`` to ``targets``,
    for a config's target lines and report's --target flags alike; a wrong
    field count reads ``usage``, a bad value or a label already in
    ``targets`` ``where: <reason>``."""
    if len(fields) not in (2, 3):
        raise CliError(usage)
    try:
        cut = int(fields[1])
        conf = float(fields[2]) if len(fields) == 3 else default_confidence
        target = TargetSpec(label=fields[0], cut=cut, confidence=conf)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    if any(t.label == target.label for t in targets):
        raise CliError(f"{where}: duplicate target label {target.label!r}")
    targets.append(target)


_CONFIG_KEYS = {"instance", "kind", "sweeps", "temp_start", "temp_end", "num_trials",
                "master_seed", "sweep_scan", "include_spins"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_campaign_config(args):
    """Read the key = value campaign config ``args.config`` and check it
    with the campaign flags. Keys are ``_CONFIG_KEYS``, unknown ones
    refused, plus one ``target = LABEL CUT [CONFIDENCE]`` line per target.
    Returns (instance, config, include_spins, ladder); the instance is
    resolved last, after every other check, and the sweep_scan ladder is
    None for a plain campaign and replaces ``sweeps`` in a scan.
    """
    path = args.config
    confidence = DEFAULT_CONFIDENCE if args.confidence is None else args.confidence
    values: dict[str, str] = {}
    targets: list[TargetSpec] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "target":
            where = f"{path}:{lineno}"
            _add_target(targets, value.split(), confidence,
                        f"{where}: target wants LABEL CUT [CONFIDENCE]", where)
        elif key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        elif key in values:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    def need(key: str) -> str:
        if key not in values:
            raise CliError(f"{path}: missing required key {key!r}")
        return values[key]

    try:
        kind = need("kind")
        ladder = None
        if "sweep_scan" in values:
            ladder = tuple(int(tok) for tok in values["sweep_scan"].replace(",", " ").split())
            if not ladder:
                raise ValueError("sweep_scan must be nonempty when given")
            if any(s < 1 for s in ladder):
                raise ValueError("sweep_scan entries must be positive")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ValueError("sweep_scan entries must be strictly increasing")
        sweeps = ladder[0] if ladder else int(need("sweeps"))
        temps = [float(values[k]) if k in values else None for k in ("temp_start", "temp_end")]
        instance_spec = need("instance")
        config = campaign_mod.CampaignConfig(
            solver=default_config(kind, sweeps, *temps),
            num_trials=int(need("num_trials")),
            master_seed=int(need("master_seed")),
            targets=tuple(targets),
        )
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    include_spins = _BOOLEANS.get(values.get("include_spins", "false").lower())
    if include_spins is None:
        raise CliError(f"{path}: include_spins must be true or false, "
                       f"got {values['include_spins']!r}")

    if ladder:
        # a scan writes one CSV row per rung and keeps no log or targets
        for unused, given in (("--log", args.log), ("--summary-csv", args.summary_csv),
                              ("--resume", args.resume), ("a target line", targets),
                              ("include_spins", include_spins), ("sweeps", "sweeps" in values),
                              ("--confidence", args.confidence is not None),
                              ("--format", args.format is not None)):
            if given:
                raise CliError(f"{unused} does not apply to a sweep_scan config")
    elif args.scan_csv:
        raise CliError("--scan-csv needs a sweep_scan config")
    return resolve_instance(instance_spec, args.instance_dir), config, include_spins, ladder


def _print_summary(summary, args) -> None:
    """The summary of campaign and report: stdout in --format, then the
    --summary-csv file if asked."""
    if args.format == "csv":
        write_summary_csv(summary.targets, sys.stdout)
    else:
        print(
            f"instance={summary.instance} kind={summary.kind} "
            f"sweeps_per_trial={summary.sweeps_per_trial} num_trials={summary.num_trials} "
            f"highest_cut={summary.highest_cut} min_cut={summary.min_cut} "
            f"average_cut={summary.average_cut:.10g} "
            f"avg_trial_time_s={summary.avg_trial_time_s:.6e}"
        )
        for t in summary.targets:
            if t.repetitions is None:
                tail = "r=unreachable stt_sweeps=unreachable ttt_s=unreachable"
            else:
                tail = (
                    f"r={t.repetitions:.10g} stt_sweeps={t.stt_sweeps:.10g} "
                    f"ttt_s={t.ttt_s:.10g} hw_ttt_s={t.hw_ttt_s:.10g}"
                )
            print(
                f"target={t.label} cut={t.cut} confidence={t.confidence:.10g} "
                f"successes={t.successes} trials={t.trials} p_s={t.p_s:.10g} {tail}"
            )
    if args.summary_csv:
        with open(args.summary_csv, "w", newline="") as fh:
            write_summary_csv(summary.targets, fh)


def cmd_campaign(args) -> int:
    instance, config, include_spins, ladder = _parse_campaign_config(args)
    if ladder:
        # one unlogged campaign per rung, all under one master seed, so
        # rung k's trial i is rung k-1's trial i with a longer budget
        rungs = [replace(config, solver=replace(config.solver, sweeps=s)) for s in ladder]
        summaries = [campaign_mod.run_campaign(instance, c, workers=args.workers) for c in rungs]
        if args.scan_csv:
            with open(args.scan_csv, "w", newline="") as fh:
                campaign_mod.write_scan_csv(summaries, fh)
        else:
            campaign_mod.write_scan_csv(summaries, sys.stdout)
        return 0
    summary = campaign_mod.run_campaign(
        instance,
        config,
        log_path=args.log,
        workers=args.workers,
        resume=args.resume,
        include_spins=include_spins,
    )
    _print_summary(summary, args)
    return 0


def cmd_report(args) -> int:
    try:
        records = campaign_mod.read_log(args.log)
    except (OSError, ValueError) as exc:
        raise CliError(f"{args.log}: {exc}") from exc
    targets: list[TargetSpec] = []
    for raw in args.target or ():
        _add_target(targets, raw.split(":"), args.confidence,
                    f"--target wants LABEL:CUT[:CONFIDENCE], got {raw!r}", f"bad --target {raw!r}")
    _print_summary(campaign_mod.summarize(records, targets), args)
    return 0


def cmd_project(args) -> int:
    print(human_time(project_hw_ttt(args.stt, args.sweep_time)))
    return 0


def _add_common(p, fmt=True):
    p.add_argument("--instance-dir", default=None,
                   help="directory with instance files (default $GSET_DIR)")
    if fmt:
        p.add_argument("--format", choices=("kv", "csv"), default="kv")


def _validate_args(p):
    p.add_argument("instance")
    p.add_argument("solution", help="solution file path, or - for stdin")
    p.add_argument("--expect-cut", type=int, default=None)
    p.add_argument("--best-known", type=int, default=None)
    p.add_argument("--name", default=None,
                   help="registry name to score quality against")
    p.add_argument("--substitute", action="append", metavar="CHAR=CHAR",
                   help="repair a character before decoding (reported loudly)")
    _add_common(p)


def _evaluate_args(p):
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--best-known", type=int, default=None)
    p.add_argument("--name", default=None)
    _add_common(p)
    p.set_defaults(expect_cut=None)


def _oracle_args(p):
    p.add_argument("instance")
    _add_common(p)


def _gen_torus_args(p):
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)


def _solve_args(p):
    p.add_argument("instance")
    p.add_argument("--kind", choices=(GREEDY, ANNEALING), default=GREEDY)
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--temp-start", type=float, default=None)
    p.add_argument("--temp-end", type=float, default=None)
    p.add_argument("--include-spins", action="store_true")
    _add_common(p, fmt=False)


def _campaign_args(p):
    p.add_argument("config")
    p.add_argument("--log", default=None)
    p.add_argument("--summary-csv", default=None)
    p.add_argument("--scan-csv", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--confidence", type=float, default=None)
    _add_common(p)
    # None tells a given --confidence or --format from a defaulted one;
    # they default to DEFAULT_CONFIDENCE and kv where they are read
    p.set_defaults(format=None)


def _report_args(p):
    p.add_argument("log")
    p.add_argument("--target", action="append", metavar="LABEL:CUT[:CONFIDENCE]")
    p.add_argument("--summary-csv", default=None)
    p.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    p.add_argument("--format", choices=("kv", "csv"), default="kv")


def _project_args(p):
    p.add_argument("stt", type=float)
    p.add_argument("--sweep-time", type=float, default=DEFAULT_HW_SWEEP_TIME_S,
                   help="seconds per sweep (default 2e-9)")


# (name, help, argument adder, handler) of each subcommand, in help order
_COMMANDS = (
    ("validate", "check a solution file against expectations", _validate_args, cmd_validate),
    ("evaluate", "decode and score a solution file", _evaluate_args, cmd_validate),
    ("oracle", "exact optimum of a small instance", _oracle_args, cmd_oracle),
    ("gen-torus", "write a random toroidal grid instance", _gen_torus_args, cmd_gen_torus),
    ("solve", "run a single solver trial", _solve_args, cmd_solve),
    ("campaign", "run a campaign from a config file", _campaign_args, cmd_campaign),
    ("report", "recompute a summary from a campaign log", _report_args, cmd_report),
    ("project", "hardware time for a sweeps-to-target figure", _project_args, cmd_project),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gsetbench parser with every subcommand, or with ``command``'s
    alone. Argparse set-up costs about as much as a small command, so
    ``main`` builds only the one it runs; the one-command parser still
    shows every command in its usage line, so its messages are the same."""
    parser = argparse.ArgumentParser(
        prog="gsetbench",
        description="Max-Cut / Ising benchmark toolkit for Gset-family instances",
    )
    # the metavar argparse would derive from every choice; left unset for the
    # full parser, whose missing-command error names the dest instead
    metavar = None if command is None else "{%s}" % ",".join(_NAMES)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments, handler in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # ValueError covers library-level rejections (malformed files,
        # foreign campaign logs); genuine bugs raise RuntimeError and
        # keep their tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
