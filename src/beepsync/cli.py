"""Command line front end.

Subcommands: run-fast, run-selfstab, run-slots, analyze-fsm, sweep. Every
run prints a JSON summary to stdout (measured values next to the
theoretical bound) and optionally writes the full trace to --out. Any long
flag can be preset through an environment variable named
BEEPSYNC_<FLAG> (uppercased, dashes become underscores); explicit flags win.

Exit codes: 0 success, 2 invalid arguments or unusable input (including a
sweep row whose run raised on its own kind, size and seed), 3 invariant
violations found in the produced trace, a failed closure check or an
uncertified analyze-fsm counterexample, 4 bound breach (no convergence
within the horizon, or convergence later than the theoretical bound).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import product

from .checkpoints import MAX_PERIOD, compute_checkpoints, sync_round_budget
from .engine import (
    ActivationSchedule,
    check_invariants,
    check_stab_invariants,
    random_schedule,
    run_fast,
    run_selfstab,
    write_trace_csv,
    write_trace_jsonl,
)
from .fsm import (
    NotConstructible,
    certify_no_sync,
    classify,
    extract_fast_automaton,
    extract_selfstab_automaton,
    format_automaton,
    load_automaton,
)
from .selfstab import load_configs, random_configs
from .slots import run_slots, write_slot_csv
from .topology import KINDS, MAX_NODES, Topology, format_topology, generate, load_topology

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_BOUND = 4

ENV_PREFIX = "BEEPSYNC_"


def _apply_env_defaults(parser: argparse.ArgumentParser) -> None:
    """Presets flag defaults from BEEPSYNC_* variables; explicit flags win."""
    for action in parser._actions:
        longs = [opt for opt in action.option_strings if opt.startswith("--")]
        if not longs:
            continue
        name = ENV_PREFIX + longs[0][2:].replace("-", "_").upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        if isinstance(action, argparse._AppendAction):
            value = raw.split(",")
        elif action.type is not None:
            try:
                value = action.type(raw)
            except (TypeError, ValueError):
                parser.error(f"bad value {raw!r} in ${name}")
        else:
            value = raw
        if action.choices is not None and value not in action.choices:
            parser.error(f"bad value {raw!r} in ${name}")
        action.default = value
        action.required = False


class _PresetParser(argparse.ArgumentParser):
    """A subcommand's parser: its own BEEPSYNC_* presets apply when it parses,
    so a preset for another subcommand's flag never reaches it."""

    def parse_known_args(self, args=None, namespace=None):
        _apply_env_defaults(self)
        return super().parse_known_args(args, namespace)


class _AppendOverPreset(argparse._AppendAction):
    """``append``, except that the first explicit flag drops a BEEPSYNC_* preset list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def _parse_wakes(pairs: list[str] | None) -> dict[int, int] | None:
    if not pairs:
        return None
    wakes = {}
    for pair in pairs:
        node_text, sep, round_text = pair.partition("=")
        if not sep:
            raise ValueError(f"--wake expects NODE=ROUND, got {pair!r}")
        wakes[int(node_text)] = int(round_text)
    return wakes


def _kind(name: str) -> str:
    """The generator kind a topology name stands for: ``random`` is
    ``random_connected``, and a name outside ``KINDS`` is refused."""
    kind = "random_connected" if name == "random" else name
    if kind not in KINDS:
        raise ValueError(f"unknown topology {name!r}")
    return kind


def _resolve_topology(spec: str, size: int | None, seed: int | None) -> Topology:
    if spec.startswith("file:"):
        return load_topology(spec[len("file:"):])
    kind = _kind(spec)
    if size is None:
        raise ValueError("--n is required for generated topologies")
    return generate(kind, size, seed=seed)


def _write_trace(trace, path: str, out_format: str) -> None:
    if out_format == "csv":
        write_trace_csv(trace, path)
    else:
        write_trace_jsonl(trace, path)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_run_fast(args: argparse.Namespace) -> int:
    topology = _resolve_topology(args.topology, args.n, args.seed)
    wakes = _parse_wakes(args.wake)
    if wakes is not None:
        schedule = ActivationSchedule(wakes)
    elif args.seed is not None:
        schedule = random_schedule(
            topology.node_count, args.seed, max_round=2 * args.T
        )
    else:
        raise ValueError("either --wake or --seed must be given")
    result, trace = run_fast(
        topology, schedule, args.T, spacing=args.q, horizon=args.horizon
    )
    violations = check_invariants(trace, compute_checkpoints(args.T, args.q))
    if args.out:
        _write_trace(trace, args.out, args.format)
    satisfied = result.sync_round is not None and result.sync_round <= result.bound
    _emit(
        {
            "mode": "fast",
            "nodes": topology.node_count,
            "diameter": topology.diameter,
            "T": args.T,
            "q": args.q,
            "horizon": result.horizon,
            "sync_round": result.sync_round,
            "bound": result.bound,
            "bound_satisfied": satisfied,
            "closure_verified": result.closure_verified,
            "invariant_violations": len(violations),
        }
    )
    if violations or result.closure_verified is False:
        return EXIT_INVARIANT
    return EXIT_OK if satisfied else EXIT_BOUND


def _cmd_run_selfstab(args: argparse.Namespace) -> int:
    topology = _resolve_topology(args.topology, args.n, args.seed)
    node_bound = args.N if args.N is not None else topology.node_count
    budget = sync_round_budget(node_bound, args.T, args.q)
    if args.init_file:
        initial = load_configs(args.init_file)
    elif args.seed is not None:
        initial = random_configs(
            topology.node_count, args.T, node_bound, budget, args.seed
        )
    else:
        raise ValueError("either --init-file or --seed must be given")
    result, trace = run_selfstab(
        topology, initial, args.T, spacing=args.q,
        node_bound=node_bound, horizon=args.horizon,
    )
    violations = check_stab_invariants(trace)
    if args.out:
        _write_trace(trace, args.out, args.format)
    _emit(
        {
            "mode": "selfstab",
            "nodes": topology.node_count,
            "T": args.T,
            "q": args.q,
            "N": node_bound,
            "budget": budget,
            "horizon": result.horizon,
            "legitimate_round": result.legitimate_round,
            "legit_streak": result.legit_streak,
            "closure_verified": result.closure_verified,
            "all_lock_round": result.all_lock_round,
            "entered_pulse": result.entered_pulse,
            "pulse_seen": result.pulse_seen,
            "invariant_violations": len(violations),
        }
    )
    if violations or result.closure_verified is False:
        return EXIT_INVARIANT
    return EXIT_OK if result.legitimate_round is not None else EXIT_BOUND


def _cmd_run_slots(args: argparse.Namespace) -> int:
    topology = _resolve_topology(args.topology, args.n, args.seed)
    wakes = _parse_wakes(args.wake)
    if wakes is None:
        raise ValueError("--wake NODE=SLOT is required for slot runs")
    offsets = None
    if args.offsets:
        offsets = [float(part) for part in args.offsets.split(",")]
    result, records = run_slots(
        topology, offsets, ActivationSchedule(wakes), args.T,
        spacing=args.q, slot_duration=args.slot_duration,
        time_horizon=args.time_horizon,
    )
    if args.out:
        write_slot_csv(records, args.out)
    _emit(
        {
            "mode": "slots",
            "nodes": topology.node_count,
            "T": args.T,
            "q": args.q,
            "slot_duration": args.slot_duration,
            "sync_time": result.sync_time,
            "slots_run": result.rounds_run,
            "records": len(records),
        }
    )
    return EXIT_OK if result.sync_time is not None else EXIT_BOUND


def _cmd_analyze_fsm(args: argparse.Namespace) -> int:
    if args.automaton:
        automaton = load_automaton(args.automaton)
    elif args.protocol == "fast":
        automaton = extract_fast_automaton(args.T, args.q)
    elif args.protocol == "selfstab":
        node_bound = args.N if args.N is not None else 2
        automaton = extract_selfstab_automaton(args.T, args.q, node_bound)
    else:
        raise ValueError("give --automaton PATH or --protocol {fast,selfstab}")
    try:
        report = classify(automaton, args.T)
    except NotConstructible as exc:
        print(f"not constructible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    topology, initial = report.counterexample
    certified = certify_no_sync(automaton, report.counterexample, args.T)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "automaton": format_automaton(automaton),
                    "topology": format_topology(topology),
                    "initial_states": list(initial),
                },
                fh,
                indent=2,
            )
    _emit(
        {
            "mode": "analyze",
            "states": automaton.state_count,
            "T": args.T,
            "case": report.case.value,
            "beep_cycle_length": len(report.beep_cycle) - 1,
            "silence_cycle_length": len(report.silence_cycle) - 1,
            "counterexample_nodes": topology.node_count,
            "initial_states": list(initial),
            "certified_no_sync": certified,
        }
    )
    return EXIT_OK if certified else EXIT_INVARIANT


def _parse_range(text: str) -> range:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        value = int(text)
        return range(value, value + 1)
    return range(int(lo_text), int(hi_text) + 1)


SWEEP_FIELDS = (
    "mode", "kind", "n", "T", "q", "schedule", "seed",
    "sync_round", "legitimate_round", "bound", "ok", "error",
)


def _sweep_row(key: tuple) -> dict:
    """One sweep row; ``key`` holds the row's first seven fields, then the horizon."""
    mode, kind, n, period, spacing, schedule_kind, seed, horizon = key
    row = dict(zip(SWEEP_FIELDS[:7], key))
    try:
        topology = generate(_kind(kind), n, seed=seed)
        if mode == "selfstab":
            budget = sync_round_budget(n, period, spacing)
            initial = random_configs(n, period, n, budget, seed)
            result, _ = run_selfstab(
                topology, initial, period, spacing=spacing, node_bound=n,
                horizon=horizon, stability_window=4 * period, record_trace=False,
            )
            row["legitimate_round"] = result.legitimate_round
            row["ok"] = result.legitimate_round is not None
        else:
            if schedule_kind == "single":
                schedule = random_schedule(n, seed, max_round=0, max_sources=1)
            else:
                schedule = random_schedule(n, seed, max_round=2 * period)
            result, _ = run_fast(
                topology, schedule, period, spacing=spacing,
                horizon=horizon, record_trace=False,
            )
            row["sync_round"] = result.sync_round
            row["bound"] = result.bound
            row["ok"] = result.sync_round is not None and result.sync_round <= result.bound
    except Exception as exc:
        row["error"] = str(exc)
        row["ok"] = False
    return row


# The most rows one sweep runs. A sweep holds every row's key and result
# until it writes them, about 450 bytes a row: 450 MiB at the cap.
MAX_SWEEP_ROWS = 1 << 20
# The most worker processes one sweep starts. The pool forks all of them when
# it starts, whatever the row count, each a copy of this process.
MAX_JOBS = 64


def _cmd_sweep(args: argparse.Namespace) -> int:
    kinds = [k for k in args.kinds.split(",") if k]
    sizes = _parse_range(args.n_range)
    periods = _parse_range(args.T_range)
    seeds = range(args.seeds)
    # checked before the key list, which grows with the ranges, is built
    for flag, text, values in (
        ("--kinds", args.kinds, kinds), ("--n-range", args.n_range, sizes),
        ("--T-range", args.T_range, periods), ("--seeds", args.seeds, seeds),
    ):
        if not values:
            raise ValueError(f"{flag} {text} gives an empty sweep")
    for flag, values, cap in (
        ("--n-range", sizes, MAX_NODES), ("--T-range", periods, MAX_PERIOD)
    ):
        if values[-1] > cap:
            raise ValueError(f"{flag} reaches {values[-1]}, over the {cap} limit")
    if args.jobs < 1:
        raise ValueError(f"--jobs {args.jobs} is below 1")
    if args.jobs > MAX_JOBS:
        raise ValueError(f"--jobs {args.jobs} is over the {MAX_JOBS} limit")
    schedule_kinds = ("single", "multi") if args.schedule == "both" else (args.schedule,)
    if args.mode == "selfstab":
        schedule_kinds = (None,)
    row_count = len(kinds) * len(sizes) * len(periods) * len(schedule_kinds) * len(seeds)
    if row_count > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {row_count} rows is over the {MAX_SWEEP_ROWS} limit")
    # what every row shares is refused here, so a row fails only on its own
    # (kind, n, seed)
    spacing = args.q if args.q is not None else (5 if args.mode == "selfstab" else 4)
    for period in periods:
        try:
            compute_checkpoints(period, spacing)
        except ValueError as exc:
            raise ValueError(f"--T-range {args.T_range} with --q {spacing}: {exc}") from None
    if args.horizon is not None and args.horizon < 0:
        raise ValueError(f"--horizon {args.horizon} is negative")
    for kind in kinds:
        try:
            _kind(kind)
        except ValueError as exc:
            raise ValueError(f"--kinds {args.kinds}: {exc}") from None
    keys = [
        (args.mode, kind, n, period, spacing, schedule_kind, seed, args.horizon)
        for kind, n, period, schedule_kind, seed
        in product(kinds, sizes, periods, schedule_kinds, seeds)
    ]

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # 25 ms; only pools need it

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(keys))) as pool:
            rows = list(pool.map(_sweep_row, keys, chunksize=16))
    else:
        rows = [_sweep_row(key) for key in keys]

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
            writer.writeheader()
            for row in rows:
                writer.writerow({field: row.get(field, "") for field in SWEEP_FIELDS})

    sync_key = "sync_round" if args.mode == "fast" else "legitimate_round"
    measured = [row[sync_key] for row in rows if row.get(sync_key) is not None]
    errors = sum(1 for row in rows if "error" in row)
    summary = {
        "mode": args.mode,
        "rows": len(rows),
        "converged": len(measured),
        "errors": errors,
        "all_ok": all(row["ok"] for row in rows),
        "max_" + sync_key: max(measured) if measured else None,
        "mean_" + sync_key: (
            round(sum(measured) / len(measured), 6) if measured else None
        ),
    }
    _emit(summary)
    if errors:
        return EXIT_USAGE
    if not summary["all_ok"]:
        return EXIT_BOUND
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *, default_q: int) -> None:
    parser.add_argument("--topology", default="line",
                        help="line|star|clique|ring|random|file:PATH")
    parser.add_argument("--n", type=int, default=None, help="node count")
    parser.add_argument("--T", type=int, required=True, help="clock period")
    parser.add_argument("--q", type=int, default=default_q, help="checkpoint spacing")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="trace output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beepsync",
        description="Beeping-model clock synchronization simulators and analyzers",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_PresetParser)

    p_fast = sub.add_parser("run-fast", help="synchronous fast-protocol run")
    _add_common(p_fast, default_q=4)
    p_fast.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_fast.add_argument("--wake", action=_AppendOverPreset, metavar="NODE=ROUND")
    p_fast.add_argument("--horizon", type=int, default=None)
    p_fast.set_defaults(func=_cmd_run_fast)

    p_stab = sub.add_parser("run-selfstab", help="self-stabilizing run")
    _add_common(p_stab, default_q=5)
    p_stab.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_stab.add_argument("--N", type=int, default=None, help="node bound the protocol uses")
    p_stab.add_argument("--init-file", default=None)
    p_stab.add_argument("--horizon", type=int, default=None)
    p_stab.set_defaults(func=_cmd_run_selfstab)

    p_slots = sub.add_parser("run-slots", help="continuous-time slot run")
    _add_common(p_slots, default_q=4)
    p_slots.add_argument("--wake", action=_AppendOverPreset, metavar="NODE=SLOT")
    p_slots.add_argument("--offsets", default=None, help="comma separated slot offsets")
    p_slots.add_argument("--slot-duration", type=float, default=1.0)
    p_slots.add_argument("--time-horizon", type=float, default=None)
    p_slots.set_defaults(func=_cmd_run_slots)

    p_fsm = sub.add_parser("analyze-fsm", help="counterexample construction")
    p_fsm.add_argument("--automaton", default=None, help="automaton text file")
    p_fsm.add_argument("--protocol", choices=("fast", "selfstab"), default=None)
    p_fsm.add_argument("--T", type=int, required=True)
    p_fsm.add_argument("--q", type=int, default=4)
    p_fsm.add_argument("--N", type=int, default=None)
    p_fsm.add_argument("--out", default=None, help="counterexample output path")
    p_fsm.set_defaults(func=_cmd_analyze_fsm)

    p_sweep = sub.add_parser("sweep", help="grid of seeded runs")
    p_sweep.add_argument("--mode", choices=("fast", "selfstab"), default="fast")
    p_sweep.add_argument("--kinds", default="line,ring,star")
    p_sweep.add_argument("--n-range", default="2:10", help="LO:HI inclusive")
    p_sweep.add_argument("--T-range", default="4:16", help="LO:HI inclusive")
    p_sweep.add_argument("--q", type=int, default=None,
                         help="checkpoint spacing (default 4 for fast, 5 for selfstab)")
    p_sweep.add_argument("--seeds", type=int, default=20)
    p_sweep.add_argument("--schedule", choices=("single", "multi", "both"), default="both")
    p_sweep.add_argument("--horizon", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help=f"worker processes, 1 to {MAX_JOBS} (1 runs in-process)")
    p_sweep.add_argument("--out", default=None, help="row CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
