"""Workload inputs and the run that each input drives.

Every workload is a fixed list of inputs generated from the workload seed
and a function that runs one input. One run is one simulation or analysis
call plus the checks the workload pairs with it; it returns

    (output, ok, node_rounds)

``output`` is the JSON-serializable record the digest gate hashes, ``ok`` is
the protocol-level check behind ``failed_frac``, and ``node_rounds`` counts
simulated (node, round) pairs for the provenance record.

All calls into beepsync go through module attributes (``engine.run_fast``,
not a name bound at import), so the traced run can wrap them. beepsync is
imported inside the functions, after the benchmark has timed its import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

NAMES = ("fast-grid", "stab-grid", "large-n", "cli")

# Parameters per workload at the two sizes. "full" is what the benchmark
# measures; "tiny" keeps the same shape at a size the smoke check can run in
# about a second.
SIZES = {
    "fast-grid": {
        "full": {"kinds": ("line", "ring", "star"), "n": range(2, 11),
                 "T": range(4, 17), "schedules": 5},
        "tiny": {"kinds": ("line", "ring", "star"), "n": range(2, 5),
                 "T": range(4, 7), "schedules": 2},
    },
    "stab-grid": {
        "full": {"n": (3, 5, 8, 10), "T": (5, 8, 12, 16), "seeds": 100},
        "tiny": {"n": (3, 5), "T": (5, 8), "seeds": 2},
    },
    "large-n": {
        "full": {"random_n": 3000, "random_p": 1 / 1500, "random_T": (8, 12),
                 "random_horizon": 144, "schedules": 2, "ring_n": 500, "ring_T": 8},
        "tiny": {"random_n": 60, "random_p": 1 / 30, "random_T": (8,),
                 "random_horizon": 64, "schedules": 2, "ring_n": 20, "ring_T": 8},
    },
    "cli": {
        "full": {"fast_csv_n": 200, "fast_jsonl_n": 100, "stab_n": 20,
                 "slots_n": 6, "fsm_fast_T": 8, "fsm_stab": (16, 10),
                 "sweep_n": "2:6", "sweep_T": "4:8", "sweep_stab_T": "5:8",
                 "sweep_seeds": 3},
        "tiny": {"fast_csv_n": 20, "fast_jsonl_n": 10, "stab_n": 5,
                 "slots_n": 3, "fsm_fast_T": 4, "fsm_stab": (5, 2),
                 "sweep_n": "2:3", "sweep_T": "4:5", "sweep_stab_T": "5:6",
                 "sweep_seeds": 1},
    },
}


@dataclass
class Workload:
    """Generated inputs of one workload and the function running one of them."""

    name: str
    inputs: list
    run_one: Callable[[Any], tuple[Any, bool, int]]
    sizes: dict
    cleanup: Callable[[], None] = lambda: None


def build(name: str, seed: int, scale: str, out_dir: str) -> Workload:
    """Generates the inputs of workload ``name`` from ``seed``.

    ``out_dir`` is where the cli workload may create its scratch directory;
    the other workloads write nothing.
    """
    params = SIZES[name][scale]
    if name == "fast-grid":
        return _fast_grid(seed, params)
    if name == "stab-grid":
        return _stab_grid(seed, params)
    if name == "large-n":
        return _large_n(seed, params)
    if name == "cli":
        return _cli(seed, params, out_dir)
    raise ValueError(f"unknown workload {name!r}")


# fast-grid: many tiny traced runs, each followed by the trace checkers.

def _fast_grid(seed: int, params: dict) -> Workload:
    from beepsync import checkpoints, engine, topology

    inputs = []
    for kind in params["kinds"]:
        for n in params["n"]:
            topo = topology.generate(kind, n)
            for period in params["T"]:
                cps = checkpoints.compute_checkpoints(period, 4)
                for j in range(params["schedules"]):
                    rng = random.Random(f"fast-grid:{seed}:{kind}:{n}:{period}:{j}")
                    if j % 2 == 0:
                        schedule = engine.ActivationSchedule(
                            {rng.randrange(n): rng.randint(0, 2 * period)}
                        )
                    else:
                        schedule = engine.random_schedule(
                            n, rng.randrange(2**31), max_round=2 * period
                        )
                    inputs.append((topo, schedule, period, cps))
    sizes = {"runs": len(inputs), "kinds": list(params["kinds"]),
             "n": [params["n"][0], params["n"][-1]],
             "T": [params["T"][0], params["T"][-1]],
             "schedules_per_point": params["schedules"]}
    return Workload("fast-grid", inputs, _run_fast_grid, sizes)


def _run_fast_grid(inp) -> tuple[Any, bool, int]:
    from beepsync import engine

    topo, schedule, period, cps = inp
    result, trace = engine.run_fast(topo, schedule, period)
    violations = len(engine.check_invariants(trace, cps))
    closure = None
    if result.sync_round is not None:
        closure = engine.check_closure(trace, result.sync_round, period, 4 * period)
    ok = (
        result.sync_round is not None
        and result.sync_round <= result.bound
        and closure is True
        and violations == 0
    )
    output = (result.sync_round, result.bound, closure, violations)
    return output, ok, topo.node_count * (result.horizon + 1)


# stab-grid: untraced self-stabilizing runs with the 4T stability window.

def _stab_grid(seed: int, params: dict) -> Workload:
    from beepsync import checkpoints, selfstab, topology

    rng = random.Random(f"stab-grid:{seed}")
    inputs = []
    for n in params["n"]:
        for period in params["T"]:
            budget = checkpoints.sync_round_budget(n, period, 5)
            for _ in range(params["seeds"]):
                topo = topology.generate("random_connected", n, seed=rng.randrange(2**31))
                initial = selfstab.random_configs(n, period, n, budget, rng.randrange(2**31))
                horizon = 50 * max(period, budget, 4 * n)
                inputs.append((topo, initial, period, horizon))
    sizes = {"runs": len(inputs), "n": list(params["n"]), "T": list(params["T"]),
             "seeds_per_point": params["seeds"]}
    return Workload("stab-grid", inputs, _run_stab_grid, sizes)


def _run_stab_grid(inp) -> tuple[Any, bool, int]:
    from beepsync import engine

    topo, initial, period, horizon = inp
    n = topo.node_count
    result, _ = engine.run_selfstab(
        topo, initial, period, spacing=5, node_bound=n, horizon=horizon,
        stability_window=4 * period, record_trace=False,
    )
    ok = result.legitimate_round is not None and result.legit_streak >= 4 * period
    output = (
        result.legitimate_round,
        result.legit_streak,
        result.pulse_seen,
        result.entered_pulse,
        result.all_lock_round,
    )
    return output, ok, n * (result.rounds_run + 1)


# large-n: untraced fast runs at n in the thousands, as sweep runs them. The
# random graph's diameter is 11 or 12 depending on the seed, and run_fast's
# default horizon grows with it. The random runs therefore get a fixed
# horizon, as sweep --horizon gives them: 144, the default at D=12 and T=12,
# three times the bound there. The work per run then does not depend on the
# seed.

def _large_n(seed: int, params: dict) -> Workload:
    from beepsync import engine, topology

    rng = random.Random(f"large-n:{seed}")
    n = params["random_n"]
    graph = topology.generate(
        "random_connected", n, seed=rng.randrange(2**31),
        extra_edge_probability=params["random_p"],
    )
    inputs = []
    for period in params["random_T"]:
        for j in range(params["schedules"]):
            schedule_seed = rng.randrange(2**31)
            if j % 2 == 0:
                schedule = engine.random_schedule(n, schedule_seed, max_round=0, max_sources=1)
            else:
                schedule = engine.random_schedule(n, schedule_seed, max_round=2 * period)
            inputs.append((graph, schedule, period, params["random_horizon"]))
    ring = topology.generate("ring", params["ring_n"])
    inputs.append((ring, engine.single_source_schedule(rng.randrange(ring.node_count)),
                   params["ring_T"], None))
    sizes = {"runs": len(inputs), "random_n": n, "random_p": params["random_p"],
             "random_diameter": graph.diameter, "random_edges": len(graph.edges),
             "ring_n": ring.node_count, "ring_diameter": ring.diameter}
    return Workload("large-n", inputs, _run_large_n, sizes)


def _run_large_n(inp) -> tuple[Any, bool, int]:
    from beepsync import engine

    topo, schedule, period, horizon = inp
    result, _ = engine.run_fast(topo, schedule, period, horizon=horizon, record_trace=False)
    ok = result.sync_round is not None and result.sync_round <= result.bound
    return (result.sync_round, result.bound), ok, topo.node_count * (result.horizon + 1)


# cli: in-process beepsync.cli.main calls, one or two per subcommand.

def _cli(seed: int, params: dict, out_dir: str) -> Workload:
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
    rng = random.Random(f"cli:{seed}")

    def out(name: str) -> str:
        return os.path.join(scratch, name)

    s = str(rng.randrange(2**31))
    slots_n = params["slots_n"]
    # binary-fraction offsets keep slot boundaries exact
    offsets = ",".join(str(rng.randrange(8) / 8) for _ in range(slots_n))
    fsm_T, fsm_N = params["fsm_stab"]
    inputs = [
        (["run-fast", "--topology", "ring", "--n", str(params["fast_csv_n"]), "--T", "8",
          "--seed", s, "--out", out("fast.csv")], [out("fast.csv")]),
        (["run-fast", "--topology", "ring", "--n", str(params["fast_jsonl_n"]), "--T", "8",
          "--seed", s, "--format", "jsonl", "--out", out("fast.jsonl")], [out("fast.jsonl")]),
        (["run-selfstab", "--topology", "random", "--n", str(params["stab_n"]), "--T", "8",
          "--seed", s], []),
        (["run-slots", "--topology", "line", "--n", str(slots_n), "--T", "12",
          "--wake", "0=0", "--wake", f"{slots_n - 1}=0", "--offsets", offsets,
          "--out", out("slots.csv")], [out("slots.csv")]),
        (["analyze-fsm", "--protocol", "fast", "--T", str(params["fsm_fast_T"]),
          "--out", out("fsm-fast.json")], [out("fsm-fast.json")]),
        (["analyze-fsm", "--protocol", "selfstab", "--T", str(fsm_T), "--N", str(fsm_N),
          "--out", out("fsm-selfstab.json")], [out("fsm-selfstab.json")]),
        (["sweep", "--mode", "fast", "--kinds", "line,ring", "--n-range", params["sweep_n"],
          "--T-range", params["sweep_T"], "--seeds", str(params["sweep_seeds"]),
          "--jobs", "1", "--out", out("sweep-fast.csv")], [out("sweep-fast.csv")]),
        # spacing 5 as run-selfstab uses; at sweep's default of 4, 5 of these
        # 60 self-stab runs never become legitimate
        (["sweep", "--mode", "selfstab", "--kinds", "random", "--q", "5",
          "--n-range", params["sweep_n"], "--T-range", params["sweep_stab_T"],
          "--seeds", str(params["sweep_seeds"]),
          "--jobs", "1", "--out", out("sweep-selfstab.csv")], [out("sweep-selfstab.csv")]),
    ]
    sizes = {"calls": len(inputs), **params, "fsm_stab": list(params["fsm_stab"])}
    return Workload("cli", inputs, _run_cli, sizes,
                    lambda: shutil.rmtree(scratch, ignore_errors=True))


def _cli_ok(command: str, code: int, summary: dict) -> bool:
    if code != 0:
        return False
    if command == "run-fast":
        return (summary["bound_satisfied"] and summary["closure_verified"] is True
                and summary["invariant_violations"] == 0)
    if command == "run-selfstab":
        return summary["closure_verified"] is True and summary["invariant_violations"] == 0
    if command == "run-slots":
        return summary["sync_time"] is not None
    if command == "analyze-fsm":
        return summary["certified_no_sync"] is True
    return summary["all_ok"] is True and summary["errors"] == 0


def _run_cli(inp) -> tuple[Any, bool, int]:
    from beepsync import cli

    argv, out_files = inp
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    try:
        summary = json.loads(stdout.getvalue())
    except ValueError:
        summary = {"unparsed_stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        return (argv[0], code, summary, []), False, 0
    hashes = []
    for path in out_files:
        with open(path, "rb") as fh:
            hashes.append(hashlib.sha256(fh.read()).hexdigest())
    node_rounds = 0
    if argv[0] in ("run-fast", "run-selfstab"):
        node_rounds = summary["nodes"] * (summary["horizon"] + 1)
    elif argv[0] == "run-slots":
        node_rounds = summary["records"]
    return (argv[0], code, summary, hashes), _cli_ok(argv[0], code, summary), node_rounds
