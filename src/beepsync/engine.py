"""Round-driven simulation engines and trace checkers.

Round conventions (fast mode): the engine simulates raw rounds starting at the
earliest adversary wake; activation assignments execute during a node's wake
round and the activation beep happens the following raw round. Reported
rounds are normalized so that round 0 is the first round in which any node is
active, which is also the first round containing a beep. The virtual counter
of a node starts at 0 in its activation round and grows by the node's clock
advance (1, or 2 for an induced jump) every later round.

Self-stabilizing mode runs from an arbitrary initial configuration with no
adversary: each round every node first repairs its config
(consistency check), the beep set is taken from the repaired states, then all
nodes transition. A round is legitimate when every node is in a beep/listen
state, all clocks agree, and no induced flag is set; the reported
legitimate_round is the start of the trailing streak of legitimate rounds,
since a lone legitimate-looking round with adversarial counters can still
collapse.

Both engines are deterministic: they step node sets through the protocol's
transition table (``fsm.advance``), and the beep set of a round is computed
before any node moves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, count, product
from operator import and_, is_not, itemgetter, ne, sub
from typing import Callable, Iterator

from .checkpoints import CheckpointSet, compute_checkpoints, fast_runtime_bound, sync_round_budget
from .fast_protocol import (
    FastNodeConfig,
    NodeState,
    classify_beep,
    decode_config,
    encode_config,
    step,  # unused here; present so the patch in benchmarks/tracing.py can getattr it
)
from .fsm import (
    ProtocolAutomaton,
    advance,
    build_stab_table,
    decode_masks,
    extract_fast_automaton,
    state_masks,
)
from .selfstab import (
    StabNodeConfig,
    StabState,
    consistency_check,  # unused here; present so the patch in benchmarks/tracing.py can getattr it
    counter_threshold,
    max_round_counter,
    stab_step,  # unused here; present so the patch in benchmarks/tracing.py can getattr it
    validate_config,
)
from . import topology as _topology
from .topology import Topology, bit_flags


@dataclass(frozen=True)
class ActivationSchedule:
    """Adversary wake rounds, in raw (pre-normalization) round indices."""

    wake_round: dict[int, int]

    def __post_init__(self) -> None:
        if not self.wake_round:
            raise ValueError("schedule must wake at least one node")
        for node, rnd in self.wake_round.items():
            if rnd < 0:
                raise ValueError(f"negative wake round {rnd} for node {node}")

    def min_wake(self) -> int:
        return min(self.wake_round.values())


def single_source_schedule(node: int = 0, round_index: int = 0) -> ActivationSchedule:
    return ActivationSchedule({node: round_index})


def random_schedule(
    node_count: int,
    seed: int,
    max_round: int = 0,
    max_sources: int | None = None,
) -> ActivationSchedule:
    """Seeded schedule waking 1..max_sources distinct nodes at rounds in [0, max_round]."""
    rng = random.Random(seed)
    cap = node_count if max_sources is None else min(max_sources, node_count)
    k = rng.randint(1, cap)
    nodes = rng.sample(range(node_count), k)
    return ActivationSchedule({v: rng.randint(0, max_round) for v in nodes})


@dataclass(frozen=True, slots=True)
class Violation:
    check: str
    round_index: int
    node: int | None
    detail: str


@dataclass
class SimResult:
    """Outcome summary of one engine run.

    ``rounds_run`` is the last round an engine simulated. A traced
    ``run_fast`` runs to ``horizon``; an untraced one stops in the round it
    finds ``sync_round``, and runs to ``horizon`` when it never syncs.
    ``run_selfstab`` stops at ``horizon`` or once its stability window has
    held. ``run_slots`` reports the most slots any node completed.
    """

    sync_round: int | None = None
    legitimate_round: int | None = None
    closure_verified: bool | None = None
    bound: int | None = None
    horizon: int = 0
    rounds_run: int = 0
    sync_time: float | None = None
    all_lock_round: int | None = None
    entered_pulse: bool = False
    pulse_seen: bool = False
    legit_streak: int = 0
    quiet_pulses: int = 0
    quiet_lock_delay: int | None = None


class _Memo(dict):
    """A dict that computes a missing key's value once, with ``fn``."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


TRACE_FIELDS = (
    "round",
    "node",
    "clock",
    "state",
    "induced",
    "r",
    "b",
    "beeped",
    "beep_class",
    "virtual_counter",
)


@dataclass
class FastTrace:
    """Normalized per-round snapshots of a fast-protocol run.

    Index [t][v] gives node v at the beginning of normalized round t: its
    config's ``encode_config`` code, which ``config_at`` decodes, and its
    virtual counter, None while the node is inactive. Node v beeps in round
    t exactly when its config's state is ``NodeState.BEEP``, and takes the
    induced jump during round t (its induced beep happens in round t+1)
    exactly when its counter steps by 2 from round t to round t+1.
    """

    topology: Topology
    period: int
    spacing: int
    activation_round: list[int | None]
    codes: list[list[int]]
    counters: list[list[int | None]]

    def round_count(self) -> int:
        return len(self.codes)

    def config_at(self, t: int, v: int) -> FastNodeConfig:
        return decode_config(self.codes[t][v], self.period)


@lru_cache(maxsize=64)
def _fast_codes(period: int) -> tuple[dict[int, FastNodeConfig], dict[int, int], frozenset[int]]:
    """Decodes every fast config code at ``period``, reachable or not: each
    code's config and clock, and the codes whose config beeps."""
    every = [FastNodeConfig(*f) for f in product(range(period), NodeState, (False, True))]
    configs = {encode_config(c, period): c for c in every}
    clock_of = {code: c.clock for code, c in configs.items()}
    beeping = frozenset(code for code, c in configs.items() if c.state is NodeState.BEEP)
    return configs, clock_of, beeping


@lru_cache(maxsize=64)
def _fast_trace_columns(period: int, spacing: int) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Per fast table id, what a traced run reads: its config's
    ``encode_config`` code, and whether a listener there takes the induced
    jump, that is, whether its heard-beep successor beeps."""
    table = extract_fast_automaton(period, spacing)
    beeps = table.beeps
    return tuple(encode_config(c, period) for c in table.labels), tuple(
        c.state is NodeState.LISTEN and beeps[table.beep_next[s]]
        for s, c in enumerate(table.labels)
    )


@dataclass
class StabTrace:
    """Per-round snapshots of a self-stabilizing run (configs before repair).

    Index [t][v] gives node v at the beginning of round t: its id in the
    cached ``build_stab_table(period, spacing)``, passed bit included, whose
    columns give every other field, and its round counter.
    """

    topology: Topology
    period: int
    spacing: int
    node_bound: int
    ids: list[list[int]]
    round_counter: list[list[int]]

    def round_count(self) -> int:
        return len(self.ids)

    def config_at(self, t: int, v: int) -> StabNodeConfig:
        table = build_stab_table(self.period, self.spacing)
        s = self.ids[t][v]
        return StabNodeConfig(
            table.clock[s], table.state[s], table.induced[s],
            self.round_counter[t][v], table.beep_count[s],
        )


# The most node-round cells a trace may hold. With its checks a fast trace
# takes about 35 bytes a cell (ring-1000 run-fast at T=8: 4.0M cells, 133 MiB
# tracemalloc peak), a self-stab trace about 18 (ring-300, T=12: 1.8M, 30.5 MiB).
MAX_TRACE_CELLS = 1 << 22


def _check_horizon(horizon: int, trace_nodes: int) -> None:
    """Refuses a negative horizon, and a trace of ``trace_nodes`` nodes too long to keep."""
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    if trace_nodes * (horizon + 1) > MAX_TRACE_CELLS:
        raise ValueError(f"trace of {trace_nodes * (horizon + 1)} cells over the {MAX_TRACE_CELLS} limit")


def fast_setup(
    topology: Topology, schedule: ActivationSchedule, period: int, spacing: int
) -> tuple[ProtocolAutomaton, int, int]:
    """Checks the wake nodes; returns the fast table, the runtime bound of the
    topology's diameter and the default horizon ``2 * bound + 4 * period``."""
    for node in schedule.wake_round:
        if not 0 <= node < topology.node_count:
            raise ValueError(f"wake node {node} out of range")
    table = extract_fast_automaton(period, spacing)
    bound = fast_runtime_bound(topology.diameter, period, spacing)
    return table, bound, 2 * bound + 4 * period


def run_fast(
    topology: Topology,
    schedule: ActivationSchedule,
    period: int,
    spacing: int = 4,
    horizon: int | None = None,
    record_trace: bool = True,
) -> tuple[SimResult, FastTrace | None]:
    """Simulates the fast protocol and reports the synchronization round.

    The run steps the protocol's transition table (``extract_fast_automaton``)
    on node bitsets, one set per occupied config. A traced run turns each
    round's sets into that round's row of config codes, one
    ``encode_config`` code per table id, before it steps the next; its
    counter rows share one int object per counter value.

    Args:
        topology: Connected graph to run on.
        schedule: Adversary wake rounds; at least one node must wake.
        period: Clock cycle length.
        spacing: Checkpoint distance.
        horizon: Normalized rounds to simulate; defaults to twice the
            runtime bound plus four periods.
        record_trace: Disable to save memory on large sweeps; an untraced
            run stops in the round it finds ``sync_round``.

    Returns:
        (result, trace); trace is None when recording is disabled.

    Raises:
        ValueError: On a bad wake node or period, a negative horizon, or a
            trace of more than ``MAX_TRACE_CELLS`` cells.
    """
    n = topology.node_count
    table, bound, default_horizon = fast_setup(topology, schedule, period, spacing)
    if horizon is None:
        horizon = default_horizon
    _check_horizon(horizon, n if record_trace else 0)
    offset = schedule.min_wake()
    woken: dict[int, int] = {}
    for node, rnd in schedule.wake_round.items():
        woken[rnd - offset] = woken.get(rnd - offset, 0) | 1 << node
    neighborhood = topology.neighborhood_for_run()
    clock_of = table.clock_of
    if record_trace:
        code_of, induces = _fast_trace_columns(period, spacing)
    activation_round: list[int | None] = [None] * n
    # node v's counter in round t is t - base[v]: its activation round less
    # its induced jumps so far
    base: list[int | None] = [None] * n
    trace = FastTrace(
        topology=topology, period=period, spacing=spacing,
        activation_round=activation_round, codes=[], counters=[],
    )
    nodes = range(n)
    pending = (1 << n) - 1
    # one int object per counter value, shared by every trace cell; a
    # counter is at most 2t in round t
    counters: list[int] = []

    masks = {0: (1 << n) - 1}
    sync_round: int | None = None
    for t in range(horizon + 1):
        prev = masks
        masks, heard = advance(table, masks, neighborhood, woken.get(t, 0))
        if record_trace:
            # round 0's previous masks hold only the inactive id, which induces nothing
            jumped = 0
            for s, m in prev.items():
                if induces[s]:
                    jumped |= m & heard
            if jumped:
                for v in compress(nodes, bit_flags(jumped)):
                    base[v] -= 1
            activated = pending & ~masks.get(0, 0)
            if activated:
                for v in compress(nodes, bit_flags(activated)):
                    activation_round[v] = base[v] = t
                pending ^= activated
            counters += range(len(counters), 2 * t + 1)
            trace.codes.append(list(map(code_of.__getitem__, decode_masks(masks, n))))
            trace.counters.append([None if b is None else counters[t - b] for b in base])
        if sync_round is None and 0 not in masks and len({clock_of[s] for s in masks}) == 1:
            sync_round = t
            if not record_trace:
                # nothing an untraced result reports changes after sync_round
                break

    result = SimResult(
        sync_round=sync_round, bound=bound, horizon=horizon,
        rounds_run=horizon if record_trace or sync_round is None else sync_round,
    )
    if record_trace and sync_round is not None:
        window = min(4 * period, horizon - sync_round)
        if window >= 2 * period:
            result.closure_verified = check_closure(trace, sync_round, period, window)
    return result, trace if record_trace else None


def check_closure(trace: FastTrace, sync_round: int, period: int, window: int) -> bool:
    """Verifies post-synchronization discipline over ``window`` rounds.

    Clocks must stay equal on every round of the window. Beeps must occur
    exactly at clock 0 once stale induced flags have flushed; the flush is a
    single simultaneous mature beep at the first checkpoint crossing after the
    sync round, so nonzero-clock beeps are tolerated only up to
    sync_round + period + 1.

    Args:
        trace: A recorded fast-protocol trace.
        sync_round: The round from which clocks are expected equal.
        period: Clock cycle length.
        window: Rounds to verify; must be at least 2*period.

    Returns:
        True when the window shows stable synchronized pulsing.

    Raises:
        ValueError: If the window is shorter than 2*period or the trace does
            not cover it.
    """
    if window < 2 * period:
        raise ValueError(f"window {window} shorter than {2 * period}")
    last = sync_round + window
    if last >= trace.round_count():
        raise ValueError(f"trace has {trace.round_count()} rounds, window needs {last + 1}")
    n = trace.topology.node_count
    _, clock_of, beeping = _fast_codes(trace.period)
    last_bad = None
    for t in range(sync_round, last + 1):
        codes = trace.codes[t]
        # a counter is None exactly while its node is inactive
        if None in trace.counters[t]:
            return False
        first = codes[0]
        distinct = (first,) if codes.count(first) == n else set(codes)
        if len(distinct) > 1 and len({clock_of[c] for c in distinct}) > 1:
            return False
        # all clocks are equal now, so every node must beep iff it is at 0
        if t > sync_round and not (
            beeping.issuperset(distinct) if clock_of[first] == 0 else beeping.isdisjoint(distinct)
        ):
            last_bad = t
    return last_bad is None or last_bad <= sync_round + period + 1


def check_invariants(trace: FastTrace, checkpoints: CheckpointSet) -> list[Violation]:
    """Runs the seven trace checks for fast-protocol runs.

    C1 clock-counter relation, C2 counter steps in {1, 2}, C3 beeps only on or
    one past checkpoints, C4 no induction between counter-adjacent nodes, C5
    a neighbor-counter gap above 1 closes within one round, C6 a round-0 node
    holding the maximum counter keeps holding it, C7 a node activated one
    round after a neighbor sits at counter distance 1.

    Each check walks the trace once per row or once per node column, and
    reports in the order of the per-cell scan: C1 and C3 by round, then node;
    C2 and C6 by round, then node; C4 by round; C5 by edge, then round; C7
    by node.

    Returns:
        All violations found (empty list for a conforming trace).
    """
    period = checkpoints.period
    n = trace.topology.node_count
    act = trace.activation_round
    rounds = trace.round_count()
    neighbors = trace.topology.neighbors
    counter_rows = trace.counters
    nodes = range(n)
    # node v is active from round start[v] on; every node from round everyone
    start = [rounds if a is None else a for a in act]
    everyone = max(start, default=0)
    _, clock_of, beeping = _fast_codes(trace.period)
    off_beat = {code for code in beeping if not checkpoints.may_beep(clock_of[code])}

    columns = list(zip(*counter_rows)) if rounds else [()] * n
    peaks: list[int | None] = [
        max(compress(row, [s <= t for s in start]), default=None)
        for t, row in enumerate(counter_rows[:everyone])
    ]
    peaks += map(max, counter_rows[everyone:])

    # C1 and C3 on each column from its node's activation on; the code
    # columns are made one at a time
    on_cells: list[tuple[int, int, str, str]] = []
    for v, (codes, column) in enumerate(zip(zip(*trace.codes), columns)):
        s = start[v]
        codes, column = codes[s:], column[s:]
        clocks = list(map(clock_of.__getitem__, codes))
        expected = [(1 + c) % period for c in column]
        if clocks != expected:
            on_cells += (
                (s + i, v, "C1", f"clock {clocks[i]} != 1 + counter {column[i]} mod {period}")
                for i in compress(count(), map(ne, clocks, expected))
            )
        if not off_beat.isdisjoint(codes):
            on_cells += (
                (s + i, v, "C3", f"beep at clock {clocks[i]} off checkpoint structure")
                for i in compress(count(), map(off_beat.__contains__, codes))
            )
    on_cells.sort()
    on_rows = [Violation(check, t, v, detail) for t, v, check, detail in on_cells]

    # C2 on each column's counter steps; a step other than 1 is also the only
    # place where the gap between two neighbours' counters can change (C5),
    # and a step of 2 is an induced jump (C4)
    bad_steps: list[tuple[int, int, int]] = []
    jumps: list[tuple[int, int]] = []
    moved: list[list[int]] = []
    for v, column in enumerate(columns):
        s = start[v]
        odd = list(compress(count(s), map((1).__ne__, map(sub, column[s + 1:], column[s:]))))
        for t in odd:
            step = column[t + 1] - column[t]
            if step == 2:
                jumps.append((t, v))
            else:
                bad_steps.append((t, v, step))
        moved.append([t + 1 for t in odd])
    bad_steps.sort()
    steps = [Violation("C2", t, v, f"counter advanced by {d}") for t, v, d in bad_steps]

    induced = [
        Violation("C4", t, v, f"induced by node {w} at counters {columns[v][t]}/{columns[w][t]}")
        for t, v in sorted(jumps)
        for w in neighbors[v]
        if trace.codes[t][w] in beeping and start[w] <= t
        and columns[v][t] - columns[w][t] in (0, 1)
    ]

    # C5: a gap above 1 that follows a gap of at most 1 and is still open the
    # next round. It can open only in a round where one endpoint's counter did
    # not step by 1, so only such a node's edges are tested in that round.
    opened: set[tuple[int, int, int]] = set()
    for x, moves in enumerate(moved):
        for t in moves:
            if t < rounds - 1:
                before, now, after = counter_rows[t - 1], counter_rows[t], counter_rows[t + 1]
                a, b, c = before[x], now[x], after[x]
                opened.update(
                    (x, w, t) if x < w else (w, x, t)
                    for w in neighbors[x]
                    if start[w] < t and -1 <= before[w] - a <= 1
                    and not -1 <= now[w] - b <= 1 and not -1 <= after[w] - c <= 1
                )
    # edges are sorted (u, v) pairs with u < v, so this is edge, then round order
    gaps = [
        Violation("C5", t, u, f"gap {abs(columns[u][t] - columns[v][t])} with node {v} not closed next round")
        for u, v, t in sorted(opened)
    ]

    lost = sorted(
        (t, v)
        for v in nodes
        if act[v] == 0
        for t in range(rounds - 1)
        if columns[v][t] == peaks[t] and columns[v][t + 1] != peaks[t + 1]
    )
    maxima = [
        Violation("C6", t, v, f"lost maximal counter: {columns[v][t + 1]} < {peaks[t + 1]}")
        for t, v in lost
    ]

    late: list[Violation] = []
    for v in nodes:
        t = act[v]
        if t is None or t < 1:
            continue
        for w in neighbors[v]:
            if act[w] == t - 1 and counter_rows[t][w] != 1:
                late.append(
                    Violation("C7", t, v, f"neighbor {w} at counter {counter_rows[t][w]}, expected 1")
                )

    return on_rows + steps + induced + gaps + maxima + late


def run_selfstab(
    topology: Topology,
    initial: list[StabNodeConfig],
    period: int,
    spacing: int = 5,
    node_bound: int | None = None,
    horizon: int | None = None,
    stability_window: int | None = None,
    record_trace: bool = True,
) -> tuple[SimResult, StabTrace | None]:
    """Simulates the self-stabilizing protocol from an arbitrary configuration.

    Args:
        topology: Connected graph to run on.
        initial: One config per node; fields must lie in their domains.
        period: Clock cycle length.
        spacing: Checkpoint distance.
        node_bound: Size bound the nodes run with; defaults to the true size.
        horizon: Maximum rounds to simulate; defaults to
            50 * max(period, budget, 4*node_bound).
        stability_window: When set, stop once legitimacy has held this many
            consecutive rounds beyond its start.
        record_trace: Disable to save memory on large sweeps.

    Returns:
        (result, trace); result.legitimate_round is the start of the trailing
        legitimate streak, None if the run never stabilized.
        result.quiet_pulses counts quiet pulse entries: rounds t >= 1 in
        which some node pulses although no node pulsed or locked at t-1, all
        read on repaired states. result.quiet_lock_delay is the largest gap
        from such an entry to the first round k >= t in which every repaired
        state is a lock; None when there is no entry or when some entry
        meets no all-lock round before the run ends.

    Each distinct round is worked out once per run, while the memo has
    room: keyed on the round's masks, it keeps the round's summary, its
    successor masks and its counter restarts.
    An untraced run jumps from a stationary round, one whose successor has
    the same masks and restarts no counter, to the next calendar round or
    the horizon, since the rounds between them repeat it.
    ``result.rounds_run`` is still the round the run stopped in.
    """
    n = topology.node_count
    if node_bound is None:
        node_bound = n
    if node_bound < n:
        raise ValueError(f"node_bound {node_bound} below node count {n}")
    budget = sync_round_budget(node_bound, period, spacing)
    if horizon is None:
        horizon = 50 * max(period, budget, 4 * node_bound)
    _check_horizon(horizon, n if record_trace else 0)
    if len(initial) != n:
        raise ValueError(f"need {n} initial configs, got {len(initial)}")
    for cfg in initial:
        validate_config(cfg, period, node_bound, budget)

    table = build_stab_table(period, spacing)
    neighborhood = topology.neighborhood_for_run()
    states = table.state
    legit_clocks = table.legit_clock
    beep_next, silence_next = table.beep_next, table.silence_next
    quiet_restart, loud_restart = table.quiet_restart, table.loud_restart
    pulses = table.pulses
    restarts = table.restarts
    threshold = {state: counter_threshold(state, node_bound, budget) for state in StabState}
    nodes = range(n)
    # Node v's round counter in round t is t - base[v] until it saturates.
    # Its id says whether the counter has reached its state's threshold;
    # due[v] is the round in which it does, and calendar maps a round to the
    # nodes due in it. A restart moves a node's due round, so a calendar
    # entry holds exactly the nodes due in its round.
    base = [-c.round_counter for c in initial]
    due = [b + threshold[c.state] for b, c in zip(base, initial)]
    calendar: dict[int, int] = {}
    for v, d in enumerate(due):
        if d > 0:
            calendar[d] = calendar.get(d, 0) | 1 << v
    # the calendar's rounds, pushed whenever an entry turns non-zero; rounds
    # already popped, or emptied by a restart, are dropped only when a jump
    # looks for the next one
    keys = list(calendar)
    heapify(keys)
    masks = state_masks([table.code(c, d <= 0) for c, d in zip(initial, due)])
    # a round's masks (after its crossing) -> its summary and its successor;
    # entries are kept while they hold fewer than MAX_MEMO_ENTRIES node sets
    # in all, about as many as the neighbourhood memo keeps
    memo: dict[tuple, tuple] = {}
    memo_room = _topology.MAX_MEMO_ENTRIES
    streak_start: int | None = None
    all_lock_round: int | None = None
    entered_pulse = False
    pulse_seen = False
    quiet_pulses = 0
    lock_delay = 0
    # earliest quiet pulse entry still waiting for an all-lock round
    open_entry: int | None = None
    prev_calm = False
    prev_pulse = 0
    trace = StabTrace(topology, period, spacing, node_bound, [], [])
    saturation = max_round_counter(node_bound, budget)
    # one int object per counter value, shared by every trace cell
    counters = list(range(saturation)) if record_trace else []

    t = 0
    while True:
        crossing = calendar.pop(t, 0)
        if crossing:
            # a new dict, as the old one may be a memo entry's successor
            crossed = dict(masks)
            for s, m in masks.items():
                moving = m & crossing
                if moving:
                    if moving == m:
                        del crossed[s]
                    else:
                        crossed[s] = m ^ moving
                    passed = s + table.passed_offset
                    crossed[passed] = crossed.get(passed, 0) | moving
            masks = crossed
        key = tuple(masks.items())
        entry = memo.get(key)
        if entry is None:
            nxt, heard = advance(table, masks, neighborhood)
            pulse = 0
            clocks = set()  # None stands for a config that is not legitimate
            all_lock = True
            pulsing = any_lock = False
            # each restart's nodes, and its restart and due rounds less t
            moves = []
            for s, m in masks.items():
                state = states[s]
                if state is StabState.LOCK:
                    any_lock = True
                else:
                    all_lock = False
                    if state is StabState.PULSE:
                        pulse |= m
                clocks.add(legit_clocks[s])
                if pulses[s]:
                    pulsing = True
                if restarts[s]:
                    on = m & heard
                    off = m ^ on
                    if off and quiet_restart[s] >= 0:
                        start = 1 - quiet_restart[s]
                        moves.append((off, start, start + threshold[states[silence_next[s]]]))
                    if on and loud_restart[s] >= 0:
                        start = 1 - loud_restart[s]
                        moves.append((on, start, start + threshold[states[beep_next[s]]]))
            # Stationary: the rounds up to the next crossing repeat this one.
            # Only pulse, lock and inactive ids are their own successors, so
            # such a round is never legitimate.
            stationary = not moves and nxt == masks
            legit = len(clocks) == 1 and None not in clocks
            entry = (pulse, legit, all_lock, pulsing, any_lock, nxt, moves, stationary)
            if memo_room > 0:
                memo[key] = entry
                memo_room -= len(key)
        pulse, legit, all_lock, pulsing, any_lock, nxt, moves, stationary = entry
        pulse_seen = pulse_seen or pulse != 0
        entered_pulse = entered_pulse or (t > 0 and pulse & ~prev_pulse != 0)
        prev_pulse = pulse
        if all_lock and all_lock_round is None:
            all_lock_round = t
        if legit:
            if streak_start is None:
                streak_start = t
        else:
            streak_start = None

        # the repair turns only beep and listen configs into pulses, so the
        # locked nodes are the same before and after it
        if pulsing and prev_calm:
            quiet_pulses += 1
            if open_entry is None:
                open_entry = t
        if open_entry is not None and all_lock:
            lock_delay = max(lock_delay, t - open_entry)
            open_entry = None
        prev_calm = not pulsing and not any_lock
        if record_trace:
            trace.ids.append(decode_masks(masks, n))
            trace.round_counter.append(
                [counters[t - b] if t - b < saturation else saturation for b in base]
            )

        if t == horizon or (
            stability_window is not None
            and streak_start is not None
            and t - streak_start >= stability_window
        ):
            break
        masks = nxt
        for moved, shift, wait in moves:
            start, d = t + shift, t + wait
            for v in compress(nodes, bit_flags(moved)):
                if due[v] > t:
                    calendar[due[v]] ^= 1 << v
                due[v] = d
                base[v] = start
            if not calendar.get(d):
                heappush(keys, d)
            calendar[d] = calendar.get(d, 0) | moved
        if stationary and not record_trace:
            while keys and not calendar.get(keys[0]):
                heappop(keys)
            t = min(keys[0], horizon) if keys else horizon
        else:
            t += 1

    streak = 0 if streak_start is None else t - streak_start
    result = SimResult(
        legitimate_round=streak_start,
        closure_verified=(streak >= 2 * period) if streak_start is not None else None,
        horizon=horizon,
        rounds_run=t,
        all_lock_round=all_lock_round,
        entered_pulse=entered_pulse,
        pulse_seen=pulse_seen,
        legit_streak=streak,
        quiet_pulses=quiet_pulses,
        quiet_lock_delay=lock_delay if quiet_pulses and open_entry is None else None,
    )
    return result, trace if record_trace else None


def check_stab_invariants(trace: StabTrace) -> list[Violation]:
    """Checks counter semantics and pulse/lock episode lengths on a trace.

    Pulse episodes entered during the run must last exactly 4 consecutive
    rounds, a beep each as a repaired pulse beeps, and end in a lock; lock
    episodes entered during the run must last exactly 4*node_bound rounds
    and end inactive. Episodes are measured on repaired states, since a
    consistency reset turns a listen round into the first pulse round before
    the trace snapshot can show it. The round counter may only step up by
    one until it saturates, reset to 0, or sit at 1 right after a
    consistency reset; the beep counter clears on silent listen rounds. The
    saturation value comes from the sync-round budget, which the check
    derives from the trace's node bound, period and spacing.

    Each node's column of ids is checked at once, its repaired states, beeps
    and beep counts read from the stab table's columns: the counter steps
    and silent listens by whole-column comparisons, the pulse and lock
    episodes over runs of equal repaired states. Violations come in the
    order of a scan by node, then round.
    """
    violations: list[Violation] = []
    budget = sync_round_budget(trace.node_bound, trace.period, trace.spacing)
    saturation = max_round_counter(trace.node_bound, budget)
    lock_length = 4 * trace.node_bound
    table = build_stab_table(trace.period, trace.spacing)
    listen, beep = StabState.LISTEN, StabState.BEEP
    pulse, lock, inactive = StabState.PULSE, StabState.LOCK, StabState.INACTIVE
    repaired = [pulse if p else s for p, s in zip(table.pulses, table.state)]
    # the ids a silent listen must not step to
    uncleared = [
        s is not listen and s is not beep or b != 0 for s, b in zip(repaired, table.beep_count)
    ]
    bits = [1 << v for v in range(trace.topology.node_count)]
    beeps = table.beeps.__getitem__
    beep_masks = [sum(compress(bits, map(beeps, row))) for row in trace.ids]
    columns = zip(zip(*trace.ids), zip(*trace.round_counter), trace.topology.neighbor_masks)

    for v, (ids, counters, around) in enumerate(columns):
        post = list(map(repaired.__getitem__, ids))
        # (round found, place in the per-round scan, violation)
        found: list[tuple[int, int, Violation]] = []

        steps = [r + 1 if r < saturation else saturation for r in counters]
        for t in compress(count(1), map(ne, counters[1:], steps)):
            if counters[t] not in (0, 1):
                found.append((t, 0, Violation(
                    "stab-r", t, v, f"round counter went {counters[t - 1]} -> {counters[t]}"
                )))

        silent = [s is listen and not m & around for s, m in zip(post, beep_masks)]
        for t in compress(count(1), map(and_, silent, map(uncleared.__getitem__, ids[1:]))):
            state = post[t]
            if state is not listen and state is not beep:
                detail = f"silent listen became {state.value}"
            else:
                detail = "beep count not cleared on silent listen"
            found.append((t, 1, Violation("stab-b", t, v, detail)))

        # episodes: a run of pulse or lock states that starts after round 0
        # and ends before the trace does; runs change where the state does
        start = 0
        for t in compress(count(1), map(is_not, post[1:], post)):
            prev, state = post[t - 1], post[t]
            if prev is pulse:
                if state is not lock:
                    found.append((t, 2, Violation("stab-pulse", t, v, f"pulse ended in {state.value}")))
                if start > 0 and t - start != 4:
                    found.append((t, 4, Violation(
                        "stab-pulse", start, v, f"entered pulse lasted {t - start} rounds"
                    )))
            elif prev is lock:
                if state is not inactive:
                    found.append((t, 3, Violation("stab-lock", t, v, f"lock ended in {state.value}")))
                if start > 0 and t - start != lock_length:
                    found.append((t, 5, Violation(
                        "stab-lock", start, v, f"entered lock lasted {t - start} rounds"
                    )))
            start = t
        found.sort(key=itemgetter(0, 1))
        violations.extend(f[2] for f in found)
    return violations


def _export_rounds(
    trace: FastTrace | StabTrace, render: Callable[[tuple], str]
) -> Iterator[tuple[int, Iterator[str], list[int | None]]]:
    """Yields each round's index, per-node fragments and virtual counters.

    A fragment is ``render`` applied to a row's fields from ``clock`` to
    ``beep_class``. It is rendered once and cached, not once per row: per
    distinct (id, r) of a self-stab trace, whose other fields are the stab
    table's columns at the id, and per distinct config code of a fast trace
    and whether the node activated in that round, on which its beep class
    depends.
    """
    rounds = range(trace.round_count())
    if isinstance(trace, StabTrace):
        table = build_stab_table(trace.period, trace.spacing)
        stab = _Memo(lambda key: render((
            table.clock[key[0]], table.state[key[0]].value, table.induced[key[0]], key[1],
            table.beep_count[key[0]], table.beeps[key[0]], None,
        )))
        none = [None] * trace.topology.node_count
        for t in rounds:
            yield t, map(stab.__getitem__, zip(trace.ids[t], trace.round_counter[t])), none
        return
    cps = compute_checkpoints(trace.period, trace.spacing)
    configs = _fast_codes(trace.period)[0]

    def fields(key: tuple) -> tuple:
        code, just_activated = key
        config = configs[code]
        beeping = config.state is NodeState.BEEP
        beep_class = None
        if beeping:
            beep_class = classify_beep(config, cps, just_activated=just_activated).value
        return config.clock, config.state.value, config.induced, None, None, beeping, beep_class

    fast = _Memo(lambda key: render(fields(key)))
    quiet = [False] * trace.topology.node_count
    joined: dict[int, list[bool]] = {}
    for v, t in enumerate(trace.activation_round):
        if t is not None:
            joined.setdefault(t, quiet.copy())[v] = True
    for t in rounds:
        keys = zip(trace.codes[t], joined.get(t, quiet))
        yield t, map(fast.__getitem__, keys), trace.counters[t]


def write_trace_csv(trace: FastTrace | StabTrace, path: str) -> None:
    """Writes one CSV row per (round, node), with a header of ``TRACE_FIELDS``.

    None is written as an empty field. The file is written one round at a
    time.
    """
    nodes = [f"{v}," for v in range(trace.topology.node_count)]
    counter_text = _Memo(lambda c: "" if c is None else str(c))
    rounds = _export_rounds(
        trace, lambda fields: "".join(f"{'' if x is None else x}," for x in fields)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_FIELDS) + "\r\n")
        for t, fragments, counters in rounds:
            head = f"{t},"
            fh.write("".join([
                f"{head}{node}{frag}{counter_text[c]}\r\n"
                for node, frag, c in zip(nodes, fragments, counters)
            ]))


def write_trace_jsonl(trace: FastTrace | StabTrace, path: str) -> None:
    """Writes one JSON object per (round, node), keyed by ``TRACE_FIELDS``.

    The text is what ``json.dumps`` gives for the row's dict. The file is
    written one round at a time.
    """
    nodes = [f'"node": {v}, ' for v in range(trace.topology.node_count)]
    counter_text = _Memo(json.dumps)
    names = [json.dumps(name) for name in TRACE_FIELDS[2:9]]
    rounds = _export_rounds(
        trace, lambda fields: "".join(f"{k}: {json.dumps(x)}, " for k, x in zip(names, fields))
        + '"virtual_counter": '
    )
    with open(path, "w", encoding="utf-8") as fh:
        for t, fragments, counters in rounds:
            head = f'{{"round": {t}, '
            fh.write("".join([
                f"{head}{node}{frag}{counter_text[c]}}}\n"
                for node, frag, c in zip(nodes, fragments, counters)
            ]))
