"""Single-node automaton analysis and counterexample construction.

Any deterministic per-round protocol with two observations (heard a beep /
silence) is a finite automaton; this module finds the cycle a node falls
into when it hears beeps every round (the beep cycle) and when it never
hears one (the silence cycle), and builds a small graph plus initial states
on which the protocol provably never reaches synchronized pulsing:

  * case B: the beep cycle contains a beeping state; a clique holding every
    beep-cycle state keeps itself on that cycle forever.
  * case A1: the beep cycle is beep-free and a lone node does not settle
    into beeping exactly every period; the lone node is the witness.
  * case A2: a lone node does pulse correctly; a star whose leaves carry all
    period phases keeps the center hearing beeps forever without ever
    beeping itself, so the leaves stay staggered.

State 0 is treated as the protocol's start state. Certification replays a
counterexample until the global configuration repeats and checks that no
reachable cycle shows synchronized pulsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress, product
from typing import Callable, Sequence

from .fast_protocol import INACTIVE_CONFIG, step, will_beep
from .checkpoints import CheckpointSet, compute_checkpoints, sync_round_budget
from .selfstab import (
    StabNodeConfig,
    StabState,
    consistency_check,
    counter_threshold,
    max_round_counter,
    stab_step,
    will_beep_stab,
)
from .topology import Topology, bit_flags, generate

# The most nodes a counterexample may have. Certification walks the global
# configuration until it repeats and keeps every configuration on the way,
# so n nodes in distinct states hold about n * n node sets of n bits. At
# the cap, classify and certify_no_sync take 1.7 s at 250 MiB peak RSS on
# the fast protocol's clique (T = 1,365), 1.9 s at 259 MiB on the
# self-stabilizing clique of 4N + 8 nodes (T = 5, q = 5, N = 254), and
# 0.7 s at 188 MiB on a clock-labelled pulser's star of T + 1 nodes
# (T = 1,023), on a 2-core x86 box with Python 3.11.
MAX_COUNTEREXAMPLE_NODES = 1 << 10


class NotConstructible(Exception):
    """Raised when a counterexample cannot be built for this automaton."""


class Case(Enum):
    A1 = "A1"
    A2 = "A2"
    B = "B"


@dataclass(frozen=True)
class ProtocolAutomaton:
    """Deterministic single-node protocol over inputs {beep, silence}."""

    beep_next: tuple[int, ...]
    silence_next: tuple[int, ...]
    beeps: tuple[bool, ...]
    clock_of: tuple[int, ...] | None = None
    labels: tuple | None = None

    def __post_init__(self) -> None:
        k = len(self.beeps)
        if k == 0:
            raise ValueError("automaton needs at least one state")
        for name in ("beep_next", "silence_next"):
            targets = getattr(self, name)
            if len(targets) != k:
                raise ValueError(f"{name} has {len(targets)} entries for {k} states")
            for s in targets:
                if not 0 <= s < k:
                    raise ValueError(f"{name} target {s} out of range")
        if self.clock_of is not None and len(self.clock_of) != k:
            raise ValueError("clock_of length mismatch")
        if self.labels is not None and len(self.labels) != k:
            raise ValueError("labels length mismatch")

    @property
    def state_count(self) -> int:
        return len(self.beeps)


def state_masks(ids: Sequence[int]) -> dict[int, int]:
    """The node set of each state occupied in the per-node ``ids``."""
    masks: dict[int, int] = {}
    for v, s in enumerate(ids):
        masks[s] = masks.get(s, 0) | 1 << v
    return masks


def decode_masks(masks: dict[int, int], node_count: int) -> list[int]:
    """Inverse of :func:`state_masks`: the state id of each node."""
    ids = [0] * node_count
    nodes = range(node_count)
    for s, m in masks.items():
        if s:
            for v in compress(nodes, bit_flags(m)):
                ids[v] = s
    return ids


def advance(
    table: ProtocolAutomaton | StabTable,
    masks: dict[int, int],
    neighborhood: Callable[[int], int],
    woken: int = 0,
) -> tuple[dict[int, int], int]:
    """Steps every node of a network through one round of ``table`` at once.

    A node set is an int whose bit v stands for node v. ``masks`` maps each
    occupied state id to its nodes, and ``neighborhood`` maps a node set to
    the nodes adjacent to it: ``Topology.neighborhood``, or the per-run memo
    that ``Topology.neighborhood_for_run`` returns. A node hears a beep when
    some neighbour sits in a beeping state; a node in state 0 whose bit is
    set in ``woken`` takes the beep input as well. Only ``table.beeps``,
    ``table.beep_next`` and ``table.silence_next`` are read, at the occupied
    ids.

    Returns:
        (the next masks, without empty entries; the nodes that heard).
    """
    beeps = table.beeps
    beeping = 0
    for s, m in masks.items():
        if beeps[s]:
            beeping |= m
    heard = neighborhood(beeping)
    beep_next = table.beep_next
    silence_next = table.silence_next
    nxt: dict[int, int] = {}
    for s, m in masks.items():
        on = m & (heard | woken if s == 0 else heard)
        if on:
            t = beep_next[s]
            nxt[t] = nxt.get(t, 0) | on
        off = m ^ on
        if off:
            t = silence_next[s]
            nxt[t] = nxt.get(t, 0) | off
    return nxt, heard


def repair_and_step(
    config: StabNodeConfig, checkpoints: CheckpointSet, node_bound: int, budget: int
) -> tuple[StabNodeConfig, StabNodeConfig, StabNodeConfig]:
    """A self-stabilizing node's round: its config after the consistency
    repair, and its next config on silence and on a heard beep."""
    checked = consistency_check(config, checkpoints)
    quiet = stab_step(checked, False, checkpoints, node_bound, budget)
    return checked, quiet, stab_step(checked, True, checkpoints, node_bound, budget)


_STATE_DIGIT = {state: d for d, state in enumerate(StabState)}


def _stab_id(period: int, config: StabNodeConfig, passed: bool) -> int:
    """A table id: the digits (passed, beep count, induced, state, clock),
    clock lowest, the order in which ``build_stab_table`` makes its rows."""
    head = (config.induced * 5 + _STATE_DIGIT[config.state]) * period + config.clock
    return (passed * 5 + config.beep_count) * 10 * period + head


@dataclass(frozen=True)
class StabTable:
    """The self-stabilizing protocol's transition table, on ids that leave
    out the round counter; :func:`build_stab_table` builds it.

    ``stab_step`` reads a node's round counter only to see whether it has
    reached the threshold of the node's state
    (:func:`selfstab.counter_threshold`); otherwise the step counts it on or
    restarts it. So besides (clock, state, induced, beep_count) an id keeps
    one bit of the counter, whether it has passed that threshold. The
    thresholds depend on the node bound and the ids do not, so the table
    serves every node bound: the engine keeps the counters and moves a node
    from id ``s`` to ``s + passed_offset`` in the round its counter reaches
    the threshold.

    Every column has one entry per id. ``beeps`` and ``pulses`` tell whether
    the config beeps and pulses after the consistency repair.
    ``quiet_restart`` and ``loud_restart`` hold the successor's round
    counter on silence and on a heard beep when the step restarts the
    counter (0, or 1 after a repair), and -1 when it counts on; ``restarts``
    is True where either of them restarts it. ``legit_clock`` is the clock
    of a config that can be legitimate (beep or listen, not induced), else
    None.
    """

    period: int
    beep_next: tuple[int, ...]
    silence_next: tuple[int, ...]
    beeps: tuple[bool, ...]
    pulses: tuple[bool, ...]
    quiet_restart: tuple[int, ...]
    loud_restart: tuple[int, ...]
    restarts: tuple[bool, ...]
    state: tuple[StabState, ...]
    clock: tuple[int, ...]
    induced: tuple[bool, ...]
    beep_count: tuple[int, ...]
    legit_clock: tuple[int | None, ...]

    @property
    def passed_offset(self) -> int:
        return 50 * self.period

    def code(self, config: StabNodeConfig, passed: bool) -> int:
        """The id of a config whose counter has (or has not) passed its threshold."""
        return _stab_id(self.period, config, passed)


@lru_cache(maxsize=64)
def build_stab_table(period: int, spacing: int) -> StabTable:
    """The self-stabilizing table of (period, spacing), every id stepped
    through :func:`repair_and_step`.

    The configs step under node bound 1: every bound gives the same
    successor ids, as only the thresholds depend on it. A counter of 1 lies
    below every threshold and steps to 2; one at the threshold steps past
    it; a successor counter of 0 or 1 is therefore a restart.
    """
    checkpoints = compute_checkpoints(period, spacing)
    budget = sync_round_budget(1, period, spacing)
    fast = (StabState.BEEP, StabState.LISTEN)
    columns: tuple[list, ...] = tuple([] for _ in range(12))
    (beep_next, silence_next, beeps, pulses, quiet_restarts, loud_restarts, restarts,
     states, clocks, induceds, beep_counts, legit_clocks) = columns
    for passed, beep_count, induced, state, clock in product(
        (False, True), range(5), (False, True), StabState, range(period)
    ):
        counter = counter_threshold(state, 1, budget) if passed else 1
        config = StabNodeConfig(clock, state, induced, counter, beep_count)
        checked, quiet, loud = repair_and_step(config, checkpoints, 1, budget)
        quiet_restart, loud_restart = (
            nxt.round_counter if nxt.round_counter < 2 else -1 for nxt in (quiet, loud)
        )
        beep_next.append(_stab_id(period, loud, passed and loud_restart < 0))
        silence_next.append(_stab_id(period, quiet, passed and quiet_restart < 0))
        beeps.append(will_beep_stab(checked))
        pulses.append(checked.state is StabState.PULSE)
        quiet_restarts.append(quiet_restart)
        loud_restarts.append(loud_restart)
        restarts.append(quiet_restart >= 0 or loud_restart >= 0)
        states.append(state)
        clocks.append(clock)
        induceds.append(induced)
        beep_counts.append(beep_count)
        legit_clocks.append(clock if state in fast and not induced else None)
    return StabTable(period, *map(tuple, columns))


@dataclass(frozen=True)
class CycleReport:
    beep_cycle: tuple[int, ...]
    silence_cycle: tuple[int, ...]
    case: Case
    counterexample: tuple[Topology, tuple[int, ...]]


def _walk(successor: Callable[[object], object], start: object) -> tuple[list, int]:
    """The states from ``start`` before the first repeat, and where the cycle starts."""
    seen: dict[object, int] = {}
    seq: list = []
    s = start
    while s not in seen:
        seen[s] = len(seq)
        seq.append(s)
        s = successor(s)
    return seq, seen[s]


def _eventual_cycle(next_state: tuple[int, ...]) -> tuple[int, ...]:
    seq, start = _walk(next_state.__getitem__, 0)
    return tuple(seq[start:]) + (seq[start],)


def find_beep_cycle(automaton: ProtocolAutomaton) -> tuple[int, ...]:
    """Eventual cycle from state 0 under constant beep input, first state repeated."""
    return _eventual_cycle(automaton.beep_next)


def find_silence_cycle(automaton: ProtocolAutomaton) -> tuple[int, ...]:
    """Eventual cycle from state 0 under constant silence, first state repeated."""
    return _eventual_cycle(automaton.silence_next)


def _spaced_by(marks: list[int], length: int, period: int) -> bool:
    """True when the sorted marks lie exactly ``period`` apart around a cycle of ``length`` steps."""
    return (
        bool(marks)
        and length % period == 0
        and marks == list(range(marks[0] % period, length, period))
    )


def _check_period(period: int) -> None:
    if period < 1:
        raise ValueError(f"period must be positive, got {period}")


def classify(automaton: ProtocolAutomaton, period: int) -> CycleReport:
    """Builds a non-synchronizing graph and initial states for the automaton.

    Raises:
        NotConstructible: When the construction needs more than
            MAX_COUNTEREXAMPLE_NODES nodes, or the star case needs clock
            information or a clock-0 beep the silence cycle does not provide.
    """
    _check_period(period)
    beep_cycle = find_beep_cycle(automaton)
    silence_cycle = find_silence_cycle(automaton)
    core = beep_cycle[:-1]
    if any(automaton.beeps[s] for s in core):
        if len(core) > MAX_COUNTEREXAMPLE_NODES:
            raise NotConstructible(
                f"clique of {len(core)} nodes exceeds the"
                f" {MAX_COUNTEREXAMPLE_NODES}-node limit"
            )
        topo = generate("clique", len(core)) if len(core) > 1 else generate("line", 1)
        return CycleReport(beep_cycle, silence_cycle, Case.B, (topo, core))

    lone = (generate("line", 1), (0,))
    if not _syncs(automaton, *lone, period):
        return CycleReport(beep_cycle, silence_cycle, Case.A1, lone)

    if period + 1 > MAX_COUNTEREXAMPLE_NODES:
        raise NotConstructible(
            f"star of {period + 1} nodes exceeds the {MAX_COUNTEREXAMPLE_NODES}-node limit"
        )
    if automaton.clock_of is None:
        raise NotConstructible("star construction needs clock values per state")
    # the lone run just found synchronized is the silence cycle, so the
    # cycle's length is a positive multiple of period: the leaves cover every phase
    silence_core = silence_cycle[:-1]
    clocks = automaton.clock_of
    anchors = [i for i, s in enumerate(silence_core) if automaton.beeps[s] and clocks[s] == 0]
    if not anchors:
        raise NotConstructible("silence cycle has no beeping state at clock 0")
    leaves = tuple(
        silence_core[(anchors[0] + j) % len(silence_core)] for j in range(period)
    )
    topo = generate("star", period + 1)
    initial = (core[0],) + leaves
    return CycleReport(beep_cycle, silence_cycle, Case.A2, (topo, initial))


def _global_run(
    automaton: ProtocolAutomaton, topology: Topology, initial: tuple[int, ...]
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Walks the global configuration from ``initial`` until it repeats.

    A configuration is the sorted (state id, node set) pairs of the occupied
    states, as :func:`advance` steps them. Returns (the configurations before
    the first repeat, the index where the cycle starts).
    """
    neighborhood = topology.neighborhood_for_run()

    def successor(config: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        masks, _ = advance(automaton, dict(config), neighborhood)
        return tuple(sorted(masks.items()))

    return _walk(successor, tuple(sorted(state_masks(initial).items())))


def _syncs(
    automaton: ProtocolAutomaton, topology: Topology, initial: tuple[int, ...], period: int
) -> bool:
    """True when the run from ``initial`` ends in synchronized pulsing: every
    configuration of its eventual cycle has one clock and all-or-none beeps,
    and the beeps come exactly every ``period`` rounds."""
    seq, start = _global_run(automaton, topology, initial)
    clock_of = automaton.clock_of
    beeps = automaton.beeps
    marks = []
    for i, config in enumerate(seq[start:]):
        ids = [s for s, _ in config]
        clocks = ids if clock_of is None else {clock_of[s] for s in ids}
        if len(clocks) != 1 or len({beeps[s] for s in ids}) != 1:
            return False
        if beeps[ids[0]]:
            marks.append(i)
    return _spaced_by(marks, len(seq) - start, period)


def certify_no_sync(
    automaton: ProtocolAutomaton,
    counterexample: tuple[Topology, tuple[int, ...]],
    period: int,
) -> bool:
    """True when the run from the counterexample never reaches synchronized pulsing.

    The run is deterministic over a finite configuration space, so its
    eventual behavior is exactly the detected cycle; synchronized pulsing
    from any round would make that cycle itself synchronized.

    Raises:
        ValueError: On a bad period, a topology of more than
            MAX_COUNTEREXAMPLE_NODES nodes, or initial states that do not
            fit the topology and the automaton.
    """
    _check_period(period)
    topology, initial = counterexample
    if topology.node_count > MAX_COUNTEREXAMPLE_NODES:
        raise ValueError(
            f"{topology.node_count} nodes exceed the {MAX_COUNTEREXAMPLE_NODES}-node limit"
        )
    if len(initial) != topology.node_count:
        raise ValueError(f"need {topology.node_count} initial states, got {len(initial)}")
    for s in initial:
        if not 0 <= s < automaton.state_count:
            raise ValueError(f"initial state {s} out of range")
    return not _syncs(automaton, topology, initial, period)


def runtime_lower_bound_demo(automaton: ProtocolAutomaton) -> float:
    """First round at which two phase-shifted correct nodes can agree.

    Places two adjacent nodes one silence-cycle step apart, starting at the
    beeping anchor of the silence cycle, and runs them until their states
    merge. Returns the merge round (at least 1), or infinity when the pair
    provably cycles without merging.

    Raises:
        NotConstructible: When the silence cycle never beeps, so the phase
            offset is meaningless.
    """
    silence_core = find_silence_cycle(automaton)[:-1]
    beep_idx = [i for i, s in enumerate(silence_core) if automaton.beeps[s]]
    if not beep_idx:
        raise NotConstructible("silence cycle never beeps")
    anchor = beep_idx[0]
    clock_of = automaton.clock_of
    if clock_of is not None:
        anchor = next((i for i in beep_idx if clock_of[silence_core[i]] == 0), anchor)
    pair = (
        silence_core[anchor],
        silence_core[(anchor + 1) % len(silence_core)],
    )
    seq, cycle_start = _global_run(automaton, generate("line", 2), pair)
    # step once more into the cycle: a pair can merge on its first repeat
    seq.append(seq[cycle_start])
    return next((t for t in range(1, len(seq)) if len(seq[t]) == 1), float("inf"))


def _explore(
    start: object, expand: Callable[[object], tuple[bool, object, object]]
) -> ProtocolAutomaton:
    """Breadth-first closure of ``start`` under ``expand``.

    ``expand(config)`` gives (whether it beeps, its successor on silence, its
    successor on a heard beep), so each config is expanded once. State ids
    follow discovery order, the silence successor first.
    """
    index = {start: 0}
    order = [start]
    beeps: list[bool] = []
    beep_next: list[int] = []
    silence_next: list[int] = []
    for cfg in order:
        beeping, quiet, loud = expand(cfg)
        beeps.append(beeping)
        for nxt, targets in ((quiet, silence_next), (loud, beep_next)):
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            targets.append(index[nxt])
    return ProtocolAutomaton(
        beep_next=tuple(beep_next),
        silence_next=tuple(silence_next),
        beeps=tuple(beeps),
        clock_of=tuple(cfg.clock for cfg in order),
        labels=tuple(order),
    )


@lru_cache(maxsize=64)
def extract_fast_automaton(
    period: int, spacing: int = 4
) -> ProtocolAutomaton:
    """Enumerates the fast protocol's reachable configs as an automaton.

    State 0 is the inactive config and ``labels`` lists every reachable
    config in breadth-first order. Hearing a beep while inactive activates
    exactly as an adversary wake does, so the wake is not a separate input.
    """
    cps = compute_checkpoints(period, spacing)
    return _explore(
        INACTIVE_CONFIG,
        lambda cfg: (will_beep(cfg), step(cfg, False, cps), step(cfg, True, cps)),
    )


# The largest config domain, 50 * period * (max_round_counter + 1) configs,
# that extract_selfstab_automaton explores. Near the cap (T = 16, 32 and 64
# with q = 4 and N = 327, 163 and 81) extraction reaches 218,000-235,000
# configs in about 3 s at 69-77 MiB peak RSS, on a 2-core x86 box with
# Python 3.11.
MAX_STAB_CONFIGS = 1 << 20


def extract_selfstab_automaton(
    period: int, spacing: int, node_bound: int
) -> ProtocolAutomaton:
    """Enumerates the self-stabilizing protocol's reachable configs.

    The per-round map applies the consistency repair before the transition,
    and a state beeps when its repaired form beeps.

    Raises:
        ValueError: On a period outside its domain, or a config domain over
            MAX_STAB_CONFIGS.
    """
    cps = compute_checkpoints(period, spacing)
    budget = sync_round_budget(node_bound, period, spacing)
    domain = 50 * period * (max_round_counter(node_bound, budget) + 1)
    if domain > MAX_STAB_CONFIGS:
        raise ValueError(
            f"{domain} self-stabilizing configs at T={period}, N={node_bound},"
            f" over the {MAX_STAB_CONFIGS} limit"
        )

    def expand(cfg: StabNodeConfig) -> tuple[bool, StabNodeConfig, StabNodeConfig]:
        checked, quiet, loud = repair_and_step(cfg, cps, node_bound, budget)
        return will_beep_stab(checked), quiet, loud

    return _explore(StabNodeConfig(0, StabState.INACTIVE, False, 0, 0), expand)


def format_automaton(automaton: ProtocolAutomaton) -> str:
    """Serializes to the text form: header, then one line per state."""
    lines = [f"states {automaton.state_count}"]
    for s in range(automaton.state_count):
        parts = [
            str(s),
            str(automaton.beep_next[s]),
            str(automaton.silence_next[s]),
            "1" if automaton.beeps[s] else "0",
        ]
        if automaton.clock_of is not None:
            parts.append(str(automaton.clock_of[s]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> ProtocolAutomaton:
    """Parses the text form: "states k", then "state beep_next silence_next beeps [clock]"."""
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines or not lines[0].startswith("states "):
        raise ValueError("automaton text must start with 'states <count>'")
    k = int(lines[0].split()[1])
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} state lines, got {len(lines) - 1}")
    beep_next = [0] * k
    silence_next = [0] * k
    beeps = [False] * k
    clocks: list[int | None] = [None] * k
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (4, 5):
            raise ValueError(f"bad state line: {ln!r}")
        s = int(parts[0])
        if not 0 <= s < k or s in seen:
            raise ValueError(f"bad or repeated state id {s}")
        seen.add(s)
        beep_next[s] = int(parts[1])
        silence_next[s] = int(parts[2])
        if parts[3] not in ("0", "1"):
            raise ValueError(f"beep flag must be 0 or 1: {ln!r}")
        beeps[s] = parts[3] == "1"
        if len(parts) == 5:
            clocks[s] = int(parts[4])
    filled = [c for c in clocks if c is not None]
    if filled and len(filled) != k:
        raise ValueError("clock column must be present on all lines or none")
    return ProtocolAutomaton(
        beep_next=tuple(beep_next),
        silence_next=tuple(silence_next),
        beeps=tuple(beeps),
        clock_of=tuple(filled) if filled else None,
    )


def load_automaton(path: str) -> ProtocolAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def save_automaton(automaton: ProtocolAutomaton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_automaton(automaton))
