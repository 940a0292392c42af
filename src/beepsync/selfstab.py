"""Self-stabilizing wrapper around the fast protocol.

Starting from arbitrary per-node states, nodes locally repair impossible
(clock, state) combinations and watch two error signals: hearing beeps in too
many consecutive rounds (beep counter reaching 4) and staying unsynchronized
past the fast protocol's worst-case budget (round counter exceeding it). A
node that detects an error pulses for four rounds, drowning out its
neighborhood and dragging it into the same reset; it then locks long enough
for the whole graph to quiesce, goes inactive, and rejoins via the fast
protocol.

The round counter saturates at max(4*node_bound, budget+1); the beep counter
is clamped to 4. Nodes know ``node_bound`` (an upper bound on the node
count), not the true size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .checkpoints import CheckpointSet
from .fast_protocol import FastNodeConfig, NodeState, step


class StabState(Enum):
    INACTIVE = "inactive"
    BEEP = "beep"
    LISTEN = "listen"
    PULSE = "pulse"
    LOCK = "lock"


_FAST_STATE = {StabState.BEEP: NodeState.BEEP, StabState.LISTEN: NodeState.LISTEN}
_STAB_STATE = {fast: stab for stab, fast in _FAST_STATE.items()}


@dataclass(frozen=True, slots=True)
class StabNodeConfig:
    """One node's state at the beginning of a round.

    Attributes:
        clock: Cyclic clock value, meaningful in beep/listen states.
        state: Current protocol state.
        induced: Whether the last clock jump is still unconfirmed.
        round_counter: Saturating round count since the last reset.
        beep_count: Consecutive rounds spent beeping or hearing beeps.
    """

    clock: int
    state: StabState
    induced: bool
    round_counter: int
    beep_count: int


def will_beep_stab(config: StabNodeConfig) -> bool:
    """Pulsing nodes beep every round; beep-state nodes beep once."""
    return config.state is StabState.BEEP or config.state is StabState.PULSE


def max_round_counter(node_bound: int, budget: int) -> int:
    """Saturation value of the round counter."""
    return max(4 * node_bound, budget + 1)


def counter_threshold(state: StabState, node_bound: int, budget: int) -> int:
    """The smallest round counter at which :func:`stab_step` sees the
    threshold of ``state`` reached: the counter it steps to reaches 4 in a
    pulse and ``4 * node_bound`` in a lock or while inactive, and exceeds
    ``budget`` in beep and listen. The step reads the counter nowhere else,
    and every threshold lies below :func:`max_round_counter`."""
    if state is StabState.PULSE:
        return 3
    if state is StabState.BEEP or state is StabState.LISTEN:
        return budget
    return 4 * node_bound - 1


def consistency_check(config: StabNodeConfig, checkpoints: CheckpointSet) -> StabNodeConfig:
    """Locally repairs impossible fast-protocol configs.

    A beeping node must sit on or one past a checkpoint; a listening node must
    not sit at clock 0 (it would have beeped). Anything else in a beep/listen
    state resets to a fresh pulse. Other states carry no clock claim and pass
    through unchanged.
    """
    state = config.state
    if state is StabState.BEEP:
        ok = checkpoints.may_beep(config.clock)
    elif state is StabState.LISTEN:
        ok = config.clock > 0
    else:
        return config
    if ok:
        return config
    return StabNodeConfig(config.clock, StabState.PULSE, config.induced, 0, config.beep_count)


def stab_step(
    config: StabNodeConfig,
    heard: bool,
    checkpoints: CheckpointSet,
    node_bound: int,
    budget: int,
) -> StabNodeConfig:
    """Computes the config at the beginning of the next round.

    The round counter is incremented first (saturating), then the state
    branch runs:

      inactive: activate on a heard beep or once the counter reaches
          4*node_bound, as (clock 1, beep, induced, counter 0, beeps 1).
      beep or listen: count the beep when the node beeps or hears one,
          else clear the count; pulse when the count reaches 4, or when a
          listener hears a beep after the round counter exceeds the budget;
          else take the fast protocol's :func:`step`, keeping both counters.
      pulse: after four rounds, lock.
      lock: after 4*node_bound rounds, go inactive.

    Args:
        config: State at the beginning of the round, already repaired by
            :func:`consistency_check`.
        heard: Whether a neighbour beeped this round.
        checkpoints: Checkpoint set for the protocol's period.
        node_bound: The size bound the node was configured with.
        budget: Error-detection threshold in rounds.

    Returns:
        State at the beginning of the next round.
    """
    saturation = max_round_counter(node_bound, budget)
    rounds = config.round_counter
    if rounds < saturation:
        rounds += 1
    state = config.state

    if state is StabState.BEEP or state is StabState.LISTEN:
        beeps = min(config.beep_count + 1, 4) if heard or state is StabState.BEEP else 0
        if beeps >= 4 or (heard and state is StabState.LISTEN and rounds > budget):
            return StabNodeConfig(config.clock, StabState.PULSE, config.induced, 0, beeps)
        fast = FastNodeConfig(config.clock, _FAST_STATE[state], config.induced)
        nxt = step(fast, heard, checkpoints)
        return StabNodeConfig(nxt.clock, _STAB_STATE[nxt.state], nxt.induced, rounds, beeps)

    if state is StabState.INACTIVE:
        if heard or rounds >= 4 * node_bound:
            return StabNodeConfig(1, StabState.BEEP, True, 0, 1)
    elif state is StabState.PULSE:
        if rounds >= 4:
            state, rounds = StabState.LOCK, 0
    elif rounds >= 4 * node_bound:  # lock
        state, rounds = StabState.INACTIVE, 0
    return StabNodeConfig(config.clock, state, config.induced, rounds, config.beep_count)


def validate_config(
    config: StabNodeConfig, period: int, node_bound: int, budget: int
) -> None:
    """Raises ValueError when any field is outside its domain."""
    if not 0 <= config.clock < period:
        raise ValueError(f"clock {config.clock} out of [0, {period})")
    if not isinstance(config.state, StabState):
        raise ValueError(f"bad state {config.state!r}")
    saturation = max_round_counter(node_bound, budget)
    if not 0 <= config.round_counter <= saturation:
        raise ValueError(f"round_counter {config.round_counter} out of [0, {saturation}]")
    if not 0 <= config.beep_count <= 4:
        raise ValueError(f"beep_count {config.beep_count} out of [0, 4]")


def random_configs(
    node_count: int,
    period: int,
    node_bound: int,
    budget: int,
    seed: int,
) -> list[StabNodeConfig]:
    """Samples a fully arbitrary initial configuration, every field uniform."""
    rng = random.Random(seed)
    states = list(StabState)
    saturation = max_round_counter(node_bound, budget)
    return [
        StabNodeConfig(
            clock=rng.randrange(period),
            state=rng.choice(states),
            induced=rng.random() < 0.5,
            round_counter=rng.randint(0, saturation),
            beep_count=rng.randint(0, 4),
        )
        for _ in range(node_count)
    ]


def legitimate_configs(node_count: int, period: int, clock: int = 1) -> list[StabNodeConfig]:
    """A clean in-sync configuration: everyone listening at the same clock."""
    if not 0 < clock < period:
        raise ValueError(f"clock {clock} out of (0, {period})")
    return [
        StabNodeConfig(clock, StabState.LISTEN, False, 0, 0) for _ in range(node_count)
    ]


def format_configs(configs: list[StabNodeConfig]) -> str:
    """One node per line: clock state induced round_counter beep_count."""
    lines = [
        f"{c.clock} {c.state.value} {int(c.induced)} {c.round_counter} {c.beep_count}"
        for c in configs
    ]
    return "\n".join(lines) + "\n"


def parse_configs(text: str) -> list[StabNodeConfig]:
    configs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"config line needs 5 fields: {line!r}")
        if parts[2] not in ("0", "1"):
            raise ValueError(f"induced flag must be 0 or 1: {line!r}")
        configs.append(
            StabNodeConfig(
                clock=int(parts[0]),
                state=StabState(parts[1]),
                induced=parts[2] == "1",
                round_counter=int(parts[3]),
                beep_count=int(parts[4]),
            )
        )
    if not configs:
        raise ValueError("config file holds no nodes")
    return configs


def load_configs(path: str) -> list[StabNodeConfig]:
    with open(path, encoding="utf-8") as fh:
        return parse_configs(fh.read())


def save_configs(configs: list[StabNodeConfig], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_configs(configs))
