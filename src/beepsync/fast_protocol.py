"""Per-node transition function of the fast beep-synchronization protocol.

A node is woken either by the adversary or by hearing a beep; waking sets its
clock to 1 and makes it beep once. From then on the clock advances by one per
round, except that a listener hearing a beep one step before a checkpoint
jumps by two and beeps (an induced beep). A silent listener whose clock
reaches a checkpoint while its induced flag is set, or reaches 0, beeps
maturely and clears the flag.

All functions here are pure; the engine owns adjacency, wake schedules and
virtual counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .checkpoints import CheckpointSet


class NodeState(Enum):
    INACTIVE = "inactive"
    BEEP = "beep"
    LISTEN = "listen"


class BeepClass(Enum):
    MATURE = "mature"
    INDUCED = "induced"
    ACTIVATION = "activation"


@dataclass(frozen=True, slots=True)
class FastNodeConfig:
    """One node's state at the beginning of a round."""

    clock: int
    state: NodeState
    induced: bool


INACTIVE_CONFIG = FastNodeConfig(clock=0, state=NodeState.INACTIVE, induced=False)
ACTIVATION_CONFIG = FastNodeConfig(clock=1, state=NodeState.BEEP, induced=True)


def will_beep(config: FastNodeConfig) -> bool:
    """True when the node beeps during the round it starts in this config."""
    return config.state is NodeState.BEEP


def step(config: FastNodeConfig, heard: bool, checkpoints: CheckpointSet) -> FastNodeConfig:
    """Computes the config at the beginning of the next round.

    Branches, first match wins:
      1. inactive and heard: activate as (1, beep, induced).
      2. inactive: unchanged.
      3. beeping: advance clock by one, go listening; flag untouched.
      4. listening, heard, clock one before a checkpoint: jump two, beep,
         set induced.
      5. listening, heard otherwise: advance by one; flag untouched.
      6. listening, silent: advance by one; beep and clear the flag when the
         new clock is a checkpoint with the flag set, or is 0.

    Args:
        config: State at the beginning of the round.
        heard: Whether a neighbour beeped this round. An adversary wake
            reaches an inactive node as this bit (see ``fsm.advance``).
        checkpoints: Checkpoint set for the protocol's period.

    Returns:
        State at the beginning of the next round.
    """
    state = config.state
    period = checkpoints.period
    if state is NodeState.INACTIVE:
        if heard:
            return ACTIVATION_CONFIG
        return config
    if state is NodeState.BEEP:
        return FastNodeConfig((config.clock + 1) % period, NodeState.LISTEN, config.induced)
    if heard:
        if checkpoints.is_pre_checkpoint(config.clock):
            return FastNodeConfig((config.clock + 2) % period, NodeState.BEEP, True)
        return FastNodeConfig((config.clock + 1) % period, NodeState.LISTEN, config.induced)
    clock = (config.clock + 1) % period
    if (config.induced and clock in checkpoints) or clock == 0:
        return FastNodeConfig(clock, NodeState.BEEP, False)
    return FastNodeConfig(clock, NodeState.LISTEN, config.induced)


def classify_beep(
    config: FastNodeConfig,
    checkpoints: CheckpointSet,
    just_activated: bool = False,
) -> BeepClass:
    """Names the kind of beep a beeping config performs.

    Mature beeps happen exactly at checkpoints, induced beeps one past a
    checkpoint. A clock of 1 is one past checkpoint 0, so the engine must pass
    ``just_activated`` to tell activation beeps apart from induced ones.

    Raises:
        ValueError: If the config is not beeping.
    """
    if config.state is not NodeState.BEEP:
        raise ValueError(f"cannot classify a non-beeping config: {config}")
    if just_activated:
        return BeepClass.ACTIVATION
    if config.clock in checkpoints:
        return BeepClass.MATURE
    if checkpoints.is_post_checkpoint(config.clock):
        return BeepClass.INDUCED
    raise ValueError(f"beep at clock {config.clock} matches no beep class")


_STATE_CODES = {NodeState.INACTIVE: 0, NodeState.BEEP: 1, NodeState.LISTEN: 2}
_CODE_STATES = {code: state for state, code in _STATE_CODES.items()}


def config_bit_width(period: int) -> int:
    """Bits needed to serialize any config: ceil(log2 period) + 3."""
    return (period - 1).bit_length() + 3


def encode_config(config: FastNodeConfig, period: int) -> int:
    """Packs a config into config_bit_width(period) bits: clock, 2-bit state, flag."""
    if not 0 <= config.clock < period:
        raise ValueError(f"clock {config.clock} out of range for period {period}")
    clock_bits = (period - 1).bit_length()
    return (
        config.clock
        | _STATE_CODES[config.state] << clock_bits
        | int(config.induced) << (clock_bits + 2)
    )


def decode_config(value: int, period: int) -> FastNodeConfig:
    """Inverse of :func:`encode_config`."""
    clock_bits = (period - 1).bit_length()
    clock = value & ((1 << clock_bits) - 1)
    state_code = (value >> clock_bits) & 0b11
    induced = bool(value >> (clock_bits + 2) & 1)
    if clock >= period or state_code not in _CODE_STATES:
        raise ValueError(f"value {value} does not decode to a config for period {period}")
    return FastNodeConfig(clock, _CODE_STATES[state_code], induced)

