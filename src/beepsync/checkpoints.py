"""Checkpoint arithmetic shared by the beep protocols.

A clock runs cyclically through ``0 .. period-1``. Checkpoints are the clock
values at which a node is allowed to beep maturely; they sit at multiples of
``spacing`` with enough headroom before the wrap so that a two-step induced
jump never lands past a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# The largest period. Every transition table is built from a checkpoint set,
# so a larger period is refused here before any table is allocated. At the
# cap the fast table (2 * period states) builds in 0.08 s, and the
# self-stabilizing table (100 * period ids) in 5.8-6.9 s at 117 MiB peak
# RSS, on a 2-core x86 box with Python 3.11.
MAX_PERIOD = 1 << 12


def _validate_parameters(period: int, spacing: int) -> None:
    if period > MAX_PERIOD:
        raise ValueError(f"period {period} exceeds the {MAX_PERIOD} limit")
    if spacing == 4:
        if period < 4:
            raise ValueError(f"period must be >= 4, got {period}")
    elif 5 <= spacing <= period:
        pass
    else:
        raise ValueError(f"spacing must be 4 or in [5, period], got {spacing} for period {period}")


@dataclass(frozen=True)
class CheckpointSet:
    """The mature-beep clock values for one (period, spacing) pair.

    Attributes:
        period: Cycle length of the clock.
        spacing: Distance between consecutive checkpoints.
        members: Sorted checkpoint values; 0 is always a member.
    """

    period: int
    spacing: int
    members: tuple[int, ...]
    _member_set: frozenset[int] = field(init=False, repr=False, compare=False)
    _pre_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_set", frozenset(self.members))
        object.__setattr__(
            self, "_pre_set", frozenset((c - 1) % self.period for c in self.members)
        )

    def __contains__(self, clock: int) -> bool:
        return clock in self._member_set

    def is_pre_checkpoint(self, clock: int) -> bool:
        """True when the clock sits one step before some checkpoint (mod period)."""
        return clock in self._pre_set

    def is_post_checkpoint(self, clock: int) -> bool:
        """True when the clock sits one step past some checkpoint (mod period)."""
        return (clock - 1) % self.period in self._member_set

    def may_beep(self, clock: int) -> bool:
        """True when a beep may sound at the clock: on or one step past a checkpoint."""
        return clock in self._member_set or self.is_post_checkpoint(clock)


def compute_checkpoints(period: int, spacing: int = 4) -> CheckpointSet:
    """Builds the checkpoint set: multiples of ``spacing`` c with period - c > spacing - 1.

    Args:
        period: Clock cycle length.
        spacing: Checkpoint distance; 4 is the classic choice, values in
            [5, period] trade more rounds per step for fewer wrap leftovers.

    Returns:
        The CheckpointSet for (period, spacing).

    Raises:
        ValueError: If the (period, spacing) combination is out of domain.
    """
    _validate_parameters(period, spacing)
    members = tuple(
        c for c in range(0, period, spacing) if period - c > spacing - 1
    )
    return CheckpointSet(period=period, spacing=spacing, members=members)


def fast_runtime_bound(diameter: int, period: int, spacing: int = 4) -> int:
    """Worst-case round count for the fast protocol to synchronize a graph.

    Args:
        diameter: Graph diameter.
        period: Clock cycle length.
        spacing: Checkpoint distance.

    Returns:
        spacing*D + floor(D / floor(period/spacing)) * (period mod spacing).
    """
    _validate_parameters(period, spacing)
    if diameter < 0:
        raise ValueError(f"diameter must be >= 0, got {diameter}")
    return spacing * diameter + (diameter // (period // spacing)) * (period % spacing)


def sync_round_budget(node_count: int, period: int, spacing: int) -> int:
    """Rounds after which a node still out of sync may flag an error.

    This is the fast-protocol bound for a worst-case path through all
    ``node_count`` nodes, plus ``spacing`` slack rounds covering the flush of
    stale induced flags after the last node joins.

    Args:
        node_count: Number of nodes the budget must cover (the bound a node
            was told, not necessarily the true size).
        period: Clock cycle length.
        spacing: Checkpoint distance.

    Returns:
        The budget in rounds.
    """
    _validate_parameters(period, spacing)
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    return fast_runtime_bound(node_count - 1, period, spacing) + spacing
