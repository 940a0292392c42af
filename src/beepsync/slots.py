"""Continuous-time engine with per-node slot boundaries.

Nodes step the fast protocol's transition table, as the round engine does,
but each round occupies a real-time slot of fixed duration and the slot
grids of different nodes start at arbitrary offsets. A beeping node beeps
for its whole slot and beeps are received instantly. When a node whose next
config depends on hearing a beep (an inactive node, or a listener one tick
before a checkpoint) hears a beep start at offset t inside its current slot,
it extends that slot by t, so the extended slot ends exactly one slot
duration after the onset and the node's grid locks onto the beeper's. Only
the earliest onset in a slot triggers the extension; a beep already sounding
when the slot begins counts as onset offset 0 and extends nothing. The
protocol step runs at the (possibly extended) slot end, so a node woken
mid-slot beeps during its following slot.

All times are floats and boundary alignment is exact when offsets are
binary fractions; the analysis helpers quantize to nanoseconds to stay
robust for other offsets.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass

from .engine import ActivationSchedule, SimResult, fast_setup
from .fast_protocol import (
    NodeState,
    step,  # unused here; present so the patch in benchmarks/tracing.py can getattr it
)
from .topology import Topology

SLOT_FIELDS = ("node", "slot_index", "start_time", "end_time", "beeped", "clock")

# most slots a time horizon may span per node; far above every default horizon
MAX_SLOTS = 1 << 20


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """One completed slot of one node; the node beeped in it when ``state`` is
    ``NodeState.BEEP``."""

    node: int
    slot_index: int
    start_time: float
    end_time: float
    clock: int
    state: NodeState
    induced: bool
    heard: bool


def run_slots(
    topology: Topology,
    offsets: list[float] | None,
    schedule: ActivationSchedule,
    period: int,
    spacing: int = 4,
    slot_duration: float = 1.0,
    time_horizon: float | None = None,
) -> tuple[SimResult, list[SlotRecord]]:
    """Simulates the fast protocol over unsynchronized slot grids.

    Args:
        topology: Connected graph to run on.
        offsets: Start time of each node's slot 0, in [0, slot_duration);
            None means all zero.
        schedule: Adversary wakes, given in per-node slot indices.
        period: Clock cycle length.
        spacing: Checkpoint distance.
        slot_duration: Real-time length of an unextended slot; positive and
            finite.
        time_horizon: Simulate events up to this finite time, at most
            ``MAX_SLOTS`` slot durations; defaults to enough slots for
            synchronization plus a few periods after the first wake.

    Returns:
        (result, records); result.sync_time is the earliest boundary from
        which all grids coincide with equal clocks, None if never reached.
    """
    n = topology.node_count
    mu = slot_duration
    if not 0 < mu < math.inf:
        raise ValueError(f"slot duration must be positive and finite, got {mu}")
    if offsets is None:
        offsets = [0.0] * n
    if len(offsets) != n:
        raise ValueError(f"need {n} offsets, got {len(offsets)}")
    for off in offsets:
        if not 0 <= off < mu:
            raise ValueError(f"offset {off} outside [0, {mu})")
    table, _, slots_needed = fast_setup(topology, schedule, period, spacing)
    if time_horizon is None:
        time_horizon = max(offsets) + mu * (slots_needed + schedule.min_wake() + 2)
    if not (math.isfinite(time_horizon) and time_horizon <= mu * MAX_SLOTS):
        raise ValueError(f"time horizon {time_horizon} not finite or over {MAX_SLOTS} slots")
    if time_horizon < 0:
        raise ValueError(f"negative time horizon {time_horizon}")

    beep_next, silence_next = table.beep_next, table.silence_next
    beeps, labels = table.beeps, table.labels
    neighbors = topology.neighbors
    wake = schedule.wake_round
    ids = [0] * n
    slot_start = list(offsets)
    slot_end = [off + mu for off in offsets]
    slot_idx = [0] * n
    heard = [False] * n
    records: list[SlotRecord] = []
    heap = [(slot_end[v], v) for v in range(n)]
    heapq.heapify(heap)

    while heap:
        now, v = heapq.heappop(heap)
        if now != slot_end[v]:
            continue
        if now > time_horizon:
            break
        s = ids[v]
        cfg = labels[s]
        records.append(
            SlotRecord(
                node=v,
                slot_index=slot_idx[v],
                start_time=slot_start[v],
                end_time=now,
                clock=cfg.clock,
                state=cfg.state,
                induced=cfg.induced,
                heard=heard[v],
            )
        )
        # id 0 takes a wake as a heard beep, as in fsm.advance
        loud = heard[v] or (s == 0 and wake.get(v) == slot_idx[v])
        s = ids[v] = beep_next[s] if loud else silence_next[s]
        slot_idx[v] += 1
        slot_start[v] = now
        slot_end[v] = now + mu
        heard[v] = False
        heapq.heappush(heap, (slot_end[v], v))

        if beeps[s]:
            # beep onset at the new slot's start
            for w in neighbors[v]:
                if slot_start[w] <= now < slot_end[w] and not heard[w]:
                    heard[w] = True
                    # the slot's first onset: extend when the beep changes the
                    # listener's next config
                    sw = ids[w]
                    if beep_next[sw] != silence_next[sw] and now > slot_start[w]:
                        slot_end[w] = now + mu
                        heapq.heappush(heap, (slot_end[w], w))
        for w in neighbors[v]:
            if beeps[ids[w]] and slot_start[w] <= now < slot_end[w]:
                # beep already sounding when the slot begins: onset offset 0
                heard[v] = True
                break

    result = SimResult(
        sync_time=alignment_time(records, n),
        horizon=int(time_horizon // mu),
        rounds_run=max(slot_idx, default=0),
    )
    return result, records


def _quantize(value: float) -> float:
    return round(value, 9)


def alignment_time(records: list[SlotRecord], node_count: int) -> float | None:
    """Earliest slot boundary from which all grids coincide with equal clocks.

    A time x qualifies when every later common boundary (up to the last slot
    completed by all nodes) is a slot start for every node, all nodes are
    active there, and their clocks agree. Returns None when no such boundary
    exists in the recorded window.
    """
    by_node: list[dict[float, SlotRecord]] = [{} for _ in range(node_count)]
    for rec in records:
        by_node[rec.node][_quantize(rec.start_time)] = rec
    if any(not seen for seen in by_node):
        return None
    cap = min(max(seen) for seen in by_node)
    candidates = sorted({start for seen in by_node for start in seen if start <= cap})
    # x qualifies when every candidate from x on does: scan back to the last failure
    found = None
    for x in reversed(candidates):
        group = [seen.get(x) for seen in by_node]
        if any(rec is None or rec.state is NodeState.INACTIVE for rec in group):
            break
        if any(rec.clock != group[0].clock for rec in group):
            break
        found = x
    return found


def write_slot_csv(records: list[SlotRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOT_FIELDS)
        for rec in records:
            writer.writerow([
                rec.node, rec.slot_index, rec.start_time, rec.end_time,
                rec.state is NodeState.BEEP, rec.clock,
            ])
