import csv
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepsync.checkpoints import compute_checkpoints, fast_runtime_bound
from beepsync.engine import ActivationSchedule, SimResult, run_fast, single_source_schedule
from beepsync.fast_protocol import INACTIVE_CONFIG, NodeState, step, will_beep
from beepsync.fsm import extract_fast_automaton
from beepsync.slots import (
    SLOT_FIELDS,
    SlotRecord,
    _quantize,
    alignment_time,
    run_slots,
    write_slot_csv,
)
from beepsync.topology import KINDS, Topology, generate

TOL = 1e-9


def staggered_line_run():
    # three-node line, staggered slot grids, ends woken by the adversary
    topo = generate("line", 3)
    schedule = ActivationSchedule(wake_round={0: 0, 2: 0})
    return run_slots(topo, [0.0, 0.5, 0.25], schedule, 12)


def by_node(records, node):
    return sorted((r for r in records if r.node == node), key=lambda r: r.start_time)


def test_staggered_line_aligns_at_nine():
    result, records = staggered_line_run()
    assert result.sync_time == pytest.approx(9.0, abs=TOL)
    assert alignment_time(records, 3) == pytest.approx(9.0, abs=TOL)


def test_inactive_listener_extends_to_the_beeper_boundary():
    _, records = staggered_line_run()
    first = by_node(records, 1)[0]
    assert first.start_time == pytest.approx(0.5, abs=TOL)
    assert first.end_time == pytest.approx(2.0, abs=TOL)
    assert first.heard


def test_pre_checkpoint_listener_extends_and_jumps():
    _, records = staggered_line_run()
    v3 = by_node(records, 2)
    extended = [r for r in v3 if r.start_time == pytest.approx(7.25, abs=TOL)]
    assert len(extended) == 1
    assert extended[0].clock == 7
    assert extended[0].end_time == pytest.approx(9.0, abs=TOL)
    induced = [r for r in v3 if r.start_time == pytest.approx(9.0, abs=TOL)]
    assert induced[0].clock == 9
    assert induced[0].state is NodeState.BEEP


def test_joint_zero_clock_beep_after_alignment():
    _, records = staggered_line_run()
    for node in range(3):
        zero = [r for r in by_node(records, node) if r.start_time == pytest.approx(12.0, abs=TOL)]
        assert zero[0].state is NodeState.BEEP
        assert zero[0].clock == 0


def test_beeps_after_alignment_only_at_clock_zero():
    _, records = staggered_line_run()
    for r in records:
        if r.state is NodeState.BEEP and r.start_time >= 10.0 - TOL:
            assert r.clock == 0


def test_slot_span_stays_under_two_slots():
    _, records = staggered_line_run()
    for r in records:
        span = r.end_time - r.start_time
        assert 1.0 - TOL <= span < 2.0 - TOL or span == pytest.approx(1.0, abs=TOL)
        # extension amount is the onset offset, always below one slot
        assert span - 1.0 < 1.0


@pytest.mark.parametrize("offset", [0.1, 0.25, 0.5, 0.9])
def test_two_node_extension_is_exact(offset):
    topo = generate("line", 2)
    _, records = run_slots(topo, [0.0, offset], single_source_schedule(0), 12)
    listener = by_node(records, 1)
    hit = [r for r in listener if r.start_time <= 1.0 < r.end_time]
    assert len(hit) == 1
    # woken by the activation beep onset at t=1.0; boundary lands exactly on
    # the beeper's next boundary
    assert hit[0].end_time == pytest.approx(2.0, abs=TOL)
    assert abs(hit[0].end_time - 2.0) < TOL


def test_single_node_aligns_at_first_active_slot():
    result, _ = run_slots(generate("line", 1), None, single_source_schedule(0), 5)
    assert result.sync_time == pytest.approx(1.0, abs=TOL)


def test_zero_offsets_match_synchronous_engine():
    topo = generate("line", 3)
    schedule = ActivationSchedule(wake_round={0: 0, 2: 0})
    _, records = run_slots(topo, None, schedule, 12)
    _, trace = run_fast(topo, schedule, 12)
    for node in range(3):
        rows = by_node(records, node)
        assert rows[0].clock == 0
        assert rows[0].state is NodeState.INACTIVE
        for r in rows[1:]:
            t = r.slot_index - 1
            if t >= trace.round_count():
                break
            config = trace.config_at(t, node)
            assert r.clock == config.clock
            assert r.state == config.state
            assert r.start_time == pytest.approx(float(r.slot_index), abs=TOL)


def test_zero_offsets_match_with_delayed_wake():
    topo = generate("line", 3)
    schedule = single_source_schedule(0, 2)
    _, records = run_slots(topo, None, schedule, 7)
    _, trace = run_fast(topo, schedule, 7)
    shift = schedule.min_wake() + 1
    for node in range(3):
        for r in by_node(records, node):
            t = r.slot_index - shift
            if t < 0 or t >= trace.round_count():
                continue
            config = trace.config_at(t, node)
            assert r.clock == config.clock
            assert r.state == config.state


def test_input_validation():
    topo = generate("line", 2)
    with pytest.raises(ValueError):
        run_slots(topo, [0.0, 1.0], single_source_schedule(0), 12)
    with pytest.raises(ValueError):
        run_slots(topo, [0.0, -0.1], single_source_schedule(0), 12)
    with pytest.raises(ValueError):
        run_slots(topo, [0.0], single_source_schedule(0), 12)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(5), 12)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, slot_duration=0.0)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, slot_duration=float("inf"))
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, time_horizon=float("inf"))
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, time_horizon=float("nan"))
    with pytest.raises(ValueError, match="negative time horizon -1"):
        run_slots(topo, None, single_source_schedule(0), 12, time_horizon=-1)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0, 100_000_000), 12)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, time_horizon=1e12)
    with pytest.raises(ValueError):
        run_slots(topo, None, single_source_schedule(0), 12, slot_duration=1e-12, time_horizon=1)


def test_slot_csv_export(tmp_path):
    _, records = staggered_line_run()
    path = tmp_path / "slots.csv"
    write_slot_csv(records, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == SLOT_FIELDS
    assert len(rows) - 1 == len(records)


# The slot engine as it was before it stepped the fast transition table: one
# FastNodeConfig per node stepped through fast_protocol.step, and the
# alignment search as a nested loop. Kept as the reference the engine must
# reproduce exactly.
def _reference_run_slots(
    topology: Topology,
    offsets: list[float] | None,
    schedule: ActivationSchedule,
    period: int,
    spacing: int = 4,
    slot_duration: float = 1.0,
    time_horizon: float | None = None,
) -> tuple[SimResult, list[SlotRecord], list[bool]]:
    """Simulates the fast protocol over unsynchronized slot grids.

    Args:
        topology: Connected graph to run on.
        offsets: Start time of each node's slot 0, in [0, slot_duration);
            None means all zero.
        schedule: Adversary wakes, given in per-node slot indices.
        period: Clock cycle length.
        spacing: Checkpoint distance.
        slot_duration: Real-time length of an unextended slot.
        time_horizon: Simulate events up to this time; defaults to enough
            slots for synchronization plus a few periods.

    Returns:
        (result, records, beeped); result.sync_time is the earliest boundary
        from which all grids coincide with equal clocks, None if never
        reached, and beeped[i] says whether records[i]'s node beeped in that
        slot.
    """
    n = topology.node_count
    mu = slot_duration
    if mu <= 0:
        raise ValueError(f"slot duration must be positive, got {mu}")
    if offsets is None:
        offsets = [0.0] * n
    if len(offsets) != n:
        raise ValueError(f"need {n} offsets, got {len(offsets)}")
    for off in offsets:
        if not 0 <= off < mu:
            raise ValueError(f"offset {off} outside [0, {mu})")
    for node in schedule.wake_round:
        if not 0 <= node < n:
            raise ValueError(f"wake node {node} out of range")
    cps = compute_checkpoints(period, spacing)
    if time_horizon is None:
        slots_needed = 2 * fast_runtime_bound(topology.diameter, period, spacing) + 4 * period
        time_horizon = max(offsets) + mu * (slots_needed + schedule.min_wake() + 2)

    neighbors = topology.neighbors
    wake = schedule.wake_round
    configs = [INACTIVE_CONFIG] * n
    slot_start = list(offsets)
    slot_end = [off + mu for off in offsets]
    slot_idx = [0] * n
    heard = [False] * n
    anchored = [False] * n
    records: list[SlotRecord] = []
    beeped: list[bool] = []
    heap = [(slot_end[v], v) for v in range(n)]
    heapq.heapify(heap)

    while heap:
        now, v = heapq.heappop(heap)
        if now != slot_end[v]:
            continue
        if now > time_horizon:
            break
        old = configs[v]
        beeped.append(will_beep(old))
        woke = wake.get(v) == slot_idx[v]
        records.append(
            SlotRecord(
                node=v,
                slot_index=slot_idx[v],
                start_time=slot_start[v],
                end_time=now,
                clock=old.clock,
                state=old.state,
                induced=old.induced,
                heard=heard[v],
            )
        )
        configs[v] = step(old, heard[v] or (woke and old.state is NodeState.INACTIVE), cps)
        slot_idx[v] += 1
        slot_start[v] = now
        slot_end[v] = now + mu
        heard[v] = False
        anchored[v] = False
        heapq.heappush(heap, (slot_end[v], v))

        if will_beep(configs[v]):
            # beep onset at the new slot's start
            for w in neighbors[v]:
                if slot_start[w] <= now < slot_end[w]:
                    heard[w] = True
                    if not anchored[w]:
                        anchored[w] = True
                        cfg = configs[w]
                        eligible = cfg.state is NodeState.INACTIVE or (
                            cfg.state is NodeState.LISTEN
                            and cps.is_pre_checkpoint(cfg.clock)
                        )
                        if eligible and now > slot_start[w]:
                            slot_end[w] = now + mu
                            heapq.heappush(heap, (slot_end[w], w))
        for w in neighbors[v]:
            if will_beep(configs[w]) and slot_start[w] <= now < slot_end[w]:
                # beep already sounding when the slot begins: onset offset 0
                heard[v] = True
                anchored[v] = True
                break

    result = SimResult(
        sync_time=_reference_alignment_time(records, n),
        horizon=int(time_horizon // mu),
        rounds_run=max((r.slot_index + 1 for r in records), default=0),
    )
    return result, records, beeped


def _reference_alignment_time(records: list[SlotRecord], node_count: int) -> float | None:
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
    for x in candidates:
        ok = False
        for s in candidates:
            if s < x:
                continue
            ok = True
            group = []
            for seen in by_node:
                rec = seen.get(s)
                if rec is None or rec.state is NodeState.INACTIVE:
                    ok = False
                    break
                group.append(rec)
            if not ok:
                break
            if any(rec.clock != group[0].clock for rec in group):
                ok = False
                break
        if ok:
            return x
    return None


@st.composite
def slot_runs(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2 if kind == "star" else 1, 9))
    topo = generate(kind, n, seed=draw(st.integers(0, 2**16)))
    period = draw(st.integers(4, 16))
    spacing = draw(st.sampled_from([4, *range(5, period + 1)]))
    mu = draw(st.sampled_from([1.0, 0.5, 2.0]))
    # binary fractions of the slot keep every boundary exact
    offset = st.integers(0, 15).map(lambda k: mu * k / 16)
    offsets = draw(st.none() | st.lists(offset, min_size=n, max_size=n))
    wakes = draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 2 * period), min_size=1)
    )
    horizon = draw(st.none() | st.integers(0, 64 * period).map(lambda k: mu * k / 8))
    return topo, offsets, ActivationSchedule(wakes), period, spacing, mu, horizon


@settings(derandomize=True, deadline=None, max_examples=200)
@given(slot_runs(), st.data())
def test_slot_run_matches_per_node_reference(run, data):
    result, records = run_slots(*run)
    expected, expected_records, beeped = _reference_run_slots(*run)
    assert result == expected
    assert records == expected_records
    # a record keeps a beep as the beep state
    assert [rec.state is NodeState.BEEP for rec in records] == beeped
    n = run[0].node_count
    for k in data.draw(st.lists(st.integers(0, len(records)), max_size=4)):
        assert alignment_time(records[:k], n) == _reference_alignment_time(records[:k], n)


@pytest.mark.parametrize(
    "run",
    [
        (generate("line", 3), [0.0, 0.5, 0.25], ActivationSchedule({0: 0, 2: 0}), 12),
        (generate("line", 4), [0.0] * 4, ActivationSchedule({0: 0}), 7),
    ],
    ids=["staggered-line-3", "zero-offsets-line-4"],
)
def test_criterion_09_runs_match_reference(run):
    assert run_slots(*run) == _reference_run_slots(*run)[:2]


def test_extension_is_input_sensitivity():
    # a node extends its slot exactly when a heard beep changes its next config
    for period in range(4, 41):
        for spacing in (4, *range(5, period + 1)):
            cps = compute_checkpoints(period, spacing)
            table = extract_fast_automaton(period, spacing)
            for s, cfg in enumerate(table.labels):
                paper_rule = cfg.state is NodeState.INACTIVE or (
                    cfg.state is NodeState.LISTEN and cps.is_pre_checkpoint(cfg.clock)
                )
                sensitive = table.beep_next[s] != table.silence_next[s]
                assert sensitive == paper_rule, (period, spacing, cfg)
