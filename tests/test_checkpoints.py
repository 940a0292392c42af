import pytest

from beepsync.checkpoints import (
    MAX_PERIOD,
    CheckpointSet,
    compute_checkpoints,
    fast_runtime_bound,
    period_partition,
    succ,
    sync_round_budget,
)


def naive_members(period, spacing):
    return [c for c in range(period) if c % spacing == 0 and period - c > spacing - 1]


def naive_succ(clock, members):
    larger = [c for c in members if c > clock]
    return min(larger) if larger else 0


def test_members_frozen_values():
    assert compute_checkpoints(19, 4).members == (0, 4, 8, 12)
    assert compute_checkpoints(7, 4).members == (0,)
    assert compute_checkpoints(12, 5).members == (0, 5)
    assert compute_checkpoints(12, 4).members == (0, 4, 8)


def test_members_match_definition():
    for period in range(4, 41):
        cps = compute_checkpoints(period, 4)
        assert list(cps.members) == naive_members(period, 4)
        for spacing in range(5, period + 1):
            cps = compute_checkpoints(period, spacing)
            assert list(cps.members) == naive_members(period, spacing)


def test_member_count_property():
    for period in range(4, 80):
        cps = compute_checkpoints(period, 4)
        multiples = [c for c in range(0, period - 3, 4)]
        assert len(cps.members) == len(multiples)


def test_zero_always_member():
    for period in range(4, 40):
        assert 0 in compute_checkpoints(period, 4)
    for period in range(5, 40):
        assert 0 in compute_checkpoints(period, 5)


def test_cyclic_gap_at_least_spacing():
    for period in range(4, 40):
        for spacing in [4] + list(range(5, period + 1)):
            members = compute_checkpoints(period, spacing).members
            for a, b in zip(members, members[1:] + (members[0],)):
                assert (b - a) % period >= spacing or len(members) == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        compute_checkpoints(3, 4)
    with pytest.raises(ValueError):
        compute_checkpoints(10, 3)
    with pytest.raises(ValueError):
        compute_checkpoints(4, 5)
    with pytest.raises(ValueError):
        compute_checkpoints(10, 11)
    compute_checkpoints(MAX_PERIOD, 4)
    with pytest.raises(ValueError, match="limit"):
        compute_checkpoints(MAX_PERIOD + 1, 4)
    with pytest.raises(ValueError, match="limit"):
        fast_runtime_bound(0, MAX_PERIOD + 1, 4)
    with pytest.raises(ValueError, match="limit"):
        sync_round_budget(2, MAX_PERIOD + 1, 4)


def test_succ_frozen_values():
    assert succ(4, compute_checkpoints(19, 4)) == 8
    assert succ(12, compute_checkpoints(19, 4)) == 0
    assert succ(0, compute_checkpoints(7, 4)) == 0


def test_succ_matches_naive():
    for period in range(4, 30):
        cps = compute_checkpoints(period, 4)
        for clock in range(period):
            assert succ(clock, cps) == naive_succ(clock, cps.members)


def test_succ_cycle_visits_every_member_once():
    for period in (7, 8, 12, 19, 23):
        cps = compute_checkpoints(period, 4)
        seen = []
        current = 0
        while True:
            current = succ(current, cps)
            if current == 0:
                break
            seen.append(current)
        assert [0] + seen == list(cps.members)


def test_pre_and_post_checkpoint_flags():
    cps = compute_checkpoints(12, 4)
    assert [c for c in range(12) if cps.is_pre_checkpoint(c)] == [3, 7, 11]
    assert [c for c in range(12) if cps.is_post_checkpoint(c)] == [1, 5, 9]


def test_period_partition_frozen():
    parts = period_partition(19, 4, 4)
    assert parts[0] == list(range(1, 5))
    assert parts[1] == list(range(5, 9))
    assert parts[2] == list(range(9, 13))
    assert parts[3] == list(range(13, 20))
    assert period_partition(19, 4, 5)[4] == [20, 21, 22, 23]
    assert period_partition(8, 4, 2) == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_period_partition_cycle_sums_to_period():
    for period in (7, 8, 12, 19, 26):
        cps = compute_checkpoints(period, 4)
        count = len(cps.members)
        parts = period_partition(period, 4, count)
        assert sum(len(p) for p in parts) == period
        assert parts[0][0] == 1
        for left, right in zip(parts, parts[1:]):
            assert right[0] == left[-1] + 1


def test_period_partition_rejects_bad_count():
    with pytest.raises(ValueError):
        period_partition(19, 4, 0)


def test_fast_runtime_bound_frozen():
    assert fast_runtime_bound(3, 7, 4) == 21
    assert fast_runtime_bound(5, 8, 4) == 20
    assert fast_runtime_bound(5, 19, 4) == 23


def test_fast_runtime_bound_range():
    # stays within [4D, 7D] for spacing 4
    for period in range(4, 41):
        for diameter in range(0, 13):
            bound = fast_runtime_bound(diameter, period, 4)
            assert 4 * diameter <= bound <= 7 * diameter or diameter == 0
            if period % 4 == 0:
                assert bound == 4 * diameter


def test_sync_round_budget_frozen():
    assert sync_round_budget(4, 12, 5) == 22
    assert sync_round_budget(1, 10, 5) == 5
    assert sync_round_budget(3, 10, 5) == 15


def test_sync_round_budget_formula():
    for nodes in range(1, 12):
        for period in range(5, 25):
            got = sync_round_budget(nodes, period, 5)
            steps = nodes - 1
            expected = 5 * steps + (steps // (period // 5)) * (period % 5) + 5
            assert got == expected


def test_checkpoint_set_contains():
    cps = compute_checkpoints(19, 4)
    assert 8 in cps
    assert 5 not in cps
    assert isinstance(cps, CheckpointSet)
