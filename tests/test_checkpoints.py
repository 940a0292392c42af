import pytest

from beepsync.checkpoints import (
    MAX_PERIOD,
    CheckpointSet,
    compute_checkpoints,
    fast_runtime_bound,
    sync_round_budget,
)


def naive_members(period, spacing):
    return [c for c in range(period) if c % spacing == 0 and period - c > spacing - 1]


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
    with pytest.raises(ValueError, match="diameter must be >= 0, got -1"):
        fast_runtime_bound(-1, 8, 4)
    with pytest.raises(ValueError, match="node_count must be >= 1, got 0"):
        sync_round_budget(0, 8, 4)


def test_pre_and_post_checkpoint_flags():
    cps = compute_checkpoints(12, 4)
    assert [c for c in range(12) if cps.is_pre_checkpoint(c)] == [3, 7, 11]
    assert [c for c in range(12) if cps.is_post_checkpoint(c)] == [1, 5, 9]
    assert [c for c in range(12) if cps.may_beep(c)] == [0, 1, 4, 5, 8, 9]


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
