import math

import pytest

from beepsync.checkpoints import compute_checkpoints
from beepsync.fast_protocol import (
    ACTIVATION_CONFIG,
    INACTIVE_CONFIG,
    BeepClass,
    FastNodeConfig,
    NodeState,
    classify_beep,
    config_bit_width,
    decode_config,
    encode_config,
    step,
    will_beep,
)
from beepsync.fsm import advance, extract_fast_automaton
from beepsync.topology import generate

CP19 = compute_checkpoints(19, 4)
CP12 = compute_checkpoints(12, 4)
SILENT = False
HEARD = True


def cfg(clock, state, induced):
    return FastNodeConfig(clock=clock, state=state, induced=induced)


def test_will_beep():
    assert will_beep(cfg(1, NodeState.BEEP, True))
    assert not will_beep(cfg(2, NodeState.LISTEN, True))
    assert not will_beep(cfg(0, NodeState.INACTIVE, False))


def test_activation_by_adversary():
    # a wake reaches a node in state 0 as a heard beep, with no neighbour beeping
    table = extract_fast_automaton(19)
    masks, heard = advance(table, {0: 0b1}, generate("line", 1).neighborhood, woken=0b1)
    assert heard == 0
    assert masks == {table.beep_next[0]: 0b1}
    assert table.labels[table.beep_next[0]] == ACTIVATION_CONFIG
    assert ACTIVATION_CONFIG == cfg(1, NodeState.BEEP, True)


def test_activation_by_heard_beep():
    assert step(INACTIVE_CONFIG, HEARD, CP19) == ACTIVATION_CONFIG


def test_inactive_stays_inactive_in_silence():
    assert step(INACTIVE_CONFIG, SILENT, CP19) == INACTIVE_CONFIG


def test_beep_state_advances_to_listen():
    assert step(cfg(1, NodeState.BEEP, True), SILENT, CP19) == cfg(2, NodeState.LISTEN, True)
    # the induced flag survives the beep round untouched
    assert step(cfg(5, NodeState.BEEP, False), HEARD, CP19) == cfg(6, NodeState.LISTEN, False)


def test_induced_jump_right_before_checkpoint():
    got = step(cfg(3, NodeState.LISTEN, True), HEARD, CP19)
    assert got == cfg(5, NodeState.BEEP, True)


def test_heard_beep_off_checkpoint_is_plain_increment():
    got = step(cfg(5, NodeState.LISTEN, True), HEARD, CP19)
    assert got == cfg(6, NodeState.LISTEN, True)
    got = step(cfg(9, NodeState.LISTEN, False), HEARD, CP19)
    assert got == cfg(10, NodeState.LISTEN, False)


def test_mature_beep_at_checkpoint_clears_flag():
    got = step(cfg(3, NodeState.LISTEN, True), SILENT, CP19)
    assert got == cfg(4, NodeState.BEEP, False)


def test_mature_beep_at_clock_zero():
    for period in (7, 12, 19):
        cps = compute_checkpoints(period, 4)
        got = step(cfg(period - 1, NodeState.LISTEN, False), SILENT, cps)
        assert got == cfg(0, NodeState.BEEP, False)


def test_silent_listen_off_checkpoint_keeps_listening():
    got = step(cfg(5, NodeState.LISTEN, False), SILENT, CP19)
    assert got == cfg(6, NodeState.LISTEN, False)
    # flag set but landing clock not a checkpoint
    got = step(cfg(5, NodeState.LISTEN, True), SILENT, CP19)
    assert got == cfg(6, NodeState.LISTEN, True)


def test_step_total_and_deterministic():
    for period in (7, 12, 19, 32):
        cps = compute_checkpoints(period, 4)
        for clock in range(period):
            for state in NodeState:
                for induced in (False, True):
                    for heard in (False, True):
                        c = cfg(clock, state, induced)
                        first = step(c, heard, cps)
                        assert 0 <= first.clock < period
                        assert step(c, heard, cps) == first


def test_encode_rejects_out_of_range_clock():
    with pytest.raises(ValueError):
        encode_config(cfg(7, NodeState.LISTEN, False), 7)
    with pytest.raises(ValueError):
        encode_config(cfg(-1, NodeState.LISTEN, False), 7)


def test_decode_rejects_bad_state_code():
    # state code 3 maps to nothing
    with pytest.raises(ValueError):
        decode_config(3 << 3, 7)


def test_classify_beep_frozen():
    assert classify_beep(cfg(4, NodeState.BEEP, True), CP19) is BeepClass.MATURE
    assert classify_beep(cfg(5, NodeState.BEEP, True), CP19) is BeepClass.INDUCED
    got = classify_beep(cfg(1, NodeState.BEEP, True), CP19, just_activated=True)
    assert got is BeepClass.ACTIVATION


def test_classify_beep_rejects_non_beeping():
    with pytest.raises(ValueError):
        classify_beep(cfg(4, NodeState.LISTEN, False), CP19)


def test_reachable_beep_clocks_sit_next_to_checkpoints():
    # beeping states only occur at a checkpoint, right after one, or at
    # the activation clock 1
    for period in (7, 12, 19):
        cps = compute_checkpoints(period, 4)
        for c in extract_fast_automaton(period).labels:
            if c.state is NodeState.BEEP:
                assert c.clock in cps or cps.is_post_checkpoint(c.clock) or c.clock == 1


def test_reachable_configs_closed_under_step():
    # an adversary wake is a heard beep to an inactive node, so the two
    # inputs reach every config a run can
    cps = CP12
    reach = set(extract_fast_automaton(12).labels)
    for c in reach:
        for heard in (SILENT, HEARD):
            assert step(c, heard, cps) in reach


def test_encode_decode_round_trip():
    for period in (4, 7, 19, 33):
        seen = set()
        for c in extract_fast_automaton(period).labels:
            code = encode_config(c, period)
            assert code not in seen
            seen.add(code)
            assert decode_config(code, period) == c


def test_config_bit_width_value():
    for period in range(4, 65):
        assert config_bit_width(period) == math.ceil(math.log2(period)) + 3
