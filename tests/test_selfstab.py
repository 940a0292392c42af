import pytest

from beepsync.checkpoints import compute_checkpoints, sync_round_budget
from beepsync.selfstab import (
    StabNodeConfig,
    StabState,
    consistency_check,
    format_configs,
    legitimate_configs,
    load_configs,
    max_round_counter,
    parse_configs,
    random_configs,
    save_configs,
    stab_step,
    validate_config,
    will_beep_stab,
)
from test_fsm import whole_domain_mismatches

CP12 = compute_checkpoints(12, 5)
CP10 = compute_checkpoints(10, 5)
SILENT = False
HEARD = True


def cfg(clock, state, induced=False, r=0, b=0):
    return StabNodeConfig(clock, state, induced, r, b)


def test_will_beep_stab():
    assert will_beep_stab(cfg(0, StabState.PULSE, r=1))
    assert will_beep_stab(cfg(5, StabState.BEEP))
    assert not will_beep_stab(cfg(0, StabState.LOCK, r=3))
    assert not will_beep_stab(cfg(3, StabState.LISTEN))
    assert not will_beep_stab(cfg(0, StabState.INACTIVE))


def test_max_round_counter():
    assert max_round_counter(3, 15) == 16
    assert max_round_counter(10, 20) == 40


def test_consistency_check_resets_bad_beep():
    got = consistency_check(cfg(7, StabState.BEEP, r=9, b=2), CP12)
    assert got.state is StabState.PULSE
    assert got.round_counter == 0
    assert got.beep_count == 2
    assert got.clock == 7


def test_consistency_check_resets_listen_at_zero():
    got = consistency_check(cfg(0, StabState.LISTEN, r=4), CP12)
    assert got.state is StabState.PULSE
    assert got.round_counter == 0


def test_consistency_check_accepts_valid_fast_states():
    assert consistency_check(cfg(5, StabState.BEEP), CP12) == cfg(5, StabState.BEEP)
    assert consistency_check(cfg(6, StabState.BEEP), CP12) == cfg(6, StabState.BEEP)
    assert consistency_check(cfg(3, StabState.LISTEN), CP12) == cfg(3, StabState.LISTEN)


def test_consistency_check_ignores_non_fast_states():
    for state in (StabState.PULSE, StabState.LOCK, StabState.INACTIVE):
        c = cfg(7, state, r=5, b=1)
        assert consistency_check(c, CP12) == c


def test_pulse_runs_four_rounds_then_locks():
    c = cfg(4, StabState.PULSE, r=3)
    assert will_beep_stab(c)
    got = stab_step(c, SILENT, CP10, 3, 15)
    assert got.state is StabState.LOCK
    assert got.round_counter == 0


def test_pulse_keeps_beeping_before_round_four():
    got = stab_step(cfg(4, StabState.PULSE, r=1), HEARD, CP10, 3, 15)
    assert got.state is StabState.PULSE
    assert got.round_counter == 2


def test_lock_releases_after_four_n_rounds():
    node_bound = 3
    got = stab_step(cfg(2, StabState.LOCK, r=4 * node_bound - 1), SILENT, CP10, node_bound, 15)
    assert got.state is StabState.INACTIVE
    assert got.round_counter == 0
    held = stab_step(cfg(2, StabState.LOCK, r=5), HEARD, CP10, node_bound, 15)
    assert held.state is StabState.LOCK
    assert held.round_counter == 6


def test_listen_four_heard_beeps_triggers_pulse():
    got = stab_step(cfg(3, StabState.LISTEN, b=3), HEARD, CP10, 3, 15)
    assert got.state is StabState.PULSE
    assert got.round_counter == 0
    assert got.beep_count == 4


def test_listen_round_counter_overflow_triggers_pulse():
    budget = 15
    got = stab_step(cfg(3, StabState.LISTEN, r=budget), HEARD, CP10, 3, budget)
    assert got.state is StabState.PULSE
    assert got.round_counter == 0


def test_listen_heard_at_pre_checkpoint_induces():
    got = stab_step(cfg(4, StabState.LISTEN, b=0, r=2), HEARD, CP10, 3, 15)
    assert got.state is StabState.BEEP
    assert got.clock == 6
    assert got.induced


def test_listen_heard_off_checkpoint_increments():
    got = stab_step(cfg(2, StabState.LISTEN, b=1, r=2), HEARD, CP10, 3, 15)
    assert got == cfg(3, StabState.LISTEN, b=2, r=3)


def test_silent_listen_clears_beep_count():
    got = stab_step(cfg(2, StabState.LISTEN, b=3, r=2), SILENT, CP10, 3, 15)
    assert got == cfg(3, StabState.LISTEN, b=0, r=3)


def test_silent_listen_matures_at_wrap():
    got = stab_step(cfg(9, StabState.LISTEN, b=2), SILENT, CP10, 3, 15)
    assert got.clock == 0
    assert got.state is StabState.BEEP
    assert not got.induced


def test_beep_advances_to_listen_and_counts_own_beep():
    got = stab_step(cfg(5, StabState.BEEP, b=1, r=4), SILENT, CP10, 3, 15)
    assert got == cfg(6, StabState.LISTEN, b=2, r=5)


def test_beep_saturated_count_triggers_pulse():
    got = stab_step(cfg(5, StabState.BEEP, b=3, r=4), SILENT, CP10, 3, 15)
    assert got.state is StabState.PULSE
    assert got.round_counter == 0


def test_inactive_wakes_on_beep():
    got = stab_step(cfg(7, StabState.INACTIVE, r=3), HEARD, CP10, 3, 15)
    assert got == cfg(1, StabState.BEEP, induced=True, r=0, b=1)


def test_inactive_self_activates_at_four_n():
    node_bound = 3
    got = stab_step(cfg(7, StabState.INACTIVE, r=4 * node_bound - 1), SILENT, CP10, node_bound, 15)
    assert got == cfg(1, StabState.BEEP, induced=True, r=0, b=1)
    idle = stab_step(cfg(7, StabState.INACTIVE, r=2), SILENT, CP10, node_bound, 15)
    assert idle.state is StabState.INACTIVE
    assert idle.round_counter == 3


def test_round_counter_saturates():
    saturation = max_round_counter(3, 15)
    got = stab_step(cfg(2, StabState.LISTEN, r=saturation), HEARD, CP10, 3, 15)
    # a heard listener past the budget pulses instead of counting further
    assert got.state is StabState.PULSE
    assert got.round_counter == 0
    held = stab_step(cfg(2, StabState.LISTEN, r=saturation), SILENT, CP10, 3, 15)
    assert held.round_counter == saturation


def test_validate_config_domains():
    budget = sync_round_budget(3, 10, 5)
    validate_config(cfg(9, StabState.LISTEN, r=1, b=4), 10, 3, budget)
    with pytest.raises(ValueError):
        validate_config(cfg(10, StabState.LISTEN), 10, 3, budget)
    with pytest.raises(ValueError):
        validate_config(cfg(0, StabState.LISTEN, b=5), 10, 3, budget)
    with pytest.raises(ValueError):
        validate_config(cfg(0, StabState.LISTEN, r=max_round_counter(3, budget) + 1), 10, 3, budget)
    with pytest.raises(ValueError, match="bad state 'listen'"):
        validate_config(StabNodeConfig(0, "listen", False, 0, 0), 10, 3, budget)


def test_random_configs_deterministic_and_in_domain():
    budget = sync_round_budget(8, 10, 5)
    a = random_configs(8, 10, 8, budget, seed=5)
    b = random_configs(8, 10, 8, budget, seed=5)
    assert a == b
    assert a != random_configs(8, 10, 8, budget, seed=6)
    for seed in range(30):
        for c in random_configs(6, 10, 6, budget, seed=seed):
            validate_config(c, 10, 8, budget)


def test_legitimate_configs():
    configs = legitimate_configs(4, 10, clock=3)
    assert len(configs) == 4
    assert all(c == cfg(3, StabState.LISTEN) for c in configs)
    with pytest.raises(ValueError):
        legitimate_configs(4, 10, clock=0)


def test_format_parse_round_trip():
    budget = sync_round_budget(5, 12, 5)
    configs = random_configs(5, 12, 5, budget, seed=9)
    assert parse_configs(format_configs(configs)) == configs


def test_parse_configs_rejects_malformed():
    with pytest.raises(ValueError):
        parse_configs("")
    with pytest.raises(ValueError):
        parse_configs("1 listen 0\n")
    with pytest.raises(ValueError):
        parse_configs("1 listen maybe 0 0\n")
    with pytest.raises(ValueError):
        parse_configs("1 humming 0 0 0\n")


def test_save_and_load_configs(tmp_path):
    configs = legitimate_configs(3, 10)
    path = tmp_path / "init.txt"
    save_configs(configs, str(path))
    assert load_configs(str(path)) == configs



@pytest.mark.parametrize("period", range(4, 13))
def test_stab_step_matches_reference_on_whole_domain(period):
    # every (config, input) pair for every valid spacing and N in {1, 2, 3, 5}
    assert whole_domain_mismatches(period)[0] is None
