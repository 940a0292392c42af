import functools
from dataclasses import fields

import pytest

from beepsync.checkpoints import CheckpointSet, compute_checkpoints, sync_round_budget
from beepsync.engine import run_selfstab
from beepsync import fsm
from beepsync.fsm import (
    MAX_STAB_CONFIGS,
    Case,
    NotConstructible,
    ProtocolAutomaton,
    build_stab_table,
    certify_no_sync,
    classify,
    extract_fast_automaton,
    extract_selfstab_automaton,
    find_beep_cycle,
    find_silence_cycle,
    format_automaton,
    load_automaton,
    parse_automaton,
    repair_and_step,
    runtime_lower_bound_demo,
    save_automaton,
)
from beepsync.selfstab import (
    StabNodeConfig,
    StabState,
    consistency_check,
    counter_threshold,
    max_round_counter,
    random_configs,
    stab_step,
    will_beep_stab,
)
from beepsync.topology import generate


def swap_automaton():
    return ProtocolAutomaton(
        beep_next=(1, 0), silence_next=(0, 1), beeps=(True, False)
    )


def conforming_pulser(period):
    # silent nodes walk 0..period-1 cyclically and beep at 0; hearing a beep
    # parks the walker on a non-beeping self-loop
    k = period
    silence_next = tuple((i + 1) % k for i in range(k))
    beep_next = (1,) + tuple(range(1, k))
    beeps = (True,) + (False,) * (k - 1)
    return ProtocolAutomaton(
        beep_next=beep_next,
        silence_next=silence_next,
        beeps=beeps,
        clock_of=tuple(range(k)),
    )


def test_automaton_validation():
    with pytest.raises(ValueError):
        ProtocolAutomaton(beep_next=(), silence_next=(), beeps=())
    with pytest.raises(ValueError):
        ProtocolAutomaton(beep_next=(0,), silence_next=(0, 0), beeps=(False,))
    with pytest.raises(ValueError):
        ProtocolAutomaton(beep_next=(2,), silence_next=(0,), beeps=(False,))
    with pytest.raises(ValueError):
        ProtocolAutomaton(
            beep_next=(0,), silence_next=(0,), beeps=(False,), clock_of=(0, 1)
        )
    with pytest.raises(ValueError):
        ProtocolAutomaton(
            beep_next=(0,), silence_next=(0,), beeps=(False,), labels=("a", "b")
        )


def test_beep_cycle_two_state_swap():
    assert find_beep_cycle(swap_automaton()) == (0, 1, 0)


def test_beep_cycle_self_loop():
    auto = ProtocolAutomaton(beep_next=(0,), silence_next=(0,), beeps=(True,))
    assert find_beep_cycle(auto) == (0, 0)


def test_cycle_steps_follow_transitions():
    for auto in (swap_automaton(), extract_fast_automaton(4), conforming_pulser(6)):
        for heard, cycle in (
            (True, find_beep_cycle(auto)),
            (False, find_silence_cycle(auto)),
        ):
            assert cycle[0] == cycle[-1]
            for i in range(len(cycle) - 1):
                next_state = auto.beep_next if heard else auto.silence_next
                assert next_state[cycle[i]] == cycle[i + 1]


def test_fast_automaton_has_eight_states_for_period_four():
    auto = extract_fast_automaton(4)
    assert auto.state_count == 8
    cycle = find_beep_cycle(auto)
    assert len(cycle) - 1 == 3
    assert any(auto.beeps[s] for s in cycle[:-1])


def test_fast_automaton_classifies_as_beeping_clique():
    auto = extract_fast_automaton(4)
    report = classify(auto, 4)
    assert report.case is Case.B
    topo, initial = report.counterexample
    assert topo.node_count == 3
    assert len(topo.edges) == 3
    assert initial == (1, 2, 3)
    assert certify_no_sync(auto, report.counterexample, 4)


def test_never_beeping_automaton_is_case_a1():
    auto = ProtocolAutomaton(beep_next=(0,), silence_next=(0,), beeps=(False,))
    report = classify(auto, 4)
    assert report.case is Case.A1
    topo, initial = report.counterexample
    assert topo.node_count == 1
    assert initial == (0,)
    assert certify_no_sync(auto, report.counterexample, 4)


def test_wrong_period_pulser_is_case_a1():
    # pulses every 6 rounds, asked about period 8: lone node is the witness
    report = classify(conforming_pulser(6), 8)
    assert report.case is Case.A1
    assert report.counterexample[0].node_count == 1


def test_conforming_pulser_builds_a_star():
    period = 6
    auto = conforming_pulser(period)
    report = classify(auto, period)
    assert report.case is Case.A2
    topo, initial = report.counterexample
    assert topo.node_count == period + 1
    assert topo.diameter == 2
    assert sorted(initial[1:]) == list(range(period))
    assert certify_no_sync(auto, report.counterexample, period)


def test_beeping_cycle_of_five_builds_a_clique():
    auto = ProtocolAutomaton(
        beep_next=(1, 2, 3, 4, 0),
        silence_next=(1, 2, 3, 4, 0),
        beeps=(True, False, False, False, False),
        clock_of=(0, 1, 2, 3, 4),
    )
    report = classify(auto, 5)
    assert report.case is Case.B
    topo, initial = report.counterexample
    assert topo.node_count == 5
    assert len(topo.edges) == 10
    assert sorted(initial) == [0, 1, 2, 3, 4]
    assert certify_no_sync(auto, report.counterexample, 5)


def test_counterexample_size_within_stated_bound():
    # construction size never exceeds max{1, T+1, beep-cycle length}
    for period in (4, 7, 8):
        auto = extract_fast_automaton(period)
        report = classify(auto, period)
        limit = max(1, period + 1, len(find_beep_cycle(auto)) - 1)
        assert report.counterexample[0].node_count <= limit


def test_classify_respects_node_budget(monkeypatch):
    auto = ProtocolAutomaton(
        beep_next=(1, 2, 3, 4, 0),
        silence_next=(1, 2, 3, 4, 0),
        beeps=(True, False, False, False, False),
    )
    monkeypatch.setattr(fsm, "MAX_COUNTEREXAMPLE_NODES", 3)
    with pytest.raises(NotConstructible, match="clique of 5 nodes exceeds the 3-node limit"):
        classify(auto, 5)
    monkeypatch.setattr(fsm, "MAX_COUNTEREXAMPLE_NODES", 4)
    with pytest.raises(NotConstructible, match="star of 7 nodes exceeds the 4-node limit"):
        classify(conforming_pulser(6), 6)
    # the cap itself is admitted
    monkeypatch.setattr(fsm, "MAX_COUNTEREXAMPLE_NODES", 5)
    assert classify(auto, 5).counterexample[0].node_count == 5


def test_star_case_needs_clock_labels():
    base = conforming_pulser(6)
    unlabeled = ProtocolAutomaton(
        beep_next=base.beep_next, silence_next=base.silence_next, beeps=base.beeps
    )
    with pytest.raises(NotConstructible):
        classify(unlabeled, 6)
    # the only beeping state on the silence cycle sits at clock 1
    shifted = ProtocolAutomaton(
        beep_next=base.beep_next, silence_next=base.silence_next, beeps=base.beeps,
        clock_of=tuple((c + 1) % 6 for c in base.clock_of),
    )
    with pytest.raises(NotConstructible, match="no beeping state at clock 0"):
        classify(shifted, 6)


def test_classify_rejects_bad_period():
    with pytest.raises(ValueError):
        classify(swap_automaton(), 0)


@pytest.mark.parametrize("period", [0, -3])
def test_certify_rejects_bad_period(period):
    # a lone beeping self-loop: certification used to divide by the period
    loop = ProtocolAutomaton(beep_next=(0,), silence_next=(0,), beeps=(True,))
    message = f"period must be positive, got {period}"
    with pytest.raises(ValueError, match=message):
        certify_no_sync(loop, (generate("line", 1), (0,)), period)


def test_certify_sees_through_synchronized_start():
    # identical conforming neighbors pulse in unison: not a counterexample
    auto = conforming_pulser(6)
    pair = (generate("clique", 2), (0, 0))
    assert not certify_no_sync(auto, pair, 6)


def test_certify_validates_inputs(monkeypatch):
    auto = swap_automaton()
    with pytest.raises(ValueError):
        certify_no_sync(auto, (generate("clique", 3), (0, 1)), 4)
    with pytest.raises(ValueError):
        certify_no_sync(auto, (generate("clique", 2), (0, 5)), 4)
    monkeypatch.setattr(fsm, "MAX_COUNTEREXAMPLE_NODES", 3)
    with pytest.raises(ValueError, match="5 nodes exceed the 3-node limit"):
        certify_no_sync(auto, (generate("clique", 5), (0,) * 5), 4)


def test_lower_bound_demo_needs_a_beeping_silence_cycle():
    silent = ProtocolAutomaton(beep_next=(0,), silence_next=(0,), beeps=(False,))
    with pytest.raises(NotConstructible):
        runtime_lower_bound_demo(silent)


def test_lower_bound_demo_on_toy_pulser():
    # walker at 0 beeps, parks its one-step-behind neighbor on state 1, then
    # steps onto state 1 itself: merged after a single round
    assert runtime_lower_bound_demo(conforming_pulser(6)) == 1


def test_selfstab_two_node_demo_beats_the_period():
    pinned = {5: 33, 6: 34, 8: 36}
    for period, expected in pinned.items():
        auto = extract_selfstab_automaton(period, 5, 2)
        got = runtime_lower_bound_demo(auto)
        assert got >= period
        # regression pin from this implementation
        assert got == expected


def test_selfstab_extraction_refuses_a_domain_over_the_cap():
    # 50 * T * (max_round_counter + 1) configs: 33,600 at T=16, q=4, N=10,
    # over two million at T=32, N=320
    assert 50 * 16 * (max_round_counter(10, sync_round_budget(10, 16, 4)) + 1) == 33_600
    assert extract_selfstab_automaton(16, 4, 10).state_count == 5365
    with pytest.raises(ValueError, match="limit"):
        extract_selfstab_automaton(32, 4, 320)
    # the largest node bound under the cap at T=16, q=4
    assert 50 * 16 * (max_round_counter(327, sync_round_budget(327, 16, 4)) + 1) <= MAX_STAB_CONFIGS
    with pytest.raises(ValueError, match="limit"):
        extract_selfstab_automaton(16, 4, 328)


@pytest.mark.parametrize("node_bound", [2, 4, 8, 16])
@pytest.mark.parametrize("period", [5, 8, 12, 16])
def test_extracted_selfstab_automaton_yields_counterexample(period, node_bound):
    # the paper's lower bound: a protocol told node bound N fails on a clique
    # of 4N + 8 nodes, more than N, so the usual convergence guarantee does
    # not apply and the construction genuinely never syncs
    auto = extract_selfstab_automaton(period, 5, node_bound)
    report = classify(auto, period)
    assert report.case is Case.B
    nodes = report.counterexample[0].node_count
    assert nodes == 4 * node_bound + 8 > node_bound
    assert certify_no_sync(auto, report.counterexample, period)


def test_fast_automaton_tracks_clocks():
    auto = extract_fast_automaton(7)
    assert auto.clock_of is not None
    assert auto.labels is not None
    assert auto.clock_of[0] == 0
    assert all(0 <= c < 7 for c in auto.clock_of)
    # state 0 is inactive: silence keeps it put, a beep activates it
    assert auto.silence_next[0] == 0
    assert auto.beep_next[0] != 0


def test_format_parse_round_trip():
    for auto in (extract_fast_automaton(4), conforming_pulser(5), swap_automaton()):
        parsed = parse_automaton(format_automaton(auto))
        assert parsed.beep_next == auto.beep_next
        assert parsed.silence_next == auto.silence_next
        assert parsed.beeps == auto.beeps
        assert parsed.clock_of == auto.clock_of


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_automaton("2\n0 1 0 1\n")
    with pytest.raises(ValueError):
        parse_automaton("states 2\n0 1 0\n1 0 0\n")
    with pytest.raises(ValueError):
        parse_automaton("states 2\n0 1 0 1 3\n1 0 0 0\n")
    with pytest.raises(ValueError):
        parse_automaton("states 2\n0 1 0 1\n0 0 0 0\n")
    with pytest.raises(ValueError, match="expected 2 state lines, got 1"):
        parse_automaton("states 2\n0 1 0 1\n")
    with pytest.raises(ValueError, match="beep flag must be 0 or 1"):
        parse_automaton("states 1\n0 0 0 2\n")


def test_parse_skips_comments_and_blank_lines():
    text = "# two-state swap\nstates 2\n\n0 1 0 1\n1 0 1 0\n"
    parsed = parse_automaton(text)
    assert parsed.beep_next == (1, 0)
    assert parsed.beeps == (True, False)


def test_save_and_load(tmp_path):
    auto = extract_fast_automaton(4)
    path = tmp_path / "auto.txt"
    save_automaton(auto, str(path))
    loaded = load_automaton(str(path))
    assert loaded.beep_next == auto.beep_next
    assert loaded.silence_next == auto.silence_next
    assert loaded.beeps == auto.beeps
    assert loaded.clock_of == auto.clock_of


def table_stepper(table, node_bound, budget):
    """One round of a node on the counter-free table, as the engine runs it.

    The id holds whether the counter has reached its state's threshold. A
    restarting step gives the new counter; otherwise the counter counts on
    and saturates, and the calendar moves the node to its passed id in the
    round the counter reaches the threshold. ``step(s, r, heard)`` steps
    unpassed id ``s`` with counter ``r`` and returns the repaired config's
    beep and pulse flags and the next config decoded from id and counter.
    """
    offset = table.passed_offset
    # the threshold of each id's state
    threshold = [counter_threshold(state, node_bound, budget) for state in table.state]
    saturation = max_round_counter(node_bound, budget)

    def step(s, r, heard):
        if r >= threshold[s]:
            s += offset
        nxt = table.beep_next[s] if heard else table.silence_next[s]
        restart = table.loud_restart[s] if heard else table.quiet_restart[s]
        counter = restart if restart >= 0 else min(r + 1, saturation)
        if nxt < offset and counter == threshold[nxt]:
            nxt += offset
        assert (nxt >= offset) == (counter >= threshold[nxt]), (s, r, heard)
        config = StabNodeConfig(
            table.clock[nxt], table.state[nxt], table.induced[nxt], counter,
            table.beep_count[nxt],
        )
        return table.beeps[s], table.pulses[s], config

    assert len(threshold) == 2 * offset
    return step


def _reference_stab_step(
    config: StabNodeConfig,
    heard: bool,
    checkpoints: CheckpointSet,
    node_bound: int,
    budget: int,
) -> StabNodeConfig:
    """The transition with its own beep and listen branches, before they
    were folded into ``fast_protocol.step``."""
    period = checkpoints.period
    saturation = max_round_counter(node_bound, budget)
    rounds = config.round_counter
    if rounds < saturation:
        rounds += 1
    state = config.state

    if state is StabState.INACTIVE:
        if heard or rounds >= 4 * node_bound:
            return StabNodeConfig(1, StabState.BEEP, True, 0, 1)
        return StabNodeConfig(config.clock, state, config.induced, rounds, config.beep_count)

    if state is StabState.BEEP:
        beeps = min(config.beep_count + 1, 4)
        if beeps >= 4:
            return StabNodeConfig(config.clock, StabState.PULSE, config.induced, 0, beeps)
        return StabNodeConfig(
            (config.clock + 1) % period, StabState.LISTEN, config.induced, rounds, beeps
        )

    if state is StabState.LISTEN:
        if heard:
            beeps = min(config.beep_count + 1, 4)
            if beeps >= 4 or rounds > budget:
                return StabNodeConfig(config.clock, StabState.PULSE, config.induced, 0, beeps)
            if checkpoints.is_pre_checkpoint(config.clock):
                return StabNodeConfig(
                    (config.clock + 2) % period, StabState.BEEP, True, rounds, beeps
                )
            return StabNodeConfig(
                (config.clock + 1) % period, StabState.LISTEN, config.induced, rounds, beeps
            )
        clock = (config.clock + 1) % period
        if (config.induced and clock in checkpoints) or clock == 0:
            return StabNodeConfig(clock, StabState.BEEP, False, rounds, 0)
        return StabNodeConfig(clock, StabState.LISTEN, config.induced, rounds, 0)

    if state is StabState.PULSE:
        if rounds >= 4:
            return StabNodeConfig(config.clock, StabState.LOCK, config.induced, 0, config.beep_count)
        return StabNodeConfig(config.clock, state, config.induced, rounds, config.beep_count)

    # lock
    if rounds >= 4 * node_bound:
        return StabNodeConfig(config.clock, StabState.INACTIVE, config.induced, 0, config.beep_count)
    return StabNodeConfig(config.clock, state, config.induced, rounds, config.beep_count)


@functools.lru_cache(maxsize=None)
def whole_domain_mismatches(period):
    """Walk every in-domain config and input at ``period``, for every valid
    spacing and N in {1, 2, 3, 5}, once.

    Returns the first (spacing, N, config) where ``stab_step`` differs from
    ``_reference_stab_step``, and the first where the counter-free id plus
    the counter rule does not decode to the config ``repair_and_step``
    gives; each is None when there is none. test_selfstab asserts the
    first and the table test below the second, so the two share one walk.
    A config the repair leaves as it is steps only once.
    """
    step_mismatch = table_mismatch = None
    for spacing in (4, *range(5, period + 1)):
        table = build_stab_table(period, spacing)
        cps = compute_checkpoints(period, spacing)
        for node_bound in (1, 2, 3, 5):
            budget = sync_round_budget(node_bound, period, spacing)
            step = table_stepper(table, node_bound, budget)
            counters = range(max_round_counter(node_bound, budget) + 1)
            for state in StabState:
                for clock in range(period):
                    for induced in (False, True):
                        for b in range(5):
                            s = table.code(StabNodeConfig(clock, state, induced, 0, b), False)
                            for r in counters:
                                config = StabNodeConfig(clock, state, induced, r, b)
                                args = (cps, node_bound, budget)
                                quiet = stab_step(config, False, *args)
                                loud = stab_step(config, True, *args)
                                if step_mismatch is None and (
                                    quiet != _reference_stab_step(config, False, *args)
                                    or loud != _reference_stab_step(config, True, *args)
                                ):
                                    step_mismatch = (spacing, node_bound, config)
                                checked = consistency_check(config, cps)
                                if checked != config:
                                    checked, quiet, loud = repair_and_step(config, *args)
                                flags = (will_beep_stab(checked), checked.state is StabState.PULSE)
                                if table_mismatch is None and (
                                    step(s, r, False) != (*flags, quiet)
                                    or step(s, r, True) != (*flags, loud)
                                ):
                                    table_mismatch = (spacing, node_bound, config)
    return step_mismatch, table_mismatch


@pytest.mark.parametrize("period", range(4, 13))
def test_stab_table_matches_repair_and_step_on_whole_domain(period):
    assert whole_domain_mismatches(period)[1] is None


@pytest.mark.parametrize("period, spacing", [(4, 4), (5, 5), (12, 5), (16, 4), (16, 16)])
def test_stab_table_entries_are_valid_ids(period, spacing):
    table = build_stab_table(period, spacing)
    ids = range(100 * period)
    assert table.passed_offset * 2 == len(ids)
    for column in fields(table)[1:]:
        assert len(getattr(table, column.name)) == len(ids), column.name
    assert set(table.beep_next) <= set(ids) and set(table.silence_next) <= set(ids)
    assert set(table.quiet_restart) | set(table.loud_restart) <= {-1, 0, 1}
    for s in ids:
        config = StabNodeConfig(
            table.clock[s], table.state[s], table.induced[s], 0, table.beep_count[s]
        )
        # the columns decode every id back to itself
        assert table.code(config, s >= table.passed_offset) == s
        assert table.restarts[s] == (table.quiet_restart[s] >= 0 or table.loud_restart[s] >= 0)


def test_stab_table_is_built_once_per_period_and_spacing():
    build_stab_table.cache_clear()
    topo = generate("ring", 4)
    for node_bound in (4, 7, 40):
        budget = sync_round_budget(node_bound, 10, 5)
        initial = random_configs(4, 10, node_bound, budget, seed=node_bound)
        run_selfstab(topo, initial, 10, 5, node_bound=node_bound, horizon=50)
    table = build_stab_table(10, 5)
    assert build_stab_table(10, 5) is table
    info = build_stab_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_stab_table_counter_traps():
    table = build_stab_table(12, 5)
    node_bound = 3
    budget = sync_round_budget(node_bound, 12, 5)
    saturation = max_round_counter(node_bound, budget)
    listen, pulse, lock = StabState.LISTEN, StabState.PULSE, StabState.LOCK

    stepper = table_stepper(table, node_bound, budget)

    def step(config, heard=False):
        s = table.code(config, False)
        return stepper(s, config.round_counter, heard)[2]

    # the repair resets the counter to 0, and the same round's step takes it to 1
    assert step(StabNodeConfig(0, listen, False, 17, 2)) == StabNodeConfig(0, pulse, False, 1, 2)
    # a counter already at a threshold: the step reads it as reached
    assert step(StabNodeConfig(3, pulse, False, 3, 0)) == StabNodeConfig(3, lock, False, 0, 0)
    assert step(StabNodeConfig(3, lock, False, 4 * node_bound - 1, 0)).state is StabState.INACTIVE
    assert step(StabNodeConfig(3, listen, False, budget, 0), heard=True).state is pulse
    assert step(StabNodeConfig(3, listen, False, budget - 1, 0), heard=True).state is listen
    # one below a threshold: the calendar moves the node to its passed id
    assert step(StabNodeConfig(3, lock, False, 4 * node_bound - 3, 0)) == StabNodeConfig(
        3, lock, False, 4 * node_bound - 2, 0
    )
    # the counter saturates
    at_top = StabNodeConfig(3, listen, False, saturation, 0)
    assert step(at_top) == StabNodeConfig(4, listen, False, saturation, 0)
