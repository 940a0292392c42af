import concurrent.futures
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepsync import cli, engine, fsm
from beepsync.checkpoints import compute_checkpoints, sync_round_budget
from beepsync.cli import (
    EXIT_BOUND,
    EXIT_OK,
    EXIT_USAGE,
    MAX_JOBS,
    SWEEP_FIELDS,
    _emit,
    _parse_range,
    build_parser,
    main,
    random_schedule,
    run_fast,
    run_selfstab,
)
from beepsync.engine import ActivationSchedule, write_trace_csv, write_trace_jsonl
from beepsync.selfstab import legitimate_configs, random_configs, save_configs
from beepsync.topology import KINDS, MAX_NODES, generate, save_topology


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


def last_json(text):
    return json.loads(text)


def test_run_fast_line_summary(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "0=0",
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["mode"] == "fast"
    assert summary["nodes"] == 4
    assert summary["diameter"] == 3
    assert summary["sync_round"] == 21
    assert summary["bound"] == 21
    assert summary["bound_satisfied"] is True
    assert summary["invariant_violations"] == 0


def test_run_fast_seeded_schedule(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "ring", "--n", "6",
        "--T", "8", "--seed", "3",
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["bound_satisfied"] is True
    assert summary["sync_round"] <= summary["bound"]


def test_run_fast_trace_out(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _ = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "3",
        "--T", "7", "--wake", "0=0", "--out", str(out),
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("round,node,")


def _fast_line_trace():
    return run_fast(generate("line", 4), ActivationSchedule({0: 0}), 7)[1]


def _selfstab_clique_trace():
    initial = random_configs(3, 10, 3, sync_round_budget(3, 10, 5), 1)
    return run_selfstab(generate("clique", 3), initial, 10, spacing=5)[1]


FAST_LINE = ("run-fast", "--topology", "line", "--n", "4", "--T", "7", "--wake", "0=0")
SELFSTAB_CLIQUE = ("run-selfstab", "--topology", "clique", "--n", "3", "--T", "10", "--seed", "1")


@pytest.mark.parametrize(
    "argv, library_trace, write",
    [
        ((*FAST_LINE, "--format", "jsonl"), _fast_line_trace, write_trace_jsonl),
        (SELFSTAB_CLIQUE, _selfstab_clique_trace, write_trace_csv),
        ((*SELFSTAB_CLIQUE, "--format", "jsonl"), _selfstab_clique_trace, write_trace_jsonl),
    ],
    ids=["run-fast-jsonl", "run-selfstab-csv", "run-selfstab-jsonl"],
)
def test_trace_out_is_the_library_export(tmp_path, capsys, argv, library_trace, write):
    out, expected = tmp_path / "cli.out", tmp_path / "library.out"
    code, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_OK
    write(library_trace(), str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_run_fast_failed_closure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(engine, "check_closure", lambda *args: False)
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "0=0",
    )
    assert code == 3
    summary = last_json(captured.out)
    assert summary["closure_verified"] is False
    assert summary["bound_satisfied"] is True
    assert summary["invariant_violations"] == 0


def test_run_fast_horizon_too_short_is_bound_breach(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "0=0", "--horizon", "5",
    )
    assert code == 4
    summary = last_json(captured.out)
    assert summary["sync_round"] is None
    assert summary["bound_satisfied"] is False


def test_run_fast_needs_wake_or_seed(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4", "--T", "7"
    )
    assert code == 2
    assert "error:" in captured.err


def test_run_fast_rejects_bad_wake(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "9=0",
    )
    assert code == 2
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "0",
    )
    assert code == 2


def test_unknown_topology_is_usage_error(capsys):
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "moebius", "--n", "4",
        "--T", "7", "--wake", "0=0",
    )
    assert code == 2
    assert "unknown topology" in captured.err


def test_generated_topology_needs_n(capsys):
    code, captured = run_cli(capsys, "run-fast", "--topology", "ring", "--T", "7", "--wake", "0=0")
    assert code == 2
    assert "--n is required for generated topologies" in captured.err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-fast", "--topology", "line", "--n", "4", "--wake", "0=0"])
    assert exc.value.code == 2


def test_topology_from_file(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    save_topology(generate("line", 4), str(path))
    code, captured = run_cli(
        capsys, "run-fast", "--topology", f"file:{path}",
        "--T", "7", "--wake", "0=0",
    )
    assert code == 0
    assert last_json(captured.out)["sync_round"] == 21


def test_topology_file_with_too_few_edges_is_usage_error(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    path.write_text(f"n {MAX_NODES}\n", encoding="utf-8")
    code, captured = run_cli(
        capsys, "run-fast", "--topology", f"file:{path}", "--T", "7", "--wake", "0=0",
    )
    assert code == 2
    assert "not connected" in captured.err


def test_topology_file_over_node_limit_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "advance", _no_round)
    n = MAX_NODES + 1
    path = tmp_path / "ring.txt"
    path.write_text(
        f"n {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n)), encoding="utf-8"
    )
    code, captured = run_cli(
        capsys, "run-fast", "--topology", f"file:{path}", "--T", "7", "--wake", "0=0",
    )
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {n} nodes exceed the {MAX_NODES}-node limit"
    ]


@pytest.mark.parametrize(
    "kind, size, limit",
    [("line", "300000000", "node limit"), ("clique", "100000", "node limit"),
     ("clique", "2000", "edges")],
)
def test_oversized_topology_is_usage_error(capsys, kind, size, limit):
    start = time.perf_counter()
    code, captured = run_cli(
        capsys, "run-fast", "--topology", kind, "--n", size, "--T", "7", "--wake", "0=0"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert limit in captured.err


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was constructed")


def _no_graph(*args, **kwargs):
    raise AssertionError("a counterexample graph was generated")


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("run-fast", "--topology", "line", "--n", "2", "--T", "100000000", "--wake", "0=0"),
         "period 100000000 exceeds"),
        (("analyze-fsm", "--protocol", "fast", "--T", "100000000"), "period 100000000 exceeds"),
        (("sweep", "--kinds", "line", "--n-range", "2:100000000", "--T-range", "4:4",
          "--seeds", "1", "--schedule", "single"), "--n-range reaches 100000000"),
        (("sweep", "--mode", "selfstab", "--kinds", "line", "--n-range", "2:3",
          "--T-range", "5:100000000", "--seeds", "1"), "--T-range reaches 100000000"),
        (("analyze-fsm", "--protocol", "selfstab", "--T", "64", "--N", "4000"),
         "self-stabilizing configs"),
        (("sweep", "--kinds", "line", "--n-range", "2:3", "--T-range", "4:4",
          "--seeds", "100000000", "--schedule", "single"), "sweep of 200000000 rows"),
        (("sweep", "--kinds", "line", "--n-range", "3:3", "--T-range", "4:4",
          "--seeds", "1", "--schedule", "single", "--jobs", "100000"),
         f"--jobs 100000 is over the {MAX_JOBS} limit"),
        (("sweep", "--kinds", "line", "--n-range", "2", "--T-range", "8",
          "--seeds", "1", "--jobs", "0"), "--jobs 0 is below 1"),
        (("sweep", "--kinds", "line", "--n-range", "2", "--T-range", "8",
          "--seeds", "1", "--jobs", "-3"), "--jobs -3 is below 1"),
        (("analyze-fsm", "--protocol", "fast", "--T", "2000"),
         "not constructible: clique of 1500 nodes exceeds the 1024-node limit"),
    ],
    ids=["run-fast-period", "fsm-fast-period", "sweep-n-range", "sweep-T-range",
         "fsm-selfstab-domain", "sweep-rows", "sweep-jobs", "sweep-jobs-zero",
         "sweep-jobs-negative", "fsm-fast-clique"],
)
def test_oversized_period_range_or_automaton_is_usage_error(capsys, monkeypatch, argv, limit):
    # a pool forks all its workers when it starts, so none may be made, and
    # a counterexample is refused before its graph is generated
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(fsm, "generate", _no_graph)
    start = time.perf_counter()
    code, captured = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert limit in line


def _no_round(*args, **kwargs):
    raise AssertionError("a round was simulated")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run-fast", "--topology", "line", "--n", "4", "--T", "7", "--wake", "0=0",
          "--horizon", "-5"), "negative horizon -5"),
        (("run-selfstab", "--topology", "ring", "--n", "3", "--T", "10", "--seed", "1",
          "--horizon", "-3"), "negative horizon -3"),
        (("run-fast", "--topology", "ring", "--n", "4", "--T", "8", "--wake", "0=0",
          "--horizon", "1000000000"), "cells over the 4194304 limit"),
        (("run-selfstab", "--topology", "ring", "--n", "3", "--T", "8", "--seed", "1",
          "--N", "1000000000"), "cells over the 4194304 limit"),
    ],
    ids=["run-fast-negative", "run-selfstab-negative", "run-fast-trace-cells",
         "run-selfstab-trace-cells"],
)
def test_bad_horizon_is_usage_error(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(engine, "advance", _no_round)
    code, captured = run_cli(capsys, *argv)
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_run_selfstab_seeded(capsys):
    code, captured = run_cli(
        capsys, "run-selfstab", "--topology", "clique", "--n", "3",
        "--T", "10", "--seed", "1",
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["mode"] == "selfstab"
    assert summary["legitimate_round"] is not None
    assert summary["invariant_violations"] == 0
    assert summary["budget"] == sync_round_budget(3, 10, 5)


def test_run_selfstab_init_file(tmp_path, capsys):
    budget = sync_round_budget(3, 10, 5)
    configs = random_configs(3, 10, 3, budget, seed=5)
    path = tmp_path / "init.txt"
    save_configs(configs, str(path))
    code, captured = run_cli(
        capsys, "run-selfstab", "--topology", "ring", "--n", "3",
        "--T", "10", "--init-file", str(path),
    )
    assert code == 0
    assert last_json(captured.out)["legitimate_round"] is not None


def test_run_selfstab_short_closure_window_exits_three(tmp_path, capsys):
    path = tmp_path / "init.txt"
    save_configs(legitimate_configs(3, 10), str(path))
    code, captured = run_cli(
        capsys, "run-selfstab", "--topology", "ring", "--n", "3",
        "--T", "10", "--init-file", str(path), "--horizon", "19",
    )
    assert code == 3
    summary = last_json(captured.out)
    assert summary["legitimate_round"] == 0
    assert summary["closure_verified"] is False
    assert summary["invariant_violations"] == 0


def test_run_selfstab_needs_init_or_seed(capsys):
    code, captured = run_cli(
        capsys, "run-selfstab", "--topology", "ring", "--n", "3", "--T", "10"
    )
    assert code == 2


def test_run_slots_staggered_line(capsys):
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "3", "--T", "12",
        "--wake", "0=0", "--wake", "2=0", "--offsets", "0.0,0.5,0.25",
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["mode"] == "slots"
    assert summary["sync_time"] == pytest.approx(9.0)


def test_run_slots_records_csv(tmp_path, capsys):
    out = tmp_path / "slots.csv"
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "2", "--T", "8",
        "--wake", "0=0", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node,slot_index,start_time,end_time,beeped,clock"
    assert len(lines) - 1 == last_json(captured.out)["records"]
    assert {row[4] for row in csv.reader(lines[1:])} == {"True", "False"}


def test_run_slots_requires_wake(capsys):
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "2", "--T", "8"
    )
    assert code == 2


def test_run_slots_has_no_format_flag(capsys):
    # slot records are written as CSV only
    with pytest.raises(SystemExit) as exc:
        main(["run-slots", "--topology", "line", "--n", "2", "--T", "8",
              "--wake", "0=0", "--format", "jsonl"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option",
    [("--slot-duration", "inf"), ("--time-horizon", "inf"), ("--time-horizon", "nan"),
     ("--time-horizon", "-1")],
    ids=["slot-duration-inf", "time-horizon-inf", "time-horizon-nan", "time-horizon-negative"],
)
def test_run_slots_non_finite_time_is_usage_error(capsys, option):
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "2", "--T", "8",
        "--wake", "0=0", *option,
    )
    assert code == 2
    assert ("negative" if option[1] == "-1" else "finite") in captured.err


@pytest.mark.parametrize(
    "options",
    [
        ["--wake", "0=100000000"],
        ["--wake", "0=0", "--time-horizon", "1e12"],
        ["--wake", "0=0", "--slot-duration", "1e-12", "--time-horizon", "1"],
    ],
    ids=["far-wake", "time-horizon-1e12", "slot-duration-1e-12"],
)
def test_run_slots_over_slot_cap_is_usage_error(capsys, options):
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "2", "--T", "8", *options
    )
    assert code == 2
    assert "slots" in captured.err


def test_run_slots_short_horizon_is_bound_breach(capsys):
    code, captured = run_cli(
        capsys, "run-slots", "--topology", "line", "--n", "3", "--T", "12",
        "--wake", "0=0", "--wake", "2=0", "--offsets", "0.0,0.5,0.25",
        "--time-horizon", "4.0",
    )
    assert code == 4
    assert last_json(captured.out)["sync_time"] is None


def test_analyze_fsm_fast(tmp_path, capsys):
    out = tmp_path / "cex.json"
    code, captured = run_cli(
        capsys, "analyze-fsm", "--protocol", "fast", "--T", "4",
        "--out", str(out),
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["states"] == 8
    assert summary["case"] == "B"
    assert summary["counterexample_nodes"] == 3
    assert summary["certified_no_sync"] is True
    artifact = json.loads(out.read_text())
    assert set(artifact) == {"automaton", "topology", "initial_states"}
    assert artifact["initial_states"] == [1, 2, 3]


def test_analyze_fsm_budget_too_small(capsys, monkeypatch):
    monkeypatch.setattr(fsm, "MAX_COUNTEREXAMPLE_NODES", 2)
    code, captured = run_cli(capsys, "analyze-fsm", "--protocol", "fast", "--T", "4")
    assert code == 2
    assert "not constructible" in captured.err


@pytest.mark.parametrize(
    "argv, nodes",
    [(("--protocol", "selfstab", "--T", "5", "--N", "16"), 72),
     (("--protocol", "fast", "--T", "86"), 65)],
    ids=["selfstab-N16", "fast-T86"],
)
def test_analyze_fsm_builds_the_lower_bound_clique(capsys, argv, nodes):
    # a protocol told N = 16 fails on a clique of 4N + 8 nodes
    code, captured = run_cli(capsys, "analyze-fsm", *argv)
    assert code == 0
    summary = last_json(captured.out)
    assert summary["case"] == "B"
    assert summary["counterexample_nodes"] == nodes
    assert summary["certified_no_sync"] is True


def test_analyze_fsm_from_file(tmp_path, capsys):
    path = tmp_path / "auto.txt"
    path.write_text("states 2\n0 1 0 1\n1 0 1 0\n", encoding="utf-8")
    code, captured = run_cli(
        capsys, "analyze-fsm", "--automaton", str(path), "--T", "4"
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["states"] == 2
    assert summary["case"] == "B"


def test_analyze_fsm_refuted_counterexample_is_invariant_failure(tmp_path, capsys):
    # only state 1 beeps, and its heard-beep and silence successors differ: a
    # lone beeper never hears itself, so the one-node Case B clique leaves
    # the beep cycle and the certifier refutes it
    path = tmp_path / "auto.txt"
    path.write_text(
        "states 5\n0 1 3 0 3\n1 1 2 1 1\n2 1 0 0 1\n3 1 1 0 3\n4 1 2 0 1\n", encoding="utf-8"
    )
    code, captured = run_cli(capsys, "analyze-fsm", "--automaton", str(path), "--T", "4")
    assert code == 3
    summary = last_json(captured.out)
    assert summary["case"] == "B"
    assert summary["counterexample_nodes"] == 1
    assert summary["certified_no_sync"] is False


def test_analyze_fsm_needs_source(capsys):
    code, captured = run_cli(capsys, "analyze-fsm", "--T", "4")
    assert code == 2


def test_env_var_presets_period(monkeypatch, capsys):
    monkeypatch.setenv("BEEPSYNC_T", "7")
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4", "--wake", "0=0"
    )
    assert code == 0
    assert last_json(captured.out)["T"] == 7


def test_explicit_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("BEEPSYNC_T", "9")
    code, captured = run_cli(
        capsys, "run-fast", "--topology", "line", "--n", "4",
        "--T", "7", "--wake", "0=0",
    )
    assert code == 0
    assert last_json(captured.out)["T"] == 7


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("BEEPSYNC_T", "seven", ["run-fast", "--topology", "line", "--n", "4", "--wake", "0=0"]),
        ("BEEPSYNC_SLOT_DURATION", "abc",
         ["run-slots", "--topology", "line", "--n", "3", "--T", "8", "--wake", "0=0"]),
        # a preset outside the flag's choices is refused as the flag would be
        ("BEEPSYNC_FORMAT", "xml",
         ["run-fast", "--topology", "line", "--n", "3", "--T", "8", "--wake", "0=0"]),
        ("BEEPSYNC_MODE", "bogus",
         ["sweep", "--kinds", "line", "--n-range", "3:3", "--T-range", "4:4",
          "--seeds", "1", "--schedule", "single"]),
        ("BEEPSYNC_SCHEDULE", "bogus",
         ["sweep", "--kinds", "line", "--n-range", "3:3", "--T-range", "4:4", "--seeds", "1"]),
        ("BEEPSYNC_PROTOCOL", "bogus", ["analyze-fsm", "--T", "8"]),
    ],
    ids=["T", "slot-duration", "format", "mode", "schedule", "protocol"],
)
def test_bad_env_value_exits_two(monkeypatch, capsys, name, value, argv):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"bad value {value!r} in ${name}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("BEEPSYNC_MODE", "bogus",
         ["run-fast", "--topology", "line", "--n", "3", "--T", "8", "--wake", "0=0"]),
        ("BEEPSYNC_T", "abc",
         ["sweep", "--kinds", "line", "--n-range", "3:3", "--T-range", "4:4", "--seeds", "1"]),
        ("BEEPSYNC_SLOT_DURATION", "abc",
         ["run-fast", "--topology", "line", "--n", "3", "--T", "8", "--wake", "0=0"]),
    ],
    ids=["mode-run-fast", "T-sweep", "slot-duration-run-fast"],
)
def test_preset_for_another_subcommand_is_ignored(monkeypatch, capsys, name, value, argv):
    # a preset is checked only by the subcommand whose flag it sets
    monkeypatch.setenv(name, value)
    code, captured = run_cli(capsys, *argv)
    assert code == 0
    assert "bad value" not in captured.err


def test_wake_preset_alone_and_replaced_by_flags(monkeypatch, capsys):
    monkeypatch.setenv("BEEPSYNC_WAKE", "1=0")
    line6 = ("run-fast", "--topology", "line", "--n", "6", "--T", "8")
    code, captured = run_cli(capsys, *line6)
    assert code == 0
    assert last_json(captured.out)["sync_round"] == 16
    # node 0 alone, as without the preset: the line's far end syncs at the bound
    code, captured = run_cli(capsys, *line6, "--wake", "0=0")
    assert code == 0
    assert last_json(captured.out)["sync_round"] == last_json(captured.out)["bound"] == 20
    args = build_parser().parse_args([*line6, "--wake", "0=0", "--wake", "2=1"])
    assert args.wake == ["0=0", "2=1"]


@pytest.mark.parametrize("mode, q", [("fast", "4"), ("selfstab", "5")])
def test_sweep_default_q_follows_mode(tmp_path, capsys, mode, q):
    out = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys, "sweep", "--mode", mode, "--kinds", "clique", "--n-range", "3:3",
        "--T-range", "8:8", "--seeds", "2", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows and all(row["q"] == q for row in rows)


def test_sweep_small_grid(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, captured = run_cli(
        capsys, "sweep", "--mode", "fast", "--kinds", "line",
        "--n-range", "2:3", "--T-range", "4:4", "--seeds", "2",
        "--schedule", "single", "--out", str(out),
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["rows"] == 4
    assert summary["converged"] == 4
    assert summary["all_ok"] is True
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mode,kind,n,T,q,")
    assert len(lines) - 1 == 4


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    args = (
        "sweep", "--mode", "fast", "--kinds", "line,ring",
        "--n-range", "3:4", "--T-range", "4:5", "--seeds", "2",
    )
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    code1, _ = run_cli(capsys, *args, "--jobs", "1", "--out", str(serial))
    code2, _ = run_cli(capsys, *args, "--jobs", "2", "--out", str(parallel))
    assert code1 == code2 == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_pool_has_no_more_workers_than_rows(capsys, monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, captured = run_cli(
        capsys, "sweep", "--kinds", "line", "--n-range", "3:3", "--T-range", "4:4",
        "--seeds", "2", "--schedule", "single", "--jobs", str(MAX_JOBS),
    )
    assert code == 0
    assert workers == [2]
    assert last_json(captured.out)["rows"] == 2


def test_cli_import_leaves_the_process_pool_unloaded():
    # importing concurrent.futures.process takes about 25 ms; only --jobs > 1 needs it
    code = (
        "import sys, beepsync.cli; "
        "sys.exit('concurrent.futures.process' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_sweep_empty_grid(capsys):
    for flag, value in (
        ("--n-range", "3:2"), ("--T-range", "8:4"), ("--seeds", "-1"), ("--seeds", "0"),
        ("--kinds", ","),
    ):
        grid = {"--kinds": "line", "--n-range": "3", "--T-range": "4", "--seeds": "2", flag: value}
        code, captured = run_cli(
            capsys, "sweep", "--mode", "fast", *(text for item in grid.items() for text in item)
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {flag} {value} gives an empty sweep"]


def _no_row(key):
    raise AssertionError("a sweep row was run")


def test_sweep_row_error_is_usage_error(capsys, monkeypatch):
    # a row fails on its own (kind, n, seed): a star needs two nodes
    code, captured = run_cli(
        capsys, "sweep", "--mode", "fast", "--kinds", "star",
        "--n-range", "1:2", "--T-range", "8", "--seeds", "1", "--schedule", "single",
    )
    assert code == 2
    summary = last_json(captured.out)
    assert summary["rows"] == 2
    assert summary["errors"] == 1
    assert summary["all_ok"] is False
    # what every row shares is refused before the first row
    monkeypatch.setattr(cli, "_sweep_row", _no_row)
    grid = ("sweep", "--mode", "fast", "--n-range", "2:3", "--seeds", "1")
    for flags, message in (
        (("--kinds", "line", "--T-range", "8", "--q", "0"),
         "--T-range 8 with --q 0: spacing must be 4 or in [5, period]"),
        (("--kinds", "line", "--T-range", "4", "--horizon", "-5"), "--horizon -5 is negative"),
        (("--kinds", "line", "--T-range", "3:4"),
         "--T-range 3:4 with --q 4: period must be >= 4, got 3"),
        (("--kinds", "line,moebius", "--T-range", "4"),
         "--kinds line,moebius: unknown topology 'moebius'"),
    ):
        code, captured = run_cli(capsys, *grid, *flags)
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {message}")


def test_sweep_selfstab_mode(capsys):
    code, captured = run_cli(
        capsys, "sweep", "--mode", "selfstab", "--kinds", "clique",
        "--n-range", "3:3", "--T-range", "10:10", "--q", "5", "--seeds", "3",
    )
    assert code == 0
    summary = last_json(captured.out)
    assert summary["rows"] == 3
    assert summary["converged"] == 3
    assert summary["max_legitimate_round"] is not None


# The sweep as it was with one row worker and one key loop per mode. Kept
# verbatim as the reference the single row worker must reproduce: the same
# CSV bytes, summary and exit code.
def _reference_fast_row(key: tuple) -> dict:
    kind, n, period, spacing, schedule_kind, seed, horizon = key
    row = {
        "mode": "fast",
        "kind": kind,
        "n": n,
        "T": period,
        "q": spacing,
        "schedule": schedule_kind,
        "seed": seed,
    }
    try:
        topology = generate(
            "random_connected" if kind == "random" else kind, n, seed=seed
        )
        if schedule_kind == "single":
            schedule = random_schedule(n, seed, max_round=0, max_sources=1)
        else:
            schedule = random_schedule(n, seed, max_round=2 * period)
        result, _ = run_fast(
            topology, schedule, period, spacing=spacing,
            horizon=horizon, record_trace=False,
        )
        row["sync_round"] = result.sync_round
        row["bound"] = result.bound
        row["ok"] = result.sync_round is not None and result.sync_round <= result.bound
    except Exception as exc:
        row["error"] = str(exc)
        row["ok"] = False
    return row


def _reference_stab_row(key: tuple) -> dict:
    kind, n, period, spacing, seed, horizon = key
    row = {
        "mode": "selfstab",
        "kind": kind,
        "n": n,
        "T": period,
        "q": spacing,
        "seed": seed,
    }
    try:
        topology = generate(
            "random_connected" if kind == "random" else kind, n, seed=seed
        )
        budget = sync_round_budget(n, period, spacing)
        initial = random_configs(n, period, n, budget, seed)
        result, _ = run_selfstab(
            topology, initial, period, spacing=spacing, node_bound=n,
            horizon=horizon, stability_window=4 * period, record_trace=False,
        )
        row["legitimate_round"] = result.legitimate_round
        row["ok"] = result.legitimate_round is not None
    except Exception as exc:
        row["error"] = str(exc)
        row["ok"] = False
    return row


def _reference_sweep(args) -> int:
    kinds = [k for k in args.kinds.split(",") if k]
    sizes = _parse_range(args.n_range)
    periods = _parse_range(args.T_range)
    seeds = range(args.seeds)
    if not (kinds and sizes and periods and seeds):
        raise ValueError("empty sweep")
    # the flags every row shares are refused before any row, as the sweep does
    for period in periods:
        compute_checkpoints(period, args.q)
    if args.horizon is not None and args.horizon < 0:
        raise ValueError("negative horizon")
    if any(kind not in KINDS and kind != "random" for kind in kinds):
        raise ValueError("unknown topology")
    keys = []
    if args.mode == "fast":
        schedule_kinds = (
            ("single", "multi") if args.schedule == "both" else (args.schedule,)
        )
        for kind in kinds:
            for n in sizes:
                for period in periods:
                    for schedule_kind in schedule_kinds:
                        for seed in seeds:
                            keys.append(
                                (kind, n, period, args.q, schedule_kind,
                                 seed, args.horizon)
                            )
        worker = _reference_fast_row
    else:
        for kind in kinds:
            for n in sizes:
                for period in periods:
                    for seed in seeds:
                        keys.append((kind, n, period, args.q, seed, args.horizon))
        worker = _reference_stab_row

    if args.jobs > 1 and keys:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(worker, keys, chunksize=16))
    else:
        rows = [worker(key) for key in keys]

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
            writer.writeheader()
            for row in rows:
                writer.writerow({field: row.get(field, "") for field in SWEEP_FIELDS})

    sync_key = "sync_round" if args.mode == "fast" else "legitimate_round"
    measured = [row[sync_key] for row in rows if row.get(sync_key) is not None]
    errors = sum(1 for row in rows if "error" in row)
    summary = {
        "mode": args.mode,
        "rows": len(rows),
        "converged": len(measured),
        "errors": errors,
        "all_ok": all(row["ok"] for row in rows) if rows else True,
        "max_" + sync_key: max(measured) if measured else None,
        "mean_" + sync_key: (
            round(sum(measured) / len(measured), 6) if measured else None
        ),
    }
    _emit(summary)
    if errors:
        return EXIT_USAGE
    if not summary["all_ok"]:
        return EXIT_BOUND
    return EXIT_OK


SWEEP_KINDS = st.lists(
    st.sampled_from(["line", "ring", "star", "clique", "random", "moebius"]),
    min_size=1, max_size=2,
)


@st.composite
def sweep_argv(draw):
    lo_n = draw(st.integers(1, 5))
    lo_t = draw(st.integers(3, 7))
    argv = [
        "sweep", "--mode", draw(st.sampled_from(["fast", "selfstab"])),
        "--kinds", ",".join(draw(SWEEP_KINDS)),
        "--n-range", f"{lo_n}:{lo_n + draw(st.sampled_from([1, 0, -1]))}",
        "--T-range", f"{lo_t}:{lo_t + draw(st.integers(0, 1))}",
        "--q", str(draw(st.integers(4, 6))),
        "--seeds", str(draw(st.sampled_from([2, 1, 3, 0]))),
        "--schedule", draw(st.sampled_from(["single", "multi", "both"])),
    ]
    horizon = draw(st.none() | st.integers(0, 40))
    return argv if horizon is None else argv + ["--horizon", str(horizon)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sweep_argv())
def test_sweep_matches_reference(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("sweep")
    outputs = []
    for run in (main, _reference_main):
        path = out / f"rows{len(outputs)}.csv"
        with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--out", str(path)])
        # an empty grid is refused before the rows file is opened
        outputs.append((code, stdout.getvalue(), path.read_bytes() if path.exists() else None))
    assert outputs[0] == outputs[1]


def _reference_main(argv) -> int:
    try:
        return _reference_sweep(build_parser().parse_args(argv))
    except ValueError:
        return EXIT_USAGE

