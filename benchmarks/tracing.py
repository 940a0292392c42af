"""Spans and counters for the traced run, and the per-layer metrics.

The tracer measures beepsync from outside: it replaces module-level names
the package looks up at call time with wrappers, and restores them on
``uninstall``.

* A span wrapper records one span per call: name, start, end, parent span,
  run id, the time its children cover, and attributes read from the call's
  arguments and result. It wraps the public functions the benchmark and the
  CLI call into.
* A counter wrapper adds one to a call count and the call's duration to a
  summed time. It wraps the inner hot functions (per-node transitions,
  BFS, checkpoint construction), where a span per call would cost more than
  the call.

A span's self time is its duration minus the time its child spans and
counted calls cover. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import tracemalloc
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}
        self.run_id: Any = None
        self._stack: list[dict] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Calls ``fn`` inside a span; returns its result."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def patch(self, module: Any, attr: str, make_wrapper: Callable[[Any], Any]) -> None:
        """Replaces ``module.attr`` with ``make_wrapper(original)`` until ``uninstall``."""
        original = getattr(module, attr)
        setattr(module, attr, make_wrapper(original))
        self._patches.append((module, attr, original))

    def wrap_span(
        self,
        module: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        describe: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Records a span per call of ``module.attr``."""

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                span = self._open(name if isinstance(name, str) else name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                if describe is not None:
                    span.update(describe(args, kwargs, result))
                return result
            return wrapper

        self.patch(module, attr, make_wrapper)

    def wrap_counter(self, module: Any, attr: str, name: str) -> None:
        """Counts calls of ``module.attr`` and sums their time."""
        counter = self.counters.setdefault(name, [0, 0.0])
        stack = self._stack

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    counter[0] += 1
                    counter[1] += elapsed
                    if stack:
                        stack[-1]["child_s"] += elapsed
            return wrapper

        self.patch(module, attr, make_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self, name: str) -> dict:
        """Sums duration, self time, call count and numeric attributes of spans."""
        out = {"count": 0, "seconds": 0.0, "self_s": 0.0}
        for span in self.spans:
            if span["name"] != name:
                continue
            duration = span["end"] - span["start"]
            out["count"] += 1
            out["seconds"] += duration
            out["self_s"] += duration - span["child_s"]
            for key, value in span.items():
                if key not in _SPAN_KEYS and isinstance(value, (int, float)):
                    out[key] = out.get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        """Writes spans as JSON lines, then one line per counter."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "seconds": seconds}) + "\n")


_SPAN_KEYS = frozenset(("id", "name", "run", "parent", "start", "end", "child_s"))


def _fast_attrs(args, kwargs, out) -> dict:
    result, _ = out
    topology, period = args[0], args[2]
    rounds = result.rounds_run
    useful = rounds if result.sync_round is None else min(rounds, result.sync_round + 4 * period)
    return {"node_rounds": topology.node_count * (rounds + 1),
            "rounds_run": rounds, "useful_rounds": useful}


def _stab_attrs(args, kwargs, out) -> dict:
    result, _ = out
    topology, period = args[0], args[2]
    rounds = result.rounds_run
    legit = result.legitimate_round
    useful = rounds if legit is None else min(rounds, legit + 4 * period)
    return {"node_rounds": topology.node_count * (rounds + 1),
            "rounds_run": rounds, "useful_rounds": useful}


def _cells(args, kwargs, out) -> dict:
    trace = args[0]
    return {"cells": trace.round_count() * trace.topology.node_count}


def _export_attrs(args, kwargs, out) -> dict:
    trace, path = args
    return {"rows": trace.round_count() * trace.topology.node_count,
            "bytes": os.path.getsize(path)}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wraps every layer boundary the workloads reach, for the ``with`` body."""
    try:
        _wrap_layers(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def _wrap_layers(tracer: Tracer) -> None:
    from beepsync import cli, engine, fsm, slots, topology

    # spans: calls from the benchmark (through the home module) and from the CLI
    for module in (topology, cli, fsm):
        tracer.wrap_span(module, "generate", "topology.generate")
    for module in (engine, cli):
        tracer.wrap_span(module, "run_fast", "engine.run_fast", _fast_attrs)
        tracer.wrap_span(module, "run_selfstab", "engine.run_selfstab", _stab_attrs)
        tracer.wrap_span(module, "check_invariants", "engine.check_invariants", _cells)
    tracer.wrap_span(engine, "check_closure", "engine.check_closure")
    tracer.wrap_span(cli, "check_stab_invariants", "engine.check_stab_invariants")
    tracer.wrap_span(cli, "write_trace_csv", "engine.export", _export_attrs)
    tracer.wrap_span(cli, "write_trace_jsonl", "engine.export", _export_attrs)
    tracer.wrap_span(cli, "run_slots", "slots.run_slots",
                     lambda a, k, out: {"records": len(out[1])})
    tracer.wrap_span(cli, "extract_fast_automaton", "fsm.extract",
                     lambda a, k, out: {"states": out.state_count})
    tracer.wrap_span(cli, "extract_selfstab_automaton", "fsm.extract",
                     lambda a, k, out: {"states": out.state_count})
    tracer.wrap_span(cli, "classify", "fsm.classify")
    tracer.wrap_span(cli, "certify_no_sync", "fsm.certify")
    tracer.wrap_span(cli, "main", lambda args: "cli." + args[0][0])

    # counters: inner hot functions, at every module that looks them up
    for module in (engine, slots, fsm):
        tracer.wrap_counter(module, "step", "fast_protocol.step")
    for module in (engine, fsm):
        tracer.wrap_counter(module, "stab_step", "selfstab.stab_step")
        tracer.wrap_counter(module, "consistency_check", "selfstab.consistency_check")
    tracer.wrap_counter(topology, "bfs_distances", "topology.bfs_distances")
    tracer.wrap_counter(slots, "alignment_time", "slots.alignment_time")
    tracer.wrap_counter(engine, "compute_checkpoints", "checkpoints.compute_checkpoints")


def trace_peak_kib(run: Callable[[], Any]) -> float:
    """Largest tracemalloc peak of one trace-recording engine call during ``run()``.

    Only engine calls that record a trace are measured; tracemalloc runs just
    for the duration of each such call.
    """
    from beepsync import cli, engine

    peaks = [0.0]

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            if not kwargs.get("record_trace", True):
                return original(*args, **kwargs)
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
                tracemalloc.stop()
        return wrapper

    patches = Tracer()
    for module in (engine, cli):
        for attr in ("run_fast", "run_selfstab"):
            patches.patch(module, attr, make_wrapper)
    try:
        run()
    finally:
        patches.uninstall()
    return max(peaks)


# (metric name, unit) of the per-layer metrics in BENCHMARK.json
LAYER_METRICS = (
    ("topology.generate_s", "s"),
    ("topology.bfs_calls", "count"),
    ("checkpoints.compute_calls", "count"),
    ("fast_protocol.step_calls", "count"),
    ("fast_protocol.step_s", "s"),
    ("selfstab.stab_step_calls", "count"),
    ("selfstab.stab_step_s", "s"),
    ("selfstab.consistency_check_calls", "count"),
    ("selfstab.consistency_check_s", "s"),
    ("engine.run_fast_s", "s"),
    ("engine.run_fast.self_s", "s"),
    ("engine.run_fast.node_rounds", "count"),
    ("engine.run_fast.ns_per_node_round", "ns"),
    ("engine.run_fast.useful_round_frac", "frac"),
    ("engine.run_selfstab_s", "s"),
    ("engine.run_selfstab.self_s", "s"),
    ("engine.run_selfstab.node_rounds", "count"),
    ("engine.run_selfstab.ns_per_node_round", "ns"),
    ("engine.run_selfstab.useful_round_frac", "frac"),
    ("engine.check_invariants_s", "s"),
    ("engine.check_invariants.ns_per_cell", "ns"),
    ("engine.check_closure_s", "s"),
    ("engine.check_stab_invariants_s", "s"),
    ("engine.trace_peak_kib", "KiB"),
    ("engine.export_s", "s"),
    ("engine.export_bytes", "B"),
    ("engine.export.ns_per_row", "ns"),
    ("slots.run_slots_s", "s"),
    ("slots.alignment_time_s", "s"),
    ("slots.records", "count"),
    ("slots.ns_per_record", "ns"),
    ("fsm.extract_s", "s"),
    ("fsm.automaton_states", "count"),
    ("fsm.classify_s", "s"),
    ("fsm.certify_s", "s"),
    ("cli.run_fast_s", "s"),
    ("cli.run_selfstab_s", "s"),
    ("cli.run_slots_s", "s"),
    ("cli.analyze_fsm_s", "s"),
    ("cli.sweep_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_values(tracer: Tracer, peak_kib: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values of one traced run, keyed as in LAYER_METRICS.

    Counted and span totals cover the set-up and the traced cycle.
    """
    def calls(name: str) -> int:
        return tracer.counters.get(name, [0, 0.0])[0]

    def counted_s(name: str) -> float:
        return tracer.counters.get(name, [0, 0.0])[1]

    inv = tracer.totals("engine.check_invariants")
    export = tracer.totals("engine.export")
    slot = tracer.totals("slots.run_slots")
    extract = tracer.totals("fsm.extract")
    values = {
        "topology.generate_s": tracer.totals("topology.generate")["seconds"],
        "topology.bfs_calls": calls("topology.bfs_distances"),
        "checkpoints.compute_calls": calls("checkpoints.compute_checkpoints"),
        "fast_protocol.step_calls": calls("fast_protocol.step"),
        "fast_protocol.step_s": counted_s("fast_protocol.step"),
        "selfstab.stab_step_calls": calls("selfstab.stab_step"),
        "selfstab.stab_step_s": counted_s("selfstab.stab_step"),
        "selfstab.consistency_check_calls": calls("selfstab.consistency_check"),
        "selfstab.consistency_check_s": counted_s("selfstab.consistency_check"),
        "engine.check_invariants_s": inv["seconds"],
        "engine.check_invariants.ns_per_cell": _ratio(inv["seconds"], inv.get("cells", 0), 1e9),
        "engine.check_closure_s": tracer.totals("engine.check_closure")["seconds"],
        "engine.check_stab_invariants_s": tracer.totals("engine.check_stab_invariants")["seconds"],
        "engine.trace_peak_kib": peak_kib,
        "engine.export_s": export["seconds"],
        "engine.export_bytes": export.get("bytes", 0),
        "engine.export.ns_per_row": _ratio(export["seconds"], export.get("rows", 0), 1e9),
        "slots.run_slots_s": slot["seconds"],
        "slots.alignment_time_s": counted_s("slots.alignment_time"),
        "slots.records": slot.get("records", 0),
        "slots.ns_per_record": _ratio(slot["seconds"], slot.get("records", 0), 1e9),
        "fsm.extract_s": extract["seconds"],
        "fsm.automaton_states": extract.get("states", 0),
        "fsm.classify_s": tracer.totals("fsm.classify")["seconds"],
        "fsm.certify_s": tracer.totals("fsm.certify")["seconds"],
        "cli.run_fast_s": tracer.totals("cli.run-fast")["seconds"],
        "cli.run_selfstab_s": tracer.totals("cli.run-selfstab")["seconds"],
        "cli.run_slots_s": tracer.totals("cli.run-slots")["seconds"],
        "cli.analyze_fsm_s": tracer.totals("cli.analyze-fsm")["seconds"],
        "cli.sweep_s": tracer.totals("cli.sweep")["seconds"],
        "bench.trace_overhead_frac": overhead_frac,
    }
    for prefix in ("engine.run_fast", "engine.run_selfstab"):
        totals = tracer.totals(prefix)
        node_rounds = totals.get("node_rounds", 0)
        values[prefix + "_s"] = totals["seconds"]
        values[prefix + ".self_s"] = totals["self_s"]
        values[prefix + ".node_rounds"] = node_rounds
        values[prefix + ".ns_per_node_round"] = _ratio(totals["seconds"], node_rounds, 1e9)
        values[prefix + ".useful_round_frac"] = _ratio(
            totals.get("useful_rounds", 0), totals.get("rounds_run", 0)
        )
    return values
