"""End-to-end and per-layer benchmark of beepsync (stdlib only).

Usage, from the repository root:

    python3 benchmarks/bench.py --workload fast-grid --seed 0 --seconds 10 --trace 0

One invocation runs one workload in a closed loop from this one process: a
single caller, the next run starts when the previous one returns, no worker
processes. Inputs come from ``--seed``; the package is imported from
``src/`` next to this directory. With ``--trace 0`` the last stdout line
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a separate traced pass. Lines before it give the provenance, every metric
with its unit, the failure count and the output digest.

On the reference seed every workload hashes its outputs and compares the
digest with ``reference.json``; a mismatch, or any run failing its
protocol-level check, makes the result incorrect and the exit code 1.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 3

END_TO_END = (
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class Loop:
    """Runs a workload's inputs in order and keeps its outcome counts.

    The first cycle's outputs feed the digest; every later cycle must
    reproduce them, or the run counts as failed.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.outputs: list = [None] * len(workload.inputs)
        self.attempted = 0
        self.failed = 0
        self.node_rounds = 0
        self.cycles = 0
        self.latencies: list[float] = []

    def cycle(self, run, record_latency: bool) -> float:
        """Runs every input once through ``run(i, input)``; returns wall seconds."""
        first = self.cycles == 0
        start = perf_counter()
        for i, inp in enumerate(self.workload.inputs):
            t0 = perf_counter()
            output, ok, node_rounds = run(i, inp)
            if record_latency:
                self.latencies.append(perf_counter() - t0)
            if first:
                self.outputs[i] = output
            elif _canonical(output) != _canonical(self.outputs[i]):
                ok = False
            self.attempted += 1
            self.failed += not ok
            self.node_rounds += node_rounds
        self.cycles += 1
        return perf_counter() - start

    def timed(self, seconds: float) -> float:
        """Whole cycles until ``seconds`` have passed (at least one); returns wall seconds."""
        run_one = self.workload.run_one
        start = perf_counter()
        while True:
            self.cycle(lambda i, inp: run_one(inp), record_latency=True)
            if perf_counter() - start >= seconds:
                return perf_counter() - start


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(outputs: list) -> str:
    return hashlib.sha256(_canonical(outputs).encode()).hexdigest()


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """Hash of the package sources, so results outside git still name the code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "beepsync")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _import_beepsync() -> float:
    """Imports the package from src/; returns the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "beepsync", "__init__.py")):
        raise SystemExit(f"error: no beepsync package under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import beepsync
    import beepsync.cli  # noqa: F401  (the cli workload and the tracer need it)

    elapsed = perf_counter() - start
    if os.path.dirname(os.path.realpath(beepsync.__file__)) != os.path.realpath(
        os.path.join(SRC, "beepsync")
    ):
        raise SystemExit(f"error: imported beepsync from {beepsync.__file__}, not {SRC}")
    return elapsed


def _reference(path: str, scale: str, name: str) -> tuple[int | None, str | None]:
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["seed"], ref["digests"].get(scale, {}).get(name)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed closed-loop length; whole cycles, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check sizes instead of the measured ones")
    parser.add_argument("--reference", default=REFERENCE,
                        help="digest reference file (seed and per-workload sha256)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # a preset BEEPSYNC_<FLAG> would silently change the cli workload's flags
    for key in [k for k in os.environ if k.startswith("BEEPSYNC_")]:
        del os.environ[key]

    import tracing
    import workloads

    scale = "tiny" if args.tiny else "full"
    print(f"bench {args.workload} seed={args.seed} scale={scale} trace={args.trace}")
    import_s = _import_beepsync()
    tracer = tracing.Tracer() if args.trace else None

    def build():
        return workloads.build(args.workload, args.seed, scale, OUT_DIR)

    # set-up: several times when measuring setup_s, once under the tracer
    gen_times = []
    workload = None
    for _ in range(1 if tracer else SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        start = perf_counter()
        if tracer:
            tracer.run_id = "setup"
            with tracing.installed(tracer):
                workload = tracer.span("bench.setup", build)
        else:
            workload = build()
        gen_times.append(perf_counter() - start)

    try:
        loop = Loop(workload)
        wall = loop.timed(args.seconds)
        if tracer:
            layer = _traced_pass(loop, tracer, wall, args)
    finally:
        workload.cleanup()

    if tracer:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        lat_ms = sorted(x * 1e3 for x in loop.latencies)
        e2e = {
            "runs_per_s": len(lat_ms) / wall,
            "run_ms_p50": statistics.median(lat_ms),
            "run_ms_p99": (statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
                           if len(lat_ms) > 1 else lat_ms[0]),
            "setup_s": import_s + statistics.median(gen_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    provenance = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "trace": args.trace,
        "runs": loop.attempted,
        "cycles": loop.cycles,
        "node_rounds": loop.node_rounds,
        "inputs": workload.sizes,
        "timed_wall_s": wall,
        "import_s": import_s,
        "setup_generate_s": gen_times,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        value = metric["value"]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        note = f" (samples={len(loop.latencies)})" if name.startswith("run_ms_") else ""
        print(f"metric {name} {text} {metric['unit']}{note}")
    print(f"failed_frac {loop.failed / loop.attempted:.6g} frac "
          f"({loop.failed} of {loop.attempted} runs failed their protocol-level check)")

    computed = digest(loop.outputs)
    ref_seed, expected = _reference(args.reference, scale, args.workload)
    if args.seed != ref_seed:
        print(f"digest {computed} (gate applies on seed {ref_seed} only)")
        digest_ok = True
    elif expected is None:
        print(f"digest {computed} MISSING from {args.reference}")
        digest_ok = False
    else:
        digest_ok = computed == expected
        print(f"digest {computed} reference {expected} {'match' if digest_ok else 'MISMATCH'}")

    correct = digest_ok and loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def _traced_pass(loop: Loop, tracer, untraced_wall: float, args) -> dict:
    """One traced cycle and one trace-memory cycle; returns per-layer values."""
    import tracing

    workload = loop.workload

    def traced(i, inp):
        tracer.run_id = i
        return tracer.span("bench.run", workload.run_one, inp)

    with tracing.installed(tracer):
        traced_wall = loop.cycle(traced, record_latency=False)
    untraced_cycle = untraced_wall / (loop.cycles - 1)
    overhead = traced_wall / untraced_cycle - 1

    peak_kib = tracing.trace_peak_kib(
        lambda: loop.cycle(lambda i, inp: workload.run_one(inp), record_latency=False)
    )
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    print(f"spans {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans, "
          f"{len(tracer.counters)} counters)")
    return tracing.layer_values(tracer, peak_kib, overhead)


if __name__ == "__main__":
    sys.exit(main())
