"""Smoke check of the benchmark at tiny sizes (about half a minute).

Usage, from the repository root:

    python3 benchmarks/smoke.py

It runs every workload named in BENCHMARK.json with ``--tiny``, untraced and
traced, and asserts that

* every workload name and every end-to-end and per-layer metric name is
  printed, each with the unit BENCHMARK.json gives it;
* no run fails its protocol-level check (failed_frac is 0), and the output
  digest matches the recorded tiny-size reference;
* the digest gate fails when it is given a wrong reference, so it is not
  vacuous.

The runs see BEEPSYNC_HORIZON and BEEPSYNC_FORMAT presets; the benchmark
must drop them, or the cli workload's digest changes. Exits 0 when every
assertion holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args: str) -> tuple[int, list[str]]:
    env = dict(os.environ, BEEPSYNC_HORIZON="5", BEEPSYNC_FORMAT="jsonl")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--tiny", "--seconds", "0", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_printed(lines: list[str], specs: list[dict]) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == {m["name"] for m in specs}, sorted(result["metrics"])
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], (spec, metric)
        assert any(line.startswith(f"metric {spec['name']} ") and
                   line.split()[3] == spec["unit"] for line in lines), spec["name"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    seed = str(reference["seed"])
    for workload in (w["name"] for w in config["workloads"]):
        for trace, specs in (("0", config["end_to_end"]), ("1", config["per_layer"])):
            code, lines = bench("--workload", workload, "--seed", seed, "--trace", trace)
            assert code == 0, (workload, trace, lines[-3:])
            assert f"bench {workload} seed={seed} scale=tiny trace={trace}" in lines
            check_printed(lines, specs)
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert any(line.startswith("failed_frac 0 ") for line in lines), workload
            assert any(line.startswith("digest ") and line.endswith(" match")
                       for line in lines), (workload, lines[-2])
        print(f"smoke {workload}: names, units, failed_frac 0, digest match")

    wrong = dict(reference, digests={"tiny": {w["name"]: "0" * 64 for w in config["workloads"]}})
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    wrong_path = os.path.join(HERE, "out", "wrong-reference.json")
    with open(wrong_path, "w", encoding="utf-8") as fh:
        json.dump(wrong, fh)
    try:
        for workload in (w["name"] for w in config["workloads"]):
            code, lines = bench("--workload", workload, "--seed", seed, "--trace", "0",
                                "--reference", wrong_path)
            assert code == 1 and json.loads(lines[-1])["correct"] is False, (workload, lines[-2:])
            assert lines[-2].endswith(" MISMATCH"), lines[-2]
        print("smoke digest gate: a wrong reference fails every workload")
    finally:
        os.remove(wrong_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
