"""Runs the benchmark's tiny-size smoke check, so that a renamed module
attribute the benchmark tracer wraps, or a drift of the tiny-size output
digests, fails the test suite and not only the benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
