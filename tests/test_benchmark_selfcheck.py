"""The benchmark's tiny-size self-check runs as part of the test suite.

A refactor that stops calling a traced layer function (``cross_attend``,
``contrastive_loss``, ...) would silently drop the spans the benchmark's
per-layer metrics are read from; the self-check fails in that case.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "benchmarks/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
