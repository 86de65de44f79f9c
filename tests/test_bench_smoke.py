"""The benchmark's shortest run, as a test.

``bench/run.py --seconds 0`` runs a workload's base rounds once, then
checks every answer against the oracles and runs the benchmark's
self-test on corrupted answers.  So a matcher that answers wrongly, or an
oracle that stops telling right answers from wrong ones, fails here
before any timed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["regex-deriv", "cfg-parse", "verify"])
def test_bench_base_rounds_are_correct(workload: str) -> None:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
