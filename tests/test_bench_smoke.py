"""The benchmark's shortest run, as a test.

``bench/run.py --seconds 0`` runs a workload's base rounds once, then
checks every answer against the oracles and runs the benchmark's
self-test on corrupted answers.  So a matcher that answers wrongly, or an
oracle that stops telling right answers from wrong ones, fails here
before any timed run.  The traced run wraps the command line's entry
points from outside and checks that it completed the same requests as an
untraced replay, so it is run here too, on cfg-parse.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> dict:
    command = [sys.executable, "bench/run.py", *args, "--seed", "1", "--seconds", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("workload", ["regex-deriv", "cfg-parse", "verify"])
def test_bench_base_rounds_are_correct(workload: str) -> None:
    _run("--workload", workload)


def test_traced_cfg_parse_run_is_correct() -> None:
    result = _run("--workload", "cfg-parse", "--trace", "1")
    assert result["failed"] == 0
    # Every grammar body cfg-parse expands on seed 1's requests: the
    # anchored bodies make the calls the plain ones make, so the count is
    # the plain parser's.  It changes only with the benchmark's inputs.
    assert result["metrics"]["handlers.calls_expanded"]["value"] == 20334
