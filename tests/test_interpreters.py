"""The command line on the other Python versions ``pyproject.toml`` promises.

``requires-python`` says 3.10 and later, but the suite runs on one
interpreter.  For each of ``python3.10``, ``python3.12`` and ``python3.13``
that is on ``PATH`` and starts, this imports ``effparse`` and runs a few
``match``, ``derive`` and ``cfg-parse`` invocations in a subprocess, with
``PYTHONPATH`` at the sources, and checks that stdout and exit codes are
byte for byte those of the interpreter running the suite.  Those
interpreters need no pytest, only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What the ``effparse`` console script runs.
MAIN = "import sys; from effparse.cli import main; sys.exit(main(sys.argv[1:]))"

GRAMMAR = "E -> T '+' E | T\nT -> 'x' | '(' E ')'\n"

#: Invocations, with ``{grammar}`` standing for a grammar file's path.
GOLDENS = (
    ("match", "a*", "aa"),
    ("match", "(a|b)* a (a|b)", "abab"),
    ("match", "a b", "ab", "--engine", "structural", "--format", "json-lines"),
    ("match", "\\0", ""),
    ("derive", "(a|b)* a", "ba"),
    ("cfg-parse", "{grammar}", "E", "(x+x)+x"),
    ("cfg-parse", "{grammar}", "E", "x+x", "--format", "json-lines"),
    ("cfg-parse", "{grammar}", "E", "x+", "--fuel", "2"),
    ("cfg-parse", "{grammar}", "E", "x+"),
)


def run(python: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([python, *args], env=env, capture_output=True, timeout=60, check=False)


def outcomes(python: str, grammar: str) -> list[tuple[int, bytes]]:
    """Exit code and stdout of each golden invocation under ``python``."""
    results = []
    for argv in GOLDENS:
        done = run(python, "-c", MAIN, *(arg.format(grammar=grammar) for arg in argv))
        results.append((done.returncode, done.stdout))
    return results


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_goldens_match_on_other_interpreters(version: str, tmp_path: Path) -> None:
    python = shutil.which(f"python{version}")
    probe = None if python is None else run(python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])")
    if probe is None or probe.returncode != 0 or probe.stdout.decode().strip() != version:
        pytest.skip(f"no python{version} on PATH that starts")
    imported = run(python, "-c", "import effparse, effparse.cli")
    assert imported.returncode == 0, imported.stderr.decode(errors="replace")
    grammar = tmp_path / "expr.cfg"
    grammar.write_text(GRAMMAR, encoding="utf-8")
    expected = outcomes(sys.executable, str(grammar))
    assert expected[0] == (0, b"(list (char a) (char a))\n")
    assert [code for code, _ in expected] == [0, 0, 0, 1, 0, 0, 0, 3, 1]
    assert outcomes(python, str(grammar)) == expected
