"""``tools/cli_sweep.py``: a checkout against itself, and against a copy
whose command line prints differently."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sweep(a: Path, b: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, "tools/cli_sweep.py", str(a), str(b)]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_the_sweep_against_itself_finds_no_difference() -> None:
    done = _sweep(ROOT, ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    total = int(lines[0].split()[0])
    codes = dict(part.split(": ") for part in lines[1].removeprefix("exit codes (A): ").split(", "))
    assert set(codes) == {"0", "1", "2", "3"} and sum(map(int, codes.values())) == total > 400
    assert lines[-1] == "0 differing" and not any(line.startswith("DIFFERS: ") for line in lines)


def test_a_copy_that_prints_differently_exits_1(tmp_path: Path) -> None:
    broken = tmp_path / "broken"
    shutil.copytree(ROOT / "src", broken / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = broken / "src" / "effparse" / "cli.py"
    cli.write_text(
        cli.read_text()
        + "\n\ndef _emit_results(results, render, max_results):\n    for result in results:\n        print(render(result) + ' ')\n    return 0 if results else 1\n"
    )
    done = _sweep(ROOT, broken)
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    differing = [line for line in done.stdout.splitlines() if line.startswith("DIFFERS: effparse ")]
    commands = {line.split()[2] for line in differing}
    assert commands == {"match", "cfg-parse"}
    assert done.stdout.splitlines()[-1] == f"{len(differing)} differing"
