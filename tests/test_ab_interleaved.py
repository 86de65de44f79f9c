"""``tools/ab_interleaved.py``: one round of a checkout against itself, and
against a copy that answers wrongly."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(a: Path, b: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, "tools/ab_interleaved.py", str(a), str(b), "--workload", "cfg-parse", "--rounds", "1", "--seed", "1"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_one_round_against_itself() -> None:
    done = _ab(ROOT, ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    for metric in ("ops_per_s", "lat_geo_ms", "lat_small_ms", "lat_large_ms", "growth_exp"):
        (row,) = [line for line in lines if line.startswith(metric + " ")]
        a, b, ratio = (float(x) for x in row.split()[1:])
        assert a > 0 and b > 0 and abs(ratio - b / a) < 1e-3 * max(1.0, ratio)
    for case in ("right_rec", "dyck", "expression", "palindrome"):
        assert [line.split()[1] for line in lines if line.startswith(case + " ")] == ["A", "B"]
    assert "WRONG" not in done.stdout


def test_a_wrong_answer_exits_1(tmp_path: Path) -> None:
    broken = tmp_path / "broken"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, broken / part, ignore=shutil.ignore_patterns("__pycache__", "traces", "grammars-*"))
    cfg = broken / "src" / "effparse" / "cfg.py"
    cfg.write_text(cfg.read_text() + "\n\ndef parse_full(g, a, text, fuel=None):\n    return ()\n")
    done = _ab(ROOT, broken)
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    wrong = [line for line in done.stdout.splitlines() if line.startswith("WRONG: ")]
    assert wrong and all(line.startswith("WRONG: B: ") for line in wrong)
