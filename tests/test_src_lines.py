"""``tools/src_lines.py``: physical and code lines of each module."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""A module docstring
over two lines."""

# A comment.
import os  # a comment after code counts


def f(x):
    """A function docstring."""

    return (x,
            os.sep)
'''


def _run(directory: Path) -> list[list[str]]:
    done = subprocess.run(
        [sys.executable, "tools/src_lines.py", str(directory)], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_counts_the_sources() -> None:
    header, *modules, total = _run(ROOT / "src" / "effparse")
    assert header == ["module", "lines", "code"]
    names = sorted(path.name for path in (ROOT / "src" / "effparse").glob("*.py"))
    assert [row[0] for row in modules] == names
    for name, lines, code in modules:
        assert int(lines) == len((ROOT / "src" / "effparse" / name).read_text().splitlines())
        assert 0 < int(code) < int(lines)
    assert total == ["total", str(sum(int(row[1]) for row in modules)), str(sum(int(row[2]) for row in modules))]


def test_leaves_out_blank_comment_and_docstring_lines(tmp_path: Path) -> None:
    (tmp_path / "sample.py").write_text(SAMPLE)
    assert _run(tmp_path)[1:] == [["sample.py", "12", "4"], ["total", "12", "4"]]
