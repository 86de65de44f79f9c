#!/usr/bin/env python3
"""Per-character cost of ``effparse match`` from 4096 to 65536 characters.

    python3 tools/match_scaling.py [--src DIR]

Runs ``cli.main(["match", ...])`` in this process, output discarded, on the
four patterns of the benchmark's regex-deriv workload.  Inputs are members
from the benchmark's own generators (``bench/workloads.py``) with a fixed
seed.  Prints the best of three wall times and the time per character.
Then reads back the witness printed for the largest input of each pattern
and checks it with ``is_match``.

``--src`` names the ``src`` directory to import ``effparse`` from (default:
this checkout's), so the same script measures another checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (4096, 8192, 16384, 32768, 65536)


def best_of_three(main, argv: list[str]) -> tuple[float, str]:
    best, out = float("inf"), ""
    for _ in range(3):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            main(argv)
        best = min(best, time.perf_counter() - start)
        out = sink.getvalue()
    return best, out


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    from effparse.cli import main
    from effparse.regex import is_match
    from workloads import PATTERNS, read_tree

    largest: dict[str, tuple[str, str]] = {}
    print(f"{'pattern':<21} " + " ".join(f"{n:>17}" for n in SIZES) + "   (ms, µs/char)")
    for name, pattern in PATTERNS.items():
        rng = random.Random(7)
        cells = []
        for n in SIZES:
            text = pattern.member(rng, n)
            seconds, out = best_of_three(main, ["match", pattern.text, text])
            largest[name] = (text, out)
            cells.append(f"{1000 * seconds:9.1f} {1e6 * seconds / len(text):6.1f}")
        print(f"{pattern.text:<21} " + " ".join(f"{cell:>17}" for cell in cells), flush=True)

    print(f"\nwitnesses of the {SIZES[-1]}-character members, checked with is_match:")
    for name, pattern in PATTERNS.items():
        text, out = largest[name]
        lines = out.splitlines()
        ok = len(lines) == 1 and is_match(pattern.regex, text, read_tree(lines[0]))
        verdict = "a witness" if ok else "NOT A WITNESS"
        print(f"{pattern.text:<21} {len(text):>5} characters  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
