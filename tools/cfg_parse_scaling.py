#!/usr/bin/env python3
"""Per-character cost of ``effparse cfg-parse`` from 256 to 4096 characters.

    python3 tools/cfg_parse_scaling.py [--src DIR]

Runs ``cli.main(["cfg-parse", ...])`` in this process, output discarded, on
the four grammars of the benchmark's cfg-parse workload.  Inputs come from
the benchmark's own generators (``bench/workloads.py``) with a fixed seed:
one member and one spoiled input per size, spoiled at the middle.  Prints
the best of three wall times and the time per character.  Then times the
anchored oracle, ``spec_produce(..., anchored=True)``, on the largest
members, under a raised recursion limit, and checks that it agrees with
the command's output.

``--src`` names the ``src`` directory to import ``effparse`` from (default:
this checkout's), so the same script measures another checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 512, 1024, 2048, 4096)


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
    from effparse.cfg import Nonterminal, format_sem_value, spec_produce
    from effparse.cli import main
    from workloads import GRAMMARS, GrammarFiles, grammar_text

    with tempfile.TemporaryDirectory() as scratch:
        files = GrammarFiles(scratch)
        members: dict[str, str] = {}
        print(f"{'grammar':<11} {'input':<8} " + " ".join(f"{n:>16}" for n in SIZES) + "   (ms, µs/char)")
        for name, case in GRAMMARS.items():
            argv = ["cfg-parse", files.paths[name], case.start]
            for spoil in (None, 0.5):
                rng = random.Random(7)
                cells = []
                for n in SIZES:
                    text = grammar_text(rng, case, n, spoil)
                    if spoil is None:
                        members[name] = text
                    seconds, _ = best_of_three(main, argv + [text])
                    cells.append(f"{1000 * seconds:8.1f} {1e6 * seconds / len(text):6.1f}")
                kind = "member" if spoil is None else "spoiled"
                print(f"{name:<11} {kind:<8} " + " ".join(f"{cell:>16}" for cell in cells), flush=True)

        print(f"\nanchored oracle on the {SIZES[-1]}-character members (spec_produce(..., anchored=True)):")
        sys.setrecursionlimit(200_000)
        for name, case in GRAMMARS.items():
            text = members[name]
            begin = time.perf_counter()
            derivations = spec_produce(files.grammars[name], Nonterminal(case.start), text, anchored=True)
            seconds = time.perf_counter() - begin
            expected = "".join(format_sem_value(node) + "\n" for node, _ in derivations)
            _, out = best_of_three(main, ["cfg-parse", files.paths[name], case.start, text])
            verdict = "agrees" if out == expected and expected else "DISAGREES"
            print(f"{name:<11} {len(text):>5} characters  {1000 * seconds:8.1f} ms  {verdict} with cfg-parse")
    return 0


if __name__ == "__main__":
    sys.exit(run())
