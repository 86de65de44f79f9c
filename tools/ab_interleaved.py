#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/ab_interleaved.py A B --workload cfg-parse [--rounds 10] [--seed 1]

``A`` and ``B`` are checkout roots.  This script imports ``bench/workloads.py``,
``bench/measure.py`` and ``src/effparse`` of both into one process, each
side under its own snapshot of those modules.  Each round makes the
workload's requests for both sides from the same seed, so both sides get
the same inputs.  Each pair of requests runs back to back, and which side
goes first alternates from pair to pair; each request starts from
``workloads.fresh_heap()``.  After the rounds, every answer is checked with
its request's own check, and any wrong answer makes the exit code 1.

Prints both sides' unscaled ``measure.latency_metrics``, their ratio B/A,
and, per case, each side's smallest and largest cell and the log/log slope.

This only sizes a change.  Sequential runs of identical code can drift far
apart on a shared machine; interleaving cancels most of that drift, but the
two sides share one heap and one interpreter, which the benchmark does not.
Claims still rest on pairs of ``bench/run.py`` runs.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

#: The modules each side imports for itself.
_OWN = ("effparse", "workloads", "measure")


def _own(name: str) -> bool:
    return name in _OWN or name.startswith("effparse.")


class Side:
    """One checkout's modules, workload, timings and answers."""

    def __init__(self, root: Path, workload: str, scratch: str) -> None:
        self.root = root
        for name in [n for n in sys.modules if _own(n)]:
            del sys.modules[name]
        sys.path[:0] = [str(root / "src"), str(root / "bench")]
        try:
            self.workloads = importlib.import_module("workloads")
            self.measure = importlib.import_module("measure")
        finally:
            del sys.path[:2]
        self.modules: dict[str, ModuleType] = {n: m for n, m in sys.modules.items() if _own(n)}
        self.workload = self.workloads.build(workload, scratch)
        self.latencies: dict[tuple[str, int, int], list[float]] = {}
        self.done: list = []

    def activate(self) -> None:
        """Make this side's modules the ones a lazy import would find."""
        sys.modules.update(self.modules)

    def run(self, request) -> None:
        self.activate()
        self.workloads.fresh_heap()
        start = time.perf_counter()
        try:
            outcome: object = request.run()
        except Exception as error:  # a wrong answer, reported by check_all
            outcome = error
        else:
            key = (request.case, request.size, request.variant)
            self.latencies.setdefault(key, []).append(time.perf_counter() - start)
        self.done.append((request.case, request.size, request.check, outcome))

    def cases(self) -> dict[str, tuple[tuple[int, float], tuple[int, float], float]]:
        """Per case: (size, ms) of its smallest and largest cell, and the slope,
        with cells built as ``measure.latency_metrics`` builds them."""
        by_cell: dict[tuple[str, int], list[float]] = {}
        for (case, size, _variant), values in self.latencies.items():
            by_cell.setdefault((case, size), []).append(statistics.median(values))
        by_case: dict[str, list[tuple[int, float]]] = {}
        for (case, size), medians in sorted(by_cell.items()):
            by_case.setdefault(case, []).append((size, 1000 * self.measure._geomean(medians)))
        return {case: (points[0], points[-1], self.measure._slope(points)) for case, points in by_case.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of side A")
    parser.add_argument("b", type=Path, help="checkout root of side B")
    parser.add_argument("--workload", required=True, choices=["regex-deriv", "cfg-parse", "verify"])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch_a, tempfile.TemporaryDirectory() as scratch_b:
        sides = (Side(args.a.resolve(), args.workload, scratch_a), Side(args.b.resolve(), args.workload, scratch_b))
        pair = 0
        for index in range(args.rounds):
            makers = zip(*(side.workload.round(args.seed, index) for side in sides))
            for makes in makers:
                requests = []
                for side, make in zip(sides, makes):
                    side.activate()
                    requests.append(make())
                first, second = requests
                if (first.case, first.size, first.variant) != (second.case, second.size, second.variant):
                    print(f"error: the two sides' rounds differ: {first.case}/{first.size} against {second.case}/{second.size}")
                    return 2
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for i in order:
                    sides[i].run(requests[i])
                pair += 1
        wrong = []
        for label, side in zip("AB", sides):
            side.activate()
            wrong += [f"{label}: {reason}" for reason in side.measure.check_all(side.done)]

    a, b = sides
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds, {pair} pairs; A = {a.root}, B = {b.root}")
    metrics = [side.measure.latency_metrics(side.latencies, 1.0) for side in sides]
    print(f"{'metric':<14} {'A':>12} {'B':>12} {'B/A':>8}   (unscaled)")
    for name in metrics[0]:
        x, y = metrics[0][name], metrics[1][name]
        print(f"{name:<14} {x:12.4f} {y:12.4f} {y / x:8.3f}")
    print(f"\n{'case':<26} {'side':<4} {'smallest cell':>18} {'largest cell':>18} {'slope':>7}")
    cases = [side.cases() for side in sides]
    for case in cases[0]:
        for label, per_side in zip("AB", cases):
            (n0, ms0), (n1, ms1), slope = per_side[case]
            print(f"{case:<26} {label:<4} {n0:>6} {ms0:8.3f} ms {n1:>6} {ms1:8.3f} ms {slope:7.3f}")
    for reason in wrong:
        print(f"WRONG: {reason}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
