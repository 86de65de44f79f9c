#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change, as one JSON object.

    python3 tools/bench_pairs.py A B [--workload W] [--pairs 10] [--seed 1] > BENCH_<pr>.json

``A`` and ``B`` are the parent's and the change's checkout roots.  For each
pair and workload (default: all three), B's ``BENCHMARK.json`` command runs
in each checkout as a child on this interpreter, with ``--workload W --seed
S --seconds <run_seconds>``, A first in odd pairs.  Each child gets an empty
``PYTHONPYCACHEPREFIX``, so both sides' ``setup_s`` time a cold import.  Its
last stdout line is its result; if it exits non-zero or is not ``correct``,
this names the side and the pair and exits 1.

Writes ``runs[workload][seed][side]``, each metric's median and quartiles
per side (inclusive method), the failed requests per side, and
``verdicts[workload][metric]``, which stderr repeats:

* better: at least ten pairs, the change wins nine tenths of them (ties
  count for neither), and the medians differ by more than the parent's
  interquartile range;
* worse: the change's median is worse by more than the metric's ``bound``
  in ``BENCHMARK.json``, a fraction of the parent's;
* unresolved: the parent's interquartile range is wider than that bound;
* within noise: anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("regex-deriv", "cfg-parse", "verify")


def _result(root: Path, command: list[str], where: str) -> dict:
    """The last stdout line of ``command`` run in ``root`` with an empty bytecode cache."""
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
    if not result.get("correct"):
        sys.exit(f"error: the {where} exited {done.returncode}:\n{done.stdout[-1500:]}{done.stderr[-1500:]}")
    return result


def _quartiles(values: list[float]) -> dict[str, float]:
    # One run is its own three quartiles.
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    sign = 1 if metric["better"] == "lower" else -1
    p, c, spread = statistics.median(parent), statistics.median(change), _quartiles(parent)
    iqr = spread["q3"] - spread["q1"]
    wins = sum(sign * (x - y) > 0 for x, y in zip(parent, change))
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (p - c) > iqr:
        return "better"
    if sign * (c - p) > metric["bound"] * abs(p):
        return "worse"
    return "unresolved" if iqr > metric["bound"] * abs(p) else "within noise"


def summary(runs: dict, end_to_end: list[dict]) -> dict:
    """``medians``, ``failed`` and ``verdicts`` of ``runs[workload][seed][side]``."""
    medians, verdicts, failed = {}, {}, dict.fromkeys(SIDES, 0)
    for workload, by_seed in runs.items():
        ((seed, by_side),) = by_seed.items()
        for side in SIDES:
            failed[side] += sum(run["failed"] for run in by_side[side])
        medians[workload] = {seed: {}}
        verdicts[workload] = {}
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [run["metrics"][name]["value"] for run in by_side[side]] for side in SIDES}
            medians[workload][seed][name] = {side: _quartiles(values[side]) for side in SIDES}
            verdicts[workload][name] = _verdict(metric, values["parent"], values["change"])
    return {"medians": medians, "failed": failed, "verdicts": verdicts}


def _describe(root: Path) -> str:
    done = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"], capture_output=True, text=True)
    return done.stdout.strip() or root.name


def bench_pairs(a: Path, b: Path, workloads: list[str], pairs: int, seed: int, seconds: float | None = None) -> dict:
    """The JSON object this writes; ``seconds`` defaults to B's ``run_seconds``."""
    bench = json.loads((b / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if seconds is None else seconds
    command = [sys.executable if part == "python3" else part for part in bench["command"]]
    runs = {workload: {str(seed): {side: [] for side in SIDES}} for workload in workloads}
    for pair in range(1, pairs + 1):
        for workload in workloads:
            for side in SIDES if pair % 2 else SIDES[::-1]:
                flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
                result = _result(a if side == "parent" else b, command + flags, f"{side} ({workload}, pair {pair})")
                runs[workload][str(seed)][side].append(result)
    return {
        "command": " ".join(bench["command"] + ["--workload <workload> --seed <seed> --seconds", str(seconds)]),
        "sides": {"parent": _describe(a), "change": _describe(b)},
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "order": "the i-th run of each side belongs to pair i; odd pairs ran the parent first, even pairs the change",
        **summary(runs, bench["end_to_end"]),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the parent's checkout root")
    parser.add_argument("b", type=Path, help="the change's checkout root")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    report = bench_pairs(args.a.resolve(), args.b.resolve(), workloads, args.pairs, args.seed)
    for workload, verdicts in report["verdicts"].items():
        print("\n".join(f"{workload} {name}: {verdict}" for name, verdict in verdicts.items()), file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
