"""Timing the workloads: set-up, the closed loop, the reach requests, checks."""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from workloads import Request, Workload, fresh_heap, oracle_recursion

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 9
# The child times the import, then a reference job of the same nature made
# with the standard library alone: twenty frozen dataclasses, whose generated
# methods are compiled as effparse's are at import.  The ratio of the two
# holds steady while the machine's speed drifts.
SETUP_CODE = """
import dataclasses, time
start = time.perf_counter()
import effparse
imported = time.perf_counter() - start
start = time.perf_counter()
for i in range(20):
    fields = {"__annotations__": {"a": "int", "b": "str", "c": "object"}}
    dataclasses.dataclass(frozen=True)(type(f"C{i}", (), fields))
print(imported, time.perf_counter() - start)
"""
# The reference job's usual time on the machine the baseline was taken on.
SETUP_REFERENCE_USUAL_S = 0.015

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "lat_geo_ms": "ms",
    "lat_small_ms": "ms",
    "lat_large_ms": "ms",
    "growth_exp": "log/log",
    "peak_rss_mb": "MB",
}


# The speed of a shared machine drifts by up to half while other tenants
# run.  So each run times a fixed pure-Python job every REFERENCE_PERIOD_S
# between requests, and times are reported scaled by REFERENCE_USUAL_S over
# the run's median job time, to the power REFERENCE_EXPONENT: milliseconds
# as they would read on the machine the baseline was taken on, in its usual
# state.  Over 50 runs of the three workloads there, log raw time against
# log job time had a slope of 0.83 to 0.89 (see README.md).
REFERENCE_USUAL_S = 0.001
REFERENCE_EXPONENT = 0.85
REFERENCE_PERIOD_S = 0.1

_KEYS = [f"key{i}" for i in range(4000)]
_ORDER = random.Random(0).sample(range(len(_KEYS)), len(_KEYS))


def reference_sample() -> float:
    """Seconds for a fixed job: a table of 4000 string keys filled, then read
    in a scattered order.  Of the jobs tried, its time followed the engines'
    best as the machine's speed drifted."""
    start = time.perf_counter()
    table = {key: (i, key) for i, key in enumerate(_KEYS)}
    sum(table[_KEYS[i]][0] for i in _ORDER)
    return time.perf_counter() - start


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import effparse, scaled to the
    reference speed by the job each interpreter times after the import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ratios = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        imported, reference = map(float, child.stdout.split())
        ratios.append(imported / reference)
    return statistics.median(ratios) * SETUP_REFERENCE_USUAL_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Run:
    """What a pass over the mix did.

    ``done`` holds (case, size, check, outcome) for answers still to be
    checked, ``failures`` (case, size, exception) for operations that raised,
    and ``statuses`` each request's "ok" or exception name, in order.
    """

    latencies: dict[tuple[str, int, int], list[float]] = field(default_factory=dict)
    done: list[tuple[str, int, Callable[[object], "str | None"], object]] = field(default_factory=list)
    failures: list[tuple[str, int, BaseException]] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    rounds: int = 0
    # Requests in the base rounds, a set fixed by the workload and the seed.
    base_requests: int = 0
    busy_s: float = 0.0
    rss_mb: float = 0.0
    references: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return (REFERENCE_USUAL_S / statistics.median(self.references)) ** REFERENCE_EXPONENT


def timed_run(
    workload: Workload,
    seed: int,
    seconds: float,
    run: Callable[[Request], object] = lambda request: request.run(),
) -> Run:
    """Rounds of the mix until ``seconds`` have passed, and at least the
    workload's base rounds; with ``seconds`` 0, exactly the base rounds.
    Peak memory is read when the base rounds are done."""
    result = Run()
    deadline = time.perf_counter() + seconds
    last_reference = -math.inf
    while True:
        for make in workload.round(seed, result.rounds):
            if result.rounds >= workload.base_rounds and time.perf_counter() >= deadline:
                return result
            request = make()
            fresh_heap()
            if time.perf_counter() - last_reference >= REFERENCE_PERIOD_S:
                result.references.append(reference_sample())
                last_reference = time.perf_counter()
            start = time.perf_counter()
            try:
                outcome = run(request)
            except Exception as error:  # a failed operation
                result.busy_s += time.perf_counter() - start
                result.failures.append((request.case, request.size, error))
                result.statuses.append(type(error).__name__)
                continue
            elapsed = time.perf_counter() - start
            result.busy_s += elapsed
            result.latencies.setdefault((request.case, request.size, request.variant), []).append(elapsed)
            result.done.append((request.case, request.size, request.check, outcome))
            result.statuses.append("ok")
        result.rounds += 1
        if result.rounds == workload.base_rounds:
            result.rss_mb = peak_rss_mb()
            result.base_requests = len(result.statuses)


def run_reach(workload: Workload) -> tuple[list, list[tuple[str, str]]]:
    """Each reach request once, untimed.  Returns the answers to check and
    (case, status) pairs.  A stack overflow counts as a failed operation;
    any other exception is kept as the answer, and the check rejects it."""
    done, statuses = [], []
    for request in workload.reach:
        fresh_heap()
        try:
            outcome: object = request.run()
        except RecursionError:
            statuses.append((request.case, "RecursionError"))
            continue
        except Exception as error:  # a wrong answer, reported by check_all
            outcome = error
        statuses.append((request.case, "answered"))
        done.append((request.case, request.size, request.check, outcome))
    return done, statuses


def check_all(done: list) -> list[str]:
    """Reasons for every wrong answer among (case, size, check, outcome)."""
    wrong = []
    with oracle_recursion():
        for case, size, check, outcome in done:
            if isinstance(outcome, BaseException):
                wrong.append(f"{case}/{size}: raised {type(outcome).__name__}")
                continue
            reason = check(outcome)
            if reason is not None:
                wrong.append(f"{case}/{size}: {reason}")
    return wrong


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(median) for _, median in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def latency_metrics(latencies: dict[tuple[str, int, int], list[float]], scale: float) -> dict[str, float]:
    """Every figure is built from per-cell latencies, so each cell weighs the
    same however many requests it got; times are multiplied by ``scale``.

    A cell's latency is the geometric mean of the medians of its two
    variants.  Members and spoiled inputs can cost very different times, and
    the median of an even mix of two costs jumps between them.
    """
    by_cell: dict[tuple[str, int], list[float]] = {}
    for (case, size, _variant), values in latencies.items():
        by_cell.setdefault((case, size), []).append(statistics.median(values))
    medians = {cell: scale * _geomean(values) for cell, values in by_cell.items()}
    by_case: dict[str, list[tuple[int, float]]] = {}
    for (case, size), median in sorted(medians.items()):
        by_case.setdefault(case, []).append((size, median))
    return {
        "ops_per_s": len(medians) / sum(medians.values()),
        "lat_geo_ms": 1000 * _geomean(list(medians.values())),
        "lat_small_ms": 1000 * _geomean([points[0][1] for points in by_case.values()]),
        "lat_large_ms": 1000 * _geomean([points[-1][1] for points in by_case.values()]),
        "growth_exp": max(_slope(points) for points in by_case.values()),
    }
