"""``tools/bench_pairs.py`` on ``BENCH_28.json``'s runs, and on this checkout."""

from __future__ import annotations

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_the_summary_of_bench_28_reproduces_its_quartiles_and_verdicts() -> None:
    committed = json.loads((ROOT / "BENCH_28.json").read_text())
    summary = bench_pairs.summary(committed["runs"], END_TO_END)
    # The same floats by the same method: all 42 median/q1/q3 triples, exactly.
    assert summary["medians"] == committed["medians"]
    verdicts = summary["verdicts"]
    better = {name for name, verdict in verdicts["verify"].items() if verdict == "better"}
    assert better == {"ops_per_s", "lat_geo_ms", "lat_small_ms", "lat_large_ms", "growth_exp", "peak_rss_mb"}
    assert Counter(v for by_name in verdicts.values() for v in by_name.values()) == {"better": 6, "within noise": 15}
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_one_pair_of_this_checkout_against_itself() -> None:
    # A run of length 0 still runs one round and checks every answer.
    report = bench_pairs.bench_pairs(ROOT, ROOT, ["regex-deriv"], 1, 1, seconds=0)
    assert report.keys() == {"command", "sides", "machine", "order", "medians", "failed", "verdicts", "runs"}
    assert [run["correct"] for runs in report["runs"]["regex-deriv"]["1"].values() for run in runs] == [True, True]
    names = {metric["name"] for metric in END_TO_END}
    assert report["medians"]["regex-deriv"]["1"].keys() == names
    # Not all within noise: setup_s alone can pass its bound between two runs.
    verdicts = report["verdicts"]["regex-deriv"]
    assert verdicts.keys() == names and set(verdicts.values()) <= {"better", "worse", "unresolved", "within noise"}


def test_a_wrong_answer_names_the_side_and_the_pair() -> None:
    with pytest.raises(SystemExit, match=r"the change \(verify, pair 3\) exited 0"):
        bench_pairs._result(ROOT, [sys.executable, "-c", "print('{\"correct\": false}')"], "change (verify, pair 3)")
