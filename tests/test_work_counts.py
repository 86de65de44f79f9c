"""``tools/work_counts.py``: two runs on one checkout agree exactly."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location("work_counts", ROOT / "tools" / "work_counts.py")
work_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work_counts)


def test_two_runs_on_one_checkout_agree_exactly() -> None:
    # The requests on 16 characters: about a second a run.
    named = [request for request in work_counts.requests(ROOT) if len(request[1][2]) <= 16]
    assert {name for name, _argv, _held in named} >= {
        "match ab_star 16 member held",
        "match third_last_a 16 spoiled held",
        "derive a_star 16 cold",
        "match ab_pairs 16 cold",
    }
    batch = [(argv, held) for _name, argv, held in named]
    first, second = work_counts.counts(ROOT, batch), work_counts.counts(ROOT, batch)
    assert first == second
    assert len(first) == len(batch) and min(first) > 10_000
