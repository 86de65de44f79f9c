#!/usr/bin/env python3
"""The effparse benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload regex-deriv --seed 1 --seconds 20 --trace 0

Requests go one at a time, each from a collected heap, through effparse's
public entry points in this process.  After timing, every answer is checked
against an oracle, the checker itself is tested on corrupted answers, and the
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload's fixed rounds under tracing and reports the
per-layer metrics.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["regex-deriv", "cfg-parse", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "effparse" / "__init__.py").is_file():
        print(f"error: no effparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import selftest
    import workloads

    with tempfile.TemporaryDirectory(prefix="grammars-", dir=BENCH) as scratch:
        workload = workloads.build(args.workload, scratch)
        if args.trace:
            import tracing

            metrics, run, reach_done, reach_statuses, problems = tracing.traced_run(workload, args.seed, scratch)
            units = tracing.PER_LAYER_UNITS
            print(f"{args.workload}: traced {run.rounds} rounds, {len(run.statuses)} requests")
        else:
            setup = measure.setup_seconds()
            run = measure.timed_run(workload, args.seed, args.seconds)
            reach_done, reach_statuses = measure.run_reach(workload)
            problems = []
            metrics = {"setup_s": setup, **measure.latency_metrics(run.latencies, run.scale), "peak_rss_mb": run.rss_mb}
            units = measure.END_TO_END_UNITS
            samples = sorted(s for values in run.latencies.values() for s in values)
            deciles = statistics.quantiles(samples, n=10)
            unscaled = measure.latency_metrics(run.latencies, 1.0)
            print(
                f"{args.workload}: {run.rounds} rounds, {len(samples)} timed requests; "
                f"pooled p50 {1000 * deciles[4]:.3f} ms, p90 {1000 * deciles[8]:.3f} ms "
                f"({len(samples) - int(0.9 * len(samples))} samples above p90); "
                f"reference job {1000 * statistics.median(run.references):.4f} ms over {len(run.references)} samples; "
                f"unscaled lat_geo_ms {unscaled['lat_geo_ms']:.4f}, ops_per_s {unscaled['ops_per_s']:.4f} (none of these gated)"
            )
        problems += selftest.self_test(scratch)
        problems += measure.check_all(run.done + reach_done)

    for case, size, error in run.failures:
        print(f"failed: {case}/{size}: {type(error).__name__}")
    overflowed = [case for case, status in reach_statuses if status == "RecursionError"]
    print(
        f"reach: {len(reach_statuses) - len(overflowed)} of {len(reach_statuses)} completed; "
        f"RecursionError on {', '.join(overflowed) or 'none'}"
    )
    # Over the base rounds and the reach requests, a fixed set, so that the
    # ratio repeats exactly from run to run.
    base = run.statuses[: run.base_requests]
    base_failed = sum(1 for status in base if status != "ok")
    fail_ratio = (base_failed + len(overflowed)) / (len(base) + len(reach_statuses))
    print(
        f"fail_ratio {fail_ratio:.6g} ratio over the base rounds and reach requests "
        f"({base_failed} failed of {len(base)}, {len(overflowed)} overflowed of {len(reach_statuses)}; not gated)"
    )
    attempted = len(run.statuses)
    for problem in problems:
        print(f"WRONG: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
