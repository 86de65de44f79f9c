"""The traced run: per-layer time and counts for the same requests.

Instrumentation is applied from outside the package and removed afterwards:

* spans from wrappers placed on module attributes at entry points that are
  not on a recursive path (a wrapper on ``bind`` or ``derivative`` would add
  a Python frame per level and move the depth at which requests overflow);
* ``cProfile``, switched on only while a request runs, for per-module self
  time and exact call counts;
* ``cache_info()`` deltas of the derivative and nullability caches;
* ``gc.callbacks`` for collections that happen inside requests.

cProfile slows calls down about threefold, so every time here is a traced
time, scaled to the reference speed like the end-to-end times.  The run also
replays the same requests untraced in a fresh process and reports traced
total over untraced total as ``trace.overhead``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from effparse import cfg, cli, core, handlers, regex, semantics

import measure
import workloads
from workloads import Request, Workload

TRACES = Path(__file__).resolve().parent / "traces"

PER_LAYER_UNITS = {
    "cli.load_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "regex.dmatch_run_s": "s",
    "regex.codec_s": "s",
    "regex.hash_s": "s",
    "regex.self_s": "s",
    "regex.derivative_calls": "count",
    "regex.derivative_hit_ratio": "ratio",
    "regex.nullable_hit_ratio": "ratio",
    "regex.deriv_size_peak": "nodes",
    "regex.cache_entries": "count",
    "handlers.run_with_fuel_s": "s",
    "handlers.self_s": "s",
    "handlers.calls_expanded": "count",
    "handlers.terminates_in_s": "s",
    "core.bind_calls": "count",
    "core.op_nodes": "count",
    "core.self_s": "s",
    "cfg.self_s": "s",
    "cfg.chain_bound_s": "s",
    "cfg.partial_results": "count",
    "cfg.full_ratio": "ratio",
    "semantics.results_demonic_s": "s",
    "semantics.wp_s": "s",
    "semantics.result_set_s": "s",
    "semantics.in_language_s": "s",
    "semantics.invariant_enum_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead": "ratio",
    "reach.failed": "count",
}

# The span each kind of request runs in; the wrappers below open the rest.
REQUEST_SPANS = {
    "refines": "semantics.refines_all",
    "wp_all": "semantics.wp",
    "wp_any": "semantics.wp",
    "in_language": "semantics.in_language",
    "terminates": "handlers.terminates_in",
}

# cfg.py functions that belong to grammar loading and chain analysis, which
# the cli.load and cfg.chain_bound spans already cover.
_CFG_ANALYSIS = {"grammar_from_text", "_tokenize", "_strip_comment", "chain_bound", "explore", "left_rec_links"}


def request_span(case: str) -> str:
    for prefix, name in REQUEST_SPANS.items():
        if case.startswith(prefix):
            return name
    return "cli.main"


def untraced_pass(name: str, seed: int, scratch_dir: str) -> tuple[float, list]:
    """The base rounds and the reach requests untraced: the scaled busy
    seconds and every request's status."""
    workload = workloads.build(name, scratch_dir)
    run = measure.timed_run(workload, seed, 0)
    _, reach_statuses = measure.run_reach(workload)
    return run.busy_s * run.scale, run.statuses + [list(status) for status in reach_statuses]


# Replays the untraced pass in a fresh interpreter and prints its result.
_REPLAY = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
print(json.dumps(tracing.untraced_pass(sys.argv[3], int(sys.argv[4]), sys.argv[5])))
"""


def untraced_replay(name: str, seed: int, scratch_dir: str) -> tuple[float, list]:
    """``untraced_pass`` in a fresh process, whose caches start empty as
    this one's do."""
    bench = Path(__file__).resolve().parent
    child = subprocess.run(
        [sys.executable, "-c", _REPLAY, str(bench), str(bench.parent / "src"), name, str(seed), scratch_dir],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    busy, statuses = json.loads(child.stdout.splitlines()[-1])
    return busy, statuses


def _code_key(function: object) -> tuple[str, int, str] | None:
    code = getattr(function, "__code__", None)
    return (code.co_filename, code.co_firstlineno, code.co_name) if code else None


def _regex_size(r: object) -> int:
    count, stack = 0, [r]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, field) for field in ("left", "right", "body") if hasattr(node, field))
    return count


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, request id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.open: list[int] = []
        self.request_id = -1
        self.patches: list[tuple[object, str, object]] = []
        self.enabled = True

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self.open[-1] if self.open else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.request_id))
        self.open.append(index)
        try:
            yield
        finally:
            self.open.pop()
            name, start, _, parent, request_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, request_id)

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self.patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        def make(original: Callable) -> Callable:
            def traced(*args: object, **kwargs: object) -> object:
                with self.span(name):
                    return original(*args, **kwargs)

            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent index, request."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        print(f"spans: {len(self.spans)} written to {path.relative_to(TRACES.parent.parent)}")

    def self_times(self) -> dict[str, float]:
        """Each span's duration minus what its child spans cover, by name."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals


class Counters:
    """Counts gathered at the wrapped entry points and from the runtime."""

    def __init__(self) -> None:
        self.dmatch_regexes: list[object] = []
        self.size_peaks: list[int] = []
        self.parse_results = 0
        self.full_results = 0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self.in_request = False
        self._gc_start = 0.0

    def on_gc(self, phase: str, _info: dict) -> None:
        if not self.in_request:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def instrument(tracer: Tracer, counters: Counters) -> None:
    for owner, attr, name in (
        (cli, "parse_regex", "cli.load"),
        (cli, "_load_grammar", "cli.load"),
        (cli, "format_tree", "cli.render"),
        (cli, "format_sem_value", "cli.render"),
        (cli, "dmatch_run", "regex.dmatch_run"),
        (cli, "chain_bound", "cfg.chain_bound"),
        (cfg, "chain_bound", "cfg.chain_bound"),
        (semantics, "results_demonic", "semantics.results_demonic"),
        (semantics, "result_set", "semantics.result_set"),
        (semantics.Invariant, "outputs_for", "semantics.invariant_enum"),
    ):
        tracer.wrap(owner, attr, name)

    def observe_dmatch(original: Callable) -> Callable:
        # dmatch is entered once per derivative step and returns at once, so
        # this adds no frame per level; sizes are taken after the request.
        def observed(r: object) -> object:
            if counters.in_request:
                counters.dmatch_regexes.append(r)
            return original(r)

        return observed

    def count_parses(original: Callable) -> Callable:
        def counted(*args: object) -> object:
            with tracer.span("cfg.parse"):
                results = original(*args)
            if not counters.in_request:
                return results
            counters.parse_results += len(results)
            counters.full_results += sum(1 for _, rest in results if rest == "")
            return results

        return counted

    tracer.patch(regex, "dmatch", observe_dmatch)
    tracer.patch(cli, "cfg_parse", count_parses)


def _cache_counts(cached: object) -> tuple[int, int, int]:
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    return (info.hits, info.misses, info.currsize) if info else (0, 0, 0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def profile_metrics(stats: dict) -> dict[str, float]:
    """Per-module self time and call counts from cProfile's table."""
    self_time: dict[str, float] = {}
    cfg_self = hash_s = codec_s = run_with_fuel_s = 0.0
    package = os.path.dirname(os.path.abspath(core.__file__))
    codec = {_code_key(getattr(regex, n, None)) for n in ("parse_regex", "format_regex")}
    regex_file = os.path.join(package, "regex.py")
    for (filename, line, name), (_, calls, tottime, _, callers) in stats.items():
        if name == "__hash__" or name == "<built-in method builtins.hash>":
            hash_s += tottime
        if (filename, line, name) in codec:
            codec_s += sum(edge[3] for caller, edge in callers.items() if caller[0] == regex_file)
        if os.path.dirname(filename) != package:
            continue
        module = os.path.basename(filename)[: -len(".py")]
        self_time[module] = self_time.get(module, 0.0) + tottime
        if module == "cfg" and name not in _CFG_ANALYSIS:
            cfg_self += tottime
        if module == "handlers" and name in ("run_with_fuel", "go"):
            run_with_fuel_s += tottime

    def calls(function: object) -> int:
        key = _code_key(function)
        return stats[key][1] if key in stats else 0

    return {
        "regex.codec_s": codec_s,
        "regex.hash_s": hash_s,
        "regex.self_s": self_time.get("regex", 0.0),
        "handlers.run_with_fuel_s": run_with_fuel_s,
        "handlers.self_s": self_time.get("handlers", 0.0),
        "handlers.calls_expanded": calls(getattr(cfg, "from_prods", None)) + calls(getattr(regex, "dmatch", None)),
        "core.bind_calls": calls(getattr(core, "bind", None)),
        "core.op_nodes": calls(getattr(getattr(core, "Op", None), "__post_init__", None)),
        "core.self_s": self_time.get("core", 0.0),
        "cfg.self_s": cfg_self,
    }


def traced_run(workload: Workload, seed: int, scratch_dir: str) -> tuple[dict[str, float], measure.Run, list, list, list[str]]:
    """The base rounds and the reach requests under tracing.

    Returns the per-layer metrics, the traced run, the reach answers and
    statuses, and any way in which it differs from the untraced replay.
    """
    untraced_busy, untraced_statuses = untraced_replay(workload.name, seed, scratch_dir)

    tracer, counters, profile = Tracer(), Counters(), cProfile.Profile()
    largest: dict[str, int] = {}
    for case, size in workload.cells:
        largest[case] = max(size, largest.get(case, 0))
    caches = {name: _cache_counts(getattr(regex, name, None)) for name in ("derivative", "nullable")}

    def traced(request: Request) -> object:
        tracer.request_id += 1
        counters.in_request = True
        profile.enable()
        try:
            with tracer.span(request_span(request.case)):
                return request.run()
        finally:
            profile.disable()
            counters.in_request = False
            if counters.dmatch_regexes and largest.get(request.case) == request.size:
                counters.size_peaks.append(max(_regex_size(r) for r in counters.dmatch_regexes))
            counters.dmatch_regexes.clear()

    instrument(tracer, counters)
    gc.callbacks.append(counters.on_gc)
    try:
        run = measure.timed_run(workload, seed, 0, traced)
        derivative_after = _cache_counts(getattr(regex, "derivative", None))
        nullable_after = _cache_counts(getattr(regex, "nullable", None))
        # The reach requests go through the same wrappers, so that they
        # overflow at the same depth, but stay out of every figure.
        tracer.enabled = False
        reach_done, reach_statuses = measure.run_reach(workload)
    finally:
        gc.callbacks.remove(counters.on_gc)
        tracer.restore()
    tracer.write(TRACES / f"{workload.name}-{seed}.jsonl")

    problems = []
    if run.statuses + [list(status) for status in reach_statuses] != untraced_statuses:
        problems.append("the traced run did not complete the same requests as the untraced one")

    spans = tracer.self_times()
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(
        {
            "cli.load_s": spans.get("cli.load", 0.0),
            "cli.render_s": spans.get("cli.render", 0.0),
            "cli.self_s": spans.get("cli.main", 0.0),
            "regex.dmatch_run_s": spans.get("regex.dmatch_run", 0.0),
            "handlers.terminates_in_s": spans.get("handlers.terminates_in", 0.0),
            "cfg.chain_bound_s": spans.get("cfg.chain_bound", 0.0),
            "semantics.results_demonic_s": spans.get("semantics.results_demonic", 0.0),
            "semantics.wp_s": spans.get("semantics.wp", 0.0),
            "semantics.result_set_s": spans.get("semantics.result_set", 0.0),
            "semantics.in_language_s": spans.get("semantics.in_language", 0.0),
            "semantics.invariant_enum_s": spans.get("semantics.invariant_enum", 0.0),
        }
    )
    metrics.update(profile_metrics(pstats.Stats(profile).stats))
    d_hits = derivative_after[0] - caches["derivative"][0]
    d_misses = derivative_after[1] - caches["derivative"][1]
    n_hits = nullable_after[0] - caches["nullable"][0]
    n_misses = nullable_after[1] - caches["nullable"][1]
    metrics.update(
        {
            "regex.derivative_calls": d_hits + d_misses,
            "regex.derivative_hit_ratio": _ratio(d_hits, d_hits + d_misses),
            "regex.nullable_hit_ratio": _ratio(n_hits, n_hits + n_misses),
            "regex.deriv_size_peak": statistics.median(counters.size_peaks) if counters.size_peaks else 0,
            "regex.cache_entries": derivative_after[2] + nullable_after[2],
            "cfg.partial_results": counters.parse_results,
            "cfg.full_ratio": _ratio(counters.full_results, counters.parse_results),
            "runtime.gc_s": counters.gc_seconds,
            "runtime.gc_collections": counters.gc_collections,
            "trace.overhead": _ratio(run.busy_s * run.scale, untraced_busy),
            "reach.failed": sum(1 for _, status in reach_statuses if status == "RecursionError"),
        }
    )
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[name] *= run.scale
    return metrics, run, reach_done, reach_statuses, problems
