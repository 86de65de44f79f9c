#!/usr/bin/env python3
"""Executed-bytecode counts of fixed requests on two checkouts.

    python3 tools/work_counts.py A B

``A`` and ``B`` are checkout roots.  Wall time on a shared machine is
noisy; the number of bytecodes a request executes is not, so it shows a
change in work that a pair of timed runs cannot.  It counts only work done
in Python: a C call such as a tuple copy is one bytecode however long it
runs.  Counts also differ between Python versions, so compare them on one
interpreter only.

The requests go through ``effparse.cli.main`` and are built from B's
``bench/workloads.py``, which is read and never edited:

* every regex-deriv cell, once on a member and once on a spoiled input,
  each from a fixed seed, with its pattern held, as the bench holds it;
* ``derive`` and ``match`` on a member of each bench pattern at 16 and 256
  characters, each cold: nothing holds the pattern before it starts, as in
  a fresh process.

Whether a pattern is held decides what its nodes still know when a request
starts, and so its count: a pattern collected between two runs of one
request leaves the second to build its steps again.  So each request runs
once to warm the interpreter, then once counted, each time after
``gc.collect()``, and a held pattern is held across both.

Each side runs every request in one child process with
``PYTHONPATH=<root>/src`` and ``PYTHONHASHSEED=0``, tracing with
``sys.settrace`` and ``frame.f_trace_opcodes``.  Prints each request's count
on both sides and their ratio B/A, then the geometric mean of the ratios
per kind of request.  Exits 0, or 2 when a side's child process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

#: The child: reads a JSON list of ``[argv, held pattern or null]``, prints
#: a JSON list of executed-bytecode counts, one per request.
_CHILD = r"""
import contextlib, gc, io, json, sys
from effparse import cli
from effparse.regex import parse_regex

executed = 0

def opcodes(frame, event, arg):
    global executed
    if event == "opcode":
        executed += 1
    return opcodes

def calls(frame, event, arg):
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    return opcodes

def run(argv, traced):
    global executed
    executed = 0
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls if traced else None)
        try:
            cli.main(argv)
        finally:
            sys.settrace(None)
    return executed

counts = []
for argv, held in json.load(sys.stdin):
    pattern = None if held is None else parse_regex(held)
    run(argv, False)
    counts.append(run(argv, True))
    del pattern
json.dump(counts, sys.stdout)
"""

#: Characters of the ``derive`` and cold ``match`` requests.
_COLD_SIZES = (16, 256)

#: The seed of every request's input.
_SEED = 1


def requests(root: Path) -> list[tuple[str, list[str], str | None]]:
    """Name, argv and held pattern (or ``None``) of each request, from the
    bench of the checkout at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    out = []
    for case, n in workloads.regex_deriv().cells:
        pattern = workloads.PATTERNS[case]
        for variant, spoil in (("member", None), ("spoiled", 0.5)):
            text = workloads.regex_text(random.Random(f"{_SEED}:{case}:{n}"), pattern, n, spoil)
            out.append((f"match {case} {n} {variant} held", ["match", pattern.text, text], pattern.text))
    for n in _COLD_SIZES:
        for case, pattern in workloads.PATTERNS.items():
            text = pattern.member(random.Random(f"{_SEED}:{case}:{n}"), n)
            for command in ("derive", "match"):
                out.append((f"{command} {case} {n} cold", [command, pattern.text, text], None))
    return out


def counts(root: Path, batch: list[tuple[list[str], str | None]]) -> list[int]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(batch), env=env, capture_output=True, text=True, timeout=3600
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root}: the child process exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of side A (the base)")
    parser.add_argument("b", type=Path, help="checkout root of side B (the change)")
    args = parser.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    named = requests(b)
    batch = [(request_argv, held) for _name, request_argv, held in named]
    try:
        sides = counts(a, batch), counts(b, batch)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"executed bytecodes per request, Python {version}; A = {a}, B = {b}")
    width = max(len(name) for name, _argv, _held in named)
    print(f"{'request':<{width}} {'A':>12} {'B':>12} {'B/A':>7}")
    logs: dict[str, list[float]] = {}
    for (name, _argv, _held), x, y in zip(named, *sides):
        print(f"{name:<{width}} {x:>12,} {y:>12,} {y / x:7.3f}")
        kind = f"{name.split()[0]} {name.split()[-1]}"
        logs.setdefault(kind, []).append(math.log(y / x))
    for kind, values in logs.items():
        print(f"geometric mean B/A, {kind}: {math.exp(sum(values) / len(values)):.3f} over {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
