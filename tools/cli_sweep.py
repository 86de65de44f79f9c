#!/usr/bin/env python3
"""Differential sweep of the command line over two checkouts.

    python3 tools/cli_sweep.py A B

``A`` and ``B`` are checkout roots.  A fixed list of invocations covers
``match`` (both engines, ``--fuel`` none/0/3, ``json-lines``,
``--max-results 1``), ``derive``, usage errors, every command's
``--help``, and ``cfg-check`` and ``cfg-parse`` (``--fuel``
none/0/2/5/40) on the expression, Dyck and palindrome grammars, a grammar
whose proven budget falls short, a cyclic one and a malformed one, each
also with an undefined and an empty start symbol; one grammar per syntax error message and one that uses an
undefined nonterminal; one that is not UTF-8, and a missing file.  Listings
that ``--max-results`` truncates come from ambiguous patterns on the
structural engine and from a grammar with 2**n parses of ``a`` * n.  The
grammar files are written once to a temporary directory that both sides
read, so file names in messages agree.

Each side runs every invocation through its own ``effparse.cli.main`` in
one child process with ``PYTHONPATH=<root>/src``, which reads the list
from stdin and captures stdout, stderr and the exit code of each.  An
exception escaping ``main`` is recorded by its type and message.

Prints the invocation count and A's count per exit code, then the argv of
each invocation whose stdout, stderr or exit code differ between the sides.
Exits 0 when none differs, 1 when any does, and 2 when a side's child
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

#: The child: reads a JSON list of argvs, prints a JSON list of
#: ``[exit code, stdout, stderr]``, one per argv.
_CHILD = r"""
import contextlib, io, json, sys
from effparse import cli

answers = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as error:
            code = f"exception {type(error).__name__}: {error}"
    answers.append([code, out.getvalue(), err.getvalue()])
json.dump(answers, sys.stdout)
"""

_PATTERNS = ("a", "ab|a(b|\\e)", "(a|b)*", "(a*)*", "a(", "\\e", "\\0")
_TEXTS = ("", "a", "ab", "aab")

#: File name, contents, start symbol and inputs of each grammar.
_GRAMMARS = (
    ("expression.g", "E -> T R\nR -> '+' T R |\nT -> F\nF -> 'x' | '(' E ')'\n", "E", ("", "x", "x+x", "(x)", "x+", "(x+x)+x")),
    ("dyck.g", "S -> '(' S ')' S |\n", "S", ("", "()", "(()())", "(()", ")(")),
    ("palindrome.g", "P -> 'a' P 'a' | 'b' P 'b' | 'a' | 'b' |\n", "P", ("", "a", "aba", "abba", "ab")),
    ("nullable_run.g", "S -> A A 'a' |\nA -> | 'b' A S\n", "S", ("", "a", "bb", "ba", "bab")),
    ("cyclic.g", "E -> E '+' E | '1'\n", "E", ("1", "1+1")),
    ("malformed.g", "E -> 'ab'\n", "E", ("ab",)),
)

#: File name, contents and start symbol of a grammar with 2**n parses of "a" * n.
_AMBIGUOUS = ("ambiguous.g", "S -> 'a' S | 'a' T |\nT -> 'a' S | 'a' T |\n", "S")

#: File name and contents of grammars that fail to load, one per message.
_BAD_GRAMMARS = (
    ("unterminated.g", "# a terminal without its closing quote\nE -> 'a' | '\n"),
    ("escape.g", "E -> 'a'\nE -> '\\q'\n"),
    ("two_chars.g", "E -> 'a' # fine\nE -> 'xy'\n"),
    ("unexpected.g", "E -> 'a' $\n"),
    ("no_arrow.g", "E -> 'a'\n\nE 'b'\n"),
    ("second_arrow.g", "E -> 'a' -> 'b'\n"),
    ("undefined.g", "E -> 'a' F\n"),
)


def invocations(directory: Path) -> list[list[str]]:
    """The sweep's argvs; grammar files are written to ``directory``."""
    argvs: list[list[str]] = []
    for pattern in _PATTERNS:
        for text in _TEXTS:
            for engine in ("structural", "derivative"):
                for fuel in (None, "0", "3"):
                    argvs.append(["match", pattern, text, "--engine", engine] + (["--fuel", fuel] if fuel else []))
            argvs.append(["match", pattern, text, "--format", "json-lines"])
            argvs.append(["match", pattern, text, "--max-results", "1"])
            argvs.append(["derive", pattern, text])
    for pattern, text in (("a|a", "a"), ("(a|a)(a|a)", "aa")):
        for shown in ("0", "1"):
            argvs.append(["match", pattern, text, "--engine", "structural", "--fuel", "3", "--max-results", shown])
    for name, source, start, texts in _GRAMMARS:
        path = str(directory / name)
        Path(path).write_text(source, encoding="utf-8")
        argvs.append(["cfg-check", path])
        for text in texts:
            for fuel in (None, "0", "2", "5", "40"):
                argvs.append(["cfg-parse", path, start, text] + (["--fuel", fuel] if fuel else []))
            argvs.append(["cfg-parse", path, start, text, "--format", "json-lines"])
            argvs.append(["cfg-parse", path, start, text, "--max-results", "1"])
        argvs.append(["cfg-parse", path, "Z", texts[0]])
        argvs.append(["cfg-parse", path, "", texts[0]])
    name, source, start = _AMBIGUOUS
    path = str(directory / name)
    Path(path).write_text(source, encoding="utf-8")
    for n in range(7):
        for shown in ("0", "1", "3"):
            argvs.append(["cfg-parse", path, start, "a" * n, "--max-results", shown])
    for name, source in _BAD_GRAMMARS:
        path = str(directory / name)
        Path(path).write_text(source, encoding="utf-8")
        argvs += [["cfg-check", path], ["cfg-parse", path, "E", "a"]]
    not_utf8 = directory / "latin1.g"
    not_utf8.write_bytes(b"E -> '\xe9'\n")
    missing = str(directory / "missing.g")
    for path in (str(not_utf8), missing):
        argvs += [["cfg-check", path], ["cfg-parse", path, "E", "x"]]
    argvs += [
        [],
        ["--help"],
        ["bogus"],
        ["match"],
        ["match", "a"],
        ["match", "--help"],
        ["match", "a", "a", "--fuel", "-1"],
        ["match", "a", "a", "--fuel", "x"],
        ["match", "a", "a", "--engine", "nope"],
        ["match", "a", "a", "--format", "xml"],
        ["match", "a\\", "a"],
        ["derive", "a"],
        ["derive", "--help"],
        ["cfg-check"],
        ["cfg-check", "--help"],
        ["cfg-parse", "--help"],
        ["cfg-parse", missing, "E"],
        ["cfg-parse", missing, "E", "x", "--max-results", "-1"],
        ["cfg-parse", missing, "E", "x", "--format", "xml"],
    ]
    return argvs


def run_side(root: Path, argvs: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(argvs), env=env, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root}: the child process exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of side A")
    parser.add_argument("b", type=Path, help="checkout root of side B")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as scratch:
        argvs = invocations(Path(scratch))
        try:
            a, b = run_side(args.a.resolve(), argvs), run_side(args.b.resolve(), argvs)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    codes = Counter(str(answer[0]) for answer in a)
    print(f"{len(argvs)} invocations")
    print("exit codes (A): " + ", ".join(f"{code}: {count}" for code, count in sorted(codes.items())))
    differing = [argv for argv, left, right in zip(argvs, a, b) if left != right]
    for argv in differing:
        print("DIFFERS: effparse " + shlex.join(argv))
    print(f"{len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
