"""The answer checks must reject wrong answers, or a fast wrong answer passes.

Each case takes a genuine answer, or a known one, and corrupts it the way a
broken engine could: a witness with one character flipped, a derivation with
a wrong production index, a lost or doubled result, a wrong exit code, a
flipped verdict.  The check must accept the genuine answer and reject every
corruption.

    python3 bench/selftest.py
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402  (needs the sources on the path)


def _flip_first(text: str, old: str, new: str) -> str:
    assert old in text, (old, text)
    return text.replace(old, new, 1)


def cases(scratch_dir: str) -> list[tuple[str, w.Request, object, list[tuple[str, object]]]]:
    """(name, request, genuine outcome, [(corruption, outcome)])."""
    files = w.GrammarFiles(scratch_dir)
    languages = w.Languages()
    out = []

    match = w.regex_request("ab_star", "abba")
    code, text = match.run()
    out.append(
        (
            "witness",
            match,
            (code, text),
            [
                ("one character flipped", (code, _flip_first(text, "(char a)", "(char b)"))),
                ("unreadable", (code, _flip_first(text, "(list", "(lst"))),
                ("missing", (1, "")),
                ("doubled", (code, text + text)),
                ("wrong exit code", (1, text)),
            ],
        )
    )
    no_match = w.regex_request("a_star", "aab")
    out.append(
        (
            "no witness",
            no_match,
            no_match.run(),
            [("invented witness", (0, "(list (char a) (char a) (char b))\n")), ("wrong exit code", (0, ""))],
        )
    )

    parse = w.cfg_request(files, "dyck", "(())()")
    code, text = parse.run()
    out.append(
        (
            "derivation",
            parse,
            (code, text),
            [
                ("wrong production index", (code, _flip_first(text, "(node S 0", "(node S 1"))),
                ("missing", (1, "")),
                ("doubled", (code, text + text)),
                ("wrong exit code", (1, text)),
            ],
        )
    )
    prefix_only = w.cfg_request(files, "palindrome", "abb")
    out.append(
        (
            "no derivation",
            prefix_only,
            prefix_only.run(),
            [("prefix parse as full parse", (0, "(node P 2)\n"))],
        )
    )

    reach = w.REGEX_REACH[0]
    expected = (0, "(list" + " (char a)" * 256 + ")\n")
    out.append(
        (
            "closed form",
            reach,
            expected,
            [("one character flipped", (0, _flip_first(expected[1], "(char a))", "(char b))"))), ("cut short", (0, expected[1][:-3] + ")\n"))],
        )
    )

    rng = random.Random(0)
    for name, request in (
        ("refinement", w.refines_request(w.random_regex(rng, 5), "abab")),
        ("wp all", w.wp_request(rng, True, 64, True)),
        ("wp any", w.wp_request(rng, False, 64, True)),
        ("in_language", languages.request("expression", "(x+x)")),
        ("in_language", languages.request("right_rec", "aa")),
        ("terminates_in", w.terminates_request("third_last_a", "abab")),
    ):
        verdict = request.run()
        out.append((name, request, verdict, [("flipped verdict", not verdict)]))
    return out


def self_test(scratch_dir: str) -> list[str]:
    """Problems with the checks; empty when each behaves."""
    problems = []
    with w.oracle_recursion():
        for name, request, genuine, corrupted in cases(scratch_dir):
            reason = request.check(genuine)
            if reason is not None:
                problems.append(f"self-test {name}: genuine answer rejected: {reason}")
            for corruption, outcome in corrupted:
                if request.check(outcome) is None:
                    problems.append(f"self-test {name}: accepted an answer with {corruption}")
    return problems


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="grammars-", dir=BENCH) as directory:
        found = self_test(directory)
    for problem in found:
        print(problem)
    print("self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
