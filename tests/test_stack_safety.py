"""Deep inputs at the default recursion limit.

The interpreter keeps pending branches and continuations as data, so how
deep a run goes is bounded by memory, not by the Python stack.  Each test
here pins the limit at CPython's default for its duration, so a walker
that recursed once per command or per nested call would overflow.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from effparse.cfg import Nonterminal, SemValue, grammar_from_text, parse
from effparse.cli import main
from effparse.core import (
    NONDET_ROW,
    PARSER_ROW,
    UNIT,
    EffectId,
    EffectRow,
    Str,
    bind,
    choice,
    choices,
    pure,
    symbol_strict,
)
from effparse.handlers import Done, RecursiveFn, run_parser, run_parser_prefix, run_with_fuel
from effparse.semantics import results_demonic

S = Nonterminal("S")


@pytest.fixture(autouse=True)
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def test_parse_deeply_nested_dyck_word() -> None:
    depth = 1000
    g = grammar_from_text("S -> '(' S ')' S |\n")
    text = "(" * depth + ")" * depth
    results = parse(g, S, text)
    assert [remainder for _node, remainder in results] == ["", text]
    # The full parse nests production 0 `depth` times, each with an empty
    # trailing S; walked with a loop, as comparing whole trees recurses.
    node: SemValue = results[0][0]
    for _ in range(depth):
        assert (node.nt, node.production, len(node.children)) == (S, 0, 2)
        assert node.children[1] == SemValue(S, 1, ())
        node = node.children[0]
    assert node == SemValue(S, 1, ())


def test_fuel_and_demonic_runs_on_ten_thousand_branches() -> None:
    leaves = [pure(Str(str(i))) for i in range(10_000)]
    expected = tuple((Str(str(i)), None) for i in range(10_000))
    assert results_demonic(choices(leaves, NONDET_ROW)) == expected
    row = EffectRow((EffectId.REC, EffectId.NONDET))
    f = RecursiveFn(row, lambda _input: choices(leaves, row))
    assert run_with_fuel(f, UNIT, 0) == Done(expected)


def test_run_parser_on_a_ten_thousand_character_read_loop() -> None:
    def reads():
        return choice(bind(symbol_strict(PARSER_ROW), lambda _c: reads()), pure(UNIT), PARSER_ROW)

    text = "a" * 10_000
    assert run_parser(reads(), text) == ((UNIT, ""),)
    assert [remainder for _value, remainder in run_parser_prefix(reads(), text)] == [
        text[n:] for n in range(len(text), -1, -1)
    ]


def test_cli_cfg_parse_right_recursion_of_512(capsys, tmp_path: Path) -> None:
    path = tmp_path / "right_rec.cfg"
    path.write_text("S -> 'a' S | 'a'\n", encoding="utf-8")
    n = 512
    code = main(["cfg-parse", str(path), "S", "a" * n])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "(node S 0 " * (n - 1) + "(node S 1)" + ")" * (n - 1) + "\n"
