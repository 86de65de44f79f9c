"""The concrete regex syntax: parser, printer, and tree rendering."""

from __future__ import annotations

import pytest
from hypothesis import given

from effparse.regex import (
    EMPTY,
    EPSILON,
    Alt,
    Cat,
    CharT,
    LeftT,
    ListT,
    PairT,
    Regex,
    RegexSyntaxError,
    RightT,
    Singleton,
    Star,
    UNIT_TREE,
    format_regex,
    format_tree,
    parse_regex,
)

from helpers import regex_nodes, regexes_up_to

A, B, C = Singleton("a"), Singleton("b"), Singleton("c")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_precedence() -> None:
    # '*' binds tightest, juxtaposition next, '|' loosest.
    assert parse_regex("a|b*c") == Alt(A, Cat(Star(B), C))
    assert parse_regex("ab|c") == Alt(Cat(A, B), C)
    assert parse_regex("(a|b)c") == Cat(Alt(A, B), C)
    assert parse_regex("a**") == Star(Star(A))


def test_parse_associativity() -> None:
    assert parse_regex("abc") == Cat(A, Cat(B, C))
    assert parse_regex("a|b|c") == Alt(A, Alt(B, C))


def test_parse_escapes_and_blanks() -> None:
    assert parse_regex("\\e") == EPSILON
    assert parse_regex("\\0") == EMPTY
    assert parse_regex("\\*") == Singleton("*")
    assert parse_regex("\\|") == Singleton("|")
    assert parse_regex("\\\\") == Singleton("\\")
    assert parse_regex("a b\t c") == Cat(A, Cat(B, C))


@pytest.mark.parametrize(
    ("pattern", "column"),
    [
        ("", 1),
        ("(", 2),
        ("a|", 3),
        ("*", 1),
        (")", 1),
        ("\\q", 2),
        ("a)", 2),
        ("(a", 3),
        ("a\\", 3),
    ],
)
def test_parse_errors_carry_positions(pattern: str, column: int) -> None:
    with pytest.raises(RegexSyntaxError) as info:
        parse_regex(pattern)
    assert info.value.position == column - 1
    assert f"(column {column})" in str(info.value)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_format_parenthesizes_only_when_needed() -> None:
    assert format_regex(Alt(A, Cat(Star(B), A))) == "a|b* a"
    assert format_regex(Cat(Alt(A, B), A)) == "(a|b) a"
    assert format_regex(Star(Alt(A, B))) == "(a|b)*"
    assert format_regex(Star(Star(A))) == "a**"
    assert format_regex(Cat(A, Cat(B, A))) == "a b a"
    assert format_regex(Cat(Cat(A, B), A)) == "(a b) a"
    assert format_regex(Alt(Alt(A, B), A)) == "(a|b)|a"
    assert format_regex(Star(EMPTY)) == "\\0*"
    assert format_regex(Singleton("*")) == "\\*"


def test_round_trip_over_the_enumerated_universe() -> None:
    # Nodes are interned, so the parse is the very same object.
    for r in regexes_up_to(4):
        assert parse_regex(format_regex(r)) is r


def test_round_trip_with_metacharacter_alphabet() -> None:
    for r in regexes_up_to(3, alphabet="a*\\("):
        assert parse_regex(format_regex(r)) == r


@given(regex_nodes("ab|*()\\"))
def test_round_trip_generated(r: Regex) -> None:
    # Blank singletons are outside the concrete syntax (the printer uses
    # blanks as skippable separators), so the alphabet here has none.
    assert parse_regex(format_regex(r)) == r


# ---------------------------------------------------------------------------
# Tree rendering
# ---------------------------------------------------------------------------


def test_format_tree_goldens() -> None:
    assert format_tree(UNIT_TREE) == "unit"
    assert format_tree(CharT("a")) == "(char a)"
    assert format_tree(ListT(())) == "(list)"
    assert format_tree(ListT((CharT("a"), CharT("a")))) == "(list (char a) (char a))"
    assert format_tree(PairT(UNIT_TREE, LeftT(RightT(CharT("b"))))) == (
        "(pair unit (inl (inr (char b))))"
    )
