"""The matching relation, its witness enumerator, and tree utilities."""

from __future__ import annotations

import random

import pytest

from effparse.regex import (
    EMPTY,
    EPSILON,
    Alt,
    Cat,
    CharT,
    LeftT,
    ListT,
    PairT,
    RightT,
    Singleton,
    Star,
    UNIT_TREE,
    enumerate_matches,
    has_no_star,
    is_match,
    regex_size,
    tree_yield,
)

import reference
from helpers import regexes_up_to, strings_up_to

A, B = Singleton("a"), Singleton("b")


# ---------------------------------------------------------------------------
# Yields
# ---------------------------------------------------------------------------


def test_tree_yield_examples() -> None:
    assert tree_yield(UNIT_TREE) == ""
    assert tree_yield(CharT("a")) == "a"
    assert tree_yield(PairT(CharT("a"), RightT(CharT("b")))) == "ab"
    assert tree_yield(ListT((CharT("a"), UNIT_TREE, CharT("b")))) == "ab"


def test_regex_size_and_star_detection() -> None:
    assert regex_size(A) == 1
    assert regex_size(Cat(Alt(A, B), Star(A))) == 6
    assert has_no_star(Cat(A, Alt(B, EPSILON)))
    assert not has_no_star(Cat(A, Star(B)))


# ---------------------------------------------------------------------------
# The matching relation
# ---------------------------------------------------------------------------


def test_is_match_base_cases() -> None:
    assert not is_match(EMPTY, "", UNIT_TREE)
    assert is_match(EPSILON, "", UNIT_TREE)
    assert not is_match(EPSILON, "a", UNIT_TREE)
    assert is_match(A, "a", CharT("a"))
    assert not is_match(A, "b", CharT("a"))
    assert not is_match(A, "a", CharT("b"))
    assert not is_match(A, "b", CharT("b"))
    assert not is_match(A, "", UNIT_TREE)


def test_is_match_structural_cases() -> None:
    assert is_match(Alt(A, B), "b", RightT(CharT("b")))
    assert not is_match(Alt(A, B), "b", LeftT(CharT("b")))
    assert not is_match(Alt(A, B), "a", CharT("a"))
    assert is_match(Cat(A, B), "ab", PairT(CharT("a"), CharT("b")))
    assert not is_match(Cat(A, B), "ba", PairT(CharT("a"), CharT("b")))
    assert is_match(Star(A), "", ListT(()))
    assert not is_match(Star(A), "a", ListT(()))
    assert is_match(Star(A), "aa", ListT((CharT("a"), CharT("a"))))


def test_is_match_allows_empty_iterations() -> None:
    # The relation itself admits iterations that consume nothing; only the
    # enumerator's budget restricts them.
    assert is_match(Star(EPSILON), "", ListT((UNIT_TREE, UNIT_TREE)))


def test_matches_imply_shape_and_yield() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            for t in enumerate_matches(r, s):
                assert is_match(r, s, t)
                assert tree_yield(t) == s


def test_is_match_agrees_with_the_split_searching_reference() -> None:
    # True triples, and false ones from the same regex's trees for other
    # strings and from other regexes' trees.
    universe, strings = regexes_up_to(4), strings_up_to(3)
    trees = {r: [t for s in strings for t in enumerate_matches(r, s)] for r in universe}
    pool = list(dict.fromkeys(t for r in universe for s in strings for t in reference.enumerate_matches(r, s, 1)))
    others = random.Random(11).sample(pool, 30)
    verdicts = {True: 0, False: 0}
    for r in universe:
        for s in strings:
            for t in trees[r] + others:
                verdict = is_match(r, s, t)
                assert verdict == reference.is_match(r, s, t), (r, s, t)
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 400


# ---------------------------------------------------------------------------
# The enumerator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget, max_len", [(0, 4)])
def test_enumeration_agrees_with_the_unbounded_reference(budget: int, max_len: int) -> None:
    # Length bounds only skip splits that cannot match: the reference's
    # trees with no empty iteration, in the same order.
    for r in regexes_up_to(4):
        for s in strings_up_to(max_len):
            assert enumerate_matches(r, s) == reference.enumerate_matches(r, s, budget)



def test_enumerate_matches_goldens() -> None:
    assert enumerate_matches(A, "a") == (CharT("a"),)
    assert enumerate_matches(A, "b") == ()
    assert enumerate_matches(Alt(A, A), "a") == (LeftT(CharT("a")), RightT(CharT("a")))
    assert enumerate_matches(Star(A), "aa") == (ListT((CharT("a"), CharT("a"))),)
    # Concatenation orders by split point, shortest left part first.
    r = Cat(Star(A), Star(A))
    assert enumerate_matches(r, "a") == (
        PairT(ListT(()), ListT((CharT("a"),))),
        PairT(ListT((CharT("a"),)), ListT(())),
    )


def test_star_of_epsilon_matches_the_empty_string_once() -> None:
    assert enumerate_matches(Star(EPSILON), "") == (ListT(()),)


def test_enumeration_is_duplicate_free() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            witnesses = enumerate_matches(r, s)
            assert len(witnesses) == len(set(witnesses))


def test_budget_zero_witnesses_decide_existence() -> None:
    # Any match has a witness with no empty iterations, so emptiness of the
    # enumeration is the same question at every budget.
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            zero = enumerate_matches(r, s)
            one = reference.enumerate_matches(r, s, 1)
            assert bool(zero) == bool(one)
            assert set(zero) <= set(one)


def test_enumeration_scale_pins() -> None:
    # The desk-scale universes the exhaustive suites sweep.
    assert len(regexes_up_to(5, stars=False)) == 548
    assert len(regexes_up_to(5)) == 852
    assert len(strings_up_to(4)) == 31
