"""Hash-consed regex nodes: equal regexes are one object, held weakly."""

from __future__ import annotations

import copy
import gc
import pickle
import sys

import pytest

from effparse.regex import _INTERNED, EPSILON, Alt, Cat, Singleton, Star, dmatch_run, parse_regex

A, B = Singleton("a"), Singleton("b")


def test_equal_constructions_are_one_object() -> None:
    assert Alt(A, B) is Alt(A, B)
    assert Star(Cat(Singleton("a"), EPSILON)) is Star(Cat(A, EPSILON))
    assert Alt(A, B) is not Alt(B, A)
    assert Alt(A, B) != Cat(A, B)


def test_copies_and_unpickled_regexes_are_the_original() -> None:
    r = Star(Alt(Cat(A, EPSILON), B))
    assert copy.copy(r) is r
    assert copy.deepcopy(r) is r
    assert pickle.loads(pickle.dumps(r)) is r


def test_rejected_singleton_enters_no_table() -> None:
    with pytest.raises(ValueError):
        Singleton("ab")
    assert (Singleton, "ab") not in _INTERNED


def test_dropped_regexes_leave_the_table() -> None:
    gc.collect()
    before = len(_INTERNED)
    r = Star(Cat(Singleton("☃"), Alt(A, Singleton("☄"))))
    assert len(_INTERNED) == before + 5
    del r
    gc.collect()
    assert len(_INTERNED) == before



def test_matched_regexes_leave_the_table_with_their_derivatives() -> None:
    # Derivatives live in tables on their nodes, and the table holds nodes
    # weakly, so matching keeps nothing alive once its patterns are dropped.
    gc.collect()
    before = len(_INTERNED)
    chars = [chr(0x4E00 + i) for i in range(200)]
    patterns = [parse_regex(f"({c}|a)* a ({c}|b)*") for c in chars]
    for r, c in zip(patterns, chars):
        assert len(dmatch_run(r, c + "aa" + c + "b")) == 1
    assert len(_INTERNED) > before + 200
    del patterns, r
    gc.collect()
    assert len(_INTERNED) == before

def test_deep_regexes_hash_and_compare_at_the_default_limit() -> None:
    def right_nested(depth: int) -> Cat:
        r = Cat(A, EPSILON)
        for _ in range(depth - 1):
            r = Cat(A, r)
        return r

    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        deep = right_nested(10_000)
        assert hash(deep) == hash(right_nested(10_000))
        assert deep == right_nested(10_000)
        del deep
        gc.collect()
    finally:
        sys.setrecursionlimit(previous)
