"""Reference versions of the regex oracles and of the derivative matcher.

Each is the plain definition its library counterpart replaced by a faster
one, kept here so the differential tests can hold the two side by side:

* :func:`is_match` follows the inductive relation case by case, trying
  every split of the string for a concatenation or an iteration head;
* :func:`enumerate_matches` tries every split point and every head length;
* :func:`dmatch_unsimplified` walks the paper's unsimplified derivatives
  and integrates the end-of-input witness back through every one of them.
"""

from __future__ import annotations

from functools import lru_cache

from effparse.regex import (
    Alt,
    Cat,
    CharT,
    Empty,
    Epsilon,
    LeftT,
    ListT,
    PairT,
    ParseTree,
    Regex,
    RightT,
    Singleton,
    Star,
    UNIT_TREE,
    UnitT,
    derivative,
    integral_tree,
    nullable,
)


def is_match(r: Regex, s: str, t: ParseTree) -> bool:
    """Does ``t`` witness that ``s`` matches ``r``?  Cubic on long lists."""
    if isinstance(r, Empty):
        return False
    if isinstance(r, Epsilon):
        return s == "" and isinstance(t, UnitT)
    if isinstance(r, Singleton):
        return isinstance(t, CharT) and t.char == r.char and s == r.char
    if isinstance(r, Alt):
        if isinstance(t, LeftT):
            return is_match(r.left, s, t.item)
        if isinstance(t, RightT):
            return is_match(r.right, s, t.item)
        return False
    if isinstance(r, Cat):
        if not isinstance(t, PairT):
            return False
        return any(
            is_match(r.left, s[:i], t.first) and is_match(r.right, s[i:], t.second)
            for i in range(len(s) + 1)
        )
    assert isinstance(r, Star)
    if not isinstance(t, ListT):
        return False
    if not t.items:
        return s == ""
    head, rest = t.items[0], ListT(t.items[1:])
    return any(
        is_match(r.body, s[:i], head) and is_match(r, s[i:], rest)
        for i in range(len(s) + 1)
    )


@lru_cache(maxsize=None)
def _enum(r: Regex, s: str, k: int) -> tuple[ParseTree, ...]:
    if isinstance(r, Empty):
        return ()
    if isinstance(r, Epsilon):
        return (UNIT_TREE,) if s == "" else ()
    if isinstance(r, Singleton):
        return (CharT(r.char),) if s == r.char else ()
    if isinstance(r, Alt):
        return tuple(LeftT(t) for t in _enum(r.left, s, k)) + tuple(
            RightT(t) for t in _enum(r.right, s, k)
        )
    if isinstance(r, Cat):
        return tuple(
            PairT(tl, tr)
            for i in range(len(s) + 1)
            for tl in _enum(r.left, s[:i], k)
            for tr in _enum(r.right, s[i:], k)
        )
    assert isinstance(r, Star)
    return _enum_star(r.body, s, k, k)


@lru_cache(maxsize=None)
def _enum_star(q: Regex, s: str, remaining: int, k: int) -> tuple[ListT, ...]:
    out: list[ListT] = []
    if s == "":
        out.append(ListT(()))
    if remaining > 0:
        for head in _enum(q, "", k):
            for rest in _enum_star(q, s, remaining - 1, k):
                out.append(ListT((head,) + rest.items))
    for i in range(1, len(s) + 1):
        for head in _enum(q, s[:i], k):
            for rest in _enum_star(q, s[i:], remaining, k):
                out.append(ListT((head,) + rest.items))
    return tuple(out)


def enumerate_matches(r: Regex, s: str, max_empty_iterations: int = 0) -> tuple[ParseTree, ...]:
    """Every witness, in the library's documented order, found without bounds."""
    return tuple(dict.fromkeys(_enum(r, s, max_empty_iterations)))


def dmatch_unsimplified(r: Regex, s: str) -> tuple[ParseTree, ...]:
    """The derivative matcher's witness, from the paper's derivatives."""
    chain = [r]
    for c in s:
        chain.append(derivative(chain[-1], c))
    witness = nullable(chain[-1])
    if witness is None:
        return ()
    for d, c in zip(reversed(chain[:-1]), reversed(s)):
        witness = integral_tree(d, c, witness)
    return (witness,)
