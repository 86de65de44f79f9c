"""Reference versions of the regex oracles and of the derivative matcher.

Each is the plain definition its library counterpart replaced by a faster
one, kept here so the differential tests can hold the two side by side:

* :func:`is_match` follows the inductive relation case by case, trying
  every split of the string for a concatenation or an iteration head;
* :func:`enumerate_matches` tries every split point and every head length,
  and lets each iteration list hold a budget of empty elements;
* :func:`dmatch_unsimplified` walks the paper's unsimplified derivatives
  and integrates the end-of-input witness back through every one of them;
* :func:`from_prods` and :func:`build_parser` rebuild a nonterminal's
  parser on every call, binding one strict read per terminal and
  delivering the children as a list that a last ``bind`` turns into the
  derivation node;
* :func:`wp` folds a semantics row over a computation by recursion, one
  Python frame per command along a path;
* :func:`chain_bound` searches the left-recursion links by recursion, one
  Python frame per link of a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from effparse.cfg import (
    CFG_ROW,
    ChainReport,
    Grammar,
    GSymbol,
    Nonterminal,
    Production,
    SemValue,
    Term,
    left_rec_links,
)
from effparse.core import (
    UNIT,
    Ch,
    Computation,
    Op,
    Pure,
    Value,
    bind,
    call,
    choices,
    fail,
    pure,
    symbol_strict,
)
from effparse.handlers import RecursiveFn
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
from effparse.semantics import SemanticsRow, StatefulPost


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
    """Every witness with at most ``max_empty_iterations`` empty elements per
    iteration list, found without length bounds; at budget 0, the library's
    witnesses in its documented order."""
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


def exact(c: str) -> Computation:
    """Consume exactly ``c``, built afresh on every call."""
    return bind(symbol_strict(CFG_ROW), lambda response: pure(UNIT) if response == Ch(c) else fail(CFG_ROW))


@dataclass(frozen=True)
class ListV(Value):
    """The calls' responses along a right-hand side, in order."""

    items: tuple[Value, ...]


def build_parser(g: Grammar, rhs: tuple[GSymbol, ...], acc: tuple[Value, ...] = ()) -> Computation:
    """Walk a right-hand side, delivering the calls' responses as a list."""
    if not rhs:
        return pure(ListV(acc))
    head, rest = rhs[0], rhs[1:]
    if isinstance(head, Term):
        return bind(exact(head.char), lambda _: build_parser(g, rest, acc))
    assert isinstance(head, Nonterminal)
    return bind(call(CFG_ROW, head), lambda child: build_parser(g, rest, acc + (child,)))


def _from_prod(g: Grammar, production: Production) -> Computation:
    def deliver(children_value: Value) -> Computation:
        assert isinstance(children_value, ListV)
        children = children_value.items
        assert all(isinstance(child, SemValue) for child in children)
        return pure(SemValue(production.lhs, production.index, children))  # type: ignore[arg-type]

    return bind(build_parser(g, production.rhs, ()), deliver)


def from_prods(g: Grammar, a: Nonterminal) -> Computation:
    """Parse ``a``, scanning the grammar for its productions on every call."""
    return choices([_from_prod(g, p) for p in g.productions if p.lhs == a], CFG_ROW)


def from_prods_fn(g: Grammar) -> RecursiveFn:
    return RecursiveFn(CFG_ROW, lambda value: from_prods(g, value))  # type: ignore[arg-type]


def wp(row: SemanticsRow, m: Computation, post: StatefulPost, state: str | None) -> bool:
    """The weakest precondition as the recursive fold over ``m``."""
    if isinstance(m, Pure):
        return post(m.value, state)
    assert isinstance(m, Op)
    pt = next(pt for pt in row.transformers if pt.effect is m.command.effect)
    resume = m.resume
    return pt.transform(
        m.command,
        lambda response, next_state: wp(row, resume(response), post, next_state),
        state,
    )


def chain_bound(g: Grammar) -> ChainReport:
    """The left-recursion analysis as a recursive depth-first search."""
    links = left_rec_links(g)
    successors: dict[Nonterminal, list[Nonterminal]] = {}
    for source, target, _ in links:
        successors.setdefault(source, []).append(target)
    visiting: list[Nonterminal] = []
    state: dict[Nonterminal, str] = {}
    longest: dict[Nonterminal, int] = {}

    def explore(node: Nonterminal) -> tuple[Nonterminal, ...] | None:
        state[node] = "visiting"
        visiting.append(node)
        best = 0
        for target in successors.get(node, ()):
            if state.get(target) == "visiting":
                start = visiting.index(target)
                return tuple(visiting[start:]) + (target,)
            if state.get(target) != "done":
                cycle = explore(target)
                if cycle is not None:
                    return cycle
            best = max(best, 1 + longest[target])
        visiting.pop()
        state[node] = "done"
        longest[node] = best
        return None

    for node in sorted({source for source, _, _ in links}, key=lambda nt: nt.name):
        if state.get(node) != "done":
            cycle = explore(node)
            if cycle is not None:
                return ChainReport(links, None, cycle)
    return ChainReport(links, 1 + max(longest.values(), default=0))
