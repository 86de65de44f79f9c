"""Regular expressions, parse trees, and two ways of matching.

The ground truth lives in :func:`is_match`, which decides the inductive
matching relation in one walk of the tree (a witness fits the regex and
spells the string), and :func:`enumerate_matches`, which lists every parse
tree of a string under a star discipline that keeps the answer finite,
trying only the splits the regexes' length bounds allow.  Everything else
is measured against those two.

Matching proper comes in two flavours:

* :func:`match_structural` — structural recursion on the regex, with
  nondeterministic splitting for concatenation; only the Kleene-star case
  goes through the recursion effect (star unfolds to ``Cat(r, Star r)``,
  which is not structurally smaller).
* :func:`dmatch` — one optional symbol read, then a recursive call on the
  Brzozowski derivative.  :func:`derivative_step` builds it simplified,
  with a rectifier back to the witnesses of the paper's
  :func:`derivative`, and :func:`integral_tree` rebuilds the original
  regex's parse tree from those.  The simplified derivatives of a regex
  are finitely many, so a step costs the same at every character and the
  witness is that of the unsimplified derivatives.  :func:`dmatch_run`
  executes it with fuel exactly the input length, which always suffices.

Regex nodes are hash-consed: building a regex equal to one that exists
returns that very object, so equality and hashing are identity checks and
the derivative caches look regexes up in constant time.  Recursive calls
carry the regex itself as a :class:`~effparse.core.RegexV` value.

The concrete regex syntax, read and written by :func:`parse_regex` and
:func:`format_regex`, serves the command line and the tests only; it
encodes no call payloads, so a regex need not be printable to be matched.
Parse trees render as s-expressions or JSON with :func:`format_tree`.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Ch,
    Computation,
    EffectId,
    EffectRow,
    NONDET_ROW,
    PairV,
    RegexV,
    SplitV,
    Str,
    TreeV,
    Value,
    bind,
    call,
    choice,
    fail,
    fmap,
    pure,
    symbol_maybe,
)
from .handlers import (
    Done,
    RecursiveFn,
    TerminationInvariantError,
    handle_rec,
    h_parser,
    run_with_fuel,
)
from .render import Shape, render_tree
from .semantics import Invariant

__all__ = [
    "Alt",
    "Cat",
    "CharT",
    "DMATCH_ROW",
    "EMPTY",
    "EPSILON",
    "Empty",
    "Epsilon",
    "LeftT",
    "ListT",
    "MATCH_ROW",
    "MatchInstance",
    "PairT",
    "ParseTree",
    "Regex",
    "RegexSyntaxError",
    "RightT",
    "Singleton",
    "Star",
    "TerminationInvariantError",
    "TreeShapeError",
    "UNIT_TREE",
    "UnitT",
    "all_splits",
    "decode_match_input",
    "derivative",
    "derivative_step",
    "dmatch",
    "dmatch_fn",
    "dmatch_handled",
    "dmatch_run",
    "enumerate_matches",
    "format_regex",
    "format_tree",
    "has_no_star",
    "integral_tree",
    "is_match",
    "match_fn",
    "match_input",
    "match_spec_invariant",
    "match_structural",
    "nullable",
    "parse_regex",
    "regex_size",
    "tree_shape_ok",
    "tree_yield",
]


class TreeShapeError(ValueError):
    """A parse tree did not have the shape an operation required."""


class RegexSyntaxError(ValueError):
    """A regex pattern failed to parse; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


# ---------------------------------------------------------------------------
# Regexes and parse trees
# ---------------------------------------------------------------------------


class Regex:
    """Base class of the regular-expression AST.

    Nodes are hash-consed: constructing a node equal to one that exists
    returns the existing one, so ``==`` and ``hash`` are identity-based and
    cost O(1) however deep the regex.  Constructors take their fields
    positionally.  The interning table is not locked, so regexes are built
    from one thread at a time.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields: object) -> Regex:
        # The fields are characters or nodes that are themselves interned,
        # so a lookup hashes and compares only one level.
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            cls._fill(node, *fields)
            _INTERNED[key] = node
        return node

    def __reduce__(self) -> tuple:
        # Copies and unpickled nodes come through the constructor, so they
        # are interned like any other.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)  # type: ignore[attr-defined]


#: Every live node by class and fields.  The values are weak: a node that
#: nothing else holds leaves the table, so interning keeps no regex alive.
_INTERNED: weakref.WeakValueDictionary[tuple, Regex] = weakref.WeakValueDictionary()


def _interned(cls: type) -> type:
    """Run a node class's dataclass ``__init__`` (which sets the fields and
    validates them) inside :meth:`Regex.__new__`, once per node, instead of
    on every construction."""
    cls._fill = cls.__init__  # type: ignore[attr-defined]
    del cls.__init__  # type: ignore[misc]
    return cls


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Empty(Regex):
    """Matches nothing at all."""


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Epsilon(Regex):
    """Matches exactly the empty string."""


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Singleton(Regex):
    """Matches exactly one given character."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"Singleton holds exactly one character, got {self.char!r}")


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Alt(Regex):
    left: Regex
    right: Regex


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Cat(Regex):
    left: Regex
    right: Regex


@_interned
@dataclass(frozen=True, eq=False, slots=True)
class Star(Regex):
    body: Regex


EMPTY = Empty()
EPSILON = Epsilon()


def regex_size(r: Regex) -> int:
    """Number of AST nodes in ``r``."""
    if isinstance(r, (Empty, Epsilon, Singleton)):
        return 1
    if isinstance(r, (Alt, Cat)):
        return 1 + regex_size(r.left) + regex_size(r.right)
    assert isinstance(r, Star)
    return 1 + regex_size(r.body)


def has_no_star(r: Regex) -> bool:
    """True iff no iteration node occurs anywhere in ``r``."""
    if isinstance(r, (Empty, Epsilon, Singleton)):
        return True
    if isinstance(r, (Alt, Cat)):
        return has_no_star(r.left) and has_no_star(r.right)
    return False


class ParseTree:
    """Base class of parse trees witnessing how a string matched a regex."""

    __slots__ = ()


@dataclass(frozen=True)
class UnitT(ParseTree):
    """The trivial witness (for the empty-string regex)."""


@dataclass(frozen=True)
class CharT(ParseTree):
    char: str


@dataclass(frozen=True)
class LeftT(ParseTree):
    item: ParseTree


@dataclass(frozen=True)
class RightT(ParseTree):
    item: ParseTree


@dataclass(frozen=True)
class PairT(ParseTree):
    first: ParseTree
    second: ParseTree


@dataclass(frozen=True)
class ListT(ParseTree):
    items: tuple[ParseTree, ...]


UNIT_TREE = UnitT()


@dataclass(frozen=True)
class MatchInstance:
    """A regex, an input string, and a tree that claims to witness a match."""

    regex: Regex
    input: str
    tree: ParseTree

    def holds(self) -> bool:
        return is_match(self.regex, self.input, self.tree)


def tree_shape_ok(r: Regex, t: ParseTree) -> bool:
    """Does ``t`` have the shape of a witness for ``r``?

    Shape only: a character leaf of the *wrong* character still fits a
    one-character regex — whether the characters line up is the matching
    relation's business, not the shape's.
    """
    if isinstance(r, Empty):
        return False
    if isinstance(r, Epsilon):
        return isinstance(t, UnitT)
    if isinstance(r, Singleton):
        return isinstance(t, CharT)
    if isinstance(r, Alt):
        if isinstance(t, LeftT):
            return tree_shape_ok(r.left, t.item)
        if isinstance(t, RightT):
            return tree_shape_ok(r.right, t.item)
        return False
    if isinstance(r, Cat):
        return (
            isinstance(t, PairT)
            and tree_shape_ok(r.left, t.first)
            and tree_shape_ok(r.right, t.second)
        )
    assert isinstance(r, Star)
    return isinstance(t, ListT) and all(tree_shape_ok(r.body, item) for item in t.items)


def tree_yield(t: ParseTree) -> str:
    """The string a parse tree spells out, leaf to leaf."""
    if isinstance(t, UnitT):
        return ""
    if isinstance(t, CharT):
        return t.char
    if isinstance(t, (LeftT, RightT)):
        return tree_yield(t.item)
    if isinstance(t, PairT):
        return tree_yield(t.first) + tree_yield(t.second)
    assert isinstance(t, ListT)
    return "".join(tree_yield(item) for item in t.items)


# ---------------------------------------------------------------------------
# The matching relation and its enumerator
# ---------------------------------------------------------------------------


def is_match(r: Regex, s: str, t: ParseTree) -> bool:
    """Decide whether ``t`` witnesses that ``s`` matches ``r``.

    A witness spells exactly its yield, so this is the inductive relation:
    ``t`` must fit ``r`` in shape and in characters, and its yield must be
    ``s``.  Linear in the size of ``t``; it recurses once per level of
    ``r``, not per character of ``s``.
    """
    return _fits(r, t) and tree_yield(t) == s


def _fits(r: Regex, t: ParseTree) -> bool:
    """Does ``t`` witness some string for ``r``?  Like :func:`tree_shape_ok`,
    but a character leaf must hold the regex's character."""
    if isinstance(r, Empty):
        return False
    if isinstance(r, Epsilon):
        return isinstance(t, UnitT)
    if isinstance(r, Singleton):
        return isinstance(t, CharT) and t.char == r.char
    if isinstance(r, Alt):
        if isinstance(t, LeftT):
            return _fits(r.left, t.item)
        if isinstance(t, RightT):
            return _fits(r.right, t.item)
        return False
    if isinstance(r, Cat):
        return isinstance(t, PairT) and _fits(r.left, t.first) and _fits(r.right, t.second)
    assert isinstance(r, Star)
    return isinstance(t, ListT) and all(_fits(r.body, item) for item in t.items)


@lru_cache(maxsize=None)
def _length_bounds(r: Regex) -> tuple[int, int | None]:
    """The least and greatest length of a string ``r`` matches; ``None`` is
    unbounded.  ``\\0`` matches nothing, so any bounds hold for it, and
    ``(0, 0)`` leaves a concatenation with it one split to try."""
    if isinstance(r, (Empty, Epsilon)):
        return 0, 0
    if isinstance(r, Singleton):
        return 1, 1
    if isinstance(r, Star):
        return 0, (0 if _length_bounds(r.body)[1] == 0 else None)
    assert isinstance(r, (Alt, Cat))
    (left_lo, left_hi), (right_lo, right_hi) = _length_bounds(r.left), _length_bounds(r.right)
    unbounded = left_hi is None or right_hi is None
    if isinstance(r, Alt):
        return min(left_lo, right_lo), None if unbounded else max(left_hi, right_hi)  # type: ignore[type-var]
    return left_lo + right_lo, None if unbounded else left_hi + right_hi  # type: ignore[operator]


def _lengths(r: Regex, lo: int, hi: int) -> range:
    """The lengths from ``lo`` to ``hi`` within ``r``'s bounds, shortest first."""
    r_lo, r_hi = _length_bounds(r)
    return range(max(lo, r_lo), (hi if r_hi is None else min(hi, r_hi)) + 1)


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
        n, (right_lo, right_hi) = len(s), _length_bounds(r.right)
        return tuple(
            PairT(tl, tr)
            for i in _lengths(r.left, 0 if right_hi is None else n - right_hi, n - right_lo)
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
    for i in _lengths(q, 1, len(s)):
        for head in _enum(q, s[:i], k):
            for rest in _enum_star(q, s[i:], remaining, k):
                out.append(ListT((head,) + rest.items))
    return tuple(out)


def enumerate_matches(r: Regex, s: str, max_empty_iterations: int = 0) -> tuple[ParseTree, ...]:
    """Every witness that ``s`` matches ``r``, under a star discipline.

    The full set of witnesses is infinite whenever a starred subexpression
    can match the empty string, so iteration witnesses are restricted: each
    list may contain at most ``max_empty_iterations`` elements that consume
    no input (the default, zero, is the "every iteration consumes" mode).
    Any match at all has a witness with no empty iterations — delete them —
    so existence questions are insensitive to the bound.

    Results are duplicate-free, in a fixed order: alternatives list left
    witnesses before right ones; concatenations order by split point,
    shortest left part first; iterations put the bare empty list first,
    then empty-consuming heads, then heads by how much they consume.
    """
    if max_empty_iterations < 0:
        raise ValueError("max_empty_iterations must be >= 0")
    return tuple(dict.fromkeys(_enum(r, s, max_empty_iterations)))


# ---------------------------------------------------------------------------
# The structural matcher
# ---------------------------------------------------------------------------

MATCH_ROW = EffectRow((EffectId.REC, EffectId.NONDET))
DMATCH_ROW = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE, EffectId.NONDET))


def all_splits(xs: str, row: EffectRow = NONDET_ROW) -> Computation:
    """Nondeterministically split ``xs`` into a prefix and a suffix.

    Results are ``SplitV`` values, shortest prefix first; a string of
    length n splits n+1 ways.
    """
    if xs == "":
        return pure(SplitV("", ""))
    first, rest = xs[0], xs[1:]
    return choice(
        pure(SplitV("", xs)),
        bind(
            all_splits(rest, row),
            lambda sv: pure(SplitV(first + sv.prefix, sv.suffix)),
        ),
        row,
    )


def match_input(r: Regex, xs: str) -> PairV:
    """Encode a (regex, string) pair as a recursive-call input value."""
    return PairV(RegexV(r), Str(xs))


def decode_match_input(value: Value) -> tuple[Regex, str]:
    """Invert :func:`match_input`."""
    if (
        not isinstance(value, PairV)
        or not isinstance(value.first, RegexV)
        or not isinstance(value.second, Str)
    ):
        raise TypeError(f"not a (regex, string) call input: {value!r}")
    return value.first.regex, value.second.text


def _cons_iteration(pair_value: Value) -> Value:
    if (
        not isinstance(pair_value, TreeV)
        or not isinstance(pair_value.tree, PairT)
        or not isinstance(pair_value.tree.second, ListT)
    ):
        raise TreeShapeError(f"iteration step should return (head, rest-of-list): {pair_value!r}")
    head, rest = pair_value.tree.first, pair_value.tree.second
    return TreeV(ListT((head,) + rest.items))


def match_structural(r: Regex, xs: str) -> Computation:
    """Match by structural recursion on the regex, splitting for Cat.

    Alternation is a nondeterministic choice between the tagged
    sub-matches; concatenation tries every split of the input.  Iteration
    is the one case that is not structurally smaller, so a non-empty
    ``Star`` goes through the recursion effect: it calls the matcher on
    ``Cat(r, Star r)`` and conses the resulting head onto the list witness,
    while ``Star`` on the empty string yields the empty-list witness
    directly.
    """
    row = MATCH_ROW
    if isinstance(r, Empty):
        return fail(row)
    if isinstance(r, Epsilon):
        return pure(TreeV(UNIT_TREE)) if xs == "" else fail(row)
    if isinstance(r, Singleton):
        return pure(TreeV(CharT(r.char))) if xs == r.char else fail(row)
    if isinstance(r, Alt):
        left = fmap(lambda tv: TreeV(LeftT(_tree_of(tv))), match_structural(r.left, xs))
        right = fmap(lambda tv: TreeV(RightT(_tree_of(tv))), match_structural(r.right, xs))
        return choice(left, right, row)
    if isinstance(r, Cat):
        return bind(
            all_splits(xs, row),
            lambda sv: bind(
                match_structural(r.left, sv.prefix),
                lambda y: bind(
                    match_structural(r.right, sv.suffix),
                    lambda z: pure(TreeV(PairT(_tree_of(y), _tree_of(z)))),
                ),
            ),
        )
    assert isinstance(r, Star)
    if xs == "":
        return pure(TreeV(ListT(())))
    return fmap(_cons_iteration, call(row, match_input(Cat(r.body, r), xs)))


def _tree_of(value: Value) -> ParseTree:
    if not isinstance(value, TreeV):
        raise TreeShapeError(f"expected a tree value, got {value!r}")
    return value.tree


def match_fn() -> RecursiveFn:
    """The structural matcher as a recursive function on encoded inputs."""
    return RecursiveFn(MATCH_ROW, lambda v: match_structural(*decode_match_input(v)))


def match_spec_invariant(max_outputs: int | None = None) -> Invariant:
    """The matching relation as a call invariant.

    Call inputs are encoded (regex, string) pairs; outputs are tree values.
    The enumerator lists the consuming-iteration witnesses, which is the
    finite face of the relation.
    """

    def relation(call_input: Value, output: Value) -> bool:
        r, xs = decode_match_input(call_input)
        return isinstance(output, TreeV) and is_match(r, xs, output.tree)

    def enumerator(call_input: Value) -> tuple[Value, ...]:
        r, xs = decode_match_input(call_input)
        return tuple(TreeV(t) for t in enumerate_matches(r, xs))

    return Invariant(relation, enumerator, max_outputs)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def nullable(r: Regex) -> ParseTree | None:
    """A witness that ``r`` matches the empty string, or ``None``.

    The witness is canonical: left alternatives are preferred and
    iterations are witnessed by the empty list, so equal regexes always
    get the same tree.
    """
    if isinstance(r, (Empty, Singleton)):
        return None
    if isinstance(r, Epsilon):
        return UNIT_TREE
    if isinstance(r, Alt):
        left = nullable(r.left)
        if left is not None:
            return LeftT(left)
        right = nullable(r.right)
        return RightT(right) if right is not None else None
    if isinstance(r, Cat):
        left, right = nullable(r.left), nullable(r.right)
        if left is None or right is None:
            return None
        return PairT(left, right)
    assert isinstance(r, Star)
    return ListT(())


@lru_cache(maxsize=None)
def derivative(r: Regex, c: str) -> Regex:
    """The residual regex after consuming the character ``c``."""
    if isinstance(r, (Empty, Epsilon)):
        return EMPTY
    if isinstance(r, Singleton):
        return EPSILON if r.char == c else EMPTY
    if isinstance(r, Alt):
        return Alt(derivative(r.left, c), derivative(r.right, c))
    if isinstance(r, Cat):
        through_left = Cat(derivative(r.left, c), r.right)
        if nullable(r.left) is not None:
            return Alt(through_left, derivative(r.right, c))
        return through_left
    assert isinstance(r, Star)
    return Cat(derivative(r.body, c), r)


def integral_tree(r: Regex, c: str, t: ParseTree) -> ParseTree:
    """Rebuild a witness for ``r`` on ``c + xs`` from one for its derivative.

    ``t`` must witness a match of ``derivative(r, c)``; the result then
    witnesses the match of ``r`` on the string with ``c`` put back in
    front.  A tree of the wrong shape raises :class:`TreeShapeError`.
    """
    if isinstance(r, Singleton):
        if r.char == c and isinstance(t, UnitT):
            return CharT(c)
        raise TreeShapeError(f"cannot integrate {t!r} against a one-character regex")
    if isinstance(r, Alt):
        if isinstance(t, LeftT):
            return LeftT(integral_tree(r.left, c, t.item))
        if isinstance(t, RightT):
            return RightT(integral_tree(r.right, c, t.item))
        raise TreeShapeError(f"cannot integrate {t!r} against an alternation")
    if isinstance(r, Cat):
        if nullable(r.left) is not None:
            if isinstance(t, LeftT) and isinstance(t.item, PairT):
                return PairT(integral_tree(r.left, c, t.item.first), t.item.second)
            if isinstance(t, RightT):
                witness = nullable(r.left)
                assert witness is not None
                return PairT(witness, integral_tree(r.right, c, t.item))
            raise TreeShapeError(f"cannot integrate {t!r} against this concatenation")
        if isinstance(t, PairT):
            return PairT(integral_tree(r.left, c, t.first), t.second)
        raise TreeShapeError(f"cannot integrate {t!r} against this concatenation")
    if isinstance(r, Star):
        if isinstance(t, PairT) and isinstance(t.second, ListT):
            return ListT((integral_tree(r.body, c, t.first),) + t.second.items)
        raise TreeShapeError(f"cannot integrate {t!r} against an iteration")
    # Empty and Epsilon have the never-matching regex as derivative.
    raise TreeShapeError(f"the derivative of {format_regex(r)!r} has no witnesses")


#: Maps a witness of a simplified derivative to one of the paper's derivative.
Rectifier = Callable[[ParseTree], ParseTree]


@lru_cache(maxsize=None)
def derivative_step(r: Regex, c: str) -> tuple[Regex, Rectifier]:
    """The derivative of ``r`` by ``c``, simplified, and its rectifier.

    The regex matches what ``derivative(r, c)`` matches, but is built by
    smart constructors: an alternation is one right-nested chain without
    ``\\0`` and without repeated alternatives (the first stays), and a
    concatenation absorbs ``\\0`` and takes ``\\e`` as unit on either
    side.  These are the ACI rules of Owens, Reppy & Turon (JFP 2009), so by
    Brzozowski's theorem repeated steps reach finitely many regexes.  The
    rectifier maps each witness of the simplified regex to the witness of
    ``derivative(r, c)`` it stands for (Sulzmann & Lu, FLOPS 2014).

    Recurses over ``r`` only where :func:`derivative` does; the subterms it
    keeps are not walked again, except that a loop reads alternatives off
    the right spine of a chain.
    """
    if isinstance(r, (Empty, Epsilon)):
        return EMPTY, _no_witness
    if isinstance(r, Singleton):
        return (EPSILON, _same) if r.char == c else (EMPTY, _no_witness)
    if isinstance(r, Alt):
        return _alt(
            _alternatives(*derivative_step(r.left, c), LeftT)
            + _alternatives(*derivative_step(r.right, c), RightT)
        )
    if isinstance(r, Cat):
        through_left = _cat(*derivative_step(r.left, c), r.right)
        if nullable(r.left) is None:
            return through_left
        return _alt(
            _alternatives(*through_left, LeftT)
            + _alternatives(*derivative_step(r.right, c), RightT)
        )
    assert isinstance(r, Star)
    return _cat(*derivative_step(r.body, c), r)


def _same(t: ParseTree) -> ParseTree:
    return t


def _no_witness(t: ParseTree) -> ParseTree:
    raise TreeShapeError(f"\\0 has no witnesses, got {t!r}")


def _cat(left: Regex, fix_left: Rectifier, right: Regex) -> tuple[Regex, Rectifier]:
    """``Cat(left, right)`` with ``\\0`` absorbing and ``\\e`` as unit; the
    rectifier gives witnesses of ``Cat(d, right)``, where ``fix_left`` maps
    witnesses of ``left`` to those of ``d``."""
    if left is EMPTY or right is EMPTY:
        return EMPTY, _no_witness
    if left is EPSILON:
        first = fix_left(UNIT_TREE)
        return right, lambda t: PairT(first, t)
    if right is EPSILON:
        return left, lambda t: PairT(fix_left(t), UNIT_TREE)
    return Cat(left, right), lambda t: PairT(fix_left(t.first), t.second)  # type: ignore[attr-defined]


def _alternatives(d: Regex, fix: Rectifier, tag: type) -> list[tuple[Regex, Rectifier]]:
    """The alternatives on the right spine of ``d``, each with the rectifier
    that puts its witness back in place in ``d``'s, applies ``fix`` and wraps
    the result in ``tag``."""
    parts = []
    while isinstance(d, Alt):
        parts.append(d.left)
        d = d.right
    parts.append(d)
    last = len(parts) - 1

    def rectifier(i: int) -> Rectifier:
        def rectify(t: ParseTree) -> ParseTree:
            if i < last:
                t = LeftT(t)
            for _ in range(i):
                t = RightT(t)
            return tag(fix(t))

        return rectify

    return [(part, rectifier(i)) for i, part in enumerate(parts)]


def _alt(parts: list[tuple[Regex, Rectifier]]) -> tuple[Regex, Rectifier]:
    """One right-nested chain of the alternatives in ``parts`` other than
    ``\\0``, each the first time it comes; the rectifier finds the
    alternative a witness takes and hands its witness to that one's."""
    kept: dict[Regex, Rectifier] = {}
    for part, fix in parts:
        if part is not EMPTY:
            kept.setdefault(part, fix)
    if not kept:
        return EMPTY, _no_witness
    alternatives, fixes = list(kept), list(kept.values())
    d = alternatives[-1]
    for part in reversed(alternatives[:-1]):
        d = Alt(part, d)
    if len(fixes) == 1:
        return d, fixes[0]
    last = len(fixes) - 1

    def rectify(t: ParseTree) -> ParseTree:
        for i in range(last):
            if isinstance(t, LeftT):
                return fixes[i](t.item)
            t = t.item  # type: ignore[attr-defined]
        return fixes[last](t)

    return d, rectify


# ---------------------------------------------------------------------------
# The derivative matcher
# ---------------------------------------------------------------------------


def dmatch(r: Regex) -> Computation:
    """Match by reading one character and recursing on the derivative.

    Reads an optional symbol: on a character ``x``, recurse on the
    simplified derivative of :func:`derivative_step`, rectify the returned
    witness to one of ``derivative(r, x)`` and integrate it back to one for
    ``r``; at end of input, produce the empty-string witness or fail.  The
    witness is the one the unsimplified derivatives give, but the regexes
    recursed on stay few and small however long the input.
    """
    row = DMATCH_ROW

    def continue_with(response: Value) -> Computation:
        if isinstance(response, Ch):
            x = response.char
            d, rectify = derivative_step(r, x)
            return fmap(
                lambda tv: TreeV(integral_tree(r, x, rectify(_tree_of(tv)))),
                call(row, RegexV(d)),
            )
        witness = nullable(r)
        return pure(TreeV(witness)) if witness is not None else fail(row)

    return bind(symbol_maybe(row), continue_with)


def dmatch_fn() -> RecursiveFn:
    """The derivative matcher as a recursive function on ``RegexV`` inputs."""
    return RecursiveFn(DMATCH_ROW, lambda v: dmatch(_regex_of(v)))


def _regex_of(value: Value) -> Regex:
    if not isinstance(value, RegexV):
        raise TypeError(f"expected a regex value, got {value!r}")
    return value.regex


def dmatch_handled() -> RecursiveFn:
    """The derivative matcher with its symbol reads discharged by state.

    Inputs become ``PairV(RegexV(r), Str(input))`` — the encoding
    :func:`match_input` builds, which the structural matcher uses too — and
    the effect row shrinks to recursion plus nondeterminism.
    """
    return handle_rec(h_parser, dmatch_fn())


def dmatch_run(r: Regex, s: str) -> tuple[ParseTree, ...]:
    """All witnesses the derivative matcher finds for ``s`` against ``r``.

    Runs with fuel exactly ``len(s)``: each recursive call consumes one
    character first, so the budget provably suffices — running dry would
    mean the termination argument itself is broken, and raises.
    """
    outcome = run_with_fuel(dmatch_handled(), match_input(r, s), len(s))
    if not isinstance(outcome, Done):
        raise TerminationInvariantError(
            f"derivative matching ran out of fuel on a {len(s)}-character input"
        )
    return tuple(_tree_of(value) for value, _state in outcome.results)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_METACHARS = "|*()\\"
_ESCAPES = {"0": EMPTY, "e": EPSILON}


class _RegexParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pos)

    def skip_blanks(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_blanks()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> Regex:
        r = self.parse_alt()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return r

    def parse_alt(self) -> Regex:
        parts = [self.parse_cat()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_cat())
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = Alt(part, result)
        return result

    def parse_cat(self) -> Regex:
        factors = [self.parse_factor()]
        while self.peek() not in (None, "|", ")"):
            factors.append(self.parse_factor())
        result = factors[-1]
        for factor in reversed(factors[:-1]):
            result = Cat(factor, result)
        return result

    def parse_factor(self) -> Regex:
        atom = self.parse_atom()
        while self.peek() == "*":
            self.pos += 1
            atom = Star(atom)
        return atom

    def parse_atom(self) -> Regex:
        head = self.peek()
        if head is None:
            raise self.error("expected an expression, found end of pattern")
        if head == "(":
            self.pos += 1
            inner = self.parse_alt()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if head in ")|*":
            raise self.error(f"unexpected {head!r}")
        if head == "\\":
            self.pos += 1
            if self.pos >= len(self.text):
                raise self.error("dangling escape at end of pattern")
            escaped = self.text[self.pos]
            self.pos += 1
            if escaped in _ESCAPES:
                return _ESCAPES[escaped]
            if escaped in _METACHARS:
                return Singleton(escaped)
            self.pos -= 1
            raise self.error(f"unknown escape '\\{escaped}'")
        self.pos += 1
        return Singleton(head)


def parse_regex(pattern: str) -> Regex:
    """Parse the concrete regex syntax.

    ``|`` alternates (lowest precedence), juxtaposition concatenates,
    postfix ``*`` iterates, parentheses group.  ``\\0`` is the match-nothing
    regex and ``\\e`` the empty-string regex; ``\\|``, ``\\*``, ``\\(``,
    ``\\)`` and ``\\\\`` escape the metacharacters.  Spaces and tabs
    between tokens are ignored; any other character stands for itself.
    """
    return _RegexParser(pattern).parse()


def format_regex(r: Regex) -> str:
    """Render ``r`` in the concrete syntax; inverse of :func:`parse_regex`.

    Concatenations are separated by a space for readability, which the
    parser skips — so a regex whose singletons are spaces or tabs is not
    representable in the concrete syntax and will not round-trip.
    """
    return _format_regex(r, 0)


def _format_regex(r: Regex, context: int) -> str:
    if isinstance(r, Empty):
        return "\\0"
    if isinstance(r, Epsilon):
        return "\\e"
    if isinstance(r, Singleton):
        return "\\" + r.char if r.char in _METACHARS else r.char
    if isinstance(r, Alt):
        rendered = _format_regex(r.left, 1) + "|" + _format_regex(r.right, 0)
        level = 0
    elif isinstance(r, Cat):
        rendered = _format_regex(r.left, 2) + " " + _format_regex(r.right, 1)
        level = 1
    else:
        assert isinstance(r, Star)
        rendered = _format_regex(r.body, 2) + "*"
        level = 2
    return f"({rendered})" if level < context else rendered


def format_tree(t: ParseTree, as_json: bool = False) -> str:
    """Render a parse tree as an s-expression, or as one line of JSON.

    ``(pair unit (inl (char a)))`` in JSON is ``["pair","unit",["inl",["char","a"]]]``.
    """
    return render_tree(t, _tree_shape, as_json)


def _tree_shape(t: ParseTree) -> Shape:
    if isinstance(t, UnitT):
        return "unit"
    if isinstance(t, CharT):
        return ("char", t.char), ()
    if isinstance(t, LeftT):
        return ("inl",), (t.item,)
    if isinstance(t, RightT):
        return ("inr",), (t.item,)
    if isinstance(t, PairT):
        return ("pair",), (t.first, t.second)
    assert isinstance(t, ListT)
    return ("list",), t.items
