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
  with a rectifier to the original regex's parse trees: those that
  :func:`integral_tree` rebuilds from the witnesses of the paper's
  :func:`derivative` they stand for.  The simplified derivatives of a
  regex are finitely many, so a step costs the same at every character
  and the witness is that of the unsimplified derivatives.  Each node's
  computation, and its step for each character, is built once and shared
  by every run.  :func:`dmatch_run` executes it on the interpreter with
  the input as state and fuel exactly the input length, which always
  suffices; :func:`dmatch_handled` is the handled form the paper states.

Regex nodes are hash-consed: building a regex equal to one that exists
returns that very object, so equality and hashing are identity checks.
A node keeps its ``nullable`` witness, its length bounds and its
:func:`dmatch` steps, which hold its simplified derivatives and die with
it; the paper's derivatives are kept for one call, or for one
:func:`derivatives` chain.  No walk over a regex, nor the parser,
recurses in Python, so how deep a pattern or a derivative nests is
bounded by memory.  Regexes and parse trees are themselves
:class:`~effparse.core.Value` subclasses, so recursive calls take the
regex and return the tree as they are.

The concrete regex syntax, read and written by :func:`parse_regex` and
:func:`format_regex`, serves the command line and the tests only; it
encodes no call payloads, so a regex need not be printable to be matched.
Parse trees render as s-expressions or JSON with :func:`format_tree`.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from collections.abc import Callable, Iterator, MutableMapping
from dataclasses import dataclass
from typing import Any

from .core import (
    Ch,
    Computation,
    EffectId,
    EffectRow,
    PairV,
    SplitV,
    Str,
    TRUE,
    FALSE,
    Value,
    _right_nested,
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
    "PairT",
    "ParseTree",
    "Regex",
    "RegexSyntaxError",
    "RightT",
    "Singleton",
    "Star",
    "TreeShapeError",
    "UNIT_TREE",
    "UnitT",
    "all_splits",
    "decode_match_input",
    "derivative",
    "derivative_step",
    "derivatives",
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


class Regex(Value):
    """Base class of the regular-expression AST.

    Nodes are hash-consed: constructing a node equal to one that exists
    returns the existing one, so ``==`` and ``hash`` are identity-based and
    cost O(1) however deep the regex.  Each node class is declared with
    :func:`_interned` alone, which makes it a frozen dataclass whose
    constructor takes its fields positionally.  The interning table is not
    locked, so regexes are built from one thread at a time.

    A node also holds answers that die with it: its :func:`nullable`
    witness and the least and greatest lengths it matches, both made from
    its fields' when it is built, and its :func:`dmatch` computation, built
    on first use, whose steps by character read are its one table.  Each
    step holds the node's :func:`derivative_step` by that character, and
    by Brzozowski's theorem a pattern reaches finitely many of those.  No
    node keeps the paper's unsimplified derivatives: :func:`derivative`
    and :func:`integral_tree` fold them into a table that lasts one call,
    and :func:`derivatives` into a table per character that lasts one
    chain.
    """

    __slots__ = ("__weakref__", "_nullable", "_bounds", "_dmatch")

    def __new__(cls, *fields: object) -> Regex:
        # The fields are characters or interned nodes, so a lookup hashes
        # one level.  Nodes enter the key by identity, unique while they
        # live, so the table holds none, and a node that only its own dmatch
        # steps hold (``a*`` is its own step by ``a``) dies in one collection.
        key = (cls, *fields) if cls is Singleton else (cls, *map(id, fields))
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            cls._fill(node, *fields)
            # Past the frozen dataclass's __setattr__.
            object.__setattr__(node, "_nullable", _nullable_of(node))
            object.__setattr__(node, "_bounds", _length_bounds(node))
            object.__setattr__(node, "_dmatch", None)
            _INTERNED[key] = node
        return node

    def __reduce__(self) -> tuple:
        # Copies and unpickled nodes come through the constructor, so they
        # are interned like any other.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)  # type: ignore[attr-defined]


#: Every live node by class and fields, child nodes by ``id``.  The values
#: are weak, so a node that nothing else holds leaves the table.
_INTERNED: weakref.WeakValueDictionary[tuple, Regex] = weakref.WeakValueDictionary()


def _interned(cls: type) -> type:
    """Make a node class a frozen, slotted dataclass compared by identity,
    and run its ``__init__`` (which sets the fields and validates them)
    inside :meth:`Regex.__new__`, once per node, instead of on every
    construction."""
    cls = dataclass(frozen=True, eq=False, slots=True)(cls)
    cls._fill = cls.__init__  # type: ignore[attr-defined]
    del cls.__init__  # type: ignore[misc]
    return cls


@_interned
class Empty(Regex):
    """Matches nothing at all."""


@_interned
class Epsilon(Regex):
    """Matches exactly the empty string."""


@_interned
class Singleton(Regex):
    """Matches exactly one given character."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"Singleton holds exactly one character, got {self.char!r}")


@_interned
class Alt(Regex):
    left: Regex
    right: Regex


@_interned
class Cat(Regex):
    left: Regex
    right: Regex


@_interned
class Star(Regex):
    body: Regex


#: A derivative and its rectifier, which :func:`_rectify` runs.
_Entry = tuple[Regex, tuple]


def _children(r: Regex) -> tuple[Regex, ...]:
    if isinstance(r, (Alt, Cat)):
        return r.left, r.right
    return (r.body,) if isinstance(r, Star) else ()


def _fold(
    root: Regex,
    combine: Callable[..., Any],
    children: Callable[[Regex], tuple[Regex, ...]] = _children,
    answers: MutableMapping[Regex, Any] | None = None,
) -> MutableMapping[Regex, Any]:
    """``combine(node, *answers for children(node))`` by node, once each, for
    ``root`` and the nodes below it, into ``answers`` (by default a new
    dict), which lasts as long as its caller keeps it; nodes it already
    answers are not folded again.  Pending nodes wait on a stack, so depth
    costs only memory."""
    answers = {} if answers is None else answers
    # Nodes to answer, and nodes paired with their children once these are.
    todo: list[Any] = [root]
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            node, kids = node
            answers[node] = combine(node, *[answers[kid] for kid in kids])
        elif node not in answers:
            kids = children(node)
            todo += [(node, kids), *kids]
    return answers


def regex_size(r: Regex) -> int:
    """Number of AST nodes in ``r``, a shared node counting once per use."""
    return _fold(r, lambda _node, *sizes: 1 + sum(sizes))[r]


def has_no_star(r: Regex) -> bool:
    """True iff no iteration node occurs anywhere in ``r``."""
    return not any(isinstance(node, Star) for node in _fold(r, lambda _node, *_kids: True))


class ParseTree(Value):
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


def _nullable_of(r: Regex) -> ParseTree | None:
    """The :func:`nullable` witness of a node being built, from its fields'."""
    if isinstance(r, Epsilon):
        return UNIT_TREE
    if isinstance(r, Star):
        return ListT(())
    if isinstance(r, Alt):
        left, right = r.left._nullable, r.right._nullable
        if left is not None:
            return LeftT(left)
        return None if right is None else RightT(right)
    if isinstance(r, Cat):
        left, right = r.left._nullable, r.right._nullable
        return None if left is None or right is None else PairT(left, right)
    return None


def _length_bounds(r: Regex) -> tuple[int, int | None]:
    """The least and greatest length of a string a node being built matches,
    from its fields'; ``None`` is unbounded.  Any bounds hold for ``\\0``,
    and ``(0, 0)`` leaves a concatenation with it one split to try."""
    if isinstance(r, (Empty, Epsilon)):
        return 0, 0
    if isinstance(r, Singleton):
        return 1, 1
    if isinstance(r, Star):
        return 0, (0 if r.body._bounds[1] == 0 else None)
    assert isinstance(r, (Alt, Cat))
    (left_lo, left_hi), (right_lo, right_hi) = r.left._bounds, r.right._bounds
    unbounded = left_hi is None or right_hi is None
    if isinstance(r, Alt):
        return min(left_lo, right_lo), None if unbounded else max(left_hi, right_hi)  # type: ignore[type-var]
    return left_lo + right_lo, None if unbounded else left_hi + right_hi  # type: ignore[operator]


EMPTY = Empty()
EPSILON = Epsilon()


def tree_yield(t: ParseTree) -> str:
    """The string a parse tree spells out, leaf to leaf.  Pending subtrees
    wait on a stack, so depth costs only memory."""
    out: list[str] = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, CharT):
            out.append(t.char)
        elif isinstance(t, (LeftT, RightT)):
            todo.append(t.item)
        elif isinstance(t, PairT):
            todo += (t.second, t.first)
        elif not isinstance(t, UnitT):
            assert isinstance(t, ListT)
            todo.extend(reversed(t.items))
    return "".join(out)


# ---------------------------------------------------------------------------
# The matching relation and its enumerator
# ---------------------------------------------------------------------------


def is_match(r: Regex, s: str, t: ParseTree) -> bool:
    """Decide whether ``t`` witnesses that ``s`` matches ``r``.

    A witness spells exactly its yield, so this is the inductive relation:
    ``t`` must fit ``r`` in shape and in characters, and its yield must be
    ``s``.  Linear in the size of ``t``, and called by no command.  Both
    walks keep pending subtrees on a stack, so depth costs only memory.
    """
    return _fits(r, t) and tree_yield(t) == s


def _fits(r: Regex, t: ParseTree) -> bool:
    """Does ``t`` witness some string for ``r``?  It must fit ``r`` in shape,
    and each character leaf must hold the regex's character.  Pending
    (regex, subtree) pairs wait on a stack, so depth costs only memory."""
    todo = [(r, t)]
    while todo:
        r, t = todo.pop()
        if isinstance(r, Alt) and isinstance(t, (LeftT, RightT)):
            todo.append((r.left if isinstance(t, LeftT) else r.right, t.item))
        elif isinstance(r, Cat) and isinstance(t, PairT):
            todo += ((r.right, t.second), (r.left, t.first))
        elif isinstance(r, Star) and isinstance(t, ListT):
            todo += ((r.body, item) for item in t.items)
        elif isinstance(r, Singleton):
            if not (isinstance(t, CharT) and t.char == r.char):
                return False
        elif not (isinstance(r, Epsilon) and isinstance(t, UnitT)):
            return False
    return True


def _lengths(q: Regex, lo: int, hi: int) -> range:
    """The lengths from ``lo`` to ``hi`` within ``q``'s bounds, shortest first."""
    q_lo, q_hi = q._bounds
    return range(max(lo, q_lo), (hi if q_hi is None else min(hi, q_hi)) + 1)


def enumerate_matches(r: Regex, s: str) -> tuple[ParseTree, ...]:
    """Every witness that ``s`` matches ``r`` in which each iteration consumes.

    The full set of witnesses is infinite whenever a starred subexpression
    can match the empty string, so every element of an iteration's list
    must consume input.  Any match at all has such a witness — delete the
    empty iterations — so existence questions lose nothing.

    Results are duplicate-free, in a fixed order: alternatives list left
    witnesses before right ones; concatenations order by split point,
    shortest left part first; iterations put the bare empty list first,
    then heads by how much they consume.

    A desk-scale oracle: it recurses once per regex level and per
    iteration, and its table lasts for one call.
    """
    # The table, keyed by (regex, string); a plain dict, as a cache wrapper
    # costs more to build for each call than the lookups it serves.
    trees: dict[tuple[Regex, str], tuple[ParseTree, ...]] = {}

    def enum(r: Regex, s: str) -> tuple[ParseTree, ...]:
        key = (r, s)
        found = trees.get(key)
        if found is not None:
            return found
        out: tuple[ParseTree, ...]
        if isinstance(r, Empty):
            out = ()
        elif isinstance(r, Epsilon):
            out = (UNIT_TREE,) if s == "" else ()
        elif isinstance(r, Singleton):
            out = (CharT(r.char),) if s == r.char else ()
        elif isinstance(r, Alt):
            out = tuple(LeftT(t) for t in enum(r.left, s)) + tuple(RightT(t) for t in enum(r.right, s))
        elif isinstance(r, Cat):
            n, (right_lo, right_hi) = len(s), r.right._bounds
            out = tuple(
                PairT(tl, tr)
                for i in _lengths(r.left, 0 if right_hi is None else n - right_hi, n - right_lo)
                for tl in enum(r.left, s[:i])
                for tr in enum(r.right, s[i:])
            )
        else:
            assert isinstance(r, Star)
            # The rest of the list comes from this node's own entries.
            witnesses = [ListT(())] if s == "" else []
            for i in _lengths(r.body, 1, len(s)):
                for head in enum(r.body, s[:i]):
                    for rest in enum(r, s[i:]):
                        witnesses.append(ListT((head,) + rest.items))  # type: ignore[attr-defined]
            out = tuple(witnesses)
        trees[key] = out
        return out

    return enum(r, s)


# ---------------------------------------------------------------------------
# The structural matcher
# ---------------------------------------------------------------------------

MATCH_ROW = EffectRow((EffectId.REC, EffectId.NONDET))
DMATCH_ROW = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE, EffectId.NONDET))


def all_splits(xs: str) -> Computation:
    """Nondeterministically split ``xs`` into a prefix and a suffix.

    Results are ``SplitV`` values, shortest prefix first; a string of
    length n splits n+1 ways.  Each split is made when its branch is
    reached, so a run holds one at a time rather than all n+1 at once.
    The choices are over :data:`MATCH_ROW`, the structural matcher's row.
    """

    def splits_from(i: int) -> Computation:
        if i == len(xs):
            return pure(SplitV(xs, ""))
        return _either(lambda: pure(SplitV(xs[:i], xs[i:])), lambda: splits_from(i + 1))

    return splits_from(0)


def _either(left: Callable[[], Computation], right: Callable[[], Computation]) -> Computation:
    """A choice over :data:`MATCH_ROW` whose branches are built only when
    they are resumed.

    So a chain of choices unfolds one link at a time: the structural
    matcher holds one split of the input at a time, and meets the
    alternatives of a long chain one by one.
    """
    return bind(choice(pure(TRUE), pure(FALSE), MATCH_ROW), lambda b: left() if b == TRUE else right())


def match_input(r: Regex, xs: str) -> PairV:
    """Encode a (regex, string) pair as a recursive-call input value."""
    return PairV(r, Str(xs))


def decode_match_input(value: Value) -> tuple[Regex, str]:
    """Invert :func:`match_input`."""
    if (
        not isinstance(value, PairV)
        or not isinstance(value.first, Regex)
        or not isinstance(value.second, Str)
    ):
        raise TypeError(f"not a (regex, string) call input: {value!r}")
    return value.first, value.second.text


def _cons_iteration(pair_value: Value) -> Value:
    tree = _tree_of(pair_value)
    if not isinstance(tree, PairT):
        raise TreeShapeError(f"iteration step should return (head, rest-of-list): {pair_value!r}")
    return _cons(tree.first, tree.second)


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
        return pure(UNIT_TREE) if xs == "" else fail(row)
    if isinstance(r, Singleton):
        return pure(CharT(r.char)) if xs == r.char else fail(row)
    if isinstance(r, Alt):
        return _either(
            lambda: fmap(lambda t: LeftT(_tree_of(t)), match_structural(r.left, xs)),
            lambda: fmap(lambda t: RightT(_tree_of(t)), match_structural(r.right, xs)),
        )
    if isinstance(r, Cat):
        return bind(
            all_splits(xs),
            lambda sv: bind(
                match_structural(r.left, sv.prefix),
                lambda y: bind(
                    match_structural(r.right, sv.suffix),
                    lambda z: pure(PairT(_tree_of(y), _tree_of(z))),
                ),
            ),
        )
    assert isinstance(r, Star)
    if xs == "":
        return pure(ListT(()))
    return fmap(_cons_iteration, call(row, match_input(Cat(r.body, r), xs)))


def _tree_of(value: Value) -> ParseTree:
    if not isinstance(value, ParseTree):
        raise TreeShapeError(f"expected a tree value, got {value!r}")
    return value


def match_fn() -> RecursiveFn:
    """The structural matcher as a recursive function on encoded inputs."""
    return RecursiveFn(MATCH_ROW, lambda v: match_structural(*decode_match_input(v)))


def match_spec_invariant() -> Invariant:
    """The matching relation as a call invariant.

    Call inputs are encoded (regex, string) pairs; outputs are tree values.
    The enumerator lists the consuming-iteration witnesses, which is the
    finite face of the relation.
    """

    def relation(call_input: Value, output: Value) -> bool:
        r, xs = decode_match_input(call_input)
        return isinstance(output, ParseTree) and is_match(r, xs, output)

    def enumerator(call_input: Value) -> tuple[Value, ...]:
        return enumerate_matches(*decode_match_input(call_input))

    return Invariant(relation, enumerator)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def nullable(r: Regex) -> ParseTree | None:
    """A witness that ``r`` matches the empty string, or ``None``.

    The witness is canonical: left alternatives are preferred and
    iterations are witnessed by the empty list, so equal regexes always
    get the same tree.  It is made once, when the node is built.
    """
    return r._nullable


def derivative(r: Regex, c: str) -> Regex:
    """The residual regex after consuming the character ``c``.

    The derivatives of ``r``'s nodes go into a table that lasts this call,
    so a chain of calls folds each derivative whole; :func:`derivatives`
    shares them along the chain.
    """
    return _derive(r, c, False)[0]


def derivatives(r: Regex, s: str) -> Iterator[Regex]:
    """The chain of :func:`derivative` along ``s``: ``r``'s by ``s[0]``, that
    one's by ``s[1]``, and so on, one per character.

    The chain keeps a table per character while it runs, so each step folds
    only the nodes no earlier step by that character has.  The tables hold
    their nodes weakly, so a node the chain has left behind takes its
    entries with it.
    """
    tables: defaultdict[str, weakref.WeakKeyDictionary[Regex, _Entry]] = defaultdict(weakref.WeakKeyDictionary)
    for c in s:
        r = _derive(r, c, False, tables[c])[0]
        yield r


def integral_tree(r: Regex, c: str, t: ParseTree) -> ParseTree:
    """Rebuild a witness for ``r`` on ``c + xs`` from one for its derivative.

    ``t`` must witness a match of ``derivative(r, c)``; the result then
    witnesses the match of ``r`` on the string with ``c`` put back in
    front.  A tree of the wrong shape raises :class:`TreeShapeError`.  As in
    :func:`derivative`, the derivatives it folds last this call.
    """
    return _rectify(_derive(r, c, False)[1], t)


def derivative_step(r: Regex, c: str) -> tuple[Regex, Callable[[Value], ParseTree]]:
    """The derivative of ``r`` by ``c``, simplified, and its rectifier.

    The regex matches what ``derivative(r, c)`` matches, but is built by
    smart constructors: an alternation is one right-nested chain without
    ``\\0`` and without repeated alternatives (the first stays), and a
    concatenation absorbs ``\\0`` and takes ``\\e`` as unit on either
    side.  These are the ACI rules of Owens, Reppy & Turon (JFP 2009), so by
    Brzozowski's theorem repeated steps reach finitely many regexes.  The
    rectifier maps each witness of the simplified regex on ``xs`` to the
    witness of ``r`` on ``c + xs``: the integral of the witness of
    ``derivative(r, c)`` it stands for (Sulzmann & Lu, FLOPS 2014), made
    in one pass.  A value that is not a tree of the right shape raises
    :class:`TreeShapeError`.  The derivatives it folds last this call;
    :func:`dmatch` keeps the steps it takes.
    """
    d, fix = _derive(r, c, True)
    return d, lambda t: _rectify(fix, _tree_of(t))


def _derive(r: Regex, c: str, simplify: bool, answers: MutableMapping[Regex, _Entry] | None = None) -> _Entry:
    """``r``'s derivative by ``c``, simplified or not, and its rectifier, by
    :func:`_fold` into ``answers`` with the nodes it is made from."""
    return _fold(r, lambda node, *kids: _derivative_of(node, c, simplify, kids), _needed, answers)[r]


def _needed(r: Regex) -> tuple[Regex, ...]:
    """The children whose derivatives that of ``r`` is made from."""
    return (r.left,) if isinstance(r, Cat) and r.left._nullable is None else _children(r)


def _derivative_of(r: Regex, c: str, simplify: bool, kids: tuple[_Entry, ...]) -> _Entry:
    """The derivative of ``r`` by ``c`` and its rectifier, from the entries
    of the children :func:`_needed` names."""
    if isinstance(r, Star):
        return _cat(kids[0], r, _cons, simplify)
    if isinstance(r, Alt):
        sides = [(kids[0], _ALT, LeftT), (kids[1], _ALT, RightT)]
    elif isinstance(r, Cat):
        witness = r.left._nullable
        through_left = _cat(kids[0], r.right, PairT, simplify)
        if witness is None:
            return through_left
        sides = [(through_left, None, None), (kids[1], _NCAT_RIGHT, witness)]
    else:
        return (EPSILON, (_CHAR, c)) if isinstance(r, Singleton) and r.char == c else (EMPTY, (_NONE,))
    return _alt([part for side in sides for part in _alternatives(*side, simplify)], simplify)


# A rectifier is a tuple that _rectify runs.  (_PAIR, shape, None, fix)
# goes on into the first half of a pair, (_UNIT_FIRST, shape, None, fix)
# into the unit witness of a ``\e`` dropped on the left, and (_STAY, shape,
# kept, fix) on the same witness; ``shape`` rebuilds the parent's witness
# from the result and what was kept.  (_PICK, fixes) goes on untagged
# with the alternative the witness takes, (_REBUILD, tags, fix) tagged;
# (_CHAR, c) ends at the unit witness of ``c`` and gives the character
# back, and (_NONE,) ends at ``\0``.
_PAIR, _UNIT_FIRST, _STAY, _PICK, _REBUILD, _CHAR, _NONE = range(7)


def _cons(head: ParseTree, rest: ParseTree) -> ParseTree:
    if not isinstance(rest, ListT):
        raise TreeShapeError(f"cannot integrate an iteration onto {rest!r}")
    return ListT((head,) + rest.items)


#: A ``shape``: the parent's witness from the child's and what was kept.
_Rebuild = Callable[[ParseTree, Any], ParseTree]
_ALT: _Rebuild = lambda t, tag: tag(t)
_NCAT_RIGHT: _Rebuild = lambda t, witness: PairT(witness, t)


def _rectify(fix: tuple, t: ParseTree) -> ParseTree:
    """Map ``t``, a witness on ``xs`` of the derivative by ``c`` in an entry
    of ``r``'s table, by the entry's rectifier ``fix`` to the witness of
    ``r`` on ``c + xs`` it stands for.  A misshapen tree raises
    :class:`TreeShapeError`."""
    passed: list[tuple[_Rebuild, Any]] = []
    while True:
        how = fix[0]
        if how == _PAIR and isinstance(t, PairT):
            passed.append((fix[1], t.second))
            t, fix = t.first, fix[3]
        elif how == _STAY:
            passed.append((fix[1], fix[2]))
            fix = fix[3]
        elif how == _PICK:
            fixes, i = fix[1], 0
            while i < len(fixes) - 1 and isinstance(t, RightT):
                t, i = t.item, i + 1
            if i < len(fixes) - 1:
                if not isinstance(t, LeftT):
                    raise TreeShapeError(f"expected an alternative, got {t!r}")
                t = t.item
            fix = fixes[i]
        elif how == _UNIT_FIRST:
            passed.append((fix[1], t))
            t, fix = UNIT_TREE, fix[3]
        elif how == _REBUILD:
            for tag in fix[1]:
                t = tag(t)
            fix = fix[2]
        elif how == _CHAR and isinstance(t, UnitT):
            t = CharT(fix[1])
            break
        else:
            raise TreeShapeError(f"{t!r} witnesses no derivative here")
    for rebuild, kept in reversed(passed):
        t = rebuild(t, kept)
    return t


def _alternatives(entry: _Entry, shape: _Rebuild | None, kept: Any, simplify: bool) -> list[_Entry]:
    """What the derivative in ``entry`` brings to an alternation: with
    ``simplify`` the alternatives on its right spine, else itself; each
    with its rectifier, through a ``shape`` level unless that is ``None``."""
    d, fix = entry
    if not simplify:
        return [(d, fix if shape is None else (_STAY, shape, kept, fix))]
    parts = []
    while isinstance(d, Alt):
        parts.append(d.left)
        d = d.right
    parts.append(d)
    fixes = fix[1] if fix[0] == _PICK else (fix,)
    last, out = len(fixes) - 1, []
    for i, part in enumerate(parts):
        part_fix = fixes[min(i, last)]
        if i >= last and len(parts) > len(fixes):
            # The chain's last alternative is an alternation: rebuild it.
            part_fix = (_REBUILD, (LeftT,) * (i < len(parts) - 1) + (RightT,) * (i - last), part_fix)
        out.append((part, part_fix if shape is None else (_STAY, shape, kept, part_fix)))
    return out


def _alt(parts: list[_Entry], simplify: bool) -> _Entry:
    """The alternation of ``parts`` and its rectifier.  With ``simplify``,
    one right-nested chain of the parts but ``\\0``, each the first time."""
    if simplify:
        kept: dict[Regex, tuple] = {}
        for part, fix in parts:
            if part is not EMPTY:
                kept.setdefault(part, fix)
        parts = list(kept.items())
        if not parts:
            return EMPTY, (_NONE,)
    alternatives, fixes = zip(*parts)
    return _right_nested(Alt, alternatives), fixes[0] if len(fixes) == 1 else (_PICK, fixes)


def _cat(entry: _Entry, right: Regex, shape: _Rebuild, simplify: bool) -> _Entry:
    """``Cat(d, right)`` for the derivative ``d`` in ``entry``, with its
    rectifier through a ``shape`` level.  With ``simplify``, ``\\0``
    absorbs and ``\\e`` is a unit on either side."""
    d, fix = entry
    if simplify and (d is EMPTY or right is EMPTY):
        return EMPTY, (_NONE,)
    if simplify and d is EPSILON:
        return right, (_UNIT_FIRST, shape, None, fix)
    if simplify and right is EPSILON:
        return d, (_STAY, shape, UNIT_TREE, fix)
    return Cat(d, right), (_PAIR, shape, None, fix)


# ---------------------------------------------------------------------------
# The derivative matcher
# ---------------------------------------------------------------------------


def dmatch(r: Regex) -> Computation:
    """Match by reading one character and recursing on the derivative.

    Reads an optional symbol: on a character ``x``, recurse on the
    simplified derivative of :func:`derivative_step` and map the returned
    witness by its rectifier to the one for ``r``; at end of input, produce
    the empty-string witness or fail.  The witness is the one the
    unsimplified derivatives give, but the regexes recursed on stay few and
    small however long the input.

    The computation is built once per node and kept on it, and so is its
    step for each character read, the call on the derivative with its
    rectifier: trees are immutable, so every run and every call on ``r``
    shares them.
    """
    m = r._dmatch
    if m is not None:
        return m
    steps: dict[str, Computation] = {}
    witness = r._nullable
    at_end = pure(witness) if witness is not None else fail(DMATCH_ROW)

    def continue_with(response: Value) -> Computation:
        if not isinstance(response, Ch):
            return at_end
        x = response.char
        step = steps.get(x)
        if step is None:
            d, rectify = derivative_step(r, x)
            step = steps[x] = fmap(rectify, call(DMATCH_ROW, d))
        return step

    m = bind(symbol_maybe(DMATCH_ROW), continue_with)
    object.__setattr__(r, "_dmatch", m)
    return m


def dmatch_fn() -> RecursiveFn:
    """The derivative matcher as a recursive function on regex inputs."""
    return RecursiveFn(DMATCH_ROW, lambda v: dmatch(_regex_of(v)))


def _regex_of(value: Value) -> Regex:
    if not isinstance(value, Regex):
        raise TypeError(f"expected a regex value, got {value!r}")
    return value


def dmatch_handled() -> RecursiveFn:
    """The derivative matcher with its symbol reads discharged by state.

    Inputs become ``PairV(r, Str(input))`` — the encoding
    :func:`match_input` builds, which the structural matcher uses too — and
    the effect row shrinks to recursion plus nondeterminism.
    """
    return handle_rec(h_parser, dmatch_fn())


def dmatch_run(r: Regex, s: str) -> tuple[ParseTree, ...]:
    """All witnesses the derivative matcher finds for ``s`` against ``r``.

    Runs :func:`dmatch_fn` on the interpreter with ``s`` as its state,
    which answers the reads, so no handler walks the tree; the witnesses,
    and their order, are those of :func:`dmatch_handled`.  Runs with fuel
    exactly ``len(s)``: each recursive call consumes one character first,
    so the budget provably suffices — running dry would mean the
    termination argument itself is broken, and raises.
    """
    outcome = run_with_fuel(dmatch_fn(), r, len(s), s)
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
_LEAF_TEXT = {EMPTY: "\\0", EPSILON: "\\e"}


def parse_regex(pattern: str) -> Regex:
    """Parse the concrete syntax.

    ``|`` alternates (lowest precedence), juxtaposition concatenates,
    postfix ``*`` iterates, parentheses group.  ``\\0`` is the match-nothing
    regex and ``\\e`` the empty-string regex; ``\\|``, ``\\*``, ``\\(``,
    ``\\)`` and ``\\\\`` escape the metacharacters.  Spaces and tabs
    between tokens are ignored; any other character stands for itself.
    """
    # The finished alternatives of the group being read and the factors of
    # the next; the enclosing groups' wait on a stack, not in Python frames.
    alternatives: list[Regex] = []
    factors: list[Regex] = []
    open_groups: list[tuple[list[Regex], list[Regex]]] = []
    pos = 0
    while True:
        while pos < len(pattern) and pattern[pos] in " \t":
            pos += 1
        if pos == len(pattern):
            break
        head = pattern[pos]
        if head in ")|*" and not factors or head == ")" and not open_groups:
            raise RegexSyntaxError(f"unexpected {head!r}", pos)
        pos += 1
        if head == "(":
            open_groups.append((alternatives, factors))
            alternatives, factors = [], []
        elif head == "*":
            factors[-1] = Star(factors[-1])
        elif head == "|":
            alternatives.append(_right_nested(Cat, factors))
            factors = []
        elif head == ")":
            group = _right_nested(Alt, [*alternatives, _right_nested(Cat, factors)])
            alternatives, factors = open_groups.pop()
            factors.append(group)
        elif head == "\\":
            if pos == len(pattern):
                raise RegexSyntaxError("dangling escape at end of pattern", pos)
            escaped = pattern[pos]
            if escaped not in _ESCAPES and escaped not in _METACHARS:
                raise RegexSyntaxError(f"unknown escape '\\{escaped}'", pos)
            factors.append(_ESCAPES.get(escaped) or Singleton(escaped))
            pos += 1
        else:
            factors.append(Singleton(head))
    if not factors:
        raise RegexSyntaxError("expected an expression, found end of pattern", pos)
    if open_groups:
        raise RegexSyntaxError("expected ')'", pos)
    return _right_nested(Alt, [*alternatives, _right_nested(Cat, factors)])


def format_regex(r: Regex) -> str:
    """Render ``r`` in the concrete syntax; inverse of :func:`parse_regex`.

    Concatenations are separated by a space for readability, which the
    parser skips — so a regex whose singletons are spaces or tabs is not
    representable in the concrete syntax and will not round-trip.  Pending
    nodes and text wait on an explicit stack, as in :func:`render_tree`.
    """
    out: list[str] = []
    # Text to write, or a node and how tightly its context binds: 0 for an
    # alternative, 1 for a factor, 2 for a body.  Left parts go out at once.
    todo: list[str | tuple[Regex, int]] = [(r, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, context = item
        while True:
            kind = type(node)
            if kind is Star:
                todo.append("*")
                node, context = node.body, 2
            elif kind is Alt or kind is Cat:
                level = int(kind is Cat)
                if level < context:
                    out.append("(")
                    todo.append(")")
                todo += ((node.right, level), "| "[level])
                node, context = node.left, level + 1
            else:
                out.append(_LEAF_TEXT.get(node) or ("\\" if node.char in _METACHARS else "") + node.char)
                break
    return "".join(out)


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
