"""Context-free grammars parsed through the recursion effect.

A grammar is an ordered list of productions, whose right-hand sides hold
:class:`Term` characters and :class:`Nonterminal` values.  :func:`from_prods`
turns a nonterminal into a computation that nondeterministically picks one
of its productions and walks the right-hand side, reading terminals with
strict symbol reads and calling the recursion effect on each nonterminal
itself; results are :class:`SemValue` derivation nodes recording which
production fired and the sub-derivations for its nonterminals, in order.
Nothing of this depends on the input, so each nonterminal's computation is
built once per grammar, from productions grouped by left-hand side, and
shared by every expansion.
Each is left-factored (Swierstra and Duponcheel 1996): a run of productions
led by terminals shares one read, and those the character does not start
have no results and make no call, so results, order, calls and fuel stay.

Left recursion makes naive unfolding diverge, so :func:`chain_bound`
analyses the grammar's left-recursion links first, in one depth-first
search that reports either a cycle or a bound (:class:`ChainReport`):
grammars whose link graph is cyclic are rejected, and for the rest the
longest chain yields a fuel budget — ``(len(input) + 1) * (bound + 1)`` —
under which :func:`parse` provably finishes.  (A left-corner transform would make
cyclic grammars workable; this library just reports them.)

:func:`parse` gives every parse of every prefix, as the paper does.
:func:`parse_full` gives the parses of the whole input only, from a second,
end-anchored body per nonterminal: the augmented grammar ``S' -> S $`` of
LR parsing (Knuth 1965) with the end marker pushed into tail calls, so a
parse that stops short of the end dies where it arises instead of climbing
back through its callers.  So is every terminal right after a nonterminal:
``'(' S ')' S`` calls the inner ``S`` with the follow ``')'``, which that
body reads itself.  The calls stay, so they run dry on the same budgets.

:func:`spec_produce` is the independent oracle: a direct brute-force
enumeration of the derivation relation, prefix or anchored, against which
the effectful parser is checked.  The grammar file format understood by
the command line lives in :func:`grammar_from_text`, which reads each line
in one pass of its tokenizer; every problem with a grammar, from a
malformed line to an empty nonterminal name, raises a :class:`GrammarError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from typing import Iterable, Iterator

from .core import (
    Command,
    Computation,
    EffectId,
    EffectRow,
    Op,
    PARSER_ROW,
    PairV,
    Str,
    UNIT,
    Value,
    _READ_MAYBE,
    _READ_STRICT,
    bind,
    call,
    choices,
    fail,
    pure,
)
from .handlers import Done, Exhausted, RecursiveFn, TerminationInvariantError, _unfold, run_with_fuel
from .render import Shape, render_tree
from .semantics import _drive

__all__ = [
    "CFG_ROW",
    "ChainReport",
    "CyclicGrammarError",
    "GSymbol",
    "Grammar",
    "GrammarError",
    "GrammarSyntaxError",
    "Nonterminal",
    "Production",
    "SemValue",
    "Term",
    "UndefinedNonterminalError",
    "build_parser",
    "chain_bound",
    "check_variant",
    "expanded_parser",
    "filter_lhs",
    "format_sem_value",
    "from_prods",
    "from_prods_fn",
    "grammar_from_text",
    "left_rec_links",
    "parse",
    "parse_fuel",
    "parse_full",
    "spec_produce",
]


CFG_ROW = EffectRow((EffectId.REC, EffectId.NONDET, EffectId.PARSER_STRICT))


class GrammarError(ValueError):
    """Base class for problems loading or analysing a grammar."""


class GrammarSyntaxError(GrammarError):
    """A grammar file failed to parse; the message names the line."""


class UndefinedNonterminalError(GrammarError):
    """A right-hand side names a nonterminal with no defining production."""


class CyclicGrammarError(GrammarError):
    """The left-recursion link graph has a cycle, so derivations are unbounded."""

    def __init__(self, cycle: tuple["Nonterminal", ...]) -> None:
        super().__init__(f"unbounded derivations: left-recursion cycle {_cycle_text(cycle)}")
        self.cycle = cycle


def _cycle_text(cycle: tuple["Nonterminal", ...]) -> str:
    """A left-recursion cycle as ``A -> B -> A``."""
    return " -> ".join(nt.name for nt in cycle)


# ---------------------------------------------------------------------------
# The grammar model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nonterminal(Value):
    """A nonterminal: a right-hand-side symbol, and the input of its calls."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise GrammarError("nonterminal names are nonempty")


@dataclass(frozen=True)
class Term:
    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"terminals are single characters, got {self.char!r}")


#: A grammar symbol: either a terminal character or a nonterminal.
GSymbol = Term | Nonterminal


@dataclass(frozen=True)
class Production:
    """One rule: ``lhs`` produces ``rhs``, at position ``index`` in the grammar."""

    lhs: Nonterminal
    rhs: tuple[GSymbol, ...]
    index: int


@dataclass(frozen=True)
class Grammar:
    """An ordered sequence of productions.

    Production indices must equal their positions, and every nonterminal
    used on a right-hand side must have at least one production of its own
    (an undefined name is almost always a typo, and would silently parse
    nothing).
    """

    productions: tuple[Production, ...]

    def __post_init__(self) -> None:
        for position, production in enumerate(self.productions):
            if production.index != position:
                raise GrammarError(
                    f"production {position} carries index {production.index}"
                )
        defined = {p.lhs for p in self.productions}
        for production in self.productions:
            for symbol in production.rhs:
                if isinstance(symbol, Nonterminal) and symbol not in defined:
                    raise UndefinedNonterminalError(f"nonterminal {symbol.name!r} is used but never defined")

    @cached_property
    def _index(self) -> _Index:
        """The parser index, built on first use (see :class:`_Index`)."""
        return _Index(self)

    def __getstate__(self) -> dict:
        # Copies and pickles leave out the parser index (see _index), which
        # holds closures and is rebuilt on first use.
        return {"productions": self.productions}


@dataclass(frozen=True, init=False)
class SemValue(Value):
    """A derivation node: which nonterminal, which production, which children.

    Children line up, in order, with the nonterminal symbols of the
    production's right-hand side; terminals contribute no child.  Parsers
    build one per production, so it is built as ``core.Pure`` is, without
    the frozen dataclass ``__init__``.
    """

    __slots__ = ("nt", "production", "children", "__weakref__")
    nt: Nonterminal
    production: int
    children: tuple["SemValue", ...]

    def __init__(self, nt: Nonterminal, production: int, children: tuple["SemValue", ...]) -> None:
        _set_nt(self, nt)
        _set_production(self, production)
        _set_children(self, children)

    def __reduce__(self) -> tuple:
        return (type(self), (self.nt, self.production, self.children))


_set_nt, _set_production, _set_children = (SemValue.__dict__[f].__set__ for f in ("nt", "production", "children"))


@dataclass(frozen=True)
class ChainReport:
    """Left-recursion analysis: the links, and a chain-length bound or a cycle.

    ``links`` holds (from, to, witness production index) triples.  A report
    holds exactly one of ``bound``, the least number strictly greater than
    every chain length, when the link graph is acyclic, and ``cycle``, a
    witness cycle (first nonterminal repeated at the end), when it is not;
    so a report is cyclic exactly when ``cycle`` is not ``None``.
    """

    links: tuple[tuple[Nonterminal, Nonterminal, int], ...]
    bound: int | None
    cycle: tuple[Nonterminal, ...] | None = None

    def __post_init__(self) -> None:
        if (self.bound is None) == (self.cycle is None):
            raise ValueError("a chain report holds exactly one of a bound and a cycle")


def format_sem_value(value: SemValue, as_json: bool = False) -> str:
    """Render a derivation node as an s-expression, or as one line of JSON.

    ``(node E 0 (node E 1))`` in JSON is ``["node","E",0,["node","E",1]]``.
    """
    return render_tree(value, _sem_value_shape, as_json)


def _sem_value_shape(value: SemValue) -> Shape:
    return ("node", value.nt.name, value.production), value.children


# ---------------------------------------------------------------------------
# The effectful parser
# ---------------------------------------------------------------------------


class _Index:
    """The input-independent parts of a grammar's parser, built once.

    Productions grouped by left-hand side, and, as first asked for, bodies
    keyed by ``(name, follow)`` (see :func:`from_prods`).  Computations are
    immutable and their resumptions pure, so every parse of the grammar can
    share them.  The index is the grammar's cached ``_index`` property: kept
    in the instance dict, not a field, it takes no part in equality, hashing
    or the repr, and is dropped with its grammar.
    """

    __slots__ = ("by_lhs", "bodies")

    def __init__(self, g: Grammar) -> None:
        by_lhs: dict[Nonterminal, list[Production]] = {}
        for production in g.productions:
            by_lhs.setdefault(production.lhs, []).append(production)
        self.by_lhs = {a: tuple(ps) for a, ps in by_lhs.items()}
        self.bodies: dict[tuple[str, str | None], Computation] = {}


def filter_lhs(g: Grammar, a: Nonterminal) -> tuple[Production, ...]:
    """The productions for ``a``, in grammar order."""
    return g._index.by_lhs.get(a, ())


#: The end-of-input check is an optional read, which answers ``UNIT`` only
#: at the end.  Strict reads cannot tell the end apart from a failed read,
#: and only this check uses the read, so ``CFG_ROW`` stays as it is.
_END_ROW = EffectRow(CFG_ROW.effects + (EffectId.PARSER_MAYBE,))
_DEAD = fail(CFG_ROW)
#: One checked ``Op`` per grammar step: a read, or the end check, and its resumption.
_read = partial(Op, CFG_ROW, _READ_STRICT)
_read_end = partial(Op, _END_ROW, _READ_MAYBE)


def build_parser(rhs: tuple[GSymbol, ...], last: Production, follow: str | None = None) -> Computation:
    """Walk a right-hand side of ``last``, delivering ``last``'s derivation node.

    Terminals are consumed and contribute nothing; each nonterminal is a
    call on the recursion effect, built here once for the walk, whose
    answer, a derivation node, is the node's next child.  ``rhs`` is
    ``last``'s right-hand side, or the part of it after a terminal
    :func:`from_prods` has read already.

    ``follow`` says what must come right after the walk: anything
    (``None``), the end of the input (``""``), or the terminal it names,
    which the walk consumes.  A nonterminal right before a terminal is
    called with that terminal as its follow, and the walk skips it; a last
    nonterminal gets the walk's follow.  After a last terminal, or for an
    empty right-hand side, the walk checks its follow itself (an end check
    or a strict read).  So a parse the next terminal turns away dies in
    the callee instead of climbing back through its callers.
    """
    after = [s.char if isinstance(s, Term) else None for s in rhs[1:]] + [follow]
    # A step is a call, a character to read, or "" for the end check.
    steps: list = []
    for i, s in enumerate(rhs):
        if isinstance(s, Nonterminal):
            steps.append(call(CFG_ROW, _call_input(s, after[i])))
        elif i == 0 or isinstance(rhs[i - 1], Term):
            steps.append(s.char)
    if follow is not None and (not rhs or isinstance(rhs[-1], Term)):
        steps.append(follow)
    m = len(steps)

    def walk(i: int, acc: tuple) -> Computation:
        if i == m:
            return pure(SemValue(last.lhs, last.index, acc))
        step = steps[i]
        if type(step) is not str:
            return bind(step, lambda child: walk(i + 1, acc + (_node_of(child),)))
        if step:
            return _read(lambda response: walk(i + 1, acc) if response.char == step else _DEAD)
        return _read_end(lambda response: walk(i + 1, acc) if response == UNIT else _DEAD)

    return walk(0, ())


def _node_of(value: Value) -> SemValue:
    if not isinstance(value, SemValue):
        raise TypeError(f"expected a derivation node value, got {value!r}")
    return value


def from_prods(g: Grammar, a: Nonterminal, follow: str | None = None) -> Computation:
    """Parse ``a``: choose one of its productions and walk it.

    Left-factored: each consecutive run of terminal-led productions reads
    once and goes on, in grammar order, with those the character starts; the
    rest would make no call and give nothing, so results, calls, fuel agree.
    A nonterminal with no productions parses nothing.  Each production is
    walked with ``follow`` (see :func:`build_parser`): all prefix parses
    for ``None``, those that end the input for ``""``, and those followed
    by ``t`` for ``t``, consumed.  The computation is built on the first
    call for ``a`` and ``follow`` and shared by every later one.
    """
    bodies = g._index.bodies
    body = bodies.get((a.name, follow))
    if body is None:
        alternatives: list[Computation] = []
        for led, run in groupby(filter_lhs(g, a), lambda p: bool(p.rhs) and isinstance(p.rhs[0], Term)):
            if not led:
                alternatives.extend(build_parser(p.rhs, p, follow) for p in run)
                continue
            rests: dict[str, list[Computation]] = {}
            for p in run:
                rests.setdefault(p.rhs[0].char, []).append(build_parser(p.rhs[1:], p, follow))
            table = {c: choices(ms, CFG_ROW) for c, ms in rests.items()}
            alternatives.append(_read(lambda response, table=table: table.get(response.char, _DEAD)))
        body = bodies[a.name, follow] = choices(alternatives, CFG_ROW)
    return body


def _call_input(a: Nonterminal, follow: str | None) -> Value:
    """The call input naming ``a`` and ``follow``, as :func:`_callee` reads it."""
    return a if follow is None else PairV(a, Str(follow))


def _callee(value: Value) -> tuple[Nonterminal, str | None]:
    """The nonterminal and follow a call input names (see :func:`_call_input`)."""
    if isinstance(value, Nonterminal):
        return value, None
    if isinstance(value, PairV) and isinstance(value.first, Nonterminal) and isinstance(value.second, Str):
        if len(value.second.text) < 2:
            return value.first, value.second.text
    raise TypeError(f"call inputs are nonterminals, bare or with a follow of one character or none, got {value!r}")


def from_prods_fn(g: Grammar) -> RecursiveFn:
    """The grammar's parser as a recursive function on nonterminals.

    A nonterminal ``a`` runs its plain body; ``a`` paired with a follow,
    ``PairV(a, Str(follow))``, runs that follow's body: the anchored one
    for the empty follow, a terminal's for one character.  Any other input
    raises ``TypeError``.
    """

    def body(value: Value) -> Computation:
        return from_prods(g, *_callee(value))

    return RecursiveFn(CFG_ROW, body)


# ---------------------------------------------------------------------------
# The derivation oracle
# ---------------------------------------------------------------------------


def spec_produce(g: Grammar, a: Nonterminal, text: str, anchored: bool = False) -> tuple[tuple[SemValue, str], ...]:
    """All derivations of ``a`` on a prefix of ``text``, with remainders.

    A direct enumeration of the derivation relation, independent of the
    effect machinery: for each production in order, walk its right-hand
    side over every way the nonterminals can consume input.  ``anchored``
    keeps only the derivations of all of ``text``, in the same order,
    anchoring tail positions as :func:`parse_full` does, so no derivation
    of a shorter prefix is built.  Requires an acyclic left-recursion
    graph; the derivation depth is capped by the proven fuel bound, so
    running into the cap means the bound's proof is broken, not that the
    input is large.
    """
    cap = _proven_fuel(g, len(text))
    produced: dict[tuple[Nonterminal, str, int, bool], tuple[tuple[SemValue, str], ...]] = {}

    def produce(nt: Nonterminal, s: str, depth: int, anchored: bool) -> tuple[tuple[SemValue, str], ...]:
        if depth == 0:
            raise RuntimeError(
                "derivation depth exceeded the proven bound; chain analysis is inconsistent"
            )
        key = (nt, s, depth, anchored)
        if key in produced:
            return produced[key]
        out: list[tuple[SemValue, str]] = []
        for production in filter_lhs(g, nt):
            for children, remainder in walk(production.rhs, s, depth, anchored):
                out.append((SemValue(nt, production.index, children), remainder))
        produced[key] = tuple(out)
        return produced[key]

    def walk(
        rhs: tuple[GSymbol, ...], s: str, depth: int, anchored: bool
    ) -> tuple[tuple[tuple[SemValue, ...], str], ...]:
        if not rhs:
            return (((), s),) if s == "" or not anchored else ()
        head, rest = rhs[0], rhs[1:]
        if isinstance(head, Term):
            if s.startswith(head.char):
                return walk(rest, s[1:], depth, anchored)
            return ()
        assert isinstance(head, Nonterminal)
        out: list[tuple[tuple[SemValue, ...], str]] = []
        for child, remainder in produce(head, s, depth - 1, anchored and not rest):
            for children, final in walk(rest, remainder, depth, anchored):
                out.append(((child,) + children, final))
        return tuple(out)

    return produce(a, text, cap, anchored)


# ---------------------------------------------------------------------------
# Left-recursion chains
# ---------------------------------------------------------------------------


def left_rec_links(g: Grammar) -> tuple[tuple[Nonterminal, Nonterminal, int], ...]:
    """The left-recursion links: lhs to each leading-run nonterminal.

    A production whose right-hand side starts with nonterminals can reach
    any of them without consuming input first, so each nonterminal in that
    maximal leading run gets a link from the production's left-hand side,
    witnessed by the production's index.  Duplicate triples are dropped.
    """
    links: dict[tuple[Nonterminal, Nonterminal, int], None] = {}
    for production in g.productions:
        for symbol in production.rhs:
            if not isinstance(symbol, Nonterminal):
                break
            links[(production.lhs, symbol, production.index)] = None
    return tuple(links)


def chain_bound(g: Grammar) -> ChainReport:
    """Analyse the link graph: a cycle witness, or a bound on chain lengths.

    The bound is one more than the longest path in the (acyclic) graph —
    every chain of links is strictly shorter than it.  The search is depth
    first from each link source in name order, trying successors in link
    order, and the cycle it reports is the first one it closes.  It keeps
    its open path on a list, not on the Python stack, so a chain of any
    length is analysed at the default recursion limit.
    """
    links = left_rec_links(g)
    successors: dict[Nonterminal, list[Nonterminal]] = {}
    for source, target, _ in links:
        successors.setdefault(source, []).append(target)

    # The open path, its nodes as a set, and the successors each open node
    # has left to try; the bottom entry holds the roots.  A node closes once
    # all its successors have, so its longest chain is computed then.
    path: list[Nonterminal] = []
    on_path: set[Nonterminal] = set()
    untried: list[Iterator[Nonterminal]] = [iter(sorted(successors, key=lambda nt: nt.name))]
    longest: dict[Nonterminal, int] = {}
    while untried:
        for target in untried[-1]:
            if target in on_path:
                return ChainReport(links, None, tuple(path[path.index(target):]) + (target,))
            if target not in longest:
                path.append(target)
                on_path.add(target)
                untried.append(iter(successors.get(target, ())))
                break
        else:
            untried.pop()
            if path:
                node = path.pop()
                on_path.remove(node)
                longest[node] = max((1 + longest[t] for t in successors.get(node, ())), default=0)
    return ChainReport(links, 1 + max(longest.values(), default=0))


def parse_fuel(input_length: int, bound: int) -> int:
    """The fuel budget that provably suffices: ``(length + 1) * (bound + 1)``.

    Between consuming two characters the parser can take at most ``bound``
    recursion steps that stay on the same input (each a left-recursion
    link, and chains are shorter than ``bound``), so charging ``bound + 1``
    per input position plus one closing segment covers every path.
    """
    return (input_length + 1) * (bound + 1)


# ---------------------------------------------------------------------------
# Parsing with fuel
# ---------------------------------------------------------------------------


def _proven_fuel(g: Grammar, length: int) -> int:
    """The proven budget for ``length`` characters; rejects cyclic grammars."""
    report = chain_bound(g)
    if report.cycle is not None:
        raise CyclicGrammarError(report.cycle)
    return parse_fuel(length, report.bound)


def _run(
    g: Grammar, a: Nonterminal, follow: str | None, text: str, fuel: int | None = None
) -> tuple[tuple[SemValue, str], ...] | Exhausted:
    """Run ``a``'s body for ``follow`` on ``text``: its parses with remainders.

    Runs on ``fuel``, returning :data:`~effparse.handlers.EXHAUSTED` if a
    path ran dry, or without it on the proven budget, where running dry is
    a broken invariant and raises.
    """
    budget = _proven_fuel(g, len(text)) if fuel is None else fuel
    outcome = run_with_fuel(from_prods_fn(g), _call_input(a, follow), budget, state0=text)
    if isinstance(outcome, Done):
        # Runs start from a string state, and reads keep it one.
        return tuple((_node_of(value), state) for value, state in outcome.results if state is not None)
    if fuel is None:
        raise TerminationInvariantError("grammar parsing ran out of fuel despite an acyclic chain analysis")
    return outcome


def parse(g: Grammar, a: Nonterminal, text: str) -> tuple[tuple[SemValue, str], ...]:
    """All parses of a prefix of ``text`` as ``a``, with their remainders.

    Rejects grammars with cyclic left recursion up front; otherwise runs
    the effectful parser with the proven fuel budget.  Running out of fuel
    is therefore not an input condition but a broken invariant, and raises.
    """
    return _run(g, a, None, text)


def parse_full(g: Grammar, a: Nonterminal, text: str, fuel: int | None = None) -> tuple[SemValue, ...] | Exhausted:
    """The parses of all of ``text`` as ``a``, in the order :func:`parse` gives.

    They are the results of :func:`parse` with an empty remainder, but the
    run starts from ``a``'s anchored body (the follow ``""``), so a parse of
    a shorter prefix dies where it arises.  Without ``fuel`` it runs as
    :func:`parse` does: cyclic grammars are rejected, and running dry on
    the proven budget raises.  Given ``fuel``, it skips the chain analysis,
    runs on that budget, and returns :data:`~effparse.handlers.EXHAUSTED`
    if a path ran dry: an anchored body makes the calls the plain one
    makes, in the same order, so it runs dry exactly when
    :func:`run_with_fuel` on the plain body does.
    """
    outcome = _run(g, a, "", text, fuel)
    if isinstance(outcome, Exhausted):
        return outcome
    return tuple(node for node, _ in outcome)


def expanded_parser(g: Grammar, a: Nonterminal, depth: int) -> Computation:
    """Unfold the parser for ``a`` into a recursion-free computation.

    Recursive calls are substituted ``depth`` deep; any call past the
    budget becomes a dead branch.  With depth at least the parse fuel for
    the inputs of interest, the result behaves exactly like :func:`parse`
    under the two-effect parser row — useful for language-membership
    reasoning, which wants computations without recursion.
    """
    return _unfold(from_prods_fn(g), from_prods(g, a), depth, fail(PARSER_ROW))


# ---------------------------------------------------------------------------
# The recursion variant, instrumented
# ---------------------------------------------------------------------------


class _VariantBroken(Exception):
    pass


def check_variant(g: Grammar, samples: Iterable[tuple[Nonterminal, str]]) -> bool:
    """Check the termination measure on every call edge of sampled runs.

    From a state (nonterminal, input), each recursive call must either
    strictly shrink the input, or keep its length while following a
    left-recursion link from the caller.  Call results are supplied by the
    derivation oracle so exploration continues past each call without
    re-descending into it; visited states are explored once.
    """
    report = chain_bound(g)
    link_pairs = {(source, target) for source, target, _ in report.links}
    seen: set[tuple[Nonterminal, str]] = set()
    queue: list[tuple[Nonterminal, str]] = list(samples)

    def answer(command: Command, state: str | None, fuel: int) -> list[tuple[Computation, str, int]]:
        callee, follow = _callee(command.payload)
        assert state is not None
        shrinks = len(state) < len(start)
        linked = (caller, callee) in link_pairs and len(state) <= len(start)
        if not (shrinks or linked):
            raise _VariantBroken
        queue.append((callee, state))
        results = spec_produce(g, callee, state)
        if follow is not None:
            # The callee reads its follow: the remainder must start with it.
            results = tuple((child, rest[1:]) for child, rest in results if rest[:1] == follow)
        return [(pure(child), remainder, fuel) for child, remainder in results]

    while queue:
        entry = queue.pop(0)
        if entry in seen:
            continue
        seen.add(entry)
        caller, start = entry
        try:
            _drive(from_prods(g, caller), start, 0, answer)
        except _VariantBroken:
            return False
    return True


# ---------------------------------------------------------------------------
# The grammar file format
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM_ESCAPES = {"'": "'", "\\": "\\", "n": "\n", "t": "\t"}


def _tokenize(line: str, lineno: int) -> list[GSymbol | str]:
    """The tokens of one line: symbols, and the marks ``"->"`` and ``"|"``.

    A ``#`` met between tokens ends the line; inside a terminal it is the
    terminal's character, so only the terminal reader knows the quote rule.
    """
    tokens: list[GSymbol | str] = []
    i = 0
    while i < len(line):
        c = line[i]
        if c == "#":
            break
        if c in " \t":
            i += 1
        elif line.startswith("->", i):
            tokens.append("->")
            i += 2
        elif c == "|":
            tokens.append("|")
            i += 1
        elif c == "'":
            i += 1
            if i >= len(line):
                raise GrammarSyntaxError(f"line {lineno}: unterminated terminal")
            if line[i] == "\\":
                i += 1
                if i >= len(line) or line[i] not in _TERM_ESCAPES:
                    raise GrammarSyntaxError(f"line {lineno}: unknown escape in terminal")
                char = _TERM_ESCAPES[line[i]]
            else:
                char = line[i]
            i += 1
            if i >= len(line) or line[i] != "'":
                raise GrammarSyntaxError(f"line {lineno}: terminals hold exactly one character")
            i += 1
            tokens.append(Term(char))
        else:
            match = _IDENT.match(line, i)
            if not match:
                raise GrammarSyntaxError(f"line {lineno}: unexpected character {c!r}")
            tokens.append(Nonterminal(match.group()))
            i = match.end()
    return tokens


def grammar_from_text(text: str) -> Grammar:
    """Load a grammar from its textual format.

    Each rule line reads ``Lhs -> item item …`` where items are nonterminal
    identifiers or single-quoted terminal characters (``\\'``, ``\\\\``,
    ``\\n``, ``\\t`` escapes); an empty item list derives the empty string.
    ``|`` separates alternative right-hand sides for the same left-hand
    side, ``#`` outside a terminal starts a comment (``'#'`` is a terminal),
    and blank lines are skipped.  Lines end at ``\\r\\n``, ``\\r`` or
    ``\\n`` only: the other characters :meth:`str.splitlines` breaks at,
    such as form feeds, belong to their line, as terminals when quoted.
    Production indices follow file order.  Malformed lines raise
    :class:`GrammarSyntaxError` naming the line.
    """
    productions: list[Production] = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        lhs = tokens[0]
        if not isinstance(lhs, Nonterminal) or tokens[1:2] != ["->"]:
            raise GrammarSyntaxError(f"line {lineno}: expected 'Name -> …'")
        rhs: list[GSymbol] = []
        for token in tokens[2:] + ["|"]:
            if token == "->":
                raise GrammarSyntaxError(f"line {lineno}: unexpected '->'")
            if token == "|":
                productions.append(Production(lhs, tuple(rhs), len(productions)))
                rhs = []
            else:
                rhs.append(token)
    return Grammar(tuple(productions))
