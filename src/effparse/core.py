"""Free computations over rows of effects.

A ``Computation`` is a tree: ``Pure`` leaves carry a result value, ``Op``
nodes record one issued effect command together with a resumption that maps
each possible response to the rest of the computation.  Nothing here runs
anything — interpretation is the business of the semantics and handler
modules, which fold over these trees.  Trees are immutable and resumptions
pure, so one tree may be shared by many runs; ``bind`` grafts onto one in
constant time by queueing its continuation on the resumption.

Effects are identified by :class:`EffectId` and grouped into an ordered
:class:`EffectRow`; an ``Op`` node's command names its effect, and
construction checks that the effect is in the node's row.

Interpreters build ``Pure`` and ``Op`` nodes on most steps, so these skip
the frozen dataclass ``__init__`` (a slow ``object.__setattr__`` per field)
and set their slots through the slot descriptors; ``==``, ``hash``,
``repr``, weak references, copies and pickles stay, and every ``Op``
still runs its row check, in its ``__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "Bool",
    "Ch",
    "Command",
    "CommandKind",
    "Computation",
    "EffectId",
    "EffectRow",
    "FALSE",
    "NONDET_ROW",
    "PARSER_ROW",
    "Op",
    "PairV",
    "Pure",
    "RowError",
    "SplitV",
    "Str",
    "TRUE",
    "UNIT",
    "Unit",
    "Value",
    "bind",
    "call",
    "choice",
    "choices",
    "fail",
    "fmap",
    "pure",
    "symbol_maybe",
    "symbol_strict",
]


class RowError(ValueError):
    """An effect row was malformed, or an effect was not where it should be."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value:
    """Base class for the closed union of values computations may produce.

    Besides the classes below, the union holds regexes, their parse trees
    (``regex.Regex``, ``regex.ParseTree``), nonterminals (``cfg.Nonterminal``)
    and grammar derivations (``cfg.SemValue``), which calls take and return
    as they are.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Unit(Value):
    """The single uninformative value."""


@dataclass(frozen=True)
class Bool(Value):
    flag: bool


@dataclass(frozen=True)
class Ch(Value):
    """A single character."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"Ch holds exactly one character, got {self.char!r}")


@dataclass(frozen=True)
class Str(Value):
    """A (possibly empty) string of characters."""

    text: str


@dataclass(frozen=True)
class PairV(Value):
    first: Value
    second: Value


@dataclass(frozen=True)
class SplitV(Value):
    """A way of cutting a string into a prefix and the remaining suffix."""

    prefix: str
    suffix: str


UNIT = Unit()
TRUE = Bool(True)
FALSE = Bool(False)


# ---------------------------------------------------------------------------
# Effects and commands
# ---------------------------------------------------------------------------


class EffectId(Enum):
    """The four effect signatures computations may draw commands from."""

    NONDET = "nondet"
    PARSER_MAYBE = "parser_maybe"
    PARSER_STRICT = "parser_strict"
    REC = "rec"


class CommandKind(Enum):
    CHOICE = "choice"
    FAIL = "fail"
    SYMBOL = "symbol"
    CALL = "call"


#: Compared on every interpreter step; a global load is cheaper than an Enum's.
_KIND_CHOICE, _KIND_FAIL = CommandKind.CHOICE, CommandKind.FAIL
_KIND_SYMBOL, _KIND_CALL = CommandKind.SYMBOL, CommandKind.CALL
_NONDET, _PARSER_MAYBE = EffectId.NONDET, EffectId.PARSER_MAYBE
_PARSER_STRICT, _REC = EffectId.PARSER_STRICT, EffectId.REC


@dataclass(frozen=True)
class Command:
    """One issued command: which effect, which of its commands, and payload.

    Only ``CALL`` commands carry a meaningful payload (the recursive call's
    input); every other command's payload is ``UNIT``.
    """

    effect: EffectId
    kind: CommandKind
    payload: Value = UNIT

    def __post_init__(self) -> None:
        # Identity tests: a set or dict lookup would hash Enum members, a
        # Python call each, and handle_rec builds a command per call it relays.
        effect, kind = self.effect, self.kind
        if kind is _KIND_CALL:
            fits = effect is _REC
        elif kind is _KIND_SYMBOL:
            fits = effect is _PARSER_STRICT or effect is _PARSER_MAYBE
        else:
            fits = effect is _NONDET and (kind is _KIND_CHOICE or kind is _KIND_FAIL)
        if not fits:
            raise ValueError(f"effect {effect.value} has no {kind.value} command")
        if kind is not _KIND_CALL and self.payload != UNIT:
            raise ValueError(f"{kind.value} commands carry no payload")


@dataclass(frozen=True)
class EffectRow:
    """An ordered collection of distinct effects.

    Order matters where a handler peels an effect off: a recursive
    function's row has recursion at its head, and ``handle_rec``
    discharges the effect after it.
    """

    effects: tuple[EffectId, ...]

    def __post_init__(self) -> None:
        if len(set(self.effects)) != len(self.effects):
            raise RowError(f"duplicate effect in row {self.effects}")


NONDET_ROW = EffectRow((EffectId.NONDET,))
PARSER_ROW = EffectRow((EffectId.NONDET, EffectId.PARSER_STRICT))


# ---------------------------------------------------------------------------
# Computations
# ---------------------------------------------------------------------------


class Computation:
    """Base class for effect-tree computations; see ``Pure`` and ``Op``."""

    __slots__ = ()


@dataclass(frozen=True, init=False)
class Pure(Computation):
    """A finished computation holding its result."""

    __slots__ = ("value", "__weakref__")
    value: Value

    def __init__(self, value: Value) -> None:
        _set_value(self, value)

    def __reduce__(self) -> tuple:
        return (type(self), (self.value,))


@dataclass(frozen=True, eq=False, init=False)
class Op(Computation):
    """An issued command plus a resumption from responses to continuations.

    Two ``Op`` nodes never compare equal unless identical (resumptions are
    opaque closures); computations are compared observationally, by running
    them under an interpreter and comparing results.
    """

    __slots__ = ("row", "command", "resume", "__weakref__")
    row: EffectRow
    command: Command
    resume: Callable[[Value], Computation]

    def __init__(self, row: EffectRow, command: Command, resume: Callable[[Value], Computation]) -> None:
        if command.effect not in row.effects:
            raise RowError(f"effect {command.effect.value} not in row {row.effects}")
        _set_row(self, row)
        _set_command(self, command)
        _set_resume(self, resume)

    #: The check runs in ``__init__``; ``bench/tracing.py`` counts the nodes
    #: built as the calls of ``Op.__post_init__``, so it names the same code.
    __post_init__ = __init__

    def __reduce__(self) -> tuple:
        return (type(self), (self.row, self.command, self.resume))


#: The slot descriptors' setters, which the hot nodes' ``__init__`` store through.
_set_value = Pure.__dict__["value"].__set__
_set_row, _set_command, _set_resume = (Op.__dict__[f].__set__ for f in ("row", "command", "resume"))


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def pure(value: Value) -> Pure:
    """Wrap a value as a finished computation."""
    return Pure(value)


def bind(m: Computation, k: Callable[[Value], Computation]) -> Computation:
    """Sequence ``m`` with ``k``, grafting ``k`` onto every ``Pure`` leaf.

    Takes constant time: on an ``Op`` it appends ``k`` to the continuation
    queue its resumption carries instead of wrapping the resumption in a
    closure that binds again at every step (the continuation queue of van
    der Ploeg & Kiselyov, "Reflection without Remorse", Haskell 2014).  So
    however deeply ``bind`` and ``fmap`` nest, resuming runs their
    continuations in one loop rather than one Python frame per level.
    """
    if isinstance(m, Pure):
        return k(m.value)
    return _graft(m, k)


def fmap(g: Callable[[Value], Value], m: Computation) -> Computation:
    """Apply ``g`` to the eventual result of ``m``."""
    return bind(m, lambda value: Pure(g(value)))


#: A continuation queue: one continuation, or a pair of queues to run left
#: then right.  Appending and joining make a pair, so both take constant
#: time; running pops the leftmost continuation off the left spine.
_Queue = "Callable[[Value], Computation] | tuple[_Queue, _Queue]"


class _Queued:
    """A resumption followed by a queue of continuations to run on its result."""

    __slots__ = ("first", "queue")

    def __init__(self, first: Callable[[Value], Computation], queue: _Queue) -> None:
        self.first = first
        self.queue = queue

    def __call__(self, response: Value) -> Computation:
        m = self.first(response)
        queue = self.queue
        while isinstance(m, Pure):
            # Pop the leftmost continuation, keeping the rest right-nested,
            # so each pair of the queue is taken apart once.
            k, rest = queue, None
            while type(k) is tuple:
                k, right = k
                rest = right if rest is None else (right, rest)
            m = k(m.value)
            if rest is None:
                return m
            queue = rest
        return _graft(m, queue)


def _graft(m: Op, queue: _Queue) -> Computation:
    """``m`` with ``queue`` run on each of its results."""
    command = m.command
    if command.kind is _KIND_FAIL:
        return m
    resume = m.resume
    if type(resume) is _Queued:
        resume = _Queued(resume.first, (resume.queue, queue))
    elif resume is Pure and type(queue) is not tuple:
        resume = queue
    else:
        resume = _Queued(resume, queue)
    return Op(m.row, command, resume)


#: The payload-free commands, built (and checked) once each.
_FAIL = Command(EffectId.NONDET, CommandKind.FAIL)
_CHOICE = Command(EffectId.NONDET, CommandKind.CHOICE)
_READ_MAYBE = Command(EffectId.PARSER_MAYBE, CommandKind.SYMBOL)
_READ_STRICT = Command(EffectId.PARSER_STRICT, CommandKind.SYMBOL)


def _no_response(_: Value) -> Computation:
    """The resumption every failure shares; no interpreter calls it."""
    raise AssertionError("fail has no responses to resume with")


def fail(row: EffectRow = NONDET_ROW) -> Op:
    """The computation with no results; its resumption is never reached."""
    return Op(row, _FAIL, _no_response)


class _Branches:
    """A choice's resumption, which keeps its two branches as data.

    Called, it answers as any resumption does; the interpreters that know
    this class take ``left`` and ``right`` straight from it instead.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Computation, right: Computation) -> None:
        self.left = left
        self.right = right

    def __call__(self, response: Value) -> Computation:
        # Responses are TRUE or FALSE themselves but for equal Bools built elsewhere.
        if response is TRUE:
            return self.left
        if response is FALSE:
            return self.right
        return self.left if response == TRUE else self.right


def choice(left: Computation, right: Computation, row: EffectRow | None = None) -> Op:
    """Nondeterministically continue as ``left`` (on true) or ``right``.

    The row is taken from whichever branch already carries one; two pure
    branches default to the plain nondeterminism row unless ``row`` says
    otherwise.  The resumption keeps both branches as data, so the run
    interpreter and ``wp`` take them without calling it.  ``bind`` over a
    choice queues its continuation on the resumption, as over any op,
    rather than binding it into both branches at once.
    """
    if row is None:
        if isinstance(left, Op):
            row = left.row
        elif isinstance(right, Op):
            row = right.row
        else:
            row = NONDET_ROW
    return Op(row, _CHOICE, _Branches(left, right))


_T = TypeVar("_T")


def _right_nested(node: Callable[[_T, _T], _T], items: Sequence[_T]) -> _T:
    """``items`` joined from the right by ``node``: ``a|(b|c)``."""
    result = items[-1]
    for item in reversed(items[:-1]):
        result = node(item, result)
    return result


def choices(branches: Sequence[Computation] | Iterable[Computation], row: EffectRow = NONDET_ROW) -> Computation:
    """Alternatives as right-nested binary choices (:func:`_right_nested`).

    The empty sequence is ``fail``; order of results is preserved
    (first branch's results first).
    """
    branches = list(branches)
    return _right_nested(lambda left, right: choice(left, right, row), branches) if branches else fail(row)


def symbol_maybe(row: EffectRow) -> Op:
    """Read the next input character if any; responds with the char or unit."""
    return Op(row, _READ_MAYBE, Pure)


def symbol_strict(row: EffectRow) -> Op:
    """Read the next input character; end of input yields no continuation."""
    return Op(row, _READ_STRICT, Pure)


def call(row: EffectRow, payload: Value) -> Op:
    """Invoke the ambient recursive function on ``payload``."""
    return Op(row, Command(EffectId.REC, CommandKind.CALL, payload), Pure)
