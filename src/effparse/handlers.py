"""Handlers and fuel: running computations instead of reasoning about them.

Three ways of discharging effects live here:

* :func:`run_parser` — the list-of-successes fold for nondeterminism plus
  symbol reads.
* :func:`handle_rec` — folds a single-effect handler (such as
  :func:`h_parser`) over a recursive function's body, threading parser
  state into the recursive call inputs and leaving a shorter effect row.
* :func:`run_with_fuel` — expands recursive calls by substitution, paying
  one unit of fuel per expansion along each path; running dry on any path
  yields :class:`Exhausted` rather than a wrong answer.

:func:`terminates_in` is the matching predicate form: it asks whether a
computation's recursive calls all bottom out within a fuel bound, judging
the other effects through a semantics row for the tail of the effect row.

The runners share one iterative interpreter with
:func:`~effparse.semantics.results_demonic` and the grammar checks; it
answers choices and reads, and each runner says only what a recursive call
means (reject it, expand it on fuel).  It keeps pending branches and
continuations as data, not Python frames, so a run's depth is bounded by
memory, not by ``sys.getrecursionlimit()``.  :func:`handle_rec` and the
unfolding behind :func:`terminates_in` and :func:`~effparse.cfg.expanded_parser`
share one lazy walk; each says only what answering its command does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NoReturn

from .core import (
    Command,
    CommandKind,
    Computation,
    EffectId,
    EffectRow,
    Op,
    PairV,
    Pure,
    RowError,
    Str,
    Value,
    _KIND_CALL,
    _REC,
    fmap,
)
from .semantics import SemanticsRow, _drive, _next, wp

__all__ = [
    "Done",
    "EXHAUSTED",
    "Exhausted",
    "RecursiveFn",
    "TerminationInvariantError",
    "h_parser",
    "handle_rec",
    "run_parser",
    "run_parser_prefix",
    "run_with_fuel",
    "terminates_fmap_law",
    "terminates_in",
]


class TerminationInvariantError(RuntimeError):
    """A run that is proven to finish reported running out of fuel."""


@dataclass(frozen=True)
class RecursiveFn:
    """A recursively defined function: input value to body computation.

    The body's effect row must have the recursion effect in head position;
    ``call`` nodes in the body stand for recursive invocations of this very
    function.  The body must be total on the inputs it is ever called with.
    """

    row: EffectRow
    body: Callable[[Value], Computation]

    def __post_init__(self) -> None:
        if not self.row.effects or self.row.effects[0] is not EffectId.REC:
            raise RowError(f"recursive functions need Rec at the head of the row, got {self.row.effects}")


@dataclass(frozen=True)
class Done:
    """Every path was fully explored; ``results`` pairs values with final states."""

    results: tuple[tuple[Value, str | None], ...]


@dataclass(frozen=True)
class Exhausted:
    """Some path hit a recursive call with no fuel left; results unknown."""


EXHAUSTED = Exhausted()


# ---------------------------------------------------------------------------
# List-of-successes parsing
# ---------------------------------------------------------------------------


def _reject_command(command: Command, state: str | None, fuel: int) -> NoReturn:
    raise RowError(f"run_parser cannot handle a {command.effect.value} command")


def run_parser(m: Computation, text: str) -> tuple[tuple[Value, str], ...]:
    """All complete parses of ``text`` by ``m``, in branch order.

    ``m`` ranges over nondeterminism and both kinds of symbol read, answered
    as every runner answers them.  A parse survives only if it consumes the
    whole input, so every returned remainder is the empty string.
    """
    return tuple(leaf for leaf in _drive(m, text, 0, _reject_command) if leaf[1] == "")


def run_parser_prefix(m: Computation, text: str) -> tuple[tuple[Value, str], ...]:
    """Like :func:`run_parser` but keeps partial parses with their remainders.

    This is the composable sub-handler form: callers judge the leftovers.
    """
    return tuple(_drive(m, text, 0, _reject_command))


# ---------------------------------------------------------------------------
# State handling for optional reads
# ---------------------------------------------------------------------------


def h_parser(command: Command, state: str) -> tuple[Value, str]:
    """Answer one optional symbol read from ``state``.

    Empty input answers ``UNIT`` ("no character") and stays empty; otherwise
    the head character is consumed.
    """
    if command.effect is not EffectId.PARSER_MAYBE or command.kind is not CommandKind.SYMBOL:
        raise RowError(f"h_parser only answers optional symbol reads, got {command.kind.value}")
    return _next(state)


def _walker(row: EffectRow, answers: tuple[EffectId, ...], answer: Callable) -> Callable[..., Computation]:
    """The lazy walk that handles the effects in ``answers``.

    ``answer(op, konts, state)`` answers each command of those effects: it
    gives the triple to walk on with, and the walk resumes in its loop, or
    a computation to stop at.  Any other command is passed on over ``row``.
    ``konts`` is a linked list ``(resume, rest)`` of the callers'
    continuations, so deep call nesting never nests ``bind``.  This is the
    ``handle_relay`` loop of Kiselyov and Ishii (*Freer Monads, More
    Extensible Effects*, Haskell 2015).
    """

    def walk(m: Computation, konts: tuple | None, state: object) -> Computation:
        while True:
            if isinstance(m, Pure):
                if konts is None:
                    return m
                resume, konts = konts
                m = resume(m.value)
            elif m.command.effect in answers:
                step = answer(m, konts, state)
                if type(step) is not tuple:
                    return step
                m, konts, state = step
            else:
                resume = m.resume
                return Op(row, m.command, lambda response: walk(resume(response), konts, state))

    return walk


def handle_rec(
    handler: Callable[[Command, str], tuple[Value, str]],
    f: RecursiveFn,
) -> RecursiveFn:
    """Discharge a recursive function's second effect with ``handler``.

    The walk answers the row's first two effects, recursion and the
    handled one, by effect.  The result is a recursive function over the
    row with the handled effect gone.
    Its inputs are pairs ``PairV(original_input, Str(state))``: the handler
    threads the state through the body, and each recursive call's input is
    paired with the state at that moment, so recursion and state advance
    together.  Effects beyond the handled one keep their relative order.
    """
    if len(f.row.effects) < 2:
        raise RowError("handle_rec needs a second effect to discharge")
    new_row = EffectRow((EffectId.REC,) + f.row.effects[2:])

    def answer(m: Op, konts: None, state: str) -> tuple | Computation:
        if m.command.effect is not _REC:
            response, state = handler(m.command, state)
            return (m.resume(response), None, state)
        resume, paired = m.resume, PairV(m.command.payload, Str(state))
        return Op(new_row, Command(_REC, _KIND_CALL, paired), lambda output: walk(resume(output), None, state))

    walk = _walker(new_row, f.row.effects[:2], answer)

    def body(paired_input: Value) -> Computation:
        if not isinstance(paired_input, PairV) or not isinstance(paired_input.second, Str):
            raise TypeError("handled recursive functions take PairV(input, Str(state))")
        return walk(f.body(paired_input.first), None, paired_input.second.text)

    return RecursiveFn(new_row, body)


# ---------------------------------------------------------------------------
# Fuel
# ---------------------------------------------------------------------------


#: The leaf an unfolding leaves where a call found no fuel; see terminates_in.
_RAN_DRY = Value()


def _unfold(f: RecursiveFn, m: Computation, fuel: int, dry: Computation) -> Computation:
    """``m`` with ``f``'s recursive calls substituted up to ``fuel`` deep.

    The result runs over ``f``'s row without its head recursion effect;
    every call is answered, whichever row it was built over.  A call past
    the budget ends its path in ``dry``.  Unfolding is lazy, one command at a
    time, on the walk :func:`handle_rec` uses too.
    """

    def answer(m: Op, konts: tuple | None, fuel: int) -> tuple | Computation:
        if fuel == 0:
            return dry
        return (f.body(m.command.payload), (m.resume, konts), fuel - 1)

    return _walker(EffectRow(f.row.effects[1:]), (_REC,), answer)(m, None, fuel)


def terminates_in(tail_row: SemanticsRow, f: RecursiveFn, m: Computation, fuel: int) -> bool:
    """Do all recursive calls in ``m`` bottom out within ``fuel`` expansions?

    Finished computations terminate at any fuel.  A recursive call at fuel
    zero does not; at positive fuel it is unfolded by substituting ``f``'s
    body (spending one unit) and asking again.  Every other effect defers
    to its transformer in ``tail_row`` — the row for the effects after the
    recursion — with the continuation judged at the *same* fuel, so under
    an all-results transformer every branch must terminate.  The question
    is the plain :func:`~effparse.semantics.wp` of "no path ran dry" over
    the unfolding.
    """
    return wp(tail_row, _unfold(f, m, fuel, Pure(_RAN_DRY)), lambda value: value is not _RAN_DRY)


def terminates_fmap_law(
    tail_row: SemanticsRow,
    f: RecursiveFn,
    g: Callable[[Value], Value],
    m: Computation,
    fuel: int,
) -> bool:
    """Termination is stable under mapping a function over the result."""
    if not terminates_in(tail_row, f, m, fuel):
        return True
    return terminates_in(tail_row, f, fmap(g, m), fuel)


class _OutOfFuel(Exception):
    pass


def run_with_fuel(
    f: RecursiveFn,
    call_input: Value,
    fuel: int,
    state0: str | None = None,
) -> Done | Exhausted:
    """Run ``f`` on ``call_input``, expanding recursion on a fuel budget.

    The initial invocation is free; each recursive call along a path costs
    one unit, and nondeterministic branches each inherit the budget at the
    branch point.  If any path reaches a recursive call with nothing left,
    the whole run is :data:`EXHAUSTED` — :class:`Done` certifies that every
    path was explored to the end, with results in the same order
    ``results_demonic`` would give.
    """

    def expand(command: Command, state: str | None, remaining: int) -> tuple:
        if remaining == 0:
            raise _OutOfFuel
        return ((f.body(command.payload), state, remaining - 1),)

    try:
        return Done(tuple(_drive(f.body(call_input), state0, fuel, expand)))
    except _OutOfFuel:
        return EXHAUSTED
