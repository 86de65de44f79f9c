"""Predicate-transformer semantics for effect computations.

A :class:`PredicateTransformer` says what one effect's commands mean: it
turns a postcondition on responses into a proposition about issuing the
command.  A :class:`SemanticsRow` gives each effect of a row its one
transformer, and :func:`wp` folds a row over a computation, answering each
command by the transformer for its effect, to compute the weakest
precondition of a postcondition.  Propositions are plain booleans — every
check here is decidable at the scales this library targets.

Each transformer lists the branches of a command, every possible response
with the parser state after it, and says whether the postcondition must
hold on all of them (demonic) or on one (angelic); its ``transform(command,
post, state)`` follows from those, where ``post(response, state')`` judges a
response together with the parser state after it.  Transformers for
stateless effects simply pass ``state`` through unchanged, which lets plain
and stateful rows mix.

:func:`results_demonic` enumerates every reachable leaf of a computation in
a fixed order; for all-results rows ``wp`` is equivalent to quantifying over
that enumeration, which is what makes refinement executable
(:func:`refines_all`, :func:`refines_any`).  It runs on the one iterative
interpreter, ``_drive``, that the handlers and the grammar checks share.
``wp`` evaluates the and/or tree of branches in one loop of its own,
short-circuiting as ``all``/``any`` do.  It answers the choices, failures
and reads of the library's own transformers (:func:`pt_all`,
:func:`pt_any`, :func:`pt_parse_strict`, :func:`pt_parser_maybe`) as the
run interpreter does, taking a choice's branches as data, and asks any
other transformer for its branches.  A command with one way on (an
optional read, a strict read with input left, a call with one output) is
followed straight on, and each way left to try after the first keeps one
frame on an explicit stack, so neither recurses once per command on the
Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import (
    UNIT,
    Ch,
    Command,
    Computation,
    EffectId,
    Op,
    PARSER_ROW,
    Pure,
    RowError,
    TRUE,
    FALSE,
    Value,
    _KIND_CALL,
    _KIND_CHOICE,
    _KIND_FAIL,
    _KIND_SYMBOL,
    _PARSER_STRICT,
    _Branches,
)

__all__ = [
    "Invariant",
    "MissingInvariantError",
    "PredicateTransformer",
    "SemanticsRow",
    "Spec",
    "StatefulPost",
    "in_language",
    "pt_all",
    "pt_any",
    "pt_parse_strict",
    "pt_parser_maybe",
    "pt_rec",
    "refines_all",
    "refines_any",
    "result_set",
    "results_demonic",
    "wp",
    "wp_spec",
    "wp_stateful",
]


class MissingInvariantError(ValueError):
    """A computation issued a recursive call but no invariant was supplied."""


#: Postcondition over a response value and the parser state after it.
StatefulPost = Callable[[Value, "str | None"], bool]


#: The ways on from one command: each response with the parser state after it.
Branches = Sequence[tuple[Value, "str | None"]]


@dataclass(frozen=True)
class PredicateTransformer:
    """Meaning of one effect's commands as a weakest-precondition rule.

    ``branches(command, state)`` returns a sequence, which the fold
    slices, of the responses the command may get, each with the parser
    state after it; ``demonic`` says how they are quantified: the
    postcondition must hold on every branch (``True``) or on some branch
    (``False``).  :meth:`transform` is the rule this gives; it is monotone
    in ``post`` by construction.
    """

    effect: EffectId
    demonic: bool
    branches: Callable[[Command, "str | None"], Branches]

    def transform(self, command: Command, post: StatefulPost, state: str | None) -> bool:
        """Does ``post`` hold on every (or some) branch of ``command``?"""
        verdicts = (post(response, after) for response, after in self.branches(command, state))
        return all(verdicts) if self.demonic else any(verdicts)


@dataclass(frozen=True)
class SemanticsRow:
    """At most one transformer per effect, in any order; a command is
    answered by the transformer for its effect."""

    transformers: tuple[PredicateTransformer, ...]

    def __post_init__(self) -> None:
        effects = [pt.effect for pt in self.transformers]
        if len(set(effects)) != len(effects):
            raise RowError(f"two transformers for one effect in {[e.value for e in effects]}")


@dataclass(frozen=True)
class Spec:
    """A precondition plus a postcondition over result values."""

    pre: bool
    post: Callable[[Value], bool]


@dataclass(frozen=True)
class Invariant:
    """A relation between call inputs and outputs, with an enumerator.

    The enumerator must produce, for any input it is used on, a finite
    sequence containing exactly the outputs that satisfy ``relation``
    within its documented bound.
    """

    relation: Callable[[Value, Value], bool]
    enumerator: Callable[[Value], Sequence[Value]]

    def outputs_for(self, call_input: Value) -> tuple[Value, ...]:
        return tuple(self.enumerator(call_input))


# ---------------------------------------------------------------------------
# The transformers
# ---------------------------------------------------------------------------


def _nondet_branches(command: Command, state: str | None) -> Branches:
    """A choice's two answers, true first; a failure has none."""
    if command.kind is _KIND_CHOICE:
        return ((TRUE, state), (FALSE, state))
    if command.kind is _KIND_FAIL:
        return ()
    raise RowError(f"{EffectId.NONDET.value} cannot interpret {command.kind.value}")


def pt_all() -> PredicateTransformer:
    """Demonic nondeterminism: the postcondition must hold on every branch."""
    return PredicateTransformer(EffectId.NONDET, True, _nondet_branches)


def pt_any() -> PredicateTransformer:
    """Angelic nondeterminism: some branch must satisfy the postcondition."""
    return PredicateTransformer(EffectId.NONDET, False, _nondet_branches)


def pt_rec(inv: Invariant) -> PredicateTransformer:
    """Interpret recursive calls through an invariant.

    A call on input ``i`` satisfies ``post`` iff ``post`` holds of every
    output the invariant relates to ``i`` — a vacuous truth when the
    relation is empty at ``i``.
    """

    def branches(command: Command, state: str | None) -> Branches:
        if command.kind is not _KIND_CALL:
            raise RowError(f"pt_rec cannot interpret {command.kind.value}")
        return [(output, state) for output in inv.outputs_for(command.payload)]

    return PredicateTransformer(EffectId.REC, True, branches)


def _read(name: str, command: Command, state: str | None) -> str:
    if command.kind is not _KIND_SYMBOL:
        raise RowError(f"{name} cannot interpret {command.kind.value}")
    if state is None:
        raise ValueError("symbol read without a parser state")
    return state


#: Responses to reads of the first 256 code points; other reads build their own.
_CHARS = {chr(i): Ch(chr(i)) for i in range(256)}


def _next(state: str) -> tuple[Value, str]:
    """An optional read's answer at ``state``, with the state after it."""
    if state == "":
        return (UNIT, "")
    return (_CHARS.get(state[0]) or Ch(state[0]), state[1:])


def _strict_branches(command: Command, state: str | None) -> Branches:
    text = _read("pt_parse_strict", command, state)
    return (_next(text),) if text else ()


def _maybe_branches(command: Command, state: str | None) -> Branches:
    return (_next(_read("pt_parser_maybe", command, state)),)


def pt_parse_strict() -> PredicateTransformer:
    """Strict symbol reads: exhausted input is a dead end (vacuously fine)."""
    return PredicateTransformer(EffectId.PARSER_STRICT, True, _strict_branches)


def pt_parser_maybe() -> PredicateTransformer:
    """Optional symbol reads: exhausted input responds with unit.

    The optional-character convention throughout this library: ``UNIT``
    means "no character", ``Ch(c)`` means "the character c".
    """
    return PredicateTransformer(EffectId.PARSER_MAYBE, True, _maybe_branches)


# ---------------------------------------------------------------------------
# Weakest preconditions
# ---------------------------------------------------------------------------


def _wp(row: SemanticsRow, m: Computation, post: Callable, state: str | None, unary: bool = False) -> bool:
    """Evaluate the and/or tree of ``m``'s branches on an explicit stack.

    Each op is a node quantified as its transformer says; its children are
    reached one at a time, left to right, and the first one that settles
    the node (false under all, true under any) cuts the rest off, exactly
    as ``all``/``any`` over the recursive fold would.  The commands of the
    library's own transformers are answered here, as the run interpreter
    answers them: a choice takes its branches as data when its resumption
    keeps them (``resume(TRUE)`` now and ``resume(FALSE)`` when reached
    otherwise), a failure has its quantifier's unit, and a read answers
    from ``state``.  Any other transformer is asked for its ``branches``,
    whose children are its resumption at each.  An op with one way on has
    that way's verdict, so the loop goes straight on into it; an op with
    more gets a frame for each way after its first.  So depth is bounded
    by memory, not the Python stack.  ``post`` takes the leaf value alone
    when ``unary``, and the value with the state otherwise.
    """
    transformers = row.transformers
    # One frame per way left to try: ``(demonic, resume, way, state)``, its
    # op's quantifier, then ``resume`` to call on ``way`` with ``state`` or,
    # when ``resume`` is None, a choice's right branch as ``way``.
    stack: list[tuple] = []
    while True:
        if type(m) is Pure:
            verdict = bool(post(m.value) if unary else post(m.value, state))
        else:
            if type(m) is not Op:
                raise TypeError(f"expected a computation, got {m!r}")
            command = m.command
            effect = command.effect
            # A scan, not a dict: hashing an Enum member is a Python call.
            for pt in transformers:
                if pt.effect is effect:
                    break
            else:
                raise RowError(f"the semantics row has no transformer for {effect.value}")
            answer, kind = pt.branches, command.kind
            if answer is _nondet_branches and kind is _KIND_CHOICE:
                resume = m.resume
                if type(resume) is _Branches:
                    stack.append((pt.demonic, None, resume.right, state))
                    m = resume.left
                else:
                    stack.append((pt.demonic, resume, FALSE, state))
                    m = resume(TRUE)
                continue
            if (answer is _strict_branches or answer is _maybe_branches) and kind is _KIND_SYMBOL:
                # As _next does, without a call on the hottest path.
                if state:
                    m, state = m.resume(_CHARS.get(state[0]) or Ch(state[0])), state[1:]
                    continue
                if state is None:
                    raise ValueError("symbol read without a parser state")
                if answer is _maybe_branches:
                    m = m.resume(UNIT)
                    continue
                # A strict read at the end of the input has no way on.
                verdict = pt.demonic
            elif answer is _nondet_branches and kind is _KIND_FAIL:
                verdict = pt.demonic
            else:
                branches = answer(command, state)
                if branches:
                    resume = m.resume
                    for response, after in reversed(branches[1:]):
                        stack.append((pt.demonic, resume, response, after))
                    response, state = branches[0]
                    m = resume(response)
                    continue
                # No branch: the op holds exactly when it is demonic, as all(())
                # and any(()) do.
                verdict = pt.demonic
        # Hand the verdict up to the nearest op it does not settle, and go
        # on into that op's next way.  The frames of a settled op carry its
        # quantifier too, so they are passed over without being resumed.
        while stack:
            demonic, resume, way, at = stack.pop()
            if verdict == demonic:
                m, state = (way if resume is None else resume(way)), at
                break
        else:
            return verdict


def wp(row: SemanticsRow, m: Computation, post: Callable[[Value], bool]) -> bool:
    """Weakest precondition of ``post`` for ``m`` under ``row``.

    Pure leaves are judged with ``post``; each op defers to the
    transformer for its command's effect, applied to the weakest
    precondition of its resumption.
    Satisfies the sequencing law
    ``wp(row, bind(m, f), P) == wp(row, m, lambda x: wp(row, f(x), P))``.
    """
    return _wp(row, m, post, None, True)


def wp_stateful(
    row: SemanticsRow,
    m: Computation,
    post: StatefulPost,
    state0: str,
) -> bool:
    """Like :func:`wp` but threading a parser state, judged by ``post`` too."""
    return _wp(row, m, post, state0)


def wp_spec(spec: Spec, post: Callable[[Value], bool], candidates: Iterable[Value]) -> bool:
    """Weakest precondition of a specification, over a finite universe.

    True iff ``spec.pre`` holds and ``post`` holds of every candidate
    that ``spec.post`` admits.  The candidate set stands in for the
    unbounded quantification of the abstract definition.
    """
    return spec.pre and all(post(o) for o in candidates if spec.post(o))


# ---------------------------------------------------------------------------
# Result enumeration and refinement
# ---------------------------------------------------------------------------


#: One way on from a call the driver leaves to its caller: a computation
#: whose result answers the call, with the state and fuel to run it at.
_Branch = tuple[Computation, "str | None", int]
#: A caller's meaning for recursive calls, the only commands it sees: the
#: branches to explore, in order, each continuing through the resumption.
_CommandRule = Callable[[Command, "str | None", int], Sequence[_Branch]]

_PURE_FALSE = Pure(FALSE)


def _drive(m: Computation, state: str | None, fuel: int, rule: _CommandRule) -> list[tuple[Value, str | None]]:
    """Every leaf of ``m`` with its final state, depth-first, left to right.

    The one interpreter behind :func:`results_demonic` and the runners in
    :mod:`effparse.handlers` and :mod:`effparse.cfg`.  It reads choices as
    lists of successes (true branch first), taking a choice's branches as
    data when its resumption keeps them and resuming it with ``TRUE`` and
    then ``FALSE`` otherwise, and both kinds of symbol read from ``state``;
    at its end a strict read is a dead end and an optional one answers
    ``UNIT``.  Only calls go to ``rule``.  Nothing recurses on
    the Python stack: pending branches sit on an explicit work list, and
    each branch carries its continuations as a linked list ``(resume,
    rest)``, so entering a call pushes the call's resumption rather than
    binding the callee's body to it.  Depth is bounded by memory alone.
    Each step costs a constant: commands are compared with module constants,
    not Enum members, and each ``Op`` was checked when built (its command's
    effect is in its row), so none is checked here.
    """
    leaves: list[tuple[Value, str | None]] = []
    work: list[tuple[Computation, str | None, int, tuple | None]] = [(m, state, fuel, None)]
    while work:
        m, state, fuel, konts = work.pop()
        while True:
            if type(m) is Pure:
                if konts is None:
                    leaves.append((m.value, state))
                    break
                resume, konts = konts
                m = resume(m.value)
                continue
            if type(m) is not Op:
                raise TypeError(f"expected a computation, got {m!r}")
            command = m.command
            if command.kind is _KIND_CHOICE:
                resume = m.resume
                if type(resume) is _Branches:
                    work.append((resume.right, state, fuel, konts))
                    m = resume.left
                else:
                    work.append((_PURE_FALSE, state, fuel, (resume, konts)))
                    m = resume(TRUE)
            elif command.kind is _KIND_FAIL:
                break
            elif command.kind is _KIND_SYMBOL:
                if state is None:
                    raise ValueError("computation reads input; supply state0")
                # As _next does, without a call on the hottest path.
                if state:
                    m, state = m.resume(_CHARS.get(state[0]) or Ch(state[0])), state[1:]
                elif command.effect is _PARSER_STRICT:
                    break
                else:
                    m = m.resume(UNIT)
            else:
                konts = (m.resume, konts)
                branches = rule(command, state, fuel)
                if not branches:
                    break
                if len(branches) > 1:
                    for branch_m, branch_state, branch_fuel in reversed(branches[1:]):
                        work.append((branch_m, branch_state, branch_fuel, konts))
                m, state, fuel = branches[0]
    return leaves


def results_demonic(
    m: Computation,
    rec_inv: Invariant | None = None,
    state0: str | None = None,
) -> tuple[tuple[Value, str | None], ...]:
    """Every reachable result of ``m``, depth-first, left to right.

    Choices explore their true branch first; recursive calls are expanded
    by enumerating ``rec_inv`` outputs in order; symbol reads consume the
    threaded state, which starts at ``state0``.  Each element pairs a leaf
    value with the state at that leaf (``None`` when no state was given).

    For a row interpreted demonically, ``wp(row, m, P)`` holds exactly when
    ``P`` holds on every value enumerated here; for the angelic reading,
    when it holds on at least one.
    """

    def answer(command: Command, state: str | None, fuel: int) -> Sequence[_Branch]:
        if rec_inv is None:
            raise MissingInvariantError(
                "computation issues recursive calls; supply rec_inv to enumerate them"
            )
        return [(Pure(output), state, fuel) for output in rec_inv.outputs_for(command.payload)]

    return tuple(_drive(m, state0, 0, answer))


def result_set(results: Iterable[tuple[Value, str | None]]) -> tuple[tuple[Value, str | None], ...]:
    """Deduplicate results, keeping the first occurrence of each."""
    return tuple(dict.fromkeys(results))


def refines_all(general: Computation, specific: Computation, rec_inv: Invariant | None = None) -> bool:
    """Does ``specific`` refine ``general`` under the all-results reading?

    Decided by result sets: every result of ``specific`` must be a result
    of ``general``.  Reflexive and transitive by construction.
    """
    allowed = set(results_demonic(general, rec_inv))
    return all(item in allowed for item in results_demonic(specific, rec_inv))


def refines_any(general: Computation, specific: Computation, rec_inv: Invariant | None = None) -> bool:
    """The dual of :func:`refines_all`: every result of ``general`` survives
    in ``specific``, which is :func:`refines_all` with the two swapped."""
    return refines_all(specific, general, rec_inv)


#: Semantics for the two-effect parser row: all results, strict reads.
PARSER_SEMANTICS = SemanticsRow((pt_all(), pt_parse_strict()))


def in_language(m: Computation, text: str) -> bool:
    """Does ``m`` (over nondeterminism + strict reads) accept ``text``?

    Membership means: run from state ``text``, every surviving parse leaves
    nothing unread.  Dead ends (failed branches, reads past the end) are
    vacuously fine, so a computation with no surviving parses accepts.
    """
    if isinstance(m, Op) and m.row.effects != PARSER_ROW.effects:
        raise RowError(f"in_language expects row {PARSER_ROW.effects}, got {m.row.effects}")
    return wp_stateful(PARSER_SEMANTICS, m, lambda _value, state: state == "", text)
