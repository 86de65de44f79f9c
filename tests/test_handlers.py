"""List-of-successes parsing, state handling, and fuel-bounded recursion."""

from __future__ import annotations

import pytest

from effparse.core import (
    NONDET_ROW,
    PARSER_ROW,
    UNIT,
    Ch,
    Command,
    CommandKind,
    Computation,
    EffectId,
    EffectRow,
    Op,
    PairV,
    RowError,
    Str,
    Value,
    bind,
    call,
    choice,
    fail,
    pure,
    symbol_maybe,
    symbol_strict,
)
from effparse.handlers import (
    EXHAUSTED,
    Done,
    Exhausted,
    RecursiveFn,
    h_parser,
    handle_rec,
    run_parser,
    run_parser_prefix,
    run_with_fuel,
    terminates_fmap_law,
    terminates_in,
)
from effparse.regex import (
    EPSILON,
    Alt,
    CharT,
    ListT,
    MATCH_ROW,
    Singleton,
    Star,
    dmatch_handled,
    match_fn,
    match_input,
    match_spec_invariant,
    match_structural,
)
from effparse.semantics import SemanticsRow, pt_all, results_demonic

from helpers import regexes_up_to, strings_up_to

ALL = SemanticsRow((pt_all(),))
A = Singleton("a")


def lit(c: str) -> Computation:
    """Consume exactly ``c`` from the input, yielding it."""
    return bind(
        symbol_strict(PARSER_ROW),
        lambda r: pure(r) if r == Ch(c) else fail(PARSER_ROW),
    )


# ---------------------------------------------------------------------------
# run_parser
# ---------------------------------------------------------------------------


def test_run_parser_keeps_only_full_parses() -> None:
    m = choice(lit("a"), bind(lit("a"), lambda _: lit("b")))
    assert run_parser(m, "ab") == ((Ch("b"), ""),)
    assert run_parser(m, "a") == ((Ch("a"), ""),)
    assert run_parser(m, "b") == ()


def test_run_parser_prefix_reports_remainders() -> None:
    m = choice(lit("a"), bind(lit("a"), lambda _: lit("b")))
    assert run_parser_prefix(m, "ab") == ((Ch("a"), "b"), (Ch("b"), ""))


def test_run_parser_dead_ends() -> None:
    assert run_parser(fail(PARSER_ROW), "a") == ()
    assert run_parser(lit("a"), "") == ()
    assert run_parser(pure(UNIT), "") == ((UNIT, ""),)
    assert run_parser(pure(UNIT), "a") == ()


def test_run_parser_agrees_with_results_demonic() -> None:
    m = choice(choice(lit("a"), bind(lit("a"), lambda _: lit("b"))), pure(UNIT))
    for text in strings_up_to(3):
        expected = tuple(
            (v, s) for v, s in results_demonic(m, state0=text) if s == ""
        )
        assert run_parser(m, text) == expected


def test_run_parser_rejects_other_effects() -> None:
    with pytest.raises(RowError):
        run_parser(call(MATCH_ROW, Str("x")), "a")


def test_run_parser_answers_optional_reads_as_every_runner_does() -> None:
    # Read on or stop, true branch first; the end of the input answers UNIT.
    row = EffectRow((EffectId.NONDET, EffectId.PARSER_MAYBE))

    def reads(acc: str) -> Computation:
        more = bind(symbol_maybe(row), lambda c: pure(Str(acc)) if c == UNIT else reads(acc + c.char))
        return choice(more, pure(Str(acc)), row)

    prefixes = ((Str("ab"), ""), (Str("ab"), ""), (Str("a"), "b"), (Str(""), "ab"))
    assert run_parser_prefix(reads(""), "ab") == results_demonic(reads(""), state0="ab") == prefixes
    assert run_parser(reads(""), "ab") == prefixes[:2]
    assert run_parser(reads(""), "") == ((Str(""), ""), (Str(""), ""))


# ---------------------------------------------------------------------------
# h_parser and handle_rec
# ---------------------------------------------------------------------------


def test_h_parser_answers_optional_reads() -> None:
    read = Command(EffectId.PARSER_MAYBE, CommandKind.SYMBOL)
    assert h_parser(read, "ab") == (Ch("a"), "b")
    assert h_parser(read, "") == (UNIT, "")
    with pytest.raises(RowError):
        h_parser(Command(EffectId.PARSER_STRICT, CommandKind.SYMBOL), "ab")


def test_handle_rec_shrinks_the_row() -> None:
    handled = dmatch_handled()
    assert handled.row.effects == MATCH_ROW.effects


def test_handle_rec_threads_state_through_calls() -> None:
    # A recursive function that reads one character, recurses on the rest
    # input, and pairs the character with the call's answer.
    row = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE))

    def body(v: Value) -> Computation:
        def continue_with(response: Value) -> Computation:
            if response == UNIT:
                return pure(Str("end"))
            return bind(call(row, UNIT), lambda inner: pure(PairV(response, inner)))

        return bind(symbol_maybe(row), continue_with)

    handled = handle_rec(h_parser, RecursiveFn(row, body))
    assert handled.row.effects == (EffectId.REC,)
    first = handled.body(PairV(UNIT, Str("ab")))
    # The read was discharged against "ab", so the recursive call's input
    # must carry the advanced state "b".
    assert isinstance(first, Op)
    assert first.command.payload == PairV(UNIT, Str("b"))
    outcome = run_with_fuel(handled, PairV(UNIT, Str("ab")), 2)
    assert outcome == Done(((PairV(Ch("a"), PairV(Ch("b"), Str("end"))), None),))


def test_handle_rec_validates_inputs() -> None:
    with pytest.raises(RowError):
        handle_rec(h_parser, RecursiveFn(EffectRow((EffectId.REC,)), pure))
    with pytest.raises(RowError, match="head"):
        RecursiveFn(EffectRow((EffectId.PARSER_MAYBE, EffectId.REC)), pure)
    handled = dmatch_handled()
    with pytest.raises(TypeError):
        handled.body(Str("not-a-pair"))


# ---------------------------------------------------------------------------
# terminates_in
# ---------------------------------------------------------------------------


def test_terminates_without_calls_at_zero_fuel() -> None:
    assert terminates_in(ALL, match_fn(), match_structural(Alt(A, A), "a"), 0)


def test_terminates_in_counts_expansions() -> None:
    m = match_structural(Star(A), "a")
    assert not terminates_in(ALL, match_fn(), m, 0)
    assert terminates_in(ALL, match_fn(), m, 1)


def test_terminates_in_is_monotone_in_fuel() -> None:
    f = match_fn()
    for r in regexes_up_to(3):
        for s in strings_up_to(2):
            m = match_structural(r, s)
            reached = [terminates_in(ALL, f, m, fuel) for fuel in range(5)]
            for lower, higher in zip(reached, reached[1:]):
                assert not lower or higher


def test_terminates_in_finds_calls_by_effect() -> None:
    """A call is unfolded whichever position its row gives recursion."""
    f, reordered = match_fn(), EffectRow((EffectId.NONDET, EffectId.REC))
    for r in regexes_up_to(2):
        for s in strings_up_to(2):
            payload = match_input(r, s)
            for fuel in range(4):
                expected = terminates_in(ALL, f, call(MATCH_ROW, payload), fuel)
                assert terminates_in(ALL, f, call(reordered, payload), fuel) == expected


def test_terminates_fmap_law_holds_on_samples() -> None:
    f = match_fn()
    g = lambda v: PairV(v, UNIT)
    for r in regexes_up_to(3):
        for s in strings_up_to(2):
            for fuel in range(4):
                assert terminates_fmap_law(ALL, f, g, match_structural(r, s), fuel)


# ---------------------------------------------------------------------------
# run_with_fuel
# ---------------------------------------------------------------------------


def test_initial_invocation_is_free() -> None:
    outcome = run_with_fuel(match_fn(), match_input(A, "a"), 0)
    assert isinstance(outcome, Done)
    assert [v for v, _ in outcome.results] == [CharT("a")]


def test_each_recursive_call_costs_one_unit() -> None:
    assert run_with_fuel(match_fn(), match_input(Star(A), "a"), 0) == EXHAUSTED
    outcome = run_with_fuel(match_fn(), match_input(Star(A), "a"), 1)
    assert isinstance(outcome, Done)
    assert [v for v, _ in outcome.results] == [ListT((CharT("a"),))]


def test_branches_inherit_the_budget_at_the_branch_point() -> None:
    # Two sibling paths of two calls each: four calls in total, yet fuel 2
    # suffices because the budget is per path, not global.
    row = MATCH_ROW

    def body(v: Value) -> Computation:
        assert isinstance(v, Str)
        if v.text == "":
            return pure(UNIT)
        shorter = Str(v.text[1:])
        return choice(call(row, shorter), call(row, shorter), row)

    f = RecursiveFn(row, body)
    assert isinstance(run_with_fuel(f, Str("aa"), 2), Done)
    assert run_with_fuel(f, Str("aa"), 1) == EXHAUSTED


def test_exhaustion_is_global() -> None:
    # One diverging branch poisons the whole run even though the other
    # branch finishes immediately.
    row = MATCH_ROW

    def body(v: Value) -> Computation:
        return choice(pure(UNIT), call(row, v), row)

    f = RecursiveFn(row, body)
    for fuel in range(6):
        assert run_with_fuel(f, UNIT, fuel) == EXHAUSTED


def test_done_results_follow_branch_order() -> None:
    outcome = run_with_fuel(match_fn(), match_input(Alt(A, A), "a"), 0)
    assert isinstance(outcome, Done)
    trees = [v for v, _ in outcome.results]
    expected = [v for v, _ in results_demonic(match_structural(Alt(A, A), "a"), match_spec_invariant())]
    assert trees == expected


def test_run_with_fuel_threads_parser_state() -> None:
    row = EffectRow((EffectId.REC, EffectId.NONDET, EffectId.PARSER_STRICT))

    def body(v: Value) -> Computation:
        return bind(symbol_strict(row), lambda c: pure(c))

    outcome = run_with_fuel(RecursiveFn(row, body), UNIT, 0, state0="xy")
    assert outcome == Done(((Ch("x"), "y"),))
    with pytest.raises(ValueError):
        run_with_fuel(RecursiveFn(row, body), UNIT, 0)


def test_agreement_between_terminates_in_and_run_with_fuel() -> None:
    f = match_fn()
    for r in regexes_up_to(3):
        for s in strings_up_to(2):
            for fuel in range(5):
                predicted = terminates_in(ALL, f, match_structural(r, s), fuel)
                ran = isinstance(run_with_fuel(f, match_input(r, s), fuel), Done)
                assert predicted == ran


def test_fuel_outcomes_compare_by_content() -> None:
    assert Done(()) == Done(())
    assert EXHAUSTED == Exhausted()
    assert Done(()) != EXHAUSTED
