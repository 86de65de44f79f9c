"""Predicate transformers, weakest preconditions, results, refinement."""

from __future__ import annotations

import random

import pytest

from effparse.core import (
    NONDET_ROW,
    PARSER_ROW,
    UNIT,
    Ch,
    CommandKind,
    Computation,
    EffectId,
    EffectRow,
    FALSE,
    TRUE,
    Op,
    Pure,
    RowError,
    Str,
    Value,
    bind,
    call,
    choice,
    choices,
    fail,
    pure,
    symbol_maybe,
    symbol_strict,
)
from effparse import core, handlers, semantics
from effparse.cfg import Nonterminal, grammar_from_text, parse_full
from effparse.handlers import RecursiveFn, run_parser, run_with_fuel
from effparse.regex import dmatch_run, parse_regex
from effparse.semantics import (
    PARSER_SEMANTICS,
    Invariant,
    MissingInvariantError,
    PredicateTransformer,
    SemanticsRow,
    Spec,
    in_language,
    pt_all,
    pt_any,
    pt_parse_strict,
    pt_parser_maybe,
    pt_rec,
    refines_all,
    refines_any,
    result_set,
    results_demonic,
    wp,
    wp_spec,
    wp_stateful,
)

import reference
from helpers import CONTINUATIONS, random_nondet

ALL = SemanticsRow((pt_all(),))
ANY = SemanticsRow((pt_any(),))
REC_ROW = EffectRow((EffectId.REC,))
MAYBE_ROW = EffectRow((EffectId.NONDET, EffectId.PARSER_MAYBE))


def toy_invariant() -> Invariant:
    """Call inputs are names; outputs come from a fixed finite table."""
    table: dict[Value, tuple[Value, ...]] = {
        Str("f"): (Ch("a"), Ch("b")),
        Str("g"): (),
        Str("h"): (Ch("a"),),
        Str("k"): (Ch("b"), UNIT, Ch("a")),
    }
    return Invariant(
        relation=lambda call_input, output: output in table.get(call_input, ()),
        enumerator=lambda call_input: table.get(call_input, ()),
    )


# ---------------------------------------------------------------------------
# The transformers, pointwise
# ---------------------------------------------------------------------------


def test_pt_all_requires_every_branch() -> None:
    is_char = lambda v: isinstance(v, Ch)
    assert wp(ALL, choice(pure(Ch("a")), pure(Ch("b"))), is_char)
    assert not wp(ALL, choice(pure(Ch("a")), pure(UNIT)), is_char)
    assert wp(ALL, fail(), lambda _: False)


def test_pt_any_requires_some_branch() -> None:
    is_unit = lambda v: v == UNIT
    assert wp(ANY, choice(pure(Ch("a")), pure(UNIT)), is_unit)
    assert not wp(ANY, choice(pure(Ch("a")), pure(Ch("b"))), is_unit)
    assert not wp(ANY, fail(), lambda _: True)


def test_pt_rec_judges_all_invariant_outputs() -> None:
    row = SemanticsRow((pt_rec(toy_invariant()),))
    assert wp(row, call(REC_ROW, Str("f")), lambda v: isinstance(v, Ch))
    assert not wp(row, call(REC_ROW, Str("f")), lambda v: v == Ch("a"))
    # An empty relation at the input makes the call vacuously fine.
    assert wp(row, call(REC_ROW, Str("g")), lambda _: False)


def test_pt_parse_strict_consumes_or_dead_ends() -> None:
    row = SemanticsRow((pt_all(), pt_parse_strict()))
    m = symbol_strict(PARSER_ROW)
    saw = wp_stateful(row, m, lambda v, s: v == Ch("a") and s == "b", "ab")
    assert saw
    # End of input is a dead end, hence vacuously true.
    assert wp_stateful(row, m, lambda _v, _s: False, "")


def test_pt_parser_maybe_answers_unit_at_end() -> None:
    row = SemanticsRow((pt_all(), pt_parser_maybe()))
    m = symbol_maybe(MAYBE_ROW)
    assert wp_stateful(row, m, lambda v, s: v == UNIT and s == "", "")
    assert wp_stateful(row, m, lambda v, s: v == Ch("x") and s == "y", "xy")


def test_transformers_reject_foreign_commands() -> None:
    with pytest.raises(RowError):
        wp(ALL, symbol_strict(EffectRow((EffectId.PARSER_STRICT,))), lambda _: True)
    with pytest.raises(RowError):
        wp(SemanticsRow((pt_parse_strict(),)), fail(EffectRow((EffectId.NONDET,))), lambda _: True)
    # wp never hands a transformer another effect's command; asked directly,
    # each one refuses it.
    read, choose, invoke = symbol_strict(PARSER_ROW).command, fail().command, call(REC_ROW, Str("f")).command
    for pt, command in (
        (pt_all(), read),
        (pt_any(), invoke),
        (pt_rec(toy_invariant()), choose),
        (pt_parse_strict(), choose),
        (pt_parser_maybe(), invoke),
    ):
        with pytest.raises(RowError, match="cannot interpret"):
            pt.branches(command, "a")
        with pytest.raises(RowError, match="cannot interpret"):
            pt.transform(command, lambda _r, _s: True, "a")


def test_a_semantics_row_has_one_transformer_per_effect() -> None:
    with pytest.raises(RowError, match="two transformers"):
        SemanticsRow((pt_all(), pt_any()))
    with pytest.raises(RowError, match="two transformers"):
        SemanticsRow((pt_parse_strict(), pt_all(), pt_parse_strict()))


def test_wp_rejects_rows_that_are_too_short() -> None:
    with pytest.raises(RowError, match="no transformer for parser_strict"):
        wp_stateful(SemanticsRow((pt_all(),)), symbol_strict(PARSER_ROW), lambda _v, _s: True, "a")


def test_parser_transformers_need_a_state() -> None:
    with pytest.raises(ValueError):
        wp(PARSER_SEMANTICS, symbol_strict(PARSER_ROW), lambda _: True)


def test_parser_transformers_asked_for_branches_need_a_state() -> None:
    # wp answers reads itself, so only a transformer asked directly sees one
    # without a state.
    for pt, m in ((pt_parse_strict(), symbol_strict(PARSER_ROW)), (pt_parser_maybe(), symbol_maybe(MAYBE_ROW))):
        with pytest.raises(ValueError, match="symbol read without a parser state"):
            pt.branches(m.command, None)


# ---------------------------------------------------------------------------
# The sequencing law and the result characterization
# ---------------------------------------------------------------------------


def test_wp_bind_is_composed_wp() -> None:
    rng = random.Random(23)
    posts = (lambda v: isinstance(v, Ch), lambda v: v == UNIT, lambda _: True)
    for round_number in range(60):
        m = random_nondet(rng, rng.randrange(1, 8))
        f = CONTINUATIONS[round_number % len(CONTINUATIONS)]
        post = posts[round_number % len(posts)]
        for row in (ALL, ANY):
            direct = wp(row, bind(m, f), post)
            composed = wp(row, m, lambda v: wp(row, f(v), post))
            assert direct == composed


def test_wp_characterizes_result_quantifiers() -> None:
    rng = random.Random(29)
    posts = (lambda v: isinstance(v, Ch), lambda v: v == UNIT, lambda _: False)
    for round_number in range(60):
        m = random_nondet(rng, rng.randrange(1, 8))
        post = posts[round_number % len(posts)]
        values = [v for v, _ in results_demonic(m)]
        assert wp(ALL, m, post) == all(post(v) for v in values)
        assert wp(ANY, m, post) == any(post(v) for v in values)


# ---------------------------------------------------------------------------
# The explicit-stack wp against the recursive fold
# ---------------------------------------------------------------------------


def random_reader(rng: random.Random, size: int, row: EffectRow) -> Computation:
    """A random computation over choices, failures, reads and calls of ``row``."""
    if size <= 1:
        roll = rng.randrange(3)
        if roll == 0:
            return fail(row)
        return pure(Ch(rng.choice("ab")) if roll == 1 else UNIT)
    left_size = rng.randrange(1, size)
    left, right = random_reader(rng, left_size, row), random_reader(rng, size - left_size, row)
    steps = ["choice"]
    if EffectId.REC in row.effects:
        steps.append("call")
    if EffectId.PARSER_STRICT in row.effects or EffectId.PARSER_MAYBE in row.effects:
        steps.append("read")
    step = rng.choice(steps)
    if step == "choice":
        return choice(left, right, row)
    if step == "call":
        first = call(row, Str(rng.choice("fghk")))
    else:
        first = symbol_strict(row) if EffectId.PARSER_STRICT in row.effects else symbol_maybe(row)
    return bind(first, lambda v: left if v == Ch("a") else right)


def _recorded(post):
    """``post``, and the list of (value, state) it was asked about, in order."""
    asked: list = []

    def recording(value, state):
        asked.append((value, state))
        return post(value, state)

    return recording, asked


def _logged(m: Computation, resumed: list, path: tuple = ()) -> Computation:
    """``m`` with each ``Op`` rebuilt to log its resumptions into ``resumed``.

    Each entry is the path of responses from the root to the branch
    resumed, so it names that branch whichever fold asks for it.
    """
    if isinstance(m, Pure):
        return m

    def resume(response: Value) -> Computation:
        resumed.append(path + (response,))
        return _logged(m.resume(response), resumed, path + (response,))

    return Op(m.row, m.command, resume)


STATEFUL_POSTS = (
    lambda _v, state: state == "",
    lambda v, state: isinstance(v, Ch) or state.startswith("a"),
    lambda v, _state: v == UNIT,
)

#: Semantics rows, each with an effect row and a start state, that the
#: wp tests fold random readers under.
WP_CASES = (
    (ALL, NONDET_ROW, None),
    (ANY, NONDET_ROW, None),
    (PARSER_SEMANTICS, PARSER_ROW, "ab"),
    (SemanticsRow((pt_any(), pt_parse_strict())), PARSER_ROW, "ba"),
    (SemanticsRow((pt_all(), pt_parser_maybe())), MAYBE_ROW, "a"),
    (SemanticsRow((pt_rec(toy_invariant()), pt_any())), EffectRow((EffectId.REC, EffectId.NONDET)), None),
    (
        SemanticsRow((pt_rec(toy_invariant()), pt_all(), pt_parse_strict())),
        EffectRow((EffectId.REC, EffectId.NONDET, EffectId.PARSER_STRICT)),
        "ab",
    ),
)


def test_wp_agrees_with_the_recursive_fold() -> None:
    """Same verdict, the same postcondition queries and the same
    resumptions, each in the same order, so the short-circuit matches
    ``all``/``any`` exactly: no branch is built after one settled its op.
    Calls with none, one, two and three outputs cover ops with no branch,
    with one (followed without a frame), and with a second and a third
    branch still to try."""
    rng = random.Random(37)
    for sem, row, state0 in WP_CASES:
        posts = STATEFUL_POSTS if state0 is not None else STATEFUL_POSTS[2:]
        for _ in range(80):
            m = random_reader(rng, rng.randrange(1, 10), row)
            for post in posts:
                new_post, new_asked = _recorded(post)
                old_post, old_asked = _recorded(post)
                new_resumed: list = []
                old_resumed: list = []
                verdict = wp_stateful(sem, _logged(m, new_resumed), new_post, state0)
                assert verdict == reference.wp(sem, _logged(m, old_resumed), old_post, state0)
                assert new_asked == old_asked
                assert new_resumed == old_resumed


def test_wp_reads_a_semantics_row_in_any_order() -> None:
    """Each command is answered by its effect's transformer, so listing a
    row's transformers in reverse changes no verdict."""
    rng = random.Random(41)
    for sem, row, state0 in WP_CASES:
        reversed_sem = SemanticsRow(sem.transformers[::-1])
        posts = STATEFUL_POSTS if state0 is not None else STATEFUL_POSTS[2:]
        for _ in range(40):
            m = random_reader(rng, rng.randrange(1, 10), row)
            for post in posts:
                assert wp_stateful(reversed_sem, m, post, state0) == wp_stateful(sem, m, post, state0)


def _with_choices(rng: random.Random, m: Computation, row: EffectRow) -> Computation:
    """``m`` beside a few more branches: a ``choices`` of three, whose
    choices keep their branches as data, or a ``bind`` over a choice, whose
    resumption is a queue instead."""
    other = random_reader(rng, rng.randrange(1, 4), row)
    roll = rng.randrange(3)
    if roll == 0:
        return choices([other, m, symbol_strict(row) if EffectId.PARSER_STRICT in row.effects else pure(UNIT)], row)
    if roll == 1:
        return bind(choice(m, other, row), pure)
    return m


def test_wp_takes_a_choices_branches_as_the_fold_would() -> None:
    """Unlogged computations keep each choice's branches in its resumption,
    which ``wp`` takes without calling it: the verdict and the postcondition
    queries, in order, are still the recursive fold's, and the run
    interpreter still lists the true branch's leaves first."""
    rng, inv = random.Random(43), toy_invariant()
    kept = grafted = 0
    for sem, row, state0 in WP_CASES:
        posts = STATEFUL_POSTS if state0 is not None else STATEFUL_POSTS[2:]
        for _ in range(80):
            m = _with_choices(rng, random_reader(rng, rng.randrange(1, 10), row), row)
            if isinstance(m, Op) and m.command.kind is CommandKind.CHOICE:
                if type(m.resume) is core._Branches:
                    kept += 1
                else:
                    grafted += 1
            for post in posts:
                new_post, new_asked = _recorded(post)
                old_post, old_asked = _recorded(post)
                assert wp_stateful(sem, m, new_post, state0) == reference.wp(sem, m, old_post, state0)
                assert new_asked == old_asked
            # Logged resumptions are plain functions, which the interpreter
            # resumes with TRUE and then FALSE, as it did every choice before.
            assert results_demonic(m, inv, state0) == results_demonic(_logged(m, []), inv, state0)
    # The root op is always run, so both kinds of choice were.
    assert kept > 0 and grafted > 0


def test_wp_asks_a_transformer_it_does_not_know() -> None:
    """Only the library's own branch functions are answered inline; a
    transformer of the user's, even one for nondeterminism, is asked."""
    first_only = PredicateTransformer(
        EffectId.NONDET, True, lambda command, state: ((TRUE, state),) if command.kind is CommandKind.CHOICE else ()
    )
    m = choice(pure(Ch("a")), pure(Ch("b")))
    is_a = lambda v: v == Ch("a")
    assert wp(SemanticsRow((first_only,)), m, is_a)
    assert not wp(ALL, m, is_a)
    assert wp(SemanticsRow((first_only,)), bind(m, pure), is_a)
    # A library branch function under another quantifier or effect keeps
    # the transformer's quantifier, and its refusal of foreign commands.
    angelic = SemanticsRow((PredicateTransformer(EffectId.NONDET, False, pt_all().branches),))
    assert wp(angelic, m, is_a) and not wp(angelic, fail(), lambda _: True)
    strict_at_end = PredicateTransformer(EffectId.PARSER_MAYBE, False, pt_parse_strict().branches)
    assert not wp_stateful(SemanticsRow((pt_all(), strict_at_end)), symbol_maybe(MAYBE_ROW), lambda _v, _s: True, "")
    misread = PredicateTransformer(EffectId.PARSER_STRICT, True, pt_all().branches)
    with pytest.raises(RowError, match="cannot interpret symbol"):
        wp_stateful(SemanticsRow((pt_all(), misread)), symbol_strict(PARSER_ROW), lambda _v, _s: True, "a")
    rng = random.Random(47)
    for sem, row, state0 in (
        (SemanticsRow((first_only, pt_parse_strict())), PARSER_ROW, "ab"),
        (SemanticsRow((pt_any(), strict_at_end)), MAYBE_ROW, "a"),
    ):
        for _ in range(40):
            m = _with_choices(rng, random_reader(rng, rng.randrange(1, 10), row), row)
            for post in STATEFUL_POSTS:
                new_post, new_asked = _recorded(post)
                old_post, old_asked = _recorded(post)
                assert wp_stateful(sem, m, new_post, state0) == reference.wp(sem, m, old_post, state0)
                assert new_asked == old_asked


def test_a_resumption_that_returns_no_computation_is_a_type_error() -> None:
    m = choice(42, pure(UNIT))  # type: ignore[arg-type]
    with pytest.raises(TypeError, match="42"):
        wp(ALL, m, lambda _: True)
    with pytest.raises(TypeError, match="42"):
        results_demonic(m)


def test_wp_transform_is_the_quantified_branches() -> None:
    for pt, command, state, branches in (
        (pt_all(), choice(pure(UNIT), pure(UNIT)).command, "x", ((TRUE, "x"), (FALSE, "x"))),
        (pt_any(), fail().command, None, ()),
        (pt_parse_strict(), symbol_strict(PARSER_ROW).command, "", ()),
        (pt_parse_strict(), symbol_strict(PARSER_ROW).command, "ab", ((Ch("a"), "b"),)),
        (pt_parser_maybe(), symbol_maybe(MAYBE_ROW).command, "", ((UNIT, ""),)),
    ):
        assert tuple(pt.branches(command, state)) == branches
        for verdicts in ((True, True), (True, False), (False, False)):
            answers = dict(zip(branches, verdicts))
            quantifier = all if pt.demonic else any
            expected = quantifier(answers[b] for b in branches)
            assert pt.transform(command, lambda r, s: answers[(r, s)], state) == expected


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def test_results_demonic_orders_choices_true_first() -> None:
    m = choice(choice(pure(Ch("a")), fail()), pure(Ch("b")))
    assert results_demonic(m) == ((Ch("a"), None), (Ch("b"), None))


def test_results_demonic_expands_calls_by_invariant() -> None:
    m = bind(call(REC_ROW, Str("f")), lambda v: pure(v))
    assert results_demonic(m, toy_invariant()) == ((Ch("a"), None), (Ch("b"), None))
    assert results_demonic(call(REC_ROW, Str("g")), toy_invariant()) == ()


def test_results_demonic_threads_parser_state() -> None:
    m = bind(symbol_strict(PARSER_ROW), lambda c: pure(c))
    assert results_demonic(m, state0="ab") == ((Ch("a"), "b"),)
    assert results_demonic(m, state0="") == ()
    maybe = bind(symbol_maybe(MAYBE_ROW), lambda c: pure(c))
    assert results_demonic(maybe, state0="") == ((UNIT, ""),)


def test_results_demonic_requires_context_for_effects() -> None:
    with pytest.raises(MissingInvariantError):
        results_demonic(call(REC_ROW, Str("f")))
    with pytest.raises(ValueError):
        results_demonic(symbol_strict(PARSER_ROW))


def test_result_set_keeps_first_occurrences() -> None:
    m = choices([pure(Ch("a")), pure(Ch("b")), pure(Ch("a"))])
    assert result_set(results_demonic(m)) == ((Ch("a"), None), (Ch("b"), None))


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def test_refinement_examples() -> None:
    both = choice(pure(Ch("a")), pure(Ch("b")))
    just_a = pure(Ch("a"))
    # The specific side may drop results but not invent them.
    assert refines_all(both, just_a)
    assert not refines_all(just_a, both)
    assert refines_all(both, fail())
    assert not refines_all(fail(), just_a)
    # The angelic dual keeps every required result available.
    assert refines_any(just_a, both)
    assert not refines_any(both, just_a)


def test_refines_all_is_reflexive_and_transitive() -> None:
    rng = random.Random(31)
    pool = [random_nondet(rng, rng.randrange(1, 7)) for _ in range(12)]
    for m in pool:
        assert refines_all(m, m)
    for a in pool:
        for b in pool:
            for c in pool:
                if refines_all(a, b) and refines_all(b, c):
                    assert refines_all(a, c)


# ---------------------------------------------------------------------------
# Specifications and languages
# ---------------------------------------------------------------------------


def test_wp_spec_quantifies_over_admitted_candidates() -> None:
    chars = [Ch("a"), Ch("b"), UNIT]
    spec = Spec(pre=True, post=lambda v: isinstance(v, Ch))
    assert wp_spec(spec, lambda v: v != UNIT, chars)
    assert not wp_spec(spec, lambda v: v == Ch("a"), chars)
    assert not wp_spec(Spec(pre=False, post=lambda _: True), lambda _: True, chars)
    # Nothing admitted: vacuously true.
    assert wp_spec(Spec(pre=True, post=lambda _: False), lambda _: False, chars)


def test_in_language_examples() -> None:
    one_char = bind(symbol_strict(PARSER_ROW), lambda c: pure(c))
    assert in_language(one_char, "a")
    assert not in_language(one_char, "ab")
    # Reading past the end is a dead end, so the empty string is vacuous.
    assert in_language(one_char, "")


def test_in_language_accepts_vacuously_when_no_parse_survives() -> None:
    assert in_language(fail(PARSER_ROW), "anything")


def test_in_language_requires_the_parser_row() -> None:
    with pytest.raises(RowError):
        in_language(fail(NONDET_ROW), "a")


def test_reads_past_the_first_256_code_points_leave_the_char_table_as_it_is() -> None:
    """The interpreter answers reads of the first 256 code points from one
    table; reads of any other character must not add to it."""
    text = "".join(chr(0x100 + i) for i in range(10_000))
    rec_row = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE))

    def strict(last: Value) -> Computation:
        return choice(bind(symbol_strict(PARSER_ROW), strict), pure(last), PARSER_ROW)

    def maybe(row: EffectRow, last: Value) -> Computation:
        return bind(symbol_maybe(row), lambda c: pure(last) if c == UNIT else maybe(row, c))

    reads = RecursiveFn(rec_row, lambda _: maybe(rec_row, UNIT))
    optional_runs = (
        lambda s: results_demonic(maybe(MAYBE_ROW, UNIT), state0=s),
        lambda s: run_with_fuel(reads, UNIT, 0, s).results,
    )
    assert len(semantics._CHARS) == 256
    assert run_parser(strict(UNIT), text) == ((Ch(text[-1]), ""),)
    for run in optional_runs:
        assert run(text) == ((Ch(text[-1]), ""),)
    assert len(semantics._CHARS) == 256
    # Reads of the table's characters answer from it, strict and optional;
    # any other character gets a Ch of its own.
    assert run_parser(strict(UNIT), "\xff")[0][0] is semantics._CHARS["\xff"]
    for run in optional_runs:
        assert run("\xff")[0][0] is semantics._CHARS["\xff"]
        assert run("\u0100") == ((Ch("\u0100"), ""),)
    assert "\u0100" not in semantics._CHARS and len(semantics._CHARS) == 256


def test_the_interpreter_asks_its_rules_only_about_calls(monkeypatch) -> None:
    """The interpreter answers choices and both kinds of read itself; each
    runner's rule is asked about recursive calls and nothing else."""
    drive, seen = semantics._drive, []

    def checked_drive(m, state, fuel, rule):
        def checked_rule(command, state, fuel):
            assert command.kind is CommandKind.CALL, command
            seen.append(command)
            return rule(command, state, fuel)

        return drive(m, state, fuel, checked_rule)

    g, S = grammar_from_text("S -> 'a' S 'b' |\n"), Nonterminal("S")
    r, row = parse_regex("(a|b)*a"), EffectRow((EffectId.NONDET, EffectId.PARSER_MAYBE, EffectId.REC))
    # An optional read, then a call on the character read, or on unit at the end.
    called = bind(symbol_maybe(row), lambda c: call(row, Str("f" if c == UNIT else "g")))
    reads = choice(called, symbol_maybe(row), row)
    runs = (
        # The derivative matcher on its input as state: an optional read a character.
        lambda: dmatch_run(r, "abba"),
        # The anchored body ends with the end check, an optional read.
        lambda: parse_full(g, S, "aabb"),
        # Optional reads with calls answered by an invariant, at the end and not.
        lambda: [results_demonic(reads, toy_invariant(), state0=text) for text in ("", "x")],
    )
    expected = [run() for run in runs]
    monkeypatch.setattr(semantics, "_drive", checked_drive)
    monkeypatch.setattr(handlers, "_drive", checked_drive)
    for run, answer in zip(runs, expected):
        seen.clear()
        assert run() == answer
        assert seen
