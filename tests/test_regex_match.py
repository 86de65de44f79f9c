"""The two matchers and the derivative calculus behind the second one."""

from __future__ import annotations

import random

import pytest

from effparse import regex
from effparse.cli import main
from effparse.core import EffectId, Op, SplitV, Str
from effparse.handlers import EXHAUSTED, Done, TerminationInvariantError, run_with_fuel
from effparse.regex import (
    DMATCH_ROW,
    EMPTY,
    EPSILON,
    MATCH_ROW,
    Alt,
    Cat,
    CharT,
    LeftT,
    ListT,
    PairT,
    RightT,
    Singleton,
    Star,
    TreeShapeError,
    UNIT_TREE,
    all_splits,
    decode_match_input,
    derivative,
    derivative_step,
    derivatives,
    dmatch,
    dmatch_fn,
    dmatch_handled,
    dmatch_run,
    enumerate_matches,
    integral_tree,
    is_match,
    match_fn,
    match_input,
    match_spec_invariant,
    match_structural,
    nullable,
    parse_regex,
    regex_size,
)
from effparse.semantics import Invariant, refines_all, results_demonic

import reference
from helpers import regexes_up_to, strings_up_to

A, B = Singleton("a"), Singleton("b")
INV = match_spec_invariant()
BENCH_PATTERNS = ("(a|b)*", "(a|b)* a (a|b)(a|b)", "a*", "(a b)* (a|\\e)")


def match_trees(r, s):
    """The structural matcher's results, as parse trees."""
    return tuple(v for v, _ in results_demonic(match_structural(r, s), INV))


# ---------------------------------------------------------------------------
# all_splits
# ---------------------------------------------------------------------------


def test_all_splits_golden() -> None:
    assert results_demonic(all_splits("ab")) == (
        (SplitV("", "ab"), None),
        (SplitV("a", "b"), None),
        (SplitV("ab", ""), None),
    )
    assert results_demonic(all_splits("")) == ((SplitV("", ""), None),)


def test_all_splits_counts_and_recombines() -> None:
    rng = random.Random(37)
    for _ in range(40):
        xs = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 9)))
        splits = [v for v, _ in results_demonic(all_splits(xs))]
        assert len(splits) == len(xs) + 1
        assert all(sv.prefix + sv.suffix == xs for sv in splits)
        assert [len(sv.prefix) for sv in splits] == list(range(len(xs) + 1))


# ---------------------------------------------------------------------------
# The structural matcher
# ---------------------------------------------------------------------------


def test_match_structural_star_free_goldens() -> None:
    assert match_trees(A, "a") == (CharT("a"),)
    assert match_trees(A, "b") == ()
    assert match_trees(EMPTY, "") == ()
    assert match_trees(EPSILON, "") == (UNIT_TREE,)
    assert match_trees(Cat(A, B), "ab") == (PairT(CharT("a"), CharT("b")),)
    assert match_trees(Alt(A, A), "a") == (LeftT(CharT("a")), RightT(CharT("a")))


def test_match_structural_star_goldens() -> None:
    assert match_trees(Star(A), "") == (ListT(()),)
    assert match_trees(Star(A), "aa") == (ListT((CharT("a"), CharT("a"))),)
    # Star on the empty string is a finished computation, no recursion
    # involved, so zero fuel already completes it.
    outcome = run_with_fuel(match_fn(), match_input(Star(EPSILON), ""), 0)
    assert outcome == Done(((ListT(()), None),))


def test_match_input_round_trips() -> None:
    for r in regexes_up_to(4):
        assert decode_match_input(match_input(r, "ab")) == (r, "ab")
    with pytest.raises(TypeError):
        decode_match_input(Str("just-a-string"))


def test_matchers_refuse_a_call_answer_that_is_not_a_tree() -> None:
    """Trees and regexes cross calls as they are, so the matchers check what
    comes back from a call, and what a call hands them, for its type."""
    not_a_tree = Invariant(lambda _input, _output: True, lambda _input: (Str("x"),))
    with pytest.raises(TreeShapeError):
        results_demonic(match_structural(Star(A), "a"), not_a_tree)
    with pytest.raises(TreeShapeError):
        results_demonic(dmatch(Star(A)), not_a_tree, state0="a")
    not_a_list = Invariant(lambda _input, _output: True, lambda _input: (CharT("a"),))
    with pytest.raises(TreeShapeError, match="iteration step should return"):
        results_demonic(match_structural(Star(A), "a"), not_a_list)
    with pytest.raises(TypeError):
        dmatch_fn().body(Str("a"))


def test_match_equals_enumeration_star_free() -> None:
    for r in regexes_up_to(4, stars=False):
        for s in strings_up_to(3):
            got = results_demonic(match_structural(r, s))
            assert set(t for t, _ in got) == set(enumerate_matches(r, s))


def test_match_results_satisfy_the_relation() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            for t in match_trees(r, s):
                assert is_match(r, s, t)


def test_invariant_outputs_satisfy_its_relation() -> None:
    """Every output the invariant enumerates is related to its input; a
    value that is not a parse tree is related to none."""
    for r in regexes_up_to(3):
        for s in strings_up_to(2):
            call_input = match_input(r, s)
            for output in INV.outputs_for(call_input):
                assert INV.relation(call_input, output)
            assert not INV.relation(call_input, Str("x"))


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def test_derivative_goldens() -> None:
    assert derivative(A, "a") == EPSILON
    assert derivative(A, "b") == EMPTY
    assert derivative(EPSILON, "a") == EMPTY
    assert derivative(EMPTY, "a") == EMPTY
    assert derivative(Alt(A, B), "a") == Alt(EPSILON, EMPTY)
    assert derivative(Cat(A, B), "a") == Cat(EPSILON, B)
    assert derivative(Star(A), "a") == Cat(EPSILON, Star(A))
    # A nullable left side lets the derivative skip into the right side.
    assert derivative(Cat(Star(A), B), "a") == Alt(Cat(Cat(EPSILON, Star(A)), B), EMPTY)
    assert derivative(Cat(Star(A), B), "b") == Alt(Cat(Cat(EMPTY, Star(A)), B), EPSILON)


def test_nullable_goldens() -> None:
    assert nullable(EPSILON) == UNIT_TREE
    assert nullable(A) is None
    assert nullable(EMPTY) is None
    assert nullable(Star(A)) == ListT(())
    assert nullable(Cat(EPSILON, Star(A))) == PairT(UNIT_TREE, ListT(()))
    # Canonical witness: the left alternative wins when both are nullable.
    assert nullable(Alt(EPSILON, Star(A))) == LeftT(UNIT_TREE)
    assert nullable(Alt(A, EPSILON)) == RightT(UNIT_TREE)


def test_nullable_agrees_with_the_relation() -> None:
    for r in regexes_up_to(4):
        witness = nullable(r)
        if witness is None:
            assert reference.enumerate_matches(r, "", 1) == ()
        else:
            assert is_match(r, "", witness)


def test_integral_tree_goldens() -> None:
    assert integral_tree(A, "a", UNIT_TREE) == CharT("a")
    assert integral_tree(Star(A), "a", PairT(UNIT_TREE, ListT(()))) == ListT((CharT("a"),))
    assert integral_tree(Alt(A, B), "b", RightT(UNIT_TREE)) == RightT(CharT("b"))


def test_integral_tree_rejects_misshapen_witnesses() -> None:
    with pytest.raises(TreeShapeError):
        integral_tree(A, "b", UNIT_TREE)
    with pytest.raises(TreeShapeError):
        integral_tree(EPSILON, "a", UNIT_TREE)
    with pytest.raises(TreeShapeError):
        integral_tree(Star(A), "a", ListT(()))
    with pytest.raises(TreeShapeError):
        integral_tree(Alt(A, B), "a", UNIT_TREE)
    with pytest.raises(TreeShapeError):
        integral_tree(Star(A), "a", PairT(UNIT_TREE, CharT("a")))


def derivative_loop(r, s):
    """The derivatives of ``r`` along ``s``, one :func:`derivative` call each."""
    chain = []
    for c in s:
        r = derivative(r, c)
        chain.append(r)
    return chain


def assert_same_nodes(left, right) -> None:
    assert len(left) == len(right)
    assert all(x is y for x, y in zip(left, right))


def test_derivatives_is_the_derivative_loop_on_the_desk_scale_universe() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            assert_same_nodes(list(derivatives(r, s)), derivative_loop(r, s))


@pytest.mark.parametrize("pattern", BENCH_PATTERNS)
def test_derivatives_is_the_derivative_loop_on_the_bench_patterns(pattern: str) -> None:
    r = parse_regex(pattern)
    s = "".join(random.Random(pattern).choice("ab") for _ in range(256))
    assert_same_nodes(list(derivatives(r, s)), derivative_loop(r, s))


def test_derivatives_of_the_empty_string_are_none() -> None:
    assert list(derivatives(Star(A), "")) == []


def test_derivative_round_trip_law() -> None:
    # Witnesses of the derivative integrate to witnesses of the original.
    for r in regexes_up_to(3):
        for x in "ab":
            d = derivative(r, x)
            for xs in strings_up_to(2):
                for t in enumerate_matches(d, xs):
                    restored = integral_tree(r, x, t)
                    assert is_match(r, x + xs, restored)


# ---------------------------------------------------------------------------
# Simplified derivative steps
# ---------------------------------------------------------------------------


def test_derivative_step_goldens() -> None:
    assert derivative_step(A, "a")[0] == EPSILON
    assert derivative_step(A, "b")[0] == EMPTY
    # The iteration's \e head is the unit of the concatenation.
    d, rectify = derivative_step(Star(A), "a")
    assert d == Star(A)
    assert rectify(ListT(())) == ListT((CharT("a"),))
    # Repeated alternatives collapse, and the rectifier points at the first.
    d, rectify = derivative_step(Alt(A, A), "a")
    assert d == EPSILON
    assert rectify(UNIT_TREE) == LeftT(CharT("a"))
    # \0 is dropped from alternations and absorbs concatenations.
    d, rectify = derivative_step(Cat(Star(A), B), "b")
    assert d == EPSILON
    assert rectify(UNIT_TREE) == PairT(ListT(()), CharT("b"))
    # Nested alternations flatten into one right-nested chain.
    d, rectify = derivative_step(Alt(Alt(Cat(A, A), A), Cat(A, B)), "a")
    assert d == Alt(A, Alt(EPSILON, B))
    assert rectify(RightT(RightT(CharT("b")))) == RightT(PairT(CharT("a"), CharT("b")))


def test_derivative_step_rectifies_to_the_integral() -> None:
    for r in regexes_up_to(4):
        for x in "ab":
            d, rectify = derivative_step(r, x)
            unsimplified = derivative(r, x)
            for xs in strings_up_to(3):
                witnesses = reference.enumerate_matches(d, xs, 1)
                integrals = {integral_tree(r, x, u) for u in reference.enumerate_matches(unsimplified, xs, 1)}
                assert bool(witnesses) == bool(integrals)
                for t in witnesses:
                    assert is_match(r, x + xs, rectify(t))
                    assert rectify(t) in integrals


@pytest.mark.parametrize(
    "pattern, count",
    [*zip(BENCH_PATTERNS, (2, 9, 2, 3)), ("(a*)*", 3), ("(a|b)*(a|b)*(a|b)*", 3)],
)
def test_derivative_steps_reach_few_small_regexes(pattern: str, count: int) -> None:
    # Brzozowski's finite set of dissimilar derivatives, over an alphabet
    # with one character the pattern does not use; the pattern counts.
    start = parse_regex(pattern)
    reached, todo = {start}, [start]
    while todo:
        r = todo.pop()
        for x in "abc":
            d, _ = derivative_step(r, x)
            if d not in reached:
                reached.add(d)
                todo.append(d)
    assert len(reached) == count
    assert max(regex_size(d) for d in reached) <= 30


# ---------------------------------------------------------------------------
# The derivative matcher
# ---------------------------------------------------------------------------


def test_dmatch_reads_before_recursing() -> None:
    m = dmatch(A)
    assert isinstance(m, Op)
    assert m.row.effects == DMATCH_ROW.effects
    assert m.command.effect is EffectId.PARSER_MAYBE


def test_dmatch_run_goldens() -> None:
    assert dmatch_run(A, "a") == (CharT("a"),)
    assert dmatch_run(A, "b") == ()
    assert dmatch_run(EMPTY, "") == ()
    assert dmatch_run(Star(A), "aa") == (ListT((CharT("a"), CharT("a"))),)
    assert dmatch_run(Star(EPSILON), "") == (ListT(()),)
    # Deterministic: one canonical witness even for ambiguous patterns.
    assert dmatch_run(Alt(A, A), "a") == (LeftT(CharT("a")),)


def test_dmatch_is_deterministic() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            assert len(dmatch_run(r, s)) <= 1


def test_neither_engine_yields_a_witness_twice() -> None:
    # The command line prints witnesses as the engines give them, with no
    # deduplication: a structural witness fixes its own choice path.
    for r in regexes_up_to(4):
        for s in strings_up_to(4):
            assert len(dmatch_run(r, s)) <= 1
            for fuel in (0, 3, 8):
                outcome = run_with_fuel(match_fn(), match_input(r, s), fuel)
                if isinstance(outcome, Done):
                    trees = [value for value, _state in outcome.results]
                    assert len(set(trees)) == len(trees)


def test_dmatch_sound_and_complete_at_moderate_scale() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(3):
            got = dmatch_run(r, s)
            allowed = reference.enumerate_matches(r, s, 1)
            assert set(got) <= set(allowed)
            if allowed:
                assert got


def random_regex(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((EMPTY, EPSILON, A, B, A))
    roll = rng.randrange(3)
    if roll == 0:
        return Star(random_regex(rng, depth - 1))
    node = Alt if roll == 1 else Cat
    return node(random_regex(rng, depth - 1), random_regex(rng, depth - 1))


def test_dmatch_gives_the_unsimplified_witness() -> None:
    for r in regexes_up_to(4):
        for s in strings_up_to(4):
            assert dmatch_run(r, s) == reference.dmatch_unsimplified(r, s)
    rng = random.Random(23)
    for _ in range(300):
        r = random_regex(rng, 5)
        for _ in range(6):
            s = "".join(rng.choice("ab") for _ in range(rng.randrange(9)))
            assert dmatch_run(r, s) == reference.dmatch_unsimplified(r, s)
    for pattern in BENCH_PATTERNS:
        r = parse_regex(pattern)
        for n in (16, 32):
            s = "".join(rng.choice("ab") for _ in range(n))
            for text in (s, s[:-3] + "abb", s[: n // 2] + "c" + s[n // 2 :], ("ab" * n)[:n]):
                assert dmatch_run(r, text) == reference.dmatch_unsimplified(r, text)


def test_dmatch_run_agrees_with_the_handled_matcher() -> None:
    # dmatch_run runs dmatch_fn on the interpreter with the input as state;
    # dmatch_handled discharges the reads with handle_rec.  Same witnesses,
    # same order, and each regex's computation is built once.
    def handled(r, s):
        outcome = run_with_fuel(dmatch_handled(), match_input(r, s), len(s))
        assert isinstance(outcome, Done)
        return tuple(value for value, _state in outcome.results)

    for r in regexes_up_to(4):
        assert dmatch(r) is dmatch(r)
        for s in strings_up_to(4):
            assert dmatch_run(r, s) == handled(r, s)
    rng = random.Random(29)
    for _ in range(300):
        r = random_regex(rng, 5)
        assert dmatch(r) is dmatch(r)
        for _ in range(6):
            s = "".join(rng.choice("ab") for _ in range(rng.randrange(9)))
            assert dmatch_run(r, s) == handled(r, s)


def test_dmatch_fuel_below_length_can_run_dry() -> None:
    # One character of input needs one unit of fuel; the budget in
    # dmatch_run is tight in this direction.
    outcome = run_with_fuel(dmatch_handled(), match_input(A, "a"), 0)
    assert not isinstance(outcome, Done)
    # The guard dmatch_run would raise on a dry run is a loud runtime error.
    assert issubclass(TerminationInvariantError, RuntimeError)


def test_dmatch_run_raises_when_its_proven_budget_runs_dry(monkeypatch, capsys) -> None:
    monkeypatch.setattr(regex, "run_with_fuel", lambda *_args: EXHAUSTED)
    message = "derivative matching ran out of fuel on a 1-character input"
    with pytest.raises(TerminationInvariantError) as info:
        dmatch_run(A, "a")
    assert str(info.value) == message
    # The command line reports the broken invariant as exit 3.
    assert main(["match", "a", "a"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_dmatch_refines_match_on_samples() -> None:
    for r in regexes_up_to(3):
        for s in strings_up_to(2):
            general = match_structural(r, s)
            specific = dmatch_handled().body(match_input(r, s))
            assert refines_all(general, specific, INV)


# ---------------------------------------------------------------------------
# Regexes the concrete syntax cannot print
# ---------------------------------------------------------------------------

# The printer separates concatenated factors by a blank and the parser skips
# blanks, so these regexes have no concrete syntax; the matchers pass
# regexes between calls as values and must not care.
BLANK_CASES = (
    (Singleton(" "), " ", (CharT(" "),)),
    (Cat(A, Singleton("\t")), "a\t", (PairT(CharT("a"), CharT("\t")),)),
)


def test_dmatch_run_matches_blank_singletons() -> None:
    for r, s, trees in BLANK_CASES:
        assert dmatch_run(r, s) == trees


def test_structural_matcher_matches_blank_singletons() -> None:
    for r, s, trees in BLANK_CASES:
        outcome = run_with_fuel(match_fn(), match_input(r, s), len(s))
        assert outcome == Done(tuple((t, None) for t in trees))
