"""Acceptance suite: one test per advertised guarantee, at desk scale.

Desk scale throughout: alphabet {a, b} (grammars add {+, 1, x}), regexes up
to five constructors, strings up to length four (grammar inputs up to
five), grammars up to four nonterminals.  Every test here is expected to
finish in well under a minute.
"""

from __future__ import annotations

import random
from pathlib import Path

from effparse.cfg import (
    Nonterminal,
    chain_bound,
    check_variant,
    grammar_from_text,
    parse,
    spec_produce,
)
from effparse.cli import main
from effparse.core import Ch, Str, UNIT, bind, pure
from effparse.handlers import Done, EXHAUSTED, run_with_fuel
from effparse.regex import (
    EPSILON,
    ListT,
    Singleton,
    Star,
    all_splits,
    dmatch_handled,
    dmatch_run,
    enumerate_matches,
    integral_tree,
    is_match,
    derivative,
    match_fn,
    match_input,
    match_spec_invariant,
    match_structural,
)
from effparse.semantics import (
    SemanticsRow,
    pt_all,
    pt_any,
    refines_all,
    results_demonic,
    wp,
)

from helpers import (
    ACYCLIC_FAMILY,
    CONTINUATIONS,
    G_CYCLIC,
    G_TWO_LEVEL,
    random_nondet,
    regexes_up_to,
    strings_up_to,
)

ALL = SemanticsRow((pt_all(),))
ANY = SemanticsRow((pt_any(),))


def test_c01_monad_and_wp_laws_on_generated_computations() -> None:
    """Bind identities/associativity and the wp sequencing law, exactly."""
    rng = random.Random(1009)
    values = (UNIT, Ch("a"), Str(""), Str("xy"))
    posts = (lambda v: isinstance(v, Ch), lambda v: v == UNIT, lambda _: True)
    for i in range(240):
        m = random_nondet(rng, rng.randrange(1, 9))
        f = CONTINUATIONS[i % len(CONTINUATIONS)]
        g = CONTINUATIONS[(i + 2) % len(CONTINUATIONS)]
        v = values[i % len(values)]
        post = posts[i % len(posts)]
        assert results_demonic(bind(pure(v), f)) == results_demonic(f(v))
        assert results_demonic(bind(m, pure)) == results_demonic(m)
        assert results_demonic(bind(bind(m, f), g)) == results_demonic(
            bind(m, lambda value: bind(f(value), g))
        )
        for row in (ALL, ANY):
            assert wp(row, bind(m, f), post) == wp(
                row, m, lambda value: wp(row, f(value), post)
            )


def test_c02_structural_match_results_are_matches() -> None:
    """Every structural-match result witnesses the matching relation."""
    for r in regexes_up_to(5, stars=False):
        for s in strings_up_to(4):
            for value, _state in results_demonic(match_structural(r, s)):
                assert is_match(r, s, value)
    inv = match_spec_invariant()
    for r in regexes_up_to(5):
        for s in strings_up_to(4):
            for value, _state in results_demonic(match_structural(r, s), inv):
                assert is_match(r, s, value)


def test_c03_all_splits_counts_and_recombines() -> None:
    """A string of length n splits n+1 ways, each recombining to it."""
    rng = random.Random(3001)
    for _ in range(100):
        xs = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 12)))
        splits = [value for value, _ in results_demonic(all_splits(xs))]
        assert len(splits) == len(xs) + 1
        assert all(sv.prefix + sv.suffix == xs for sv in splits)


def test_c04_derivative_witnesses_integrate_back() -> None:
    """Witnesses of d r/d x on xs integrate to witnesses of r on x + xs."""
    for r in regexes_up_to(4):
        for x in "ab":
            d = derivative(r, x)
            for xs in strings_up_to(3):
                for t in enumerate_matches(d, xs):
                    assert is_match(r, x + xs, integral_tree(r, x, t))


def test_c05_derivative_matcher_terminates_on_input_length_fuel() -> None:
    """Fuel |s| always completes; one unit less already can fail."""
    for r in regexes_up_to(5):
        for s in strings_up_to(4):
            outcome = run_with_fuel(dmatch_handled(), match_input(r, s), len(s))
            assert isinstance(outcome, Done)
    tight = run_with_fuel(dmatch_handled(), match_input(Singleton("a"), "a"), 0)
    assert tight == EXHAUSTED


def test_c06_derivative_matcher_sound_and_complete() -> None:
    """Its results are true witnesses; it finds one whenever any exists."""
    for r in regexes_up_to(5):
        for s in strings_up_to(4):
            got = dmatch_run(r, s)
            assert set(got) <= set(enumerate_matches(r, s))
            if enumerate_matches(r, s):
                assert got


def test_c07_star_of_epsilon_diverges_on_nonempty_input() -> None:
    """The structural matcher's divergence witness, at every small fuel.

    On the empty string the iteration case is a finished computation (one
    empty-list witness, no recursion), so it completes at every budget;
    on any nonempty string the iteration unfolds into itself without
    consuming input, so no budget suffices.
    """
    f = match_fn()
    empty_input = match_input(Star(EPSILON), "")
    nonempty_input = match_input(Star(EPSILON), "a")
    for fuel in range(17):
        assert run_with_fuel(f, empty_input, fuel) == Done(
            ((ListT(()), None),)
        )
        assert run_with_fuel(f, nonempty_input, fuel) == EXHAUSTED


def test_c08_parser_equals_derivation_oracle_on_the_family() -> None:
    """The effectful parser and the direct enumeration agree as sets."""
    for text, start, alphabet in ACYCLIC_FAMILY:
        g = grammar_from_text(text)
        nt = Nonterminal(start)
        for s in strings_up_to(5, alphabet):
            assert set(parse(g, nt, s)) == set(spec_produce(g, nt, s))


def test_c09_left_recursion_analysis_and_fuel_bound() -> None:
    """Cycles are reported, bounds are right, and the budget suffices."""
    report = chain_bound(grammar_from_text(G_CYCLIC[0]))
    assert report.cycle is not None
    assert report.cycle == (Nonterminal("E"), Nonterminal("E"))
    assert chain_bound(grammar_from_text(G_TWO_LEVEL[0])).bound == 2
    for text, start, alphabet in ACYCLIC_FAMILY:
        g = grammar_from_text(text)
        nt = Nonterminal(start)
        samples = [(nt, s) for s in strings_up_to(4, alphabet)]
        assert check_variant(g, samples)
        for s in strings_up_to(4, alphabet):
            parse(g, nt, s)  # raises on exhaustion; reaching here is the pass


def test_c10_refinement_algebra_and_matcher_refinement() -> None:
    """refines_all is a preorder; the derivative matcher refines the
    structural one on every desk-scale instance."""
    rng = random.Random(733)
    pool = [random_nondet(rng, rng.randrange(1, 7)) for _ in range(10)]
    for m in pool:
        assert refines_all(m, m)
    for a in pool:
        for b in pool:
            for c in pool:
                if refines_all(a, b) and refines_all(b, c):
                    assert refines_all(a, c)
    inv = match_spec_invariant()
    for r in regexes_up_to(5):
        for s in strings_up_to(4):
            general = match_structural(r, s)
            specific = dmatch_handled().body(match_input(r, s))
            assert refines_all(general, specific, inv)


def test_c11_cli_golden_invocations(capsys, tmp_path: Path) -> None:
    """The documented command lines, byte for byte."""

    def run(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def grammar(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    assert run("match", "a*", "aa") == (0, "(list (char a) (char a))\n", "")
    code, out, _ = run("match", "\\0", "")
    assert (code, out) == (1, "")
    assert run("match", "(", "x")[0] == 2

    assert run("derive", "a", "a") == (0, "a\n\\e\nnullable: yes\n", "")
    assert run("derive", "\\e", "a") == (0, "\\e\n\\0\nnullable: no\n", "")
    code, out, _ = run("derive", "a*", "a")
    assert code == 0
    assert "\\e a*" in out.splitlines()

    right_rec = grammar("right.cfg", "E -> 'a' E | 'b'\n")
    cyclic = grammar("cyclic.cfg", "E -> E '+' E | '1'\n")
    undefined = grammar("undefined.cfg", "X -> Y\n")
    epsilon = grammar("epsilon.cfg", "E ->\n")

    assert run("cfg-check", right_rec) == (0, "bound: 1\n", "")
    code, out, _ = run("cfg-check", cyclic)
    assert code == 1
    assert "cyclic: E -> E" in out
    assert run("cfg-check", undefined)[0] == 2

    assert run("cfg-parse", right_rec, "E", "ab") == (0, "(node E 0 (node E 1))\n", "")
    code, out, _ = run("cfg-parse", right_rec, "E", "ba")
    assert (code, out) == (1, "")
    assert run("cfg-parse", epsilon, "E", "") == (0, "(node E 0)\n", "")
