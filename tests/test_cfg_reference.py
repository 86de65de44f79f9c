"""The grammar parser against its reference, and the per-grammar index.

The parser builds each nonterminal's body once per grammar and walks a
right-hand side in one pass that delivers the derivation node itself.  The
reference in ``reference.py`` rebuilds every body on every call and goes
through a list value and a last ``bind``.  The two must give the same
results in the same order through every runner: ``parse``,
``run_with_fuel`` at any fuel, and the unfolding behind
``expanded_parser``.

The full-parse entry ``parse_full`` runs the end-anchored bodies instead.
It must give the results of ``parse`` that leave no remainder, in the same
order, run dry at exactly the budgets the plain parser runs dry at, and
expand exactly as many calls; the anchored oracle must likewise equal the
prefix oracle filtered to empty remainders.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref

import pytest

from effparse.cfg import (
    Grammar,
    Nonterminal,
    Production,
    Term,
    chain_bound,
    expanded_parser,
    from_prods,
    from_prods_fn,
    grammar_from_text,
    parse,
    parse_fuel,
    parse_full,
    spec_produce,
)
from effparse import cfg
from effparse.core import PARSER_ROW, UNIT, Ch, PairV, Str, Value, fail
from effparse.handlers import Done, Exhausted, TerminationInvariantError, _unfold, run_parser_prefix, run_with_fuel
from effparse.semantics import PARSER_SEMANTICS, in_language

import reference
from helpers import ACYCLIC_FAMILY, strings_up_to

#: The grammars the benchmark's cfg-parse workload runs, with a start
#: symbol and the alphabet of their terminals.
BENCH_GRAMMARS = {
    "right_rec": ("S -> 'a' S | 'a'\n", "S", "ab"),
    "dyck": ("S -> '(' S ')' S |\n", "S", "()"),
    "expression": ("E -> T R\nR -> '+' T R |\nT -> F\nF -> 'x' | '(' E ')'\n", "E", "x+()"),
    "palindrome": ("P -> 'a' P 'a' | 'b' P 'b' | 'a' | 'b' |\n", "P", "ab"),
}

#: Grammars whose bodies the left-factoring splits in several places: runs
#: of productions led by terminals, broken by a nonterminal-led production
#: that can read the same first character, terminals that lead more than
#: one production of a run, a run's production with nothing after its
#: terminal, and empty productions.
ORDER_SENSITIVE = (
    ("S -> 'a' S | A | 'a' 'b' | 'b' S |\nA -> 'a' |\n", "S", "ab"),
    ("S -> 'a' 'a' S | 'b' | 'a' S 'b' | T 'a' | 'a' | 'b' S | 'a'\nT -> 'b' 'a' | 'a' T |\n", "S", "ab"),
    ("S -> A 'b' | 'b' A | 'a' | 'b' | 'a' S A\nA -> 'a' A 'a' | 'b' | 'a' |\n", "S", "ab"),
)


def random_acyclic_grammar(rng: random.Random) -> tuple[Grammar, Nonterminal]:
    """Up to three nonterminals, each with one to three productions.

    A nonterminal in a right-hand side's leading run only names a later
    nonterminal, so the left-recursion links cannot form a cycle; after a
    terminal, any nonterminal may appear.
    """
    names = [Nonterminal(f"N{i}") for i in range(rng.randint(1, 3))]
    productions: list[Production] = []
    for i, lhs in enumerate(names):
        for _ in range(rng.randint(1, 3)):
            rhs: list = []
            leading = True
            for _ in range(rng.randint(0, 3)):
                later = names[i + 1 :] if leading else names
                if later and rng.random() < 0.4:
                    rhs.append(rng.choice(later))
                else:
                    rhs.append(Term(rng.choice("ab")))
                    leading = False
            productions.append(Production(lhs, tuple(rhs), len(productions)))
    return Grammar(tuple(productions)), names[0]


def _cases() -> list[tuple[str, Grammar, Nonterminal, list[str]]]:
    cases = []
    for name, (text, start, alphabet) in BENCH_GRAMMARS.items():
        texts = strings_up_to(4 if len(alphabet) > 2 else 6, alphabet)
        cases.append((name, grammar_from_text(text), Nonterminal(start), texts))
    for text, start, alphabet in ACYCLIC_FAMILY:
        cases.append((text, grammar_from_text(text), Nonterminal(start), strings_up_to(4, alphabet)))
    for text, start, alphabet in ORDER_SENSITIVE:
        cases.append((text, grammar_from_text(text), Nonterminal(start), strings_up_to(5, alphabet)))
    rng = random.Random(20)
    for n in range(40):
        g, start = random_acyclic_grammar(rng)
        cases.append((f"random{n}", g, start, strings_up_to(4, "ab")))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_parser_agrees_with_the_reference_in_order(name: str, g: Grammar, start: Nonterminal, texts: list[str]) -> None:
    bound = chain_bound(g).bound
    assert bound is not None
    new_fn, old_fn = from_prods_fn(g), reference.from_prods_fn(g)
    for text in texts:
        fuel = parse_fuel(len(text), bound)
        old = run_with_fuel(old_fn, start, fuel, state0=text)
        if isinstance(old, Done):
            assert parse(g, start, text) == tuple((value, rest) for value, rest in old.results)
        else:
            # The budget falls short where a right-hand side calls nullable
            # nonterminals one after another at one input position; both
            # parsers run dry there alike.
            with pytest.raises(TerminationInvariantError):
                parse(g, start, text)
        # Short budgets too, where some paths run dry.
        for short in range(min(fuel, 3)):
            assert run_with_fuel(new_fn, start, short, state0=text) == run_with_fuel(
                old_fn, start, short, state0=text
            )
        expanded = expanded_parser(g, start, fuel)
        old_expanded = _unfold(old_fn, reference.from_prods(g, start), fuel, fail(PARSER_ROW))
        assert run_parser_prefix(expanded, text) == run_parser_prefix(old_expanded, text)
        accepted = reference.wp(PARSER_SEMANTICS, old_expanded, lambda _value, state: state == "", text)
        assert in_language(expanded, text) == accepted


@pytest.mark.parametrize("name", list(BENCH_GRAMMARS))
def test_each_expansion_asks_for_its_body_once(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    text, start, alphabet = BENCH_GRAMMARS[name]
    g = grammar_from_text(text)
    asked = {"new": 0, "old": 0}

    def counted(key, function):
        def wrapper(*args):
            asked[key] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(cfg, "from_prods", counted("new", cfg.from_prods))
    monkeypatch.setattr(reference, "from_prods", counted("old", reference.from_prods))
    sample = (alphabet * 3)[:5]
    fuel = parse_fuel(len(sample), chain_bound(g).bound)
    new = run_with_fuel(from_prods_fn(g), Nonterminal(start), fuel, state0=sample)
    old = run_with_fuel(reference.from_prods_fn(g), Nonterminal(start), fuel, state0=sample)
    assert new == old
    assert asked["new"] == asked["old"] > 1


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_parse_full_is_parse_filtered_to_full_parses(name: str, g: Grammar, start: Nonterminal, texts: list[str]) -> None:
    for text in texts:
        try:
            prefixes = parse(g, start, text)
        except TerminationInvariantError:
            # Short of the proven budget (see above): both run dry alike.
            with pytest.raises(TerminationInvariantError):
                parse_full(g, start, text)
            continue
        assert parse_full(g, start, text) == tuple(node for node, rest in prefixes if rest == "")


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_parse_full_runs_dry_on_the_budgets_parse_does(name: str, g: Grammar, start: Nonterminal, texts: list[str]) -> None:
    bound = chain_bound(g).bound
    assert bound is not None
    plain_fn = from_prods_fn(g)
    for text in texts:
        for fuel in range(parse_fuel(len(text), bound) + 1):
            plain = run_with_fuel(plain_fn, start, fuel, state0=text)
            full = parse_full(g, start, text, fuel)
            if isinstance(plain, Done):
                assert full == tuple(value for value, rest in plain.results if rest == "")
            else:
                assert isinstance(full, Exhausted)


def _follows(g: Grammar) -> list[str]:
    """Each terminal right after a nonterminal somewhere in ``g``, then one
    terminal that never is (or a character ``g`` never reads)."""
    follows = sorted(
        {b.char for p in g.productions for a, b in zip(p.rhs, p.rhs[1:]) if isinstance(a, Nonterminal) and isinstance(b, Term)}
    )
    terminals = {s.char for p in g.productions for s in p.rhs if isinstance(s, Term)}
    return follows + [min(terminals - set(follows), default="#")]


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_follow_calls_are_plain_calls_filtered_by_their_terminal(
    name: str, g: Grammar, start: Nonterminal, texts: list[str]
) -> None:
    """A call followed by ``t`` gives the plain call's results that ``t``
    follows, with ``t`` consumed, in order, and runs dry on the same budgets."""
    bound = chain_bound(g).bound
    assert bound is not None
    fn = from_prods_fn(g)
    for a in sorted({p.lhs for p in g.productions}, key=lambda nt: nt.name):
        for t in _follows(g):
            for text in texts:
                for fuel in range(parse_fuel(len(text), bound) + 1):
                    plain = run_with_fuel(fn, a, fuel, state0=text)
                    followed = run_with_fuel(fn, PairV(a, Str(t)), fuel, state0=text)
                    if isinstance(plain, Done):
                        assert followed == Done(tuple((v, rest[1:]) for v, rest in plain.results if rest[:1] == t))
                    else:
                        assert isinstance(followed, Exhausted)


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_parse_full_asks_for_as_many_bodies_as_the_plain_parser(
    name: str, g: Grammar, start: Nonterminal, texts: list[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    asked = [0]
    original = cfg.from_prods

    def counted(*args):
        asked[0] += 1
        return original(*args)

    monkeypatch.setattr(cfg, "from_prods", counted)
    bound = chain_bound(g).bound
    for text in texts:
        fuel = parse_fuel(len(text), bound)
        for budget in (fuel // 2, fuel):
            asked[0] = 0
            plain = run_with_fuel(from_prods_fn(g), start, budget, state0=text)
            plain_asks = asked[0]
            asked[0] = 0
            full = parse_full(g, start, text, budget)
            assert asked[0] == plain_asks > 0
            assert isinstance(full, Exhausted) == isinstance(plain, Exhausted)


@pytest.mark.parametrize("name, g, start, texts", CASES, ids=[case[0] for case in CASES])
def test_anchored_oracle_is_the_prefix_oracle_filtered(name: str, g: Grammar, start: Nonterminal, texts: list[str]) -> None:
    for text in texts:
        expected = tuple(result for result in spec_produce(g, start, text) if result[1] == "")
        assert spec_produce(g, start, text, anchored=True) == expected


def test_a_body_is_built_once_per_grammar_and_dies_with_it() -> None:
    text = BENCH_GRAMMARS["expression"][0]
    g = grammar_from_text(text)
    E = Nonterminal("E")
    body = from_prods(g, E)
    assert from_prods(g, E) is body
    assert from_prods_fn(g).body(E) is body
    parse(g, E, "(x+x)+x")
    assert from_prods(g, E) is body
    # An equal grammar is another object and builds its own bodies.
    twin = grammar_from_text(text)
    assert twin == g and hash(twin) == hash(g)
    assert from_prods(twin, E) is not body
    # Copies and pickles carry the productions, not the index.
    for other in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert other == g and "_index" not in other.__dict__
        assert parse(other, E, "x+x") == parse(g, E, "x+x")
    gone = weakref.ref(body)
    del g, body
    gc.collect()
    assert gone() is None


def test_call_inputs_find_their_bodies_by_identity_or_by_equality() -> None:
    """The grammar's own call inputs and equal ones built elsewhere reach
    the same bodies; other inputs, nonterminal names among them, are
    refused with ``TypeError``."""
    g = grammar_from_text(BENCH_GRAMMARS["expression"][0])
    E = Nonterminal("E")
    body = from_prods_fn(g).body
    # F -> '(' E ')' calls E with the follow ')': the run built that body.
    parse(g, E, "(x)")
    assert ("E", ")") in g._index.bodies
    # Plain, anchored, and followed by ')'.
    fresh_E = Nonterminal("E")
    assert isinstance(fresh_E, Value)
    for follow, fresh in ((None, fresh_E), ("", PairV(fresh_E, Str(""))), (")", PairV(fresh_E, Str(")")))):
        own = cfg._call_input(E, follow)
        assert own == fresh and own is not fresh
        assert body(own) is body(fresh) is from_prods(g, E, follow)
    # A follow no right-hand side has is still one character.
    assert body(PairV(fresh_E, Str("x"))) is from_prods(g, E, "x")
    for other in (
        Ch("E"),
        UNIT,
        Str("E"),
        Str(""),
        PairV(Str(""), Str("")),
        PairV(Str("E"), Str("")),
        PairV(fresh_E, Str("))")),
        PairV(fresh_E, Ch(")")),
        PairV(Ch("E"), Str("")),
    ):
        with pytest.raises(TypeError):
            body(other)


def test_chain_bound_agrees_with_the_recursive_search() -> None:
    rng = random.Random(21)
    cyclic = set()
    for _ in range(300):
        names = [Nonterminal(f"N{i}") for i in range(rng.randint(1, 6))]
        productions = []
        for lhs in names:
            for _ in range(rng.randint(1, 3)):
                rhs = tuple(
                    rng.choice(names) if rng.random() < 0.5 else Term("a")
                    for _ in range(rng.randint(0, 3))
                )
                productions.append(Production(lhs, rhs, len(productions)))
        g = Grammar(tuple(productions))
        report = chain_bound(g)
        assert report == reference.chain_bound(g)
        cyclic.add(report.cycle is not None)
    assert cyclic == {True, False}
