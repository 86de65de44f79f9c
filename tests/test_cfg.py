"""Grammar files, the effectful CFG parser, its oracle, and the analyses."""

from __future__ import annotations

import pytest

from effparse import cfg
from effparse.cfg import (
    CyclicGrammarError,
    Grammar,
    GrammarError,
    GrammarSyntaxError,
    Nonterminal,
    Production,
    SemValue,
    Term,
    UndefinedNonterminalError,
    build_parser,
    chain_bound,
    check_variant,
    expanded_parser,
    filter_lhs,
    format_sem_value,
    from_prods,
    from_prods_fn,
    grammar_from_text,
    left_rec_links,
    parse,
    parse_fuel,
    spec_produce,
)
from effparse.core import Ch, CommandKind, Op, Str
from effparse.handlers import Done, TerminationInvariantError, run_parser, run_with_fuel
from effparse.semantics import Invariant, in_language, results_demonic

from helpers import ACYCLIC_FAMILY, G_CYCLIC, G_EXPR, G_NULLABLE, G_RIGHT_REC, strings_up_to

E, S, A, B, T, X = (Nonterminal(n) for n in "ESABTX")


def load(family_entry) -> tuple[Grammar, Nonterminal, str]:
    text, start, alphabet = family_entry
    return grammar_from_text(text), Nonterminal(start), alphabet


# ---------------------------------------------------------------------------
# The file format
# ---------------------------------------------------------------------------


def test_grammar_text_golden() -> None:
    g = grammar_from_text("E -> 'a' E | 'b'\n")
    assert g.productions == (
        Production(E, (Term("a"), E), 0),
        Production(E, (Term("b"),), 1),
    )


def test_grammar_text_epsilon_comments_and_blank_lines() -> None:
    g = grammar_from_text(
        """
        # leading comment
        S -> A B
        A -> 'a' |      # the second alternative is empty
        B -> 'b'
        """
    )
    assert [(p.lhs.name, len(p.rhs)) for p in g.productions] == [
        ("S", 2),
        ("A", 1),
        ("A", 0),
        ("B", 1),
    ]


def test_grammar_text_escapes_and_quoted_hash() -> None:
    g = grammar_from_text("S -> '\\'' '\\\\' '\\n' '\\t' '#'\n")
    assert g.productions[0].rhs == (
        Term("'"),
        Term("\\"),
        Term("\n"),
        Term("\t"),
        Term("#"),
    )


def test_a_comment_starts_only_between_tokens() -> None:
    # ''' is the terminal ', so the # after it starts a comment.
    assert grammar_from_text("E -> ''' # quote\n").productions == (Production(E, (Term("'"),), 0),)
    for terminal in ("'a'", "'#'", "'|'", "'\\''", "'\\\\'", "'\\n'", "'''"):
        line = f"E -> {terminal} E | {terminal}"
        assert grammar_from_text(line + " # c\n") == grammar_from_text(line + "\n"), terminal


def test_grammar_text_syntax_errors() -> None:
    for bad in (
        "E 'a'\n",          # missing arrow
        "E -> 'ab'\n",      # multi-character terminal
        "E -> 'a\n",        # unterminated terminal
        "E -> '",           # quote at the end of the text
        "E -> '\\q'\n",     # unknown escape
        "E -> $\n",         # unexpected character
        "E -> 'a' -> 'b'\n",  # stray arrow
    ):
        with pytest.raises(GrammarSyntaxError):
            grammar_from_text(bad)
    # Built directly, a terminal still holds exactly one character.
    for bad in ("ab", ""):
        with pytest.raises(ValueError, match="single characters"):
            Term(bad)


def test_grammar_text_breaks_lines_only_at_cr_and_lf() -> None:
    # str.splitlines also breaks at each of these; a grammar line does not.
    for char in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        assert grammar_from_text(f"E -> '{char}'\n").productions == (Production(E, (Term(char),), 0),)
    with pytest.raises(GrammarSyntaxError, match=r"^line 1: unexpected character '\\x0c'$"):
        grammar_from_text("E -> 'a'\x0cF -> $")
    # CRLF and CR-only text loads as LF text does, with the same line numbers.
    lf = "E -> 'a' E\n\nE -> 'b'\n"
    for newline in ("\r\n", "\r"):
        assert grammar_from_text(lf.replace("\n", newline)) == grammar_from_text(lf)
        with pytest.raises(GrammarSyntaxError, match=r"^line 3: unexpected character '\$'$"):
            grammar_from_text(f"E -> 'a'{newline}{newline}E -> $")


def test_grammar_rejects_undefined_nonterminals() -> None:
    with pytest.raises(UndefinedNonterminalError):
        grammar_from_text("X -> Y\n")


def test_grammar_validates_production_indices() -> None:
    with pytest.raises(GrammarError):
        Grammar((Production(E, (), 1),))


# ---------------------------------------------------------------------------
# Parser building blocks
# ---------------------------------------------------------------------------


def test_filter_lhs_keeps_grammar_order() -> None:
    g, _, _ = load(G_RIGHT_REC)
    assert [p.index for p in filter_lhs(g, E)] == [0, 1]
    assert filter_lhs(g, Nonterminal("Z")) == ()


def test_build_parser_calls_for_nonterminals() -> None:
    g, _, _ = load(G_RIGHT_REC)
    m = build_parser((Term("a"), E), g.productions[0])
    assert isinstance(m, Op)
    assert m.command.kind is CommandKind.SYMBOL
    # Consuming 'a' leaves a recursive call for E.
    after = m.resume(Ch("a"))
    assert isinstance(after, Op)
    assert after.command.kind is CommandKind.CALL
    assert after.command.payload == E


def test_from_prods_delivers_nodes_with_production_indices() -> None:
    g, start, _ = load(G_RIGHT_REC)
    outcome = run_with_fuel(from_prods_fn(g), E, parse_fuel(2, 1), state0="ab")
    assert isinstance(outcome, Done)
    full = [(v, s) for v, s in outcome.results if s == ""]
    assert full == [(SemValue(E, 0, (SemValue(E, 1, ()),)), "")]


def test_from_prods_refuses_a_call_answer_that_is_not_a_derivation() -> None:
    g = grammar_from_text("S -> 'a' S |\n")
    not_a_node = Invariant(lambda _input, _output: True, lambda _input: (Str("x"),))
    with pytest.raises(TypeError):
        results_demonic(from_prods(g, S), not_a_node, state0="aa")


# ---------------------------------------------------------------------------
# The derivation oracle
# ---------------------------------------------------------------------------


def test_spec_produce_goldens() -> None:
    g, _, _ = load(G_RIGHT_REC)
    assert spec_produce(g, E, "b") == ((SemValue(E, 1, ()), ""),)
    assert spec_produce(g, E, "ab") == ((SemValue(E, 0, (SemValue(E, 1, ()),)), ""),)
    # Prefix parses report their remainders.
    assert spec_produce(g, E, "ba") == ((SemValue(E, 1, ()), "a"),)
    assert spec_produce(g, E, "") == ()


def test_spec_produce_orders_by_production() -> None:
    g = grammar_from_text("S -> 'a' | 'a'\n")
    s = Nonterminal("S")
    assert spec_produce(g, s, "a") == (
        (SemValue(s, 0, ()), ""),
        (SemValue(s, 1, ()), ""),
    )


def test_spec_produce_rejects_cyclic_grammars() -> None:
    g, start, _ = load(G_CYCLIC)
    with pytest.raises(CyclicGrammarError) as info:
        spec_produce(g, start, "1")
    assert info.value.cycle == (E, E)


def test_spec_produce_raises_past_the_proven_depth(monkeypatch) -> None:
    # A cap the derivation outgrows means the bound's proof is broken.
    monkeypatch.setattr(cfg, "_proven_fuel", lambda _g, _length: 1)
    g = grammar_from_text("S -> 'a' S |\n")
    with pytest.raises(RuntimeError, match="derivation depth exceeded the proven bound"):
        spec_produce(g, S, "a")


# ---------------------------------------------------------------------------
# Left-recursion analysis
# ---------------------------------------------------------------------------


def test_left_rec_links_goldens() -> None:
    assert left_rec_links(grammar_from_text("E -> 'a' E | 'b'\n")) == ()
    assert left_rec_links(grammar_from_text("S -> A 'x'\nA -> 'a'\n")) == ((S, A, 0),)
    # A leading run of nonterminals links every member of the run.
    assert left_rec_links(grammar_from_text("S -> A B\nA -> 'a' |\nB -> 'b'\n")) == (
        (S, A, 0),
        (S, B, 0),
    )
    assert left_rec_links(grammar_from_text("X -> Y 'b'\nY -> Z\nZ -> 'a'\n")) == (
        (X, Nonterminal("Y"), 0),
        (Nonterminal("Y"), Nonterminal("Z"), 1),
    )


def test_chain_bound_goldens() -> None:
    assert chain_bound(grammar_from_text("E -> 'a' E | 'b'\n")).bound == 1
    assert chain_bound(grammar_from_text("S -> A 'x'\nA -> 'a'\n")).bound == 2
    assert chain_bound(grammar_from_text("X -> Y 'b'\nY -> Z\nZ -> 'a'\n")).bound == 3
    report = chain_bound(grammar_from_text("E -> E '+' E | '1'\n"))
    assert report.cycle is not None
    assert report.bound is None
    assert report.cycle == (E, E)


def test_chain_report_validates_its_shape() -> None:
    from effparse.cfg import ChainReport

    with pytest.raises(ValueError):
        ChainReport((), None, None)
    with pytest.raises(ValueError):
        ChainReport((), 1, (E, E))


def test_parse_fuel_formula() -> None:
    assert parse_fuel(0, 1) == 2
    assert parse_fuel(3, 1) == 8
    assert parse_fuel(5, 2) == 18


# ---------------------------------------------------------------------------
# Parsing with fuel
# ---------------------------------------------------------------------------


def test_parse_goldens() -> None:
    g, start, _ = load(G_RIGHT_REC)
    assert parse(g, start, "ab") == ((SemValue(E, 0, (SemValue(E, 1, ()),)), ""),)
    assert parse(g, start, "ba") == ((SemValue(E, 1, ()), "a"),)
    assert parse(g, start, "") == ()


def test_parse_matches_oracle_on_the_family() -> None:
    for entry in ACYCLIC_FAMILY:
        g, start, alphabet = load(entry)
        for text in strings_up_to(3, alphabet):
            assert set(parse(g, start, text)) == set(spec_produce(g, start, text))


def test_parse_repeats_no_derivation_on_ambiguous_grammars() -> None:
    # A derivation fixes its own choice path, so no (derivation, remainder)
    # pair comes twice; `effparse cfg-parse` prints parses without
    # deduplicating them.
    ambiguous = ("S -> 'a' S | 'a' | 'a' S S |\n", "S", "a")
    for entry, max_len in ((ambiguous, 5), (G_EXPR, 4), (G_NULLABLE, 4)):
        g, start, alphabet = load(entry)
        for text in strings_up_to(max_len, alphabet):
            results = parse(g, start, text)
            assert len(set(results)) == len(results)
    g, start, _ = load(ambiguous)
    assert len(parse(g, start, "aaaaa")) == 994


def test_parse_rejects_cyclic_grammars_with_a_witness() -> None:
    g, start, _ = load(G_CYCLIC)
    with pytest.raises(CyclicGrammarError) as info:
        parse(g, start, "1+1")
    assert info.value.cycle == (E, E)


def test_variant_holds_on_family_samples() -> None:
    # Plain bodies make follow calls: the Dyck grammar's inner S is called
    # with the follow ')', and in S -> A 'x' S, A reads the 'x', so the S
    # after it is called on a shorter input.
    follows = (("S -> '(' S ')' S |\n", "S", "()"), ("S -> A 'x' S |\nA ->\n", "S", "xa"))
    for entry in ACYCLIC_FAMILY + follows:
        g, start, alphabet = load(entry)
        samples = [(start, text) for text in strings_up_to(3, alphabet)]
        assert check_variant(g, samples)


def test_variant_fails_on_a_call_that_neither_shrinks_nor_follows_a_link(monkeypatch) -> None:
    # E calls T on all of its input: allowed only along the link E -> T.
    g = grammar_from_text("E -> T 'x' | 'y'\nT -> 'y'\n")
    assert check_variant(g, [(E, "yx")]) is True
    monkeypatch.setattr(cfg, "left_rec_links", lambda _g: ())
    assert check_variant(g, [(E, "yx")]) is False


def test_fuel_formula_boundary_grammar() -> None:
    # Sibling nonterminals that all derive the empty string fan out more
    # non-consuming calls than the per-position budget covers.  The chain
    # analysis is still sound (no cycle, variant holds, the oracle
    # produces the derivation) and the engine fails loudly instead of
    # returning partial results.
    g = grammar_from_text("S -> A A\nA -> B B\nB ->\n")
    s = Nonterminal("S")
    assert chain_bound(g).bound == 3
    assert check_variant(g, [(s, "")])
    assert len(spec_produce(g, s, "")) == 1
    with pytest.raises(TerminationInvariantError):
        parse(g, s, "")
    # Six expansions finish what the formula's four could not.
    outcome = run_with_fuel(from_prods_fn(g), s, 6, state0="")
    assert isinstance(outcome, Done)


# ---------------------------------------------------------------------------
# Language membership through expansion
# ---------------------------------------------------------------------------


def test_expanded_parser_mirrors_parse() -> None:
    g, start, alphabet = load(G_RIGHT_REC)
    for text in strings_up_to(3, alphabet):
        depth = parse_fuel(len(text), 1)
        expanded = expanded_parser(g, start, depth)
        got = {v for v, _ in run_parser(expanded, text)}
        want = {node for node, remainder in parse(g, start, text) if remainder == ""}
        assert got == want


def test_in_language_on_expanded_parser() -> None:
    g, start, _ = load(G_RIGHT_REC)
    expanded = expanded_parser(g, start, parse_fuel(2, 1))
    assert in_language(expanded, "ab")
    # No parse of "aa" survives, so acceptance is vacuous — membership as
    # "some full parse exists" is run_parser nonemptiness instead.
    assert in_language(expanded, "aa")
    assert run_parser(expanded, "ab")
    assert not run_parser(expanded, "aa")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_format_sem_value_golden() -> None:
    node = SemValue(E, 0, (SemValue(E, 1, ()),))
    assert format_sem_value(node) == "(node E 0 (node E 1))"
