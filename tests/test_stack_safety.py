"""Deep inputs at the default recursion limit.

The interpreter keeps pending branches and continuations as data, and the
tree printers keep pending nodes on a stack, so how deep a run goes or a
result nests is bounded by memory, not by the Python stack.  The
derivative matcher recurses on simplified derivatives, which stay few and
small, and ``is_match`` recurses once per level of the regex, so neither
goes deeper as the input grows.  The regex parser keeps open groups on a
stack, and derivatives, sizes and printed forms of regexes are computed on
explicit stacks too, so a pattern may nest as deep as memory allows.
``handle_rec`` answers a body's reads in a loop, ``bind`` queues its
continuations on the resumption, ``wp`` and the left-recursion analysis
keep their pending work on explicit stacks, and the structural matcher
builds each alternative and each split when its branch is reached.  Each
test here pins the limit at CPython's default for its duration, so a walker
that recursed once per command, per nested call, per bind, per character,
per link, per regex level or per printed node would overflow.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from effparse.cfg import (
    Nonterminal,
    SemValue,
    chain_bound,
    expanded_parser,
    format_sem_value,
    grammar_from_text,
    parse,
    parse_fuel,
    spec_produce,
)
from effparse.cli import main
from effparse.core import (
    NONDET_ROW,
    PARSER_ROW,
    UNIT,
    EffectId,
    EffectRow,
    PairV,
    Str,
    bind,
    choice,
    choices,
    fail,
    fmap,
    pure,
    symbol_maybe,
    symbol_strict,
)
from effparse.handlers import (
    Done,
    RecursiveFn,
    h_parser,
    handle_rec,
    run_parser,
    run_parser_prefix,
    run_with_fuel,
    terminates_in,
)
from effparse.regex import (
    Cat,
    CharT,
    ListT,
    PairT,
    Singleton,
    Star,
    derivative,
    dmatch_handled,
    format_regex,
    is_match,
    match_fn,
    match_input,
    nullable,
    parse_regex,
    regex_size,
)
from effparse.semantics import SemanticsRow, in_language, pt_all, pt_any, results_demonic, wp

from helpers import regex_nodes

S = Nonterminal("S")


@pytest.fixture(autouse=True)
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def test_parse_deeply_nested_dyck_word() -> None:
    depth = 1000
    g = grammar_from_text("S -> '(' S ')' S |\n")
    text = "(" * depth + ")" * depth
    results = parse(g, S, text)
    assert [remainder for _node, remainder in results] == ["", text]
    # The full parse nests production 0 `depth` times, each with an empty
    # trailing S; walked with a loop, as comparing whole trees recurses.
    node: SemValue = results[0][0]
    for _ in range(depth):
        assert (node.nt, node.production, len(node.children)) == (S, 0, 2)
        assert node.children[1] == SemValue(S, 1, ())
        node = node.children[0]
    assert node == SemValue(S, 1, ())


def test_fuel_and_demonic_runs_on_ten_thousand_branches() -> None:
    leaves = [pure(Str(str(i))) for i in range(10_000)]
    expected = tuple((Str(str(i)), None) for i in range(10_000))
    assert results_demonic(choices(leaves, NONDET_ROW)) == expected
    row = EffectRow((EffectId.REC, EffectId.NONDET))
    f = RecursiveFn(row, lambda _input: choices(leaves, row))
    assert run_with_fuel(f, UNIT, 0) == Done(expected)


def test_run_parser_on_a_ten_thousand_character_read_loop() -> None:
    def reads():
        return choice(bind(symbol_strict(PARSER_ROW), lambda _c: reads()), pure(UNIT), PARSER_ROW)

    text = "a" * 10_000
    assert run_parser(reads(), text) == ((UNIT, ""),)
    assert [remainder for _value, remainder in run_parser_prefix(reads(), text)] == [
        text[n:] for n in range(len(text), -1, -1)
    ]


def test_handle_rec_on_a_body_that_reads_ten_thousand_characters() -> None:
    # The handler answers each read in a loop, not one frame per read.
    row = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE))

    def reads():
        return bind(symbol_maybe(row), lambda c: reads() if c != UNIT else pure(UNIT))

    f = RecursiveFn(row, lambda _input: reads())
    outcome = run_with_fuel(handle_rec(h_parser, f), PairV(UNIT, Str("a" * 10_000)), 0)
    assert outcome == Done(((UNIT, None),))


def test_terminates_in_unfolds_a_handled_matcher_ten_thousand_calls_deep() -> None:
    # The unfolding's walk runs over handle_rec's walk, one call a character.
    f, text = dmatch_handled(), "ab" * 5000
    m = f.body(match_input(parse_regex("(a|b)*"), text))
    all_results = SemanticsRow((pt_all(),))
    assert terminates_in(all_results, f, m, len(text))
    assert not terminates_in(all_results, f, m, len(text) - 1)


def test_cli_cfg_parse_right_recursion_of_512(capsys, tmp_path: Path) -> None:
    path = tmp_path / "right_rec.cfg"
    path.write_text("S -> 'a' S | 'a'\n", encoding="utf-8")
    n = 512
    code = main(["cfg-parse", str(path), "S", "a" * n])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "(node S 0 " * (n - 1) + "(node S 1)" + ")" * (n - 1) + "\n"


def _balanced(n: int) -> str:
    chars = list("a" * (n // 2) + "b" * (n - n // 2))
    random.Random(7).shuffle(chars)
    return "".join(chars)


def _items(text: str) -> str:
    return "".join(" (inl (char a))" if c == "a" else " (inr (char b))" for c in text)


def _third_last_a(n: int) -> tuple[str, str]:
    text = _balanced(n - 3) + "a" + _balanced(2)
    return text, f"(pair (list{_items(text[:-3])}) (pair (char a) (pair{_items(text[-2:])})))"


N = 10_000
BENCH_PATTERN_MEMBERS = {
    "a_star": ("a*", "a" * N, "(list" + " (char a)" * N + ")"),
    "ab_star": ("(a|b)*", _balanced(N), "(list" + _items(_balanced(N)) + ")"),
    "third_last_a": ("(a|b)* a (a|b)(a|b)", *_third_last_a(N)),
    "ab_pairs": (
        "(a b)* (a|\\e)",
        "ab" * (N // 2),
        "(pair (list" + " (pair (char a) (char b))" * (N // 2) + ") (inr unit))",
    ),
}


@pytest.mark.parametrize("case", list(BENCH_PATTERN_MEMBERS))
def test_cli_match_bench_patterns_on_ten_thousand_characters(capsys, case: str) -> None:
    # The derivative matcher recurses on simplified derivatives, which stay
    # few and small, so neither their size nor the stack grows with the input.
    pattern, text, witness = BENCH_PATTERN_MEMBERS[case]
    code = main(["match", pattern, text])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == witness + "\n"


def test_cli_match_a_600_character_concatenation_on_itself(capsys) -> None:
    # The witness nests 600 pairs deep; duplicates are dropped by printed
    # line, so no tree hash recurses through it.
    n = 600
    code = main(["match", "a" * n, "a" * n])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "(pair (char a) " * (n - 1) + "(char a)" + ")" * (n - 1) + "\n"


def test_is_match_on_a_4096_character_witness() -> None:
    r = Star(Cat(Singleton("a"), Singleton("b")))
    t = ListT((PairT(CharT("a"), CharT("b")),) * 2048)
    assert is_match(r, "ab" * 2048, t)
    assert not is_match(r, "ab" * 2047 + "ba", t)


@pytest.mark.parametrize(
    "fmt, open_node, leaf, close_node",
    [
        ("sexpr", "(node S 0 ", "(node S 1)", " (node S 1))"),
        ("json-lines", '["node","S",0,', '["node","S",1]', ',["node","S",1]]'),
    ],
    ids=["sexpr", "json-lines"],
)
def test_cli_cfg_parse_prints_a_derivation_nested_1000_deep(
    capsys, tmp_path: Path, fmt: str, open_node: str, leaf: str, close_node: str
) -> None:
    path = tmp_path / "dyck.cfg"
    path.write_text("S -> '(' S ')' S |\n", encoding="utf-8")
    depth = 1000
    code = main(["cfg-parse", "--format", fmt, str(path), "S", "(" * depth + ")" * depth])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == open_node * depth + leaf + close_node * depth + "\n"


# ---------------------------------------------------------------------------
# Deep patterns
# ---------------------------------------------------------------------------


def _cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_match_ten_thousand_nested_parentheses(capsys) -> None:
    assert _cli(capsys, ["match", "(" * N + "a" + ")" * N, "a"]) == (0, "(char a)\n", "")


def test_cli_match_a_with_ten_thousand_stars(capsys) -> None:
    # Each star wraps the witness in one more list.
    witness = "(list " * N + "(char a) (char a) (char a)" + ")" * N
    assert _cli(capsys, ["match", "a" + "*" * N, "aaa"]) == (0, witness + "\n", "")


DISTINCT = "".join(chr(0x4E00 + i) for i in range(600))


@pytest.mark.parametrize(
    "pattern, text, witness",
    [
        ("|".join("a" * N), "a", "(inl (char a))"),
        ("|".join(DISTINCT), DISTINCT[-1], "(inr " * 599 + f"(char {DISTINCT[-1]})" + ")" * 599),
    ],
    ids=["ten_thousand_repeated", "six_hundred_distinct"],
)
def test_cli_match_long_alternations(capsys, pattern: str, text: str, witness: str) -> None:
    assert _cli(capsys, ["match", pattern, text]) == (0, witness + "\n", "")


def test_cli_derive_on_a_thousand_characters(capsys) -> None:
    # The unsimplified derivatives of (a|b)* grow by one alternative a
    # step, so the output is quadratic in the input; 10^4 would print
    # about 10^9 characters.
    text = _balanced(1000)
    lines = ["(a|b)*"] + [
        "(\\0|\\0) (a|b)*|" * i + ("(\\e|\\0) (a|b)*" if c == "a" else "(\\0|\\e) (a|b)*")
        for i, c in enumerate(text)
    ]
    expected = "\n".join(lines) + "\nnullable: yes\n"
    assert _cli(capsys, ["derive", "(a|b)*", text]) == (0, expected, "")


def test_a_chain_of_derivatives_of_the_third_last_a_pattern() -> None:
    # Each unsimplified derivative nests the last one a level deeper, and
    # rebuilds that much of it, so the chain is quadratic; 600 steps take a
    # few seconds where 10^4 would take tens of minutes.
    text = _balanced(600)
    r = parse_regex("(a|b)* a (a|b)(a|b)")
    for c in text:
        r = derivative(r, c)
    assert regex_size(r) > 10_000
    assert parse_regex(format_regex(r)) is r
    assert (nullable(r) is not None) == (text[-3] == "a")


def test_cli_structural_match_of_a_concatenation_on_ten_thousand_characters(capsys) -> None:
    assert _cli(capsys, ["match", "--engine", "structural", "a b", "a" * N]) == (1, "", "")


@st.composite
def deep_patterns(draw: st.DrawFn) -> tuple[str, str]:
    """A generated regex, printed and put under 1000 to 1300 parentheses
    (some left open), stars or copies in an alternation."""
    base = format_regex(draw(regex_nodes("ab")))
    n = draw(st.integers(1000, 1300))
    shape = draw(st.sampled_from(["parentheses", "stars", "alternatives"]))
    if shape == "parentheses":
        return shape, "(" * n + base + ")" * (n - draw(st.integers(0, 1)))
    if shape == "stars":
        return shape, "(" + base + ")" + "*" * n
    return shape, "|".join([base] * n)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(deep_patterns(), st.text("ab", max_size=6))
def test_cli_regex_commands_exit_0_to_3_on_deep_patterns(shaped: tuple[str, str], text: str) -> None:
    shape, pattern = shaped
    # Under n stars, the printed size of the k-th unsimplified derivative
    # grows like n to the k, so derive reads one character there.
    for argv in (["match", pattern, text], ["derive", pattern, text[:1] if shape == "stars" else text]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert isinstance(code, int) and 0 <= code <= 3


# ---------------------------------------------------------------------------
# Deep binds, deep wp, long chains
# ---------------------------------------------------------------------------


def test_ten_thousand_nested_fmaps_and_binds() -> None:
    # Each fmap or bind appends to the continuation queue its resumption
    # carries, so resuming runs them all in one loop.
    m = choice(pure(Str("x")), pure(Str("y")))
    for _ in range(N):
        m = fmap(lambda v: Str(v.text + "."), m)
    assert results_demonic(m) == ((Str("x" + "." * N), None), (Str("y" + "." * N), None))
    m = choice(pure(Str("")), fail())
    for _ in range(N):
        m = bind(m, lambda v: choice(pure(Str(v.text + "a")), fail()))
    assert results_demonic(m) == ((Str("a" * N), None),)


def test_ten_thousand_fmaps_over_recursive_binds() -> None:
    # Each level's continuation meets an op whose resumption carries a
    # queue of its own while the outer fmaps still wait, so the two queues
    # are joined rather than nested.
    def nest(n: int):
        if n == 0:
            return pure(Str(""))
        return fmap(lambda v: Str(v.text + "a"), bind(choice(pure(UNIT), fail()), lambda _v: nest(n - 1)))

    assert results_demonic(nest(N)) == ((Str("a" * N), None),)


@pytest.mark.parametrize(
    "grammar, text, accepted",
    [
        # Every proper prefix parses too, and leaves input unread.
        ("S -> 'a' S | 'a'\n", "a" * N, False),
        ("S -> 'a' S | 'b'\n", "a" * N + "b", True),
    ],
    ids=["right_rec", "one_parse"],
)
def test_in_language_at_ten_thousand_characters(grammar: str, text: str, accepted: bool) -> None:
    g = grammar_from_text(grammar)
    bound = chain_bound(g).bound
    assert in_language(expanded_parser(g, S, parse_fuel(len(text), bound)), text) is accepted


def test_wp_on_a_ten_thousand_deep_choice_chain() -> None:
    m = pure(UNIT)
    for _ in range(N):
        m = choice(pure(UNIT), m)
    all_row, any_row = SemanticsRow((pt_all(),)), SemanticsRow((pt_any(),))
    assert wp(all_row, m, lambda v: v == UNIT)
    assert not wp(any_row, m, lambda _v: False)


def _chain_grammar(tmp_path: Path, n: int) -> str:
    path = tmp_path / f"chain{n}.cfg"
    rules = [f"A{i} -> A{i + 1} 'x'\n" for i in range(n)] + [f"A{n} -> 'y'\n"]
    path.write_text("".join(rules), encoding="utf-8")
    return str(path)


def test_cli_cfg_check_on_a_ten_thousand_link_chain(capsys, tmp_path: Path) -> None:
    path = _chain_grammar(tmp_path, N)
    links = "".join(f"link: A{i} -> A{i + 1} (production {i})\n" for i in range(N))
    assert _cli(capsys, ["cfg-check", path]) == (0, links + f"bound: {N + 1}\n", "")
    # The same chain with its last nonterminal linked back to A0.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"A{N} -> A0\n")
    links += f"link: A{N} -> A0 (production {N + 1})\n"
    cycle = " -> ".join(f"A{i}" for i in range(N + 1)) + " -> A0"
    assert _cli(capsys, ["cfg-check", path]) == (1, links + f"cyclic: {cycle}\n", "")


def test_cli_cfg_parse_on_a_1500_link_chain(capsys, tmp_path: Path) -> None:
    n = 1500
    path = _chain_grammar(tmp_path, n)
    nodes = "".join(f"(node A{i} {i} " for i in range(n)) + f"(node A{n} {n})" + ")" * n
    assert _cli(capsys, ["cfg-parse", path, "A0", "y" + "x" * n]) == (0, nodes + "\n", "")


def test_cli_structural_match_on_two_thousand_alternatives(capsys) -> None:
    # Each alternative is built when its branch is resumed, and the
    # tagging fmaps join one continuation queue.
    n = 2000
    witness = "(inr " * (n - 1) + "(char a)" + ")" * (n - 1)
    assert _cli(capsys, ["match", "--engine", "structural", "|".join("b" * (n - 1) + "a"), "a"]) == (
        0,
        witness + "\n",
        "",
    )


def test_structural_splits_are_made_one_at_a_time() -> None:
    # All 10^4 + 1 splits at once would hold about 10^8 characters.
    tracemalloc.start()
    try:
        outcome = run_with_fuel(match_fn(), match_input(parse_regex("a b"), "ab" * 5000), 0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome == Done(())
    assert peak < 5_000_000


# ---------------------------------------------------------------------------
# cfg-parse at 4096 characters
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cfg_parse_4096(capsys, tmp_path: Path, grammar: str, start: str, text: str) -> tuple[int, str, str]:
    # Only full parses are computed, so a parse of a shorter prefix dies
    # where it arises instead of climbing back through its derivation: the
    # run is linear on right recursion (quadratic before, about 30 s for
    # `a` * 4096), and the deadline keeps a quadratic run from hanging.
    path = tmp_path / "g.cfg"
    path.write_text(grammar, encoding="utf-8")
    with _deadline(10):
        return _cli(capsys, ["cfg-parse", str(path), start, text])


def test_cli_cfg_parse_right_recursion_of_4096(capsys, tmp_path: Path) -> None:
    n = 4096
    derivation = "(node S 0 " * (n - 1) + "(node S 1)" + ")" * (n - 1)
    assert _cfg_parse_4096(capsys, tmp_path, "S -> 'a' S | 'a'\n", "S", "a" * n) == (0, derivation + "\n", "")


def test_cli_cfg_parse_flat_dyck_word_of_4096(capsys, tmp_path: Path) -> None:
    pairs = 2048
    derivation = "(node S 0 (node S 1) " * pairs + "(node S 1)" + ")" * pairs
    assert _cfg_parse_4096(capsys, tmp_path, "S -> '(' S ')' S |\n", "S", "()" * pairs) == (0, derivation + "\n", "")


def _palindrome() -> str:
    rng = random.Random(11)
    half = "".join(rng.choice("ab") for _ in range(2048))
    return half + half[::-1]


@pytest.mark.parametrize(
    "grammar, start, text",
    [
        ("E -> T R\nR -> '+' T R |\nT -> F\nF -> 'x' | '(' E ')'\n", "E", "(" * 1000 + "x" + ")" * 1000 + "+x" * 1047),
        ("P -> 'a' P 'a' | 'b' P 'b' | 'a' | 'b' |\n", "P", _palindrome()),
    ],
    ids=["expression", "palindrome"],
)
def test_cli_cfg_parse_agrees_with_the_anchored_oracle_at_4096(
    capsys, tmp_path: Path, grammar: str, start: str, text: str
) -> None:
    # The oracle recurses once per derivation level, so it runs under a
    # raised limit; the parser runs at the default one.
    sys.setrecursionlimit(100_000)
    g = grammar_from_text(grammar)
    expected = "".join(format_sem_value(node) + "\n" for node, _ in spec_produce(g, Nonterminal(start), text, anchored=True))
    sys.setrecursionlimit(1000)
    assert expected
    assert _cfg_parse_4096(capsys, tmp_path, grammar, start, text) == (0, expected, "")
