"""The three workloads: seeded inputs, the calls that are timed, and their checks.

A workload is a list of cells, one per (case, size class).  Each round of a
run asks every cell for one fresh request, generated from the run's seed and
the round number, and shuffles them.  A request carries the operation to
time and a check that judges its outcome afterwards against an oracle that
does not share code with the path under test.

The reach requests are fixed inputs past the depth at which the recursive
engines overflow Python's stack.  Their answers are written out in closed
form because the oracles overflow there too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import io
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from effparse import cli, semantics
from effparse.cfg import (
    Nonterminal,
    SemValue,
    chain_bound,
    expanded_parser,
    grammar_from_text,
    parse_fuel,
    spec_produce,
)
from effparse.core import NONDET_ROW, Computation, Str, choice, fail, pure
from effparse.handlers import terminates_in
from effparse.regex import (
    EMPTY,
    EPSILON,
    Alt,
    Cat,
    CharT,
    LeftT,
    ListT,
    PairT,
    ParseTree,
    Regex,
    RightT,
    Singleton,
    Star,
    UnitT,
    dmatch_handled,
    enumerate_matches,
    is_match,
    match_input,
    match_spec_invariant,
    match_structural,
)


@contextlib.contextmanager
def oracle_recursion() -> Iterator[None]:
    """Oracles recurse once per character or derivation level, so they run
    under a raised limit; every timed call runs under the default one."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


@dataclass(frozen=True)
class Request:
    """One operation: ``run`` is timed, ``check`` judges what it returned.

    ``check`` returns ``None`` for a correct outcome and a reason otherwise.
    """

    case: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    variant: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[str, int], ...]
    # make(rng, case, size, spoil): a request of the cell.  ``spoil`` is None
    # for the plain variant; otherwise the request takes the rejection path
    # where there is one, spoiling its input at that fraction of its length.
    make: Callable[[random.Random, str, int, "float | None"], Request]
    reach: tuple[Request, ...]
    # Rounds every run completes: the traced run runs exactly these, and
    # the timed run reads peak memory after them.
    base_rounds: int

    def repeats(self, case: str, size: int) -> int:
        """Requests per round for a cell: more for the cheap small sizes,
        which would otherwise get as few samples as the dear large ones."""
        largest = max(n for c, n in self.cells if c == case)
        return max(1, largest // size // 2)

    def round(self, seed: int, index: int) -> list[Callable[[], Request]]:
        """Round ``index`` of a run: makers of each cell's requests, shuffled.

        Requests are made one at a time, just before they run, so that no
        input is held on the heap while another request runs.  A cell's
        requests alternate between its two variants, across rounds too, so
        that every two of them hold one of each.

        Where the spoiled variant changes one character, the cell's
        successive spoiled requests put it at evenly spread places (a golden
        ratio sequence from a seeded start): the cost depends on the place,
        and a handful of uniform draws leaves the cell's median at the mercy
        of the seed.
        """
        makers = []
        for case, size in self.cells:
            repeats = self.repeats(case, size)
            cell = random.Random(f"{self.name}:{seed}:{case}:{size}")
            offset, start = cell.randrange(2), cell.random()
            for repeat in range(repeats):
                count = index * repeats + repeat
                variant = (count + offset) % 2
                spoil = (start + count // 2 * _GOLDEN) % 1.0 if variant else None
                rng = random.Random(f"{self.name}:{seed}:{index}:{case}:{size}:{repeat}")
                makers.append(functools.partial(self._request, rng, case, size, variant, spoil))
        random.Random(f"{self.name}:{seed}:{index}").shuffle(makers)
        return makers

    def _request(self, rng: random.Random, case: str, size: int, variant: int, spoil: float | None) -> Request:
        request = self.make(rng, case, size, spoil)
        return dataclasses.replace(request, case=case, size=size, variant=variant)


_GOLDEN = (5**0.5 - 1) / 2


def fresh_heap() -> None:
    """Collect, then freeze what survives, so that neither this collection
    nor those inside the next request scan the heap earlier requests left
    behind (the caches among it grow for the whole run).  A request's
    collections then cover its own objects, as in a fresh process."""
    gc.collect()
    gc.freeze()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``effparse ARGV`` in process, returning the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _outcome(outcome: object) -> tuple[int, list[str]]:
    code, out = outcome  # type: ignore[misc]
    return code, out.splitlines()


# ---------------------------------------------------------------------------
# Parse trees in the CLI's s-expression syntax, read back independently
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def read_tree(text: str) -> ParseTree:
    """Parse one printed witness; raises ``ValueError`` if malformed."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise ValueError(f"stray characters in {text!r}")
    stack: list[list[object]] = [[]]
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if len(stack) < 2:
                raise ValueError("unbalanced ')'")
            items = stack.pop()
            stack[-1].append(_tree_node(items))
        else:
            stack[-1].append(token)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not exactly one tree: {text!r}")
    top = stack[0][0]
    if top == "unit":
        return UnitT()
    if not isinstance(top, ParseTree):
        raise ValueError(f"not a tree: {text!r}")
    return top


def _tree_node(items: list[object]) -> ParseTree:
    head, args = (items[0] if items else None), items[1:]
    args = [UnitT() if a == "unit" else a for a in args]
    if head == "char" and len(args) == 1 and isinstance(args[0], str) and len(args[0]) == 1:
        return CharT(args[0])
    if not all(isinstance(a, ParseTree) for a in args):
        raise ValueError(f"malformed node {items!r}")
    if head == "inl" and len(args) == 1:
        return LeftT(args[0])  # type: ignore[arg-type]
    if head == "inr" and len(args) == 1:
        return RightT(args[0])  # type: ignore[arg-type]
    if head == "pair" and len(args) == 2:
        return PairT(args[0], args[1])  # type: ignore[arg-type]
    if head == "list":
        return ListT(tuple(args))  # type: ignore[arg-type]
    raise ValueError(f"malformed node {items!r}")


def render_derivation(root: SemValue) -> str:
    """A derivation in the CLI's s-expression syntax, without recursion."""
    parts: list[str] = []
    stack: list[SemValue | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(f"(node {item.nt.name} {item.production}")
        stack.append(")")
        for child in reversed(item.children):
            stack.append(child)
            stack.append(" ")
    return "".join(parts)


# ---------------------------------------------------------------------------
# regex-deriv
# ---------------------------------------------------------------------------

A, B = Singleton("a"), Singleton("b")
AB = Alt(A, B)


@dataclass(frozen=True)
class Pattern:
    """A CLI pattern, the same regex built as a value, and input makers."""

    text: str
    regex: Regex
    member: Callable[[random.Random, int], str]
    # Turns a member into a non-member by changing one character, at the
    # given fraction of its length where the pattern leaves a choice.
    flip: Callable[[float, str], str]


def _random_ab(rng: random.Random, n: int) -> str:
    """As many ``a`` as ``b`` (give or take one), in a random order: the
    engines' cost depends on how many of each there are."""
    chars = list("ab" * (n // 2) + rng.choice("ab") * (n % 2))
    rng.shuffle(chars)
    return "".join(chars)


def _third_last_a(rng: random.Random, n: int) -> str:
    s = _random_ab(rng, n)
    return s[: n - 3] + "a" + s[n - 2 :]


def _put(s: str, i: int, c: str) -> str:
    return s[:i] + c + s[i + 1 :]


def _at(where: float, s: str) -> int:
    return int(where * len(s))


def _swap_ab(where: float, s: str) -> str:
    i = _at(where, s)
    return _put(s, i, "b" if s[i] == "a" else "a")


PATTERNS = {
    # Derivative size grows linearly; the witness is an n-element list.
    "ab_star": Pattern(
        "(a|b)*",
        Star(AB),
        _random_ab,
        lambda where, s: _put(s, _at(where, s), "c"),
    ),
    # The textbook pattern whose derivatives blow up.
    "third_last_a": Pattern(
        "(a|b)* a (a|b)(a|b)",
        Cat(Star(AB), Cat(A, Cat(AB, AB))),
        _third_last_a,
        lambda where, s: _put(s, len(s) - 3, "b"),
    ),
    # The simplest star.
    "a_star": Pattern(
        "a*",
        Star(A),
        lambda rng, n: "a" * n,
        lambda where, s: _put(s, _at(where, s), "b"),
    ),
    # One member per length, so every spoiled input takes the no-match path
    # and exits with code 1.
    "ab_pairs": Pattern(
        "(a b)* (a|\\e)",
        Cat(Star(Cat(A, B)), Alt(A, EPSILON)),
        lambda rng, n: ("ab" * n)[:n],
        _swap_ab,
    ),
}

REGEX_SIZES = (16, 23, 32, 45, 64, 91, 128)
# The blow-up pattern takes seconds per request past 64 characters.
REGEX_SIZE_CAP = {"third_last_a": 64}


def regex_text(rng: random.Random, pattern: Pattern, n: int, spoil: float | None) -> str:
    """A member of length ``n``, or with ``spoil`` a member with one flip."""
    s = pattern.member(rng, n)
    return s if spoil is None else pattern.flip(spoil, s)


# is_match tries every split at every level, which is cubic on the
# ``(a b)*`` witnesses (about 3 s at 128 characters); past this length the
# witness is checked by membership in the enumeration oracle alone.  No
# pattern here has a star over a nullable body, so that enumeration holds
# every witness.
IS_MATCH_MAX_LENGTH = 64


def check_witnesses(pattern: Pattern, text: str, outcome: object) -> str | None:
    """Each printed tree parses back and witnesses the match; a tree is
    printed exactly when the enumeration oracle finds one."""
    code, lines = _outcome(outcome)
    witnesses = set(enumerate_matches(pattern.regex, text))
    for line in lines:
        try:
            tree = read_tree(line)
        except ValueError as error:
            return f"unreadable witness: {error}"
        if tree not in witnesses:
            return f"not a witness: {line}"
        if len(text) <= IS_MATCH_MAX_LENGTH and not is_match(pattern.regex, text, tree):
            return f"not a witness by is_match: {line}"
    if len(set(lines)) != len(lines):
        return "duplicate witnesses"
    exists = bool(witnesses)
    if exists != bool(lines):
        return f"printed {len(lines)} witnesses, a match {'exists' if exists else 'does not exist'}"
    if code != (0 if exists else 1):
        return f"exit code {code}"
    return None


def regex_request(case: str, text: str) -> Request:
    pattern = PATTERNS[case]
    return Request(
        case,
        len(text),
        lambda: run_cli(["match", pattern.text, text]),
        lambda outcome: check_witnesses(pattern, text, outcome),
    )


def _make_regex(rng: random.Random, case: str, n: int, spoil: float | None) -> Request:
    return regex_request(case, regex_text(rng, PATTERNS[case], n, spoil))


def closed_form_request(case: str, argv: list[str], expected: str) -> Request:
    """A request whose whole stdout is known in closed form."""

    def check(outcome: object) -> str | None:
        code, out = outcome  # type: ignore[misc]
        if code != 0 or out != expected + "\n":
            return f"exit code {code}, {len(out)} characters differing from the closed form"
        return None

    return Request(case, len(argv[-1]), lambda: run_cli(argv), check)


def _a_list(n: int) -> str:
    return "(list" + " (char a)" * n + ")"


REGEX_REACH = tuple(
    closed_form_request(f"reach_a_star_{n}", ["match", "a*", "a" * n], _a_list(n))
    for n in (256, 512)
)


# ---------------------------------------------------------------------------
# cfg-parse
# ---------------------------------------------------------------------------


def _dyck(rng: random.Random, n: int) -> str:
    """A uniformly random balanced word of even length ``n`` (cycle lemma)."""
    m = n // 2
    steps = ["("] * m + [")"] * (m + 1)
    rng.shuffle(steps)
    height, lowest, start = 0, 0, 0
    for i, step in enumerate(steps):
        height += 1 if step == "(" else -1
        if height < lowest:
            lowest, start = height, i + 1
    rotated = steps[start:] + steps[:start]
    return "".join(rotated[:-1])


def _expression(rng: random.Random, n: int) -> str:
    """A random expression of odd length ``n`` over ``x``, ``+`` and parentheses."""
    if n == 1:
        return "x"
    if rng.random() < 0.3:
        return "(" + _expression(rng, n - 2) + ")"
    head = rng.randrange(1, n - 1, 2)
    term = "x" if head == 1 else "(" + _expression(rng, head - 2) + ")"
    return term + "+" + _expression(rng, n - head - 1)


def _palindrome(rng: random.Random, n: int) -> str:
    half = _random_ab(rng, n // 2)
    return half + (rng.choice("ab") if n % 2 else "") + half[::-1]


def _delete_one(where: float, s: str) -> str:
    i = _at(where, s)
    return s[:i] + s[i + 1 :]


@dataclass(frozen=True)
class GrammarCase:
    text: str
    start: str
    # A member of length at most n, as close to n as the language allows.
    member: Callable[[random.Random, int], str]
    # One character removed or changed, at the given fraction of the
    # length, to reach the rejection path.
    spoil: Callable[[float, str], str]


GRAMMARS = {
    # Every prefix parses: n partial results and quadratic time.
    "right_rec": GrammarCase(
        "S -> 'a' S | 'a'\n",
        "S",
        lambda rng, n: "a" * n,
        # Deleting from a^n stays in the language, so change a character.
        lambda where, s: _put(s, _at(where, s), "b"),
    ),
    # Nullable and nested.
    "dyck": GrammarCase("S -> '(' S ')' S |\n", "S", lambda rng, n: _dyck(rng, n - n % 2), _delete_one),
    # Chain bound 3, so the largest fuel budget.
    "expression": GrammarCase(
        "E -> T R\nR -> '+' T R |\nT -> F\nF -> 'x' | '(' E ')'\n",
        "E",
        lambda rng, n: _expression(rng, n - 1 + n % 2),
        _delete_one,
    ),
    # Backtracking over where the middle is.
    "palindrome": GrammarCase(
        "P -> 'a' P 'a' | 'b' P 'b' | 'a' | 'b' |\n", "P", _palindrome, _delete_one
    ),
}

CFG_SIZES = (16, 23, 32, 45, 64, 91, 128, 181)


def grammar_text(rng: random.Random, case: GrammarCase, n: int, spoil: float | None) -> str:
    s = case.member(rng, n)
    return s if spoil is None else case.spoil(spoil, s)


class GrammarFiles:
    """The grammar files ``cfg-parse`` reads, written into ``directory``."""

    def __init__(self, directory: str) -> None:
        self.paths = {}
        self.grammars = {}
        for name, case in GRAMMARS.items():
            path = f"{directory}/{name}.grammar"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(case.text)
            self.paths[name] = path
            self.grammars[name] = grammar_from_text(case.text)


def check_derivations(files: GrammarFiles, case: str, text: str, outcome: object) -> str | None:
    """The printed derivations are exactly the oracle's full parses."""
    code, lines = _outcome(outcome)
    grammar, start = files.grammars[case], Nonterminal(GRAMMARS[case].start)
    expected = {render_derivation(v) for v, rest in spec_produce(grammar, start, text) if rest == ""}
    if len(set(lines)) != len(lines):
        return "duplicate derivations"
    if set(lines) != expected:
        return f"{len(set(lines) - expected)} wrong and {len(expected - set(lines))} missing derivations"
    if code != (0 if expected else 1):
        return f"exit code {code}"
    return None


def cfg_request(files: GrammarFiles, case: str, text: str) -> Request:
    argv = ["cfg-parse", files.paths[case], GRAMMARS[case].start, text]
    return Request(
        case,
        len(text),
        lambda: run_cli(argv),
        lambda outcome: check_derivations(files, case, text, outcome),
    )


def _right_rec_chain(n: int) -> str:
    return "(node S 0 " * (n - 1) + "(node S 1)" + ")" * (n - 1)


def _flat_dyck(pairs: int) -> str:
    return "(node S 0 (node S 1) " * pairs + "(node S 1)" + ")" * pairs


def cfg_reach(files: GrammarFiles) -> tuple[Request, ...]:
    def argv(case: str, text: str) -> list[str]:
        return ["cfg-parse", files.paths[case], GRAMMARS[case].start, text]

    return tuple(
        [
            closed_form_request(f"reach_right_rec_{n}", argv("right_rec", "a" * n), _right_rec_chain(n))
            for n in (256, 512)
        ]
        + [
            closed_form_request(f"reach_dyck_{n}", argv("dyck", "()" * (n // 2)), _flat_dyck(n // 2))
            for n in (256, 512)
        ]
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

ALL_ROW = semantics.SemanticsRow((semantics.pt_all(),))
ANY_ROW = semantics.SemanticsRow((semantics.pt_any(),))

REFINES_SIZES = (2, 3, 5, 7, 10)
WP_SIZES = (64, 128, 256, 512, 1024)
IN_LANGUAGE_SIZES = (4, 6, 8, 11, 16, 23, 32)
TERMINATES_SIZES = (4, 8, 16, 32)


def random_regex(rng: random.Random, size: int, starred: bool = False) -> Regex:
    """A regex with ``size`` constructors over ``{a, b}``.

    No star sits inside another: with nested stars the witnesses, which the
    refinement check enumerates, grow exponentially in the input, and single
    10-character requests took 15 to 27 s on a 2-vCPU virtual machine.
    """
    if size == 1:
        return rng.choice((A, B, A, B, EPSILON, EMPTY))
    # Without stars a regex has an odd number of constructors, so a star
    # takes an even size and splits of a star's body are odd.
    if not starred and size % 2 == 0 and (size == 2 or rng.random() < 0.5):
        return Star(random_regex(rng, size - 1, starred=True))
    left = rng.randrange(1, size - 1, 2 if starred else 1)
    node = Alt if rng.random() < 0.5 else Cat
    return node(random_regex(rng, left, starred), random_regex(rng, size - 1 - left, starred))


def verdict_check(expected: bool) -> Callable[[object], str | None]:
    def check(outcome: object) -> str | None:
        if outcome is not expected:
            return f"verdict {outcome!r}, expected {expected!r}"
        return None

    return check


def refines_request(r: Regex, s: str) -> Request:
    """The derivative matcher refines the structural one (known: True)."""

    def run() -> bool:
        specific = dmatch_handled().body(match_input(r, s))
        return semantics.refines_all(match_structural(r, s), specific, match_spec_invariant())

    return Request("refines", len(s), run, verdict_check(True))


def nondet_tree(rng: random.Random, leaves: int) -> tuple[Computation, list[Str]]:
    """A random binary choice tree with ``leaves`` results and a few dead
    branches; also returns the results in depth-first order."""
    values = [Str(str(i)) for i in range(leaves)]

    def build(lo: int, hi: int) -> Computation:
        if hi - lo == 1:
            leaf = pure(values[lo])
            return choice(fail(NONDET_ROW), leaf) if rng.random() < 0.1 else leaf
        mid = rng.randrange(lo + 1, hi)
        return choice(build(lo, mid), build(mid, hi), NONDET_ROW)

    return build(0, leaves), values


def wp_request(rng: random.Random, demonic: bool, leaves: int, hit: bool) -> Request:
    """``wp`` under all- or any-results semantics.  Only the last result can
    decide the verdict, and it does so when ``hit``, so neither fold stops
    before the last leaf."""
    m, results = nondet_tree(rng, leaves)
    target = results[-1] if hit else Str("none")
    if demonic:
        expected = all(v != target for v in results)
        return Request(
            "wp_all", leaves, lambda: semantics.wp(ALL_ROW, m, lambda v: v != target), verdict_check(expected)
        )
    expected = any(v == target for v in results)
    return Request("wp_any", leaves, lambda: semantics.wp(ANY_ROW, m, lambda v: v == target), verdict_check(expected))


class Languages:
    """The cfg-parse grammars, loaded once, for ``in_language``."""

    def __init__(self) -> None:
        self.grammars = {name: grammar_from_text(case.text) for name, case in GRAMMARS.items()}
        self.bounds = {name: chain_bound(g).bound for name, g in self.grammars.items()}

    def request(self, case: str, text: str) -> Request:
        g, a, bound = self.grammars[case], Nonterminal(GRAMMARS[case].start), self.bounds[case]

        def run() -> bool:
            return semantics.in_language(expanded_parser(g, a, parse_fuel(len(text), bound)), text)

        def check(outcome: object) -> str | None:
            expected = all(rest == "" for _value, rest in spec_produce(g, a, text))
            return verdict_check(expected)(outcome)

        return Request(f"in_language_{case}", len(text), run, check)


def terminates_request(case: str, text: str) -> Request:
    """The derivative matcher's calls bottom out within ``len(text)`` fuel."""
    r = PATTERNS[case].regex

    def run() -> bool:
        f = dmatch_handled()
        return terminates_in(ALL_ROW, f, f.body(match_input(r, text)), len(text))

    return Request(f"terminates_{case}", len(text), run, verdict_check(True))


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def regex_deriv() -> Workload:
    cells = tuple(
        (case, n) for case in PATTERNS for n in REGEX_SIZES if n <= REGEX_SIZE_CAP.get(case, n)
    )
    return Workload("regex-deriv", cells, _make_regex, REGEX_REACH, base_rounds=2)


def cfg_parse(directory: str) -> Workload:
    files = GrammarFiles(directory)

    def make(rng: random.Random, case: str, n: int, spoil: float | None) -> Request:
        return cfg_request(files, case, grammar_text(rng, GRAMMARS[case], n, spoil))

    cells = tuple((case, n) for case in GRAMMARS for n in CFG_SIZES)
    return Workload("cfg-parse", cells, make, cfg_reach(files), base_rounds=6)


def verify() -> Workload:
    languages = Languages()

    def make(rng: random.Random, case: str, n: int, spoil: float | None) -> Request:
        if case == "refines":
            return refines_request(random_regex(rng, rng.randrange(2, 8)), _random_ab(rng, n))
        if case in ("wp_all", "wp_any"):
            return wp_request(rng, case == "wp_all", n, spoil is not None)
        if case.startswith("in_language_"):
            grammar = case[len("in_language_") :]
            return languages.request(grammar, grammar_text(rng, GRAMMARS[grammar], n, spoil))
        pattern = case[len("terminates_") :]
        return terminates_request(pattern, regex_text(rng, PATTERNS[pattern], n, spoil))

    cells = (
        [("refines", n) for n in REFINES_SIZES]
        + [(case, n) for case in ("wp_all", "wp_any") for n in WP_SIZES]
        + [(f"in_language_{g}", n) for g in GRAMMARS for n in IN_LANGUAGE_SIZES]
        + [(f"terminates_{p}", n) for p in PATTERNS for n in TERMINATES_SIZES]
    )
    return Workload("verify", tuple(cells), make, (), base_rounds=12)


def build(name: str, scratch_dir: str) -> Workload:
    if name == "regex-deriv":
        return regex_deriv()
    if name == "cfg-parse":
        return cfg_parse(scratch_dir)
    return verify()
