"""Command-line front end: match, derive, cfg-check, cfg-parse.

Batch commands with deterministic, byte-stable output: results go to
stdout one per line, diagnostics to stderr.  Exit codes are uniform across
commands: 0 when results were found (or the check passed), 1 when there
were none (or the grammar was rejected), 2 for syntax or usage errors, and
3 when a fuel budget ran out.  The ``cmd_*`` functions return the codes of
their own outcomes and raise on bad input; :func:`main` alone maps those
errors to exit codes, printing ``error: …`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from .cfg import (
    CyclicGrammarError,
    Grammar,
    GrammarError,
    Nonterminal,
    UndefinedNonterminalError,
    chain_bound,
    filter_lhs,
    format_sem_value,
    grammar_from_text,
    parse_full,
)
from .handlers import Done, Exhausted, TerminationInvariantError, run_with_fuel
from .regex import (
    RegexSyntaxError,
    derivative,
    dmatch_run,
    format_regex,
    format_tree,
    has_no_star,
    match_fn,
    match_input,
    nullable,
    parse_regex,
)

__all__ = ["cmd_cfg_check", "cmd_cfg_parse", "cmd_derive", "cmd_match", "main"]


def _emit_results(results: Sequence[Any], render: Callable[[Any], str], max_results: int | None) -> int:
    """Print ``results`` one line each by ``render``, or only the first
    ``max_results`` with the total on stderr; only printed ones are rendered."""
    total = len(results)
    shown = results
    if max_results is not None and total > max_results:
        shown = results[:max_results]
        print(f"{total} results, showing {len(shown)}", file=sys.stderr)
    for result in shown:
        print(render(result))
    return 0 if total else 1


def cmd_match(pattern: str, text: str, fuel: int | None, engine: str, as_json: bool, max_results: int | None) -> int:
    """Print one parse-tree witness per line for ``text`` against ``pattern``.

    Raises :class:`~effparse.regex.RegexSyntaxError` on a malformed pattern.
    """
    r = parse_regex(pattern)
    if engine == "structural":
        if not has_no_star(r) and fuel is None:
            print(
                "error: the structural engine needs --fuel for patterns with '*'",
                file=sys.stderr,
            )
            return 2
        outcome = run_with_fuel(match_fn(), match_input(r, text), fuel or 0)
        if not isinstance(outcome, Done):
            print("error: fuel exhausted", file=sys.stderr)
            return 3
        trees = [value for value, _state in outcome.results]
    else:
        trees = dmatch_run(r, text)
    # No witness comes twice: the derivative engine gives at most one, and
    # a structural witness fixes its own choice path.
    return _emit_results(trees, lambda t: format_tree(t, as_json), max_results)


def cmd_derive(pattern: str, text: str) -> int:
    """Print the derivative chain of ``pattern`` along ``text``, then nullability.

    Raises :class:`~effparse.regex.RegexSyntaxError` on a malformed pattern.
    """
    r = parse_regex(pattern)
    print(format_regex(r))
    for c in text:
        r = derivative(r, c)
        print(format_regex(r))
    print(f"nullable: {'yes' if nullable(r) is not None else 'no'}")
    return 0


def _load_grammar(path: str) -> Grammar:
    """The grammar in the file at ``path``; raises :class:`GrammarError`
    when the file cannot be read, is not UTF-8, or is not a grammar."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise GrammarError(str(error)) from error
    except UnicodeDecodeError as error:
        raise GrammarError(f"{path}: not UTF-8 text ({error.reason} at byte {error.start})") from error
    return grammar_from_text(source)


def _cycle_text(cycle: tuple[Nonterminal, ...]) -> str:
    return " -> ".join(nt.name for nt in cycle)


def cmd_cfg_check(path: str) -> int:
    """Report the grammar's left-recursion links and chain bound (or cycle).

    Raises :class:`~effparse.cfg.GrammarError` when the grammar file cannot
    be loaded.
    """
    report = chain_bound(_load_grammar(path))
    for source, target, index in report.links:
        print(f"link: {source.name} -> {target.name} (production {index})")
    if report.cycle is not None:
        print(f"cyclic: {_cycle_text(report.cycle)}")
        return 1
    print(f"bound: {report.bound}")
    return 0


def cmd_cfg_parse(path: str, start: str, text: str, fuel: int | None, as_json: bool, max_results: int | None) -> int:
    """Print one derivation per full parse of ``text`` from ``start``.

    Only parses of the whole input are computed (:func:`~effparse.cfg.parse_full`),
    on the proven budget or on ``--fuel``, so on right recursion the run
    takes time linear in the input rather than quadratic.  A cyclic grammar
    without ``--fuel`` prints its cycle and returns 1.  Raises
    :class:`~effparse.cfg.GrammarError` when the grammar file cannot be
    loaded or ``start`` is empty or has no production, and
    :class:`~effparse.handlers.TerminationInvariantError` when the proven
    budget runs out.
    """
    grammar = _load_grammar(path)
    a = Nonterminal(start)
    if not filter_lhs(grammar, a):
        # It would parse nothing, as an undefined right-hand-side name would.
        raise UndefinedNonterminalError(f"start nonterminal {start!r} is never defined")
    try:
        parses = parse_full(grammar, a, text, fuel)
    except CyclicGrammarError as error:
        print(f"cyclic: {_cycle_text(error.cycle)}", file=sys.stderr)
        return 1
    if isinstance(parses, Exhausted):
        print("error: fuel exhausted", file=sys.stderr)
        return 3
    # Each derivation fixes its own choice path, so none comes twice.
    return _emit_results(parses, lambda node: format_sem_value(node, as_json), max_results)


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from error
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effparse",
        description="Regex and CFG parsing with parse-tree witnesses.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    match_p = commands.add_parser("match", help="match a string against a regex")
    match_p.add_argument("pattern", help="regex in the concrete syntax")
    match_p.add_argument("input", help="string to match")
    match_p.add_argument("--engine", choices=["structural", "derivative"], default="derivative")
    match_p.add_argument("--fuel", type=_natural, default=None, help="recursion budget")
    match_p.add_argument("--format", choices=["sexpr", "json-lines"], default="sexpr")
    match_p.add_argument("--max-results", type=_natural, default=None)

    derive_p = commands.add_parser("derive", help="show a derivative chain")
    derive_p.add_argument("pattern")
    derive_p.add_argument("input")

    check_p = commands.add_parser("cfg-check", help="analyse a grammar's left recursion")
    check_p.add_argument("grammar", help="path to a grammar file")

    parse_p = commands.add_parser("cfg-parse", help="parse a string with a grammar")
    parse_p.add_argument("grammar", help="path to a grammar file")
    parse_p.add_argument("start", help="start nonterminal")
    parse_p.add_argument("input", help="string to parse")
    parse_p.add_argument("--fuel", type=_natural, default=None, help="recursion budget override")
    parse_p.add_argument("--format", choices=["sexpr", "json-lines"], default="sexpr")
    parse_p.add_argument("--max-results", type=_natural, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The commands return the codes of their own outcomes, 2 from
    ``cmd_match`` for a starred pattern on the structural engine without
    ``--fuel`` and 3 from ``cmd_match`` and ``cmd_cfg_parse`` when
    ``--fuel`` runs out; the errors they raise are mapped here: a malformed
    pattern, a grammar that cannot be loaded, or a start nonterminal it
    does not define, exits 2, and a proven fuel budget that runs out exits
    3, each with ``error: …`` on stderr.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "match":
            return cmd_match(args.pattern, args.input, args.fuel, args.engine, args.format == "json-lines", args.max_results)
        if args.command == "derive":
            return cmd_derive(args.pattern, args.input)
        if args.command == "cfg-check":
            return cmd_cfg_check(args.grammar)
        assert args.command == "cfg-parse"
        return cmd_cfg_parse(args.grammar, args.start, args.input, args.fuel, args.format == "json-lines", args.max_results)
    except (RegexSyntaxError, GrammarError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except TerminationInvariantError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
