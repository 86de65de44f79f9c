"""Command-line front end: match, derive, cfg-check, cfg-parse.

Batch commands with deterministic, byte-stable output: results go to
stdout one per line, diagnostics to stderr.  Exit codes are uniform across
commands: 0 when results were found (or the check passed), 1 when there
were none (or the grammar was rejected), 2 for syntax or usage errors, and
3 when a fuel budget ran out.  Each ``cmd_*`` function takes the parsed
arguments, returns 0 or 1 and raises on anything else; :func:`main` alone
maps those errors to exit codes, printing ``error: …`` on stderr.
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
    _cycle_text,
    chain_bound,
    filter_lhs,
    format_sem_value,
    grammar_from_text,
    parse_full,
)
from .handlers import Done, Exhausted, TerminationInvariantError, run_with_fuel
from .regex import (
    RegexSyntaxError,
    derivatives,
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


class _UsageError(ValueError):
    """Options that cannot run together; exits 2."""


class _FuelExhausted(RuntimeError):
    """A ``--fuel`` budget ran out; exits 3."""


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


def cmd_match(args: argparse.Namespace) -> int:
    """Print one parse-tree witness per line for the input against the pattern.

    Raises :class:`~effparse.regex.RegexSyntaxError` on a malformed pattern,
    and, on the structural engine, a usage error for a starred pattern
    without ``--fuel`` and a fuel error when ``--fuel`` runs out.
    """
    r = parse_regex(args.pattern)
    if args.engine == "structural":
        if not has_no_star(r) and args.fuel is None:
            raise _UsageError("the structural engine needs --fuel for patterns with '*'")
        outcome = run_with_fuel(match_fn(), match_input(r, args.input), args.fuel or 0)
        if not isinstance(outcome, Done):
            raise _FuelExhausted("fuel exhausted")
        trees = [value for value, _state in outcome.results]
    else:
        trees = dmatch_run(r, args.input)
    as_json = args.format == "json-lines"
    # No witness comes twice: the derivative engine gives at most one, and
    # a structural witness fixes its own choice path.
    return _emit_results(trees, lambda t: format_tree(t, as_json), args.max_results)


def cmd_derive(args: argparse.Namespace) -> int:
    """Print the derivative chain of the pattern along the input, then nullability.

    Raises :class:`~effparse.regex.RegexSyntaxError` on a malformed pattern.
    """
    r = parse_regex(args.pattern)
    print(format_regex(r))
    for r in derivatives(r, args.input):
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


def cmd_cfg_check(args: argparse.Namespace) -> int:
    """Report the grammar's left-recursion links and chain bound (or cycle).

    Raises :class:`~effparse.cfg.GrammarError` when the grammar file cannot
    be loaded.
    """
    report = chain_bound(_load_grammar(args.grammar))
    for source, target, index in report.links:
        print(f"link: {source.name} -> {target.name} (production {index})")
    if report.cycle is not None:
        print(f"cyclic: {_cycle_text(report.cycle)}")
        return 1
    print(f"bound: {report.bound}")
    return 0


def cmd_cfg_parse(args: argparse.Namespace) -> int:
    """Print one derivation per full parse of the input from the start symbol.

    Only parses of the whole input are computed (:func:`~effparse.cfg.parse_full`),
    on the proven budget or on ``--fuel``, so on right recursion the run
    takes time linear in the input rather than quadratic.  A cyclic grammar
    without ``--fuel`` prints its cycle and returns 1.  Raises
    :class:`~effparse.cfg.GrammarError` when the grammar file cannot be
    loaded or the start symbol is empty or has no production,
    :class:`~effparse.handlers.TerminationInvariantError` when the proven
    budget runs out, and a fuel error when ``--fuel`` runs out.
    """
    grammar = _load_grammar(args.grammar)
    a = Nonterminal(args.start)
    if not filter_lhs(grammar, a):
        # It would parse nothing, as an undefined right-hand-side name would.
        raise UndefinedNonterminalError(f"start nonterminal {args.start!r} is never defined")
    try:
        parses = parse_full(grammar, a, args.input, args.fuel)
    except CyclicGrammarError as error:
        print(f"cyclic: {_cycle_text(error.cycle)}", file=sys.stderr)
        return 1
    if isinstance(parses, Exhausted):
        raise _FuelExhausted("fuel exhausted")
    as_json = args.format == "json-lines"
    # Each derivation fixes its own choice path, so none comes twice.
    return _emit_results(parses, lambda node: format_sem_value(node, as_json), args.max_results)


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

    # Each command names the function that runs it, which main calls.
    match_p = commands.add_parser("match", help="match a string against a regex")
    match_p.set_defaults(run=cmd_match)
    match_p.add_argument("pattern", help="regex in the concrete syntax")
    match_p.add_argument("input", help="string to match")
    match_p.add_argument("--engine", choices=["structural", "derivative"], default="derivative")
    match_p.add_argument("--fuel", type=_natural, default=None, help="recursion budget")

    derive_p = commands.add_parser("derive", help="show a derivative chain")
    derive_p.set_defaults(run=cmd_derive)
    derive_p.add_argument("pattern")
    derive_p.add_argument("input")

    check_p = commands.add_parser("cfg-check", help="analyse a grammar's left recursion")
    check_p.set_defaults(run=cmd_cfg_check)
    check_p.add_argument("grammar", help="path to a grammar file")

    parse_p = commands.add_parser("cfg-parse", help="parse a string with a grammar")
    parse_p.set_defaults(run=cmd_cfg_parse)
    parse_p.add_argument("grammar", help="path to a grammar file")
    parse_p.add_argument("start", help="start nonterminal")
    parse_p.add_argument("input", help="string to parse")
    parse_p.add_argument("--fuel", type=_natural, default=None, help="recursion budget override")

    # The two commands that list results; added after each --fuel, so
    # --help lists the options in that order.
    for listing in (match_p, parse_p):
        listing.add_argument("--format", choices=["sexpr", "json-lines"], default="sexpr")
        listing.add_argument("--max-results", type=_natural, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    A command returns 0 when it found results (or its check passed) and 1
    when it found none (or the grammar is cyclic); every other outcome it
    raises, and this maps it: a malformed pattern, a grammar that cannot
    be loaded, a start nonterminal it does not define, or a starred
    pattern on the structural engine without ``--fuel`` exits 2, and a
    ``--fuel`` or proven budget that runs out exits 3, each with
    ``error: …`` on stderr.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except (RegexSyntaxError, GrammarError, _UsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (TerminationInvariantError, _FuelExhausted) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
