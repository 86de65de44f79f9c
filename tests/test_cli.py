"""Command-line behavior: formats, flags, exit codes, diagnostics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from effparse import cli
from effparse.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def grammar_file(tmp_path: Path):
    def write(text: str, name: str = "g.cfg") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def test_match_default_engine(capsys) -> None:
    # The derivative engine runs on its proven budget and does not read --fuel.
    for fuel in ((), ("--fuel", "0")):
        code, out, err = run_cli(capsys, "match", *fuel, "a*", "aa")
        assert (code, out, err) == (0, "(list (char a) (char a))\n", "")


def test_match_no_results_is_exit_one(capsys) -> None:
    code, out, err = run_cli(capsys, "match", "\\0", "")
    assert (code, out, err) == (1, "", "")


def test_match_syntax_error_is_exit_two(capsys) -> None:
    code, out, err = run_cli(capsys, "match", "(", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "column 2" in err


def test_match_structural_engine_with_fuel(capsys) -> None:
    code, out, err = run_cli(
        capsys, "match", "a*", "aa", "--engine", "structural", "--fuel", "3"
    )
    assert (code, out, err) == (0, "(list (char a) (char a))\n", "")


def test_match_structural_star_needs_fuel(capsys) -> None:
    code, out, err = run_cli(capsys, "match", "a*", "aa", "--engine", "structural")
    assert code == 2
    assert out == ""
    assert "--fuel" in err


def test_match_structural_fuel_exhaustion(capsys) -> None:
    code, out, err = run_cli(
        capsys, "match", "\\e*", "a", "--engine", "structural", "--fuel", "5"
    )
    assert code == 3
    assert out == ""
    assert err == "error: fuel exhausted\n"


def test_match_structural_keeps_ambiguity(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "match", "a|a", "a", "--engine", "structural", "--fuel", "0"
    )
    assert code == 0
    assert out == "(inl (char a))\n(inr (char a))\n"


def test_match_json_lines(capsys) -> None:
    code, out, _ = run_cli(capsys, "match", "a*", "aa", "--format", "json-lines")
    assert code == 0
    assert out == '["list",["char","a"],["char","a"]]\n'


def test_match_max_results_truncates_but_counts(capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "match", "a|a", "a",
        "--engine", "structural", "--fuel", "0", "--max-results", "1",
    )
    assert code == 0
    assert out == "(inl (char a))\n"
    assert err == "2 results, showing 1\n"


def test_match_max_results_zero_still_reports_found(capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "match", "a|a", "a",
        "--engine", "structural", "--fuel", "0", "--max-results", "0",
    )
    assert code == 0
    assert out == ""
    assert err == "2 results, showing 0\n"


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_chains(capsys) -> None:
    assert run_cli(capsys, "derive", "a", "a") == (0, "a\n\\e\nnullable: yes\n", "")
    assert run_cli(capsys, "derive", "\\e", "a") == (0, "\\e\n\\0\nnullable: no\n", "")
    assert run_cli(capsys, "derive", "a*", "a") == (0, "a*\n\\e a*\nnullable: yes\n", "")


def test_derive_syntax_error(capsys) -> None:
    code, out, err = run_cli(capsys, "derive", "a|", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# cfg-check
# ---------------------------------------------------------------------------


def test_cfg_check_reports_bound(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a' E | 'b'\n")
    assert run_cli(capsys, "cfg-check", path) == (0, "bound: 1\n", "")


def test_cfg_check_reports_links(capsys, grammar_file) -> None:
    path = grammar_file("S -> A 'x'\nA -> 'a'\n")
    code, out, err = run_cli(capsys, "cfg-check", path)
    assert (code, err) == (0, "")
    assert out == "link: S -> A (production 0)\nbound: 2\n"


def test_cfg_check_reports_cycles(capsys, grammar_file) -> None:
    path = grammar_file("E -> E '+' E | '1'\n")
    code, out, err = run_cli(capsys, "cfg-check", path)
    assert (code, err) == (1, "")
    assert out == "link: E -> E (production 0)\ncyclic: E -> E\n"


def test_cfg_check_undefined_nonterminal(capsys, grammar_file) -> None:
    path = grammar_file("X -> Y\n")
    code, out, err = run_cli(capsys, "cfg-check", path)
    assert code == 2
    assert out == ""
    assert "Y" in err


def test_cfg_check_missing_file(capsys, tmp_path) -> None:
    code, out, err = run_cli(capsys, "cfg-check", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# cfg-parse
# ---------------------------------------------------------------------------


def test_cfg_parse_prints_full_parses(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a' E | 'b'\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "E", "ab")
    assert (code, out, err) == (0, "(node E 0 (node E 1))\n", "")


def test_cfg_parse_partial_parse_is_exit_one(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a' E | 'b'\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "E", "ba")
    assert (code, out, err) == (1, "", "")


def test_cfg_parse_epsilon_production_on_empty_input(capsys, grammar_file) -> None:
    path = grammar_file("E ->\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "E", "")
    assert (code, out, err) == (0, "(node E 0)\n", "")


def test_cfg_parse_json_lines(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a' E | 'b'\n")
    code, out, _ = run_cli(capsys, "cfg-parse", path, "E", "ab", "--format", "json-lines")
    assert code == 0
    assert out == '["node","E",0,["node","E",1]]\n'


def test_cfg_parse_cyclic_without_fuel(capsys, grammar_file) -> None:
    path = grammar_file("E -> E '+' E | '1'\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "E", "1+1")
    assert code == 1
    assert out == ""
    assert err == "cyclic: E -> E\n"


def test_cfg_parse_cyclic_with_fuel_exhausts(capsys, grammar_file) -> None:
    path = grammar_file("E -> E '+' E | '1'\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "E", "1+1", "--fuel", "8")
    assert code == 3
    assert out == ""
    assert err == "error: fuel exhausted\n"


def test_cfg_parse_fuel_override_runs_acyclic_grammars(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a' E | 'b'\n")
    code, out, _ = run_cli(capsys, "cfg-parse", path, "E", "ab", "--fuel", "10")
    assert (code, out) == (0, "(node E 0 (node E 1))\n")


def test_cfg_parse_nullable_sequence_exit_codes(capsys, grammar_file) -> None:
    # Calls of nullable nonterminals one after another at one position
    # outrun the proven budget; a larger --fuel finishes with no parse.
    path = grammar_file("S -> A A 'a' |\nA -> | 'b' A S\n")
    code, out, err = run_cli(capsys, "cfg-parse", path, "S", "bb")
    assert (code, out) == (3, "")
    assert err == "error: grammar parsing ran out of fuel despite an acyclic chain analysis\n"
    assert run_cli(capsys, "cfg-parse", path, "S", "bb", "--fuel", "40") == (1, "", "")


def test_cfg_parse_max_results_renders_only_what_it_prints(capsys, grammar_file, monkeypatch) -> None:
    # 2**6 parses of "a" * 6; only the one printed is rendered.
    path = grammar_file("S -> 'a' S | 'a' T |\nT -> 'a' S | 'a' T |\n")
    rendered = []

    def render(node, as_json):
        rendered.append(node)
        return "parse"

    monkeypatch.setattr(cli, "format_sem_value", render)
    code, out, err = run_cli(capsys, "cfg-parse", path, "S", "a" * 6, "--max-results", "1")
    assert (code, out, err) == (0, "parse\n", "64 results, showing 1\n")
    assert len(rendered) == 1


def test_cfg_parse_undefined_start_is_exit_two(capsys, grammar_file) -> None:
    path = grammar_file("S -> '(' S ')' S |\n")
    for extra in ((), ("--fuel", "3")):
        code, out, err = run_cli(capsys, "cfg-parse", path, "s", "()", *extra)
        assert (code, out) == (2, "")
        assert err == "error: start nonterminal 's' is never defined\n"


def test_cfg_parse_empty_start_is_exit_two(capsys, grammar_file) -> None:
    path = grammar_file("E -> 'a'\n")
    for extra in ((), ("--fuel", "3")):
        code, out, err = run_cli(capsys, "cfg-parse", path, "", "aa", *extra)
        assert (code, out) == (2, "")
        assert err == "error: nonterminal names are nonempty\n"


@pytest.mark.parametrize("command", [("cfg-check",), ("cfg-parse", "E", "a")], ids=["cfg-check", "cfg-parse"])
def test_grammar_file_that_is_not_utf8_is_exit_two(capsys, tmp_path: Path, command: tuple[str, ...]) -> None:
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"E -> '\xff'\n")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not UTF-8" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------


def test_usage_errors_are_exit_two(capsys) -> None:
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "match", "a", "a", "--fuel", "-1")[0] == 2
    assert run_cli(capsys, "match", "a", "a", "--fuel", "x")[0] == 2
    assert run_cli(capsys, "match", "a", "a", "--engine", "warp")[0] == 2


def test_run_as_a_module_writes_only_its_own_stderr() -> None:
    """``python -m effparse.cli`` runs a module that importing the package
    did not already load, so Python prints no warning before the CLI runs."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "effparse.cli", "match", "a", "a"],
        env=env, capture_output=True, timeout=60, check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"(char a)\n", b"")


def test_importing_the_package_leaves_the_cli_for_first_use() -> None:
    """``import effparse`` loads neither ``effparse.cli`` nor argparse;
    ``effparse.cli`` loads when it is first named."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    script = (
        "import sys, effparse\n"
        "print(sorted({'argparse', 'effparse.cli'} & set(sys.modules)))\n"
        "print(effparse.cli.main.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[]\neffparse.cli\n", b"")
