"""Construction rules and monad laws for the computation trees."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from effparse.cfg import Nonterminal, SemValue
from effparse.core import (
    FALSE,
    Bool,
    NONDET_ROW,
    PARSER_ROW,
    TRUE,
    UNIT,
    Ch,
    Command,
    CommandKind,
    Computation,
    EffectId,
    EffectRow,
    Op,
    PairV,
    Pure,
    RowError,
    Str,
    bind,
    call,
    choice,
    choices,
    fail,
    fmap,
    pure,
    symbol_maybe,
    symbol_strict,
)
from effparse.semantics import results_demonic

from helpers import CONTINUATIONS, VALUE_MAPS, random_nondet


def observed(m: Computation) -> tuple:
    """Observational content of a nondeterminism computation."""
    return results_demonic(m)


# ---------------------------------------------------------------------------
# Values and commands
# ---------------------------------------------------------------------------


def test_ch_holds_exactly_one_character() -> None:
    assert Ch("a").char == "a"
    with pytest.raises(ValueError):
        Ch("ab")
    with pytest.raises(ValueError):
        Ch("")


def test_command_kind_must_belong_to_effect() -> None:
    Command(EffectId.NONDET, CommandKind.CHOICE)
    Command(EffectId.NONDET, CommandKind.FAIL)
    Command(EffectId.PARSER_STRICT, CommandKind.SYMBOL)
    Command(EffectId.REC, CommandKind.CALL, Str("x"))
    with pytest.raises(ValueError):
        Command(EffectId.NONDET, CommandKind.SYMBOL)
    with pytest.raises(ValueError):
        Command(EffectId.REC, CommandKind.CHOICE)


def test_only_calls_carry_payloads() -> None:
    with pytest.raises(ValueError):
        Command(EffectId.NONDET, CommandKind.CHOICE, Str("x"))
    assert Command(EffectId.REC, CommandKind.CALL, Str("x")).payload == Str("x")


# ---------------------------------------------------------------------------
# Rows and operation nodes
# ---------------------------------------------------------------------------


def test_rows_reject_duplicate_effects() -> None:
    with pytest.raises(RowError):
        EffectRow((EffectId.NONDET, EffectId.NONDET))


def test_op_command_effect_must_be_in_its_row() -> None:
    cmd = Command(EffectId.PARSER_STRICT, CommandKind.SYMBOL)
    Op(PARSER_ROW, cmd, Pure)
    with pytest.raises(RowError, match="parser_strict"):
        Op(NONDET_ROW, cmd, Pure)
    with pytest.raises(RowError):
        Op(EffectRow(()), cmd, Pure)
    # Every way of building one runs the check: keywords, replace, and
    # copies and pickles, which rebuild through the constructor.
    op = Op(row=PARSER_ROW, command=cmd, resume=Pure)
    with pytest.raises(RowError):
        Op(row=NONDET_ROW, command=cmd, resume=Pure)
    with pytest.raises(RowError):
        dataclasses.replace(op, row=NONDET_ROW)
    assert op.__reduce__() == (Op, (PARSER_ROW, cmd, Pure))


def test_ops_compare_by_identity() -> None:
    a, b = fail(), fail()
    assert a == a
    assert a != b
    assert hash(a) == object.__hash__(a)


def test_hot_nodes_keep_the_frozen_dataclass_contracts() -> None:
    """``Pure``, ``Op`` and ``SemValue`` are built without the
    dataclass ``__init__`` but keep what it gave: frozen fields, ``==``,
    ``hash`` and ``repr`` from the fields, ``dataclasses.fields`` and
    ``replace``, weak references, copies and pickles."""
    cmd = Command(EffectId.PARSER_STRICT, CommandKind.SYMBOL)
    value, op = Pure(Ch("a")), Op(PARSER_ROW, cmd, Pure)
    S = Nonterminal("S")
    leaf = SemValue(S, 1, ())
    sem = SemValue(S, 0, (leaf,))
    fields = {
        value: ("value",),
        op: ("row", "command", "resume"),
        sem: ("nt", "production", "children"),
    }
    for hot, names in fields.items():
        assert tuple(f.name for f in dataclasses.fields(hot)) == names
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(hot, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(hot, name)
        assert weakref.ref(hot)() is hot and not hasattr(hot, "__dict__")
    assert value == Pure(Ch("a")) and hash(value) == hash(Pure(Ch("a"))) == hash((Ch("a"),))
    assert value != Pure(Ch("b")) and value != Ch("a")
    assert repr(value) == "Pure(value=Ch(char='a'))"
    assert repr(op) == f"Op(row={PARSER_ROW!r}, command={cmd!r}, resume={Pure!r})"
    twin = SemValue(Nonterminal("S"), 0, (SemValue(Nonterminal("S"), 1, ()),))
    assert sem == twin and hash(sem) == hash(twin) == hash((S, 0, (leaf,)))
    assert sem != leaf and sem != (S, 0, (leaf,))
    assert repr(leaf) == "SemValue(nt=Nonterminal(name='S'), production=1, children=())"
    assert repr(sem) == f"SemValue(nt={S!r}, production=0, children=({leaf!r},))"
    assert dataclasses.replace(value, value=Ch("b")) == Pure(Ch("b"))
    assert dataclasses.replace(sem, production=2) == SemValue(S, 2, (leaf,))
    for equal in (value, sem):
        for clone in (copy.copy(equal), copy.deepcopy(equal), pickle.loads(pickle.dumps(equal))):
            assert clone == equal and clone is not equal
    for clone in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert clone is not op and clone != op
        assert (clone.row, clone.command, clone.resume) == (PARSER_ROW, cmd, Pure)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def test_choice_infers_row_from_either_branch() -> None:
    assert choice(pure(UNIT), pure(UNIT)).row == NONDET_ROW
    assert choice(fail(PARSER_ROW), pure(UNIT)).row == PARSER_ROW
    assert choice(pure(UNIT), fail(PARSER_ROW)).row == PARSER_ROW
    assert choice(pure(UNIT), pure(UNIT), PARSER_ROW).row == PARSER_ROW


def test_choice_resumes_true_left_false_right() -> None:
    m = choice(pure(Ch("l")), pure(Ch("r")))
    assert m.resume(TRUE) == Pure(Ch("l"))
    assert m.resume(FALSE) == Pure(Ch("r"))
    # Equal booleans built elsewhere pick the same branches as the constants.
    assert Bool(True) is not TRUE and Bool(False) is not FALSE
    assert m.resume(Bool(True)) is m.resume(TRUE)
    assert m.resume(Bool(False)) is m.resume(FALSE)


def test_choices_of_nothing_is_fail() -> None:
    m = choices([])
    assert isinstance(m, Op)
    assert m.command.kind is CommandKind.FAIL
    with pytest.raises(AssertionError):
        m.resume(UNIT)


def test_choices_preserves_branch_order() -> None:
    m = choices([pure(Ch(c)) for c in "abc"])
    assert observed(m) == ((Ch("a"), None), (Ch("b"), None), (Ch("c"), None))


def test_symbol_and_call_constructors_pick_their_row_slot() -> None:
    row = EffectRow((EffectId.REC, EffectId.PARSER_MAYBE, EffectId.NONDET))
    assert symbol_maybe(row).command.effect is EffectId.PARSER_MAYBE
    assert call(row, Str("f")).command.effect is EffectId.REC
    assert call(row, Str("f")).command.payload == Str("f")
    assert symbol_strict(PARSER_ROW).command.effect is EffectId.PARSER_STRICT
    with pytest.raises(RowError):
        symbol_strict(NONDET_ROW)


# ---------------------------------------------------------------------------
# Monad laws, observationally
# ---------------------------------------------------------------------------


def test_bind_left_identity() -> None:
    for k in CONTINUATIONS:
        for v in (UNIT, Ch("a"), Str("xy")):
            assert observed(bind(pure(v), k)) == observed(k(v))


def test_bind_right_identity() -> None:
    rng = random.Random(7)
    for _ in range(50):
        m = random_nondet(rng, rng.randrange(1, 8))
        assert observed(bind(m, pure)) == observed(m)


def test_bind_associativity() -> None:
    rng = random.Random(11)
    for round_number in range(50):
        m = random_nondet(rng, rng.randrange(1, 8))
        f = CONTINUATIONS[round_number % len(CONTINUATIONS)]
        g = CONTINUATIONS[(round_number + 2) % len(CONTINUATIONS)]
        lhs = bind(bind(m, f), g)
        rhs = bind(m, lambda v: bind(f(v), g))
        assert observed(lhs) == observed(rhs)


def test_fmap_is_bind_then_pure() -> None:
    rng = random.Random(13)
    for round_number in range(30):
        m = random_nondet(rng, rng.randrange(1, 8))
        g = VALUE_MAPS[round_number % len(VALUE_MAPS)]
        assert observed(fmap(g, m)) == observed(bind(m, lambda v: pure(g(v))))


def test_bind_grafts_lazily_under_ops() -> None:
    # Binding onto an op node must not invoke the continuation eagerly.
    calls: list[str] = []

    def k(v):
        calls.append("hit")
        return pure(v)

    m = bind(choice(pure(UNIT), fail()), k)
    assert calls == []
    assert observed(m) == ((UNIT, None),)
    assert calls == ["hit"]


def test_queued_continuations_run_in_bind_order() -> None:
    """Each step appends its tag, so a result spells the order steps ran in.

    Steps are appended to one queue (``bind`` on a bound op), run a queue of
    their own from inside another (a continuation returning a bound op),
    or nest a whole chain inside a continuation.
    """

    def tagged(tag: str):
        return lambda v: Str(v.text + tag)

    def chain(v, n: int, tag: str):
        if n == 0:
            return pure(v)
        return fmap(tagged(tag), bind(choice(pure(v), fail()), lambda w: chain(w, n - 1, tag)))

    rng = random.Random(41)
    for _ in range(60):
        m = choice(pure(Str("")), pure(Str("-")))
        expected = ""
        for i in range(rng.randrange(1, 40)):
            tag, kind = "abcdefghij"[i % 10], rng.randrange(3)
            if kind == 0:
                m = fmap(tagged(tag), m)
                expected += tag
            elif kind == 1:
                m = bind(m, lambda v, tag=tag: fmap(tagged(tag), fmap(tagged("."), choice(pure(v), fail()))))
                expected += "." + tag
            else:
                depth = rng.randrange(1, 5)
                m = bind(m, lambda v, n=depth, tag=tag: chain(v, n, tag))
                expected += tag * depth
        assert observed(m) == ((Str(expected), None), (Str("-" + expected), None))


@given(st.lists(st.sampled_from("ab"), max_size=6))
def test_choices_results_mirror_the_branch_list(chars: list[str]) -> None:
    m = choices([pure(Ch(c)) for c in chars])
    assert observed(m) == tuple((Ch(c), None) for c in chars)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9))
def test_bind_right_identity_generated(seed: int, size: int) -> None:
    m = random_nondet(random.Random(seed), size)
    assert observed(bind(m, pure)) == observed(m)
