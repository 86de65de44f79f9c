"""Shared enumerators, deterministic function pools, and sample grammars.

The law tests quantify over computations and continuations; anything
"generated" here is produced by a seeded RNG or an exhaustive enumerator,
and every continuation is a fixed deterministic function — a continuation
that flipped a coin per invocation would not be a function at all.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from effparse.core import (
    NONDET_ROW,
    UNIT,
    Ch,
    Computation,
    PairV,
    Str,
    Value,
    choice,
    fail,
    pure,
)
from effparse.regex import EMPTY, EPSILON, Alt, Cat, Regex, Singleton, Star


def strings_up_to(max_len: int, alphabet: str = "ab") -> list[str]:
    """Every string over ``alphabet`` of length at most ``max_len``."""
    out: list[str] = []
    for n in range(max_len + 1):
        out.extend("".join(chars) for chars in itertools.product(alphabet, repeat=n))
    return out


def regexes_up_to(max_size: int, alphabet: str = "ab", stars: bool = True) -> list[Regex]:
    """Every regex with at most ``max_size`` constructors over ``alphabet``."""
    by_size: dict[int, list[Regex]] = {
        1: [EMPTY, EPSILON, *(Singleton(c) for c in alphabet)]
    }
    for n in range(2, max_size + 1):
        layer: list[Regex] = []
        if stars:
            layer.extend(Star(body) for body in by_size[n - 1])
        for left_size in range(1, n - 1):
            for left in by_size[left_size]:
                for right in by_size[n - 1 - left_size]:
                    layer.append(Alt(left, right))
                    layer.append(Cat(left, right))
        by_size[n] = layer
    return [r for n in range(1, max_size + 1) for r in by_size[n]]


def regex_nodes(chars: str) -> st.SearchStrategy[Regex]:
    """Hypothesis-generated regexes over ``chars``, ``\\0`` and ``\\e``."""
    leaves = st.one_of(
        st.just(EMPTY),
        st.just(EPSILON),
        st.sampled_from([Singleton(c) for c in chars]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Star, inner),
            st.builds(Alt, inner, inner),
            st.builds(Cat, inner, inner),
        ),
        max_leaves=12,
    )


def random_nondet(rng: random.Random, size: int) -> Computation:
    """A random computation over plain nondeterminism with ``size`` leaves."""
    if size <= 1:
        roll = rng.randrange(4)
        if roll == 0:
            return fail(NONDET_ROW)
        if roll == 1:
            return pure(UNIT)
        if roll == 2:
            return pure(Ch(rng.choice("ab")))
        return pure(Str(rng.choice(["", "x", "yz"])))
    left_size = rng.randrange(1, size)
    return choice(
        random_nondet(rng, left_size),
        random_nondet(rng, size - left_size),
        NONDET_ROW,
    )


def _k_wrap(v: Value) -> Computation:
    return pure(PairV(v, UNIT))


def _k_const(_: Value) -> Computation:
    return pure(Ch("z"))


def _k_fail(_: Value) -> Computation:
    return fail(NONDET_ROW)


def _k_branch(v: Value) -> Computation:
    return choice(pure(v), pure(UNIT), NONDET_ROW)


def _k_gate(v: Value) -> Computation:
    return pure(PairV(v, v)) if isinstance(v, Ch) else fail(NONDET_ROW)


#: Deterministic continuations (Value -> Computation) for the monad laws.
CONTINUATIONS = (pure, _k_wrap, _k_const, _k_fail, _k_branch, _k_gate)

#: Deterministic value maps for the functor-shaped laws.
VALUE_MAPS = (
    lambda v: v,
    lambda v: PairV(v, UNIT),
    lambda _: Str("t"),
)


# ---------------------------------------------------------------------------
# The sample grammar family: (name, file text, start symbol, terminal alphabet)
# ---------------------------------------------------------------------------

G_RIGHT_REC = ("E -> 'a' E | 'b'\n", "E", "ab")
G_TWO_LEVEL = ("S -> A 'x'\nA -> 'a'\n", "S", "ax")
G_EXPR = ("E -> '1' T\nT -> '+' E T |\n", "E", "+1")
G_NULLABLE = ("S -> A B\nA -> 'a' |\nB -> 'b'\n", "S", "ab")
G_CHAIN = ("X -> Y 'b'\nY -> Z\nZ -> 'a'\n", "X", "ab")
G_CYCLIC = ("E -> E '+' E | '1'\n", "E", "+1")

#: Acyclic members, for the exhaustive parse-vs-oracle sweeps.
ACYCLIC_FAMILY = (G_RIGHT_REC, G_TWO_LEVEL, G_EXPR, G_NULLABLE, G_CHAIN)
