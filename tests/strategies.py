"""Hypothesis strategies shared by the property tests."""
from __future__ import annotations

import functools

from hypothesis import strategies as st

from fllp.algebra import GODEL, LUKA
from fllp.inverse import build_inverse_table
from fllp.program import Atom, Conj, Const, Disj, Fact, HedgeApp, Program, Rule, Var

from randprog import random_algebra


@functools.cache
def random_table(seed):
    return build_inverse_table(random_algebra(seed, max_rank=2, max_limit=2)[1])


PREDS = {"p": 1, "q": 2, "r": 1}
TERMS = (Var("X"), Var("Y"), Var("Z"), Const("a"), Const("b"), Const("c"))


def _atom(draw, preds=tuple(PREDS)) -> Atom:
    """An atom over one of ``preds``, its arguments variables or constants."""
    pred = draw(st.sampled_from(preds))
    return Atom(pred, tuple(draw(st.sampled_from(TERMS)) for _ in range(PREDS[pred])))


def _body(draw, hedges, n, depth=2):
    """A rule body over ``hedges``, nested ``depth`` deep at most, its
    leaves atoms or, as library callers may build them, grades in ``0..n``."""
    shape = draw(st.integers(-1, 3 if depth else 0))
    if shape == -1:
        return draw(st.integers(0, n))
    if shape == 0:
        return _atom(draw)
    if shape == 1:
        return HedgeApp(draw(st.sampled_from(hedges)), _body(draw, hedges, n, depth - 1))
    parts = tuple(_body(draw, hedges, n, depth - 1) for _ in range(draw(st.integers(2, 3))))
    return Disj(parts) if shape == 2 else Conj(draw(st.sampled_from((GODEL, LUKA))), parts)


bodies = st.composite(lambda draw, table: _body(draw, sorted(table.columns), table.domain.n))


@st.composite
def programs(draw):
    """A random algebra's table (class sizes drawn apart, so mostly
    asymmetric) and a program over three predicates that call each other
    freely: cycles and left recursion, repeated variables and constants in
    heads, nested ``or``, ``and_g``, ``and_l`` and hedges, grade leaves, both
    rule kinds."""
    table = random_table(draw(st.integers(0, 11)))
    hedges, n = sorted(table.columns), table.domain.n

    statements = [Fact(_atom(draw, ("p", "q")), draw(st.integers(1, n)))
                  for _ in range(draw(st.integers(1, 4)))]
    statements += [Rule(_atom(draw), draw(st.sampled_from((GODEL, LUKA))), _body(draw, hedges, n),
                        draw(st.integers(1, n))) for _ in range(draw(st.integers(1, 4)))]
    return table, Program(tuple(draw(st.permutations(statements))))
