"""The two conjunctions as the engines run them.

``lang.value`` over grade leaves values bodies for the solver's bounds,
``solver._fold`` folds a goal word's resolved parts, and ``fixpoint._compile``
grades rule instances in the least model, each connective folding the
columns of its parts' grades over a batch of instances.  Each must obey the
t-norm laws, agree with the others and with the oracle, and be residuated
with its implicator.
"""
from __future__ import annotations

import functools
from itertools import chain, product

import pytest

from fllp.algebra import GODEL, LUKA
from fllp.fixpoint import _compile
from fllp.lang import Atom, Conj, Rule, value
from fllp.solver import _fold

import oracle

N = 44
GRID = range(0, N + 1, 4)
KINDS = (GODEL, LUKA)


@functools.cache
def _compiled(kind: str, parts: int):
    """Head grade of a rule whose body conjoins ``parts`` atoms under ``kind``,
    with the unit ``N`` as its grade."""
    body = Conj(kind, tuple(Atom(f"p{k}") for k in range(parts)))
    return _compile(Rule(Atom("h"), kind, body, N), {}, N)[0]


FOLDS = {
    "value": lambda kind, *vs: value(Conj(kind, vs), None, {}, N),
    "fold": lambda kind, *vs: functools.reduce(
        lambda acc, v: _fold(Conj(kind, ()), acc, v, N), vs, N),
    "compiled": lambda kind, *vs: _compiled(kind, len(vs))(vs, [range(len(vs))])[0],
}


@pytest.mark.parametrize("kind", KINDS)
def test_t_norm_laws(kind):
    for conj in FOLDS.values():
        for i in range(N + 1):
            for j in range(N + 1):
                v = conj(kind, i, j)
                assert 0 <= v <= N
                assert v == conj(kind, j, i)
                assert v <= min(i, j)
        for i in range(N + 1):
            assert conj(kind, i, N) == i  # top is the unit
            assert conj(kind, i, 0) == 0  # bottom annihilates


@pytest.mark.parametrize("kind", KINDS)
def test_t_norm_is_associative_and_monotone(kind):
    for conj in FOLDS.values():
        for i, j in product(GRID, GRID):
            for k in GRID:
                assert conj(kind, conj(kind, i, j), k) == conj(kind, i, conj(kind, j, k))
            assert all(conj(kind, i, j) <= conj(kind, i2, j) for i2 in GRID if i2 >= i)


def test_the_two_t_norms_bracket_each_other():
    for conj in FOLDS.values():
        for i, j in product(range(N + 1), repeat=2):
            assert conj(LUKA, i, j) <= conj(GODEL, i, j)


@pytest.mark.parametrize("kind", KINDS)
def test_adjointness_on_a_grid(kind):
    # conj(body, r) <= head  iff  r <= impl(head, body)
    for conj in FOLDS.values():
        for head, body in product(GRID, GRID):
            bound = oracle.implicator(kind, head, body, N)
            for r in range(N + 1):
                assert (conj(kind, body, r) <= head) == (r <= bound)


@pytest.mark.parametrize("kind", KINDS)
def test_the_engines_agree_with_the_oracle(kind):
    # three and four parts take the compiled rule's n-part path
    cases = chain(product(range(N + 1), repeat=2), product(GRID, repeat=3),
                  product(GRID[::3], repeat=4))
    for parts in cases:
        want = functools.reduce(lambda acc, v: oracle.conj(kind, acc, v, N), parts, N)
        assert [conj(kind, *parts) for conj in FOLDS.values()] == [want] * len(FOLDS), parts
