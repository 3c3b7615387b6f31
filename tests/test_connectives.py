from __future__ import annotations

import pytest

from fllp.connectives import GODEL, KINDS, LUKA, implicator, t_norm

N = 44
GRID = range(0, N + 1, 4)


@pytest.mark.parametrize("kind", KINDS)
def test_t_norm_laws(kind):
    for i in range(N + 1):
        for j in range(N + 1):
            v = t_norm(kind, i, j, N)
            assert 0 <= v <= N
            assert v == t_norm(kind, j, i, N)
            assert v <= min(i, j)
    for i in range(N + 1):
        assert t_norm(kind, i, N, N) == i  # top is the unit
        assert t_norm(kind, i, 0, N) == 0  # bottom annihilates


@pytest.mark.parametrize("kind", KINDS)
def test_t_norm_is_associative_and_monotone(kind):
    for i in GRID:
        for j in GRID:
            for k in GRID:
                assert t_norm(kind, t_norm(kind, i, j, N), k, N) == t_norm(
                    kind, i, t_norm(kind, j, k, N), N
                )
            assert all(
                t_norm(kind, i, j, N) <= t_norm(kind, i2, j, N)
                for i2 in GRID
                if i2 >= i
            )


def test_the_two_t_norms_bracket_each_other():
    for i in range(N + 1):
        for j in range(N + 1):
            assert t_norm(LUKA, i, j, N) <= t_norm(GODEL, i, j, N)


@pytest.mark.parametrize("kind", KINDS)
def test_implicator_values(kind):
    for head in GRID:
        for body in GRID:
            r = implicator(kind, head, body, N)
            if body <= head:
                assert r == N
            elif kind == GODEL:
                assert r == head
            else:
                assert r == N + head - body


@pytest.mark.parametrize("kind", KINDS)
def test_adjointness_on_a_grid(kind):
    # conj(body, r) <= head  iff  r <= impl(head, body)
    for head in GRID:
        for body in GRID:
            bound = implicator(kind, head, body, N)
            for r in range(N + 1):
                assert (t_norm(kind, body, r, N) <= head) == (r <= bound)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        t_norm("product", 1, 2, N)
    with pytest.raises(ValueError):
        implicator("product", 1, 2, N)
