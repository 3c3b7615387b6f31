"""Graded conjunctions and their residual implicators, on domain indices.

With the domain enumerated as v0 < ... < vn, both connective families work
directly on indices.  Each conjunction is paired with the implicator that
satisfies the adjointness property

    conj(b, r) <= h   iff   r <= impl(h, b)

which is what makes rule application sound in both evaluation directions.
"""

from __future__ import annotations

GODEL = "godel"
LUKA = "luka"

KINDS = (GODEL, LUKA)


def t_norm(kind: str, i: int, j: int, n: int) -> int:
    """Conjunction of indices i and j in a domain topping out at n."""
    if kind == GODEL:
        return min(i, j)
    if kind == LUKA:
        return max(i + j - n, 0)
    raise ValueError(f"unknown connective kind: {kind!r}")


def implicator(kind: str, head: int, body: int, n: int) -> int:
    """Largest r with t_norm(kind, body, r) <= head."""
    if kind == GODEL:
        return n if body <= head else head
    if kind == LUKA:
        return n if body <= head else n + head - body
    raise ValueError(f"unknown connective kind: {kind!r}")
