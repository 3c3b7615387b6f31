"""Inverse hedge mappings over a finite truth domain.

Applying a hedge to an unknown truth value and asking which values of the
hedged statement are compatible with a given value of the plain statement
leads to one inverse mapping per hedge.  These mappings are required to

  1. cancel the hedge on directly hedged positives (h applied to the
     positive primary maps back to the positive primary),
  2. be monotone over the whole domain, and
  3. shrink pointwise as the hedge grows in the extended order.

They are not unique.  The shift construction, ``_shift_columns``, derives
the positive half of each column by index shifting inside hedge families,
with the three constants as fixed points.  It tracks hedge chains
faithfully but can lose monotonicity on algebras whose positivity matrix
makes deep chains alternate direction; when its result fails validation,
``build_inverse_table`` falls back to positive halves interpolated through
three anchor points (the ends and the cancellation cell), which satisfy
the conditions on every algebra.  Either way one mirror completes the
columns: negation sends domain index ``i`` to ``n - i``, and each negative
half is the reflected positive half of the hedge's opposite-class peer.
Applications can replace individual cells through ``inverse:`` override
rows in the algebra config; two rows that give one cell different targets
are rejected, and a table whose cells the rows changed is validated again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .algebra import (InputError, InverseOverride, TruthDomain, load_algebra_config,
                      read_algebra_config, record)


class InverseTableError(InputError):
    """An inverse table that breaks the mapping conditions."""


# One monotone index map per hedge, aligned with the domain order:
# ``columns`` maps each hedge name to a tuple of domain indices.
InverseMappingTable = record("InverseMappingTable", "domain columns")


# Cells where a weakening hedge cancels the value's innermost hedge while
# outer hedges remain would collapse to the bare positive primary under the
# plain shift construction, discarding the outer context.  For the standard
# two-plus-two hedge system at string limit 2 the shipped tables use the
# reference cells below instead (keyed by extended index of the hedge and
# of the single outer hedge, giving outer and inner extended indices of the
# replacement term).  Other algebra shapes keep the plain construction;
# both variants satisfy the three table conditions.
_REFERENCE_CELLS = {
    (-1, -2): (2, -1),
    (-1, -1): (2, -1),
    (-1, 1): (-2, 1),
    (-1, 2): (-1, 1),
    (-2, 2): (-1, -1),
    (-2, 1): (2, -1),
    (-2, -1): (-2, 1),
    (-2, -2): (-2, 1),
}


def _shift_columns(domain: TruthDomain) -> dict[str, list[int]]:
    """The shift construction: per hedge, its column with the positive half
    and the constants filled in, the cells below W left for :func:`_mirror`.
    The positive half runs over the hedge strings of the positive terms,
    ascending, which ``index`` maps to their domain indices W + 1 to n - 1."""
    alg, w, n = domain.algebra, domain.middle_index, domain.n
    index = dict(zip(alg.terms(True), range(w + 1, n)))
    p, q, low, high = len(alg.plus_hedges), len(alg.minus_hedges), w + 1, n - 1
    # Chain direction over each single-hedge positive term; chains over the
    # bare primary always ascend.
    direction = {0: 1}
    for h in alg.extended_order():
        direction[alg.e_index(h)] = alg.direction(alg.flip(h, None), h)

    def mk(hedges: tuple[str, ...]) -> int:
        """Index of the positive term keeping only the innermost ``limit``
        hedges, so degenerate limits stay in range."""
        return index[hedges[-alg.limit:] if alg.limit else ()]

    def invert_positive(r: int, x: tuple[str, ...]) -> int:
        """Image under the hedge of extended index ``r`` of the positive term
        with hedge string ``x``.  Bounded domains have no room for images at
        W or 1; those are pulled to the nearest positive term, index W + 1
        or n - 1."""
        if not x:
            m = min(p, q)
            if -m <= r <= m:
                return mk((alg.hedge_by_e_index(-r),)) if r else index[()]
            return low if r > 0 else high
        s = alg.e_index(x[-1])  # innermost hedge
        sigma = x[:-1]
        if r == s:
            cell = None
            if (p, q, alg.limit, len(sigma)) == (2, 2, 2, 1):
                cell = _REFERENCE_CELLS.get((r, alg.e_index(sigma[0])))
            return index[tuple(map(alg.hedge_by_e_index, cell or ()))]
        d = s - r
        if d < -q:
            return low
        if d > p:
            return high
        hd = alg.hedge_by_e_index(d)
        if direction[s] == direction[d]:
            return mk(sigma + (hd,))
        if not sigma:
            return mk((hd,))
        t = alg.e_index(sigma[-1])  # hedge adjacent to the cancelled one
        return mk((alg.hedge_by_e_index(max(-q, min(p, -t))), hd))

    return {h: [0] * w + [w, *(invert_positive(r, x) for x in index), n]
            for h in alg.extended_order() for r in [alg.e_index(h)]}


def _mirror(domain: TruthDomain, columns: dict[str, list[int]]) -> dict[str, list[int]]:
    """Fill each column below W through negation, which maps index ``i`` to
    ``n - i``: ``col[i] = n - pair[n - i]``, where ``pair`` is the positive
    half of the hedge's opposite-class peer, the hedge whose extended index
    is the negated one, clamped to the range of the smaller class."""
    alg = domain.algebra
    n, w = domain.n, domain.middle_index
    m = min(len(alg.plus_hedges), len(alg.minus_hedges))
    for h, col in columns.items():
        pair = columns[alg.hedge_by_e_index(max(-m, min(m, -alg.e_index(h))))]
        for i in range(w):
            col[i] = n - pair[n - i]
    return columns


def _hedged_primary(domain: TruthDomain, hedge: str) -> int:
    """Index of ``hedge`` applied to the positive primary (the primary
    itself at limit 0): the cell where the column must cancel."""
    alg = domain.algebra
    return domain.parse_literal(" ".join([hedge][: alg.limit] + [alg.positive_primary]))


def _anchored_columns(domain: TruthDomain) -> dict[str, list[int]]:
    """Fallback columns: per hedge, interpolate the positive side linearly
    through (middle, middle), (x, index of the positive primary) and (top,
    top), where x, the index of the hedged positive primary, lies strictly
    between middle and top."""
    n, w = domain.n, domain.middle_index
    y0 = domain.parse_literal(domain.algebra.positive_primary)
    pos: dict[str, list[int]] = {}
    for h in domain.algebra.extended_order():
        x = _hedged_primary(domain, h)
        pos[h] = [0] * w + [
            w + (v - w) * (y0 - w) // (x - w) if v <= x else y0 + (v - x) * (n - y0) // (n - x)
            for v in range(w, n + 1)
        ]
    return pos


def build_inverse_table(
    domain: TruthDomain, overrides: Iterable[InverseOverride] = ()
) -> InverseMappingTable:
    """Derive the default table, apply overrides, validate, return.

    Raises :class:`InverseTableError` listing every violated condition when
    an override breaks the table, names an unknown hedge or literal, or
    contradicts an earlier row for the same cell.
    """
    alg = domain.algebra
    if not alg.plus_hedges or not alg.minus_hedges:
        raise InverseTableError(["inverse tables need at least one hedge in each class"])
    columns = _mirror(domain, _shift_columns(domain))
    valid = not validate_inverse_table(InverseMappingTable(domain, columns))
    if not valid:
        columns = _mirror(domain, _anchored_columns(domain))

    problems: list[str] = []
    cells: dict[tuple[str, int], tuple[int, int]] = {}
    for ov in overrides:
        if ov.hedge not in columns:
            problems.append(f"line {ov.line}: override names undeclared hedge {ov.hedge!r}")
            continue
        try:
            src = domain.parse_literal(ov.source)
            dst = domain.parse_literal(ov.target)
        except ValueError as exc:
            problems.append(f"line {ov.line}: {exc}")
            continue
        first, line = cells.setdefault((ov.hedge, src), (dst, ov.line))
        if first != dst:
            problems.append(
                f"line {ov.line}: inverse {ov.hedge!r} of {domain.literal(src)!r} "
                f"already set to {domain.literal(first)!r} on line {line}"
            )
        valid = valid and columns[ov.hedge][src] == dst  # a changed cell is checked again
        columns[ov.hedge][src] = dst
    if problems:
        raise InverseTableError(problems)

    table = InverseMappingTable(domain, {h: tuple(c) for h, c in columns.items()})
    violations = [] if valid else validate_inverse_table(table)
    if violations:
        raise InverseTableError(violations)
    return table


def load_config(*paths: str | Path | None, inverse: bool = True) -> tuple:
    """``(algebra, domain, table)`` of the algebra that applies (see
    ``read_algebra_config``), ``table`` None unless ``inverse`` or the config's
    ``inverse:`` rows ask for one; a config file's violations name its path."""
    text, path = read_algebra_config(*paths)
    try:
        algebra, domain, overrides = load_algebra_config(text)
        table = build_inverse_table(domain, overrides) if inverse or overrides else None
    except InputError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {v}" for v in exc.violations) from None
    return algebra, domain, table


def validate_inverse_table(table: InverseMappingTable) -> list[str]:
    """Check the three table conditions plus fixed points and side safety."""
    domain = table.domain
    alg = domain.algebra
    lit, n, w = domain.literal, domain.n, domain.middle_index
    out: list[str] = []

    c_plus = domain.parse_literal(alg.positive_primary)
    for h in alg.extended_order():
        col = table.columns[h]
        hedged = _hedged_primary(domain, h)
        if col[hedged] != c_plus:
            out.append(f"{h!r} must cancel on {lit(hedged)!r}, maps to {lit(col[hedged])!r}")
        for i in range(n):
            if col[i] > col[i + 1]:
                out.append(
                    f"{h!r} is not monotone: {lit(i)!r} -> {lit(col[i])!r} but "
                    f"{lit(i + 1)!r} -> {lit(col[i + 1])!r}"
                )
        for i in (0, w, n):
            if col[i] != i:
                out.append(f"{h!r} must fix {lit(i)!r}, maps to {lit(col[i])!r}")
        for i, j in enumerate(col):
            if (0 < i < w < j) or (w < i < n and j < w):
                out.append(f"{h!r} maps {lit(i)!r} across the middle to {lit(j)!r}")

    # Weaker hedges in the extended order must have pointwise larger images;
    # the identity column sits between the classes.
    ordered = [("identity", range(n + 1)) if h is None else (h, table.columns[h])
               for h in (*reversed(alg.plus_hedges), None, *alg.minus_hedges)]
    for (a, ca), (b, cb) in zip(ordered, ordered[1:]):  # a above b
        for i in range(n + 1):
            if ca[i] > cb[i]:
                out.append(
                    f"{a!r} above {b!r} needs smaller images, but at {lit(i)!r}: "
                    f"{lit(ca[i])!r} > {lit(cb[i])!r}"
                )
    return out
