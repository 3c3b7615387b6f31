"""Inverse hedge mappings over a finite truth domain.

Applying a hedge to an unknown truth value and asking which values of the
hedged statement are compatible with a given value of the plain statement
leads to one inverse mapping per hedge.  These mappings are required to

  1. cancel the hedge on directly hedged positives (h applied to the
     positive primary maps back to the positive primary),
  2. be monotone over the whole domain, and
  3. shrink pointwise as the hedge grows in the extended order.

They are not unique.  The builder below derives a table that satisfies all
three conditions by index shifting inside hedge families, mirrored onto the
negative side through negation, with the three constants as fixed points.
The shift construction tracks hedge chains faithfully but can lose
monotonicity on algebras whose positivity matrix makes deep chains
alternate direction; when its result fails validation, the builder falls
back to columns interpolated through three anchor points per side (the
ends and the cancellation cell), which satisfy the conditions on every
algebra.  Applications can replace individual cells through ``inverse:``
override rows in the algebra config; the merged table is re-validated.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import (
    BOTTOM,
    MIDDLE,
    TOP,
    InputError,
    InverseOverride,
    TruthDomain,
    TruthValue,
    record,
    term,
)


class InverseTableError(InputError):
    """An inverse table that breaks the mapping conditions."""


class InverseMappingTable(record("InverseMappingTable", "domain columns")):
    """One monotone index map per hedge, aligned with the domain order:
    ``columns`` maps each hedge name to a tuple of domain indices."""

    __slots__ = ()

    def apply(self, hedge: str | None, index: int) -> int:
        """Image of a domain index; ``None`` is the identity hedge."""
        if hedge is None:
            return index
        try:
            col = self.columns[hedge]
        except KeyError:
            raise InverseTableError([f"undeclared hedge: {hedge!r}"]) from None
        return col[index]


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


class _Builder:
    def __init__(self, domain: TruthDomain):
        self.domain = domain
        self.alg = domain.algebra
        self.p = len(self.alg.plus_hedges)
        self.q = len(self.alg.minus_hedges)
        if self.p == 0 or self.q == 0:
            raise InverseTableError(
                ["inverse tables need at least one hedge in each class"]
            )
        # Chain direction over each single-hedge positive term.
        self._dir = {
            r: self.alg._chain_direction(term((self.alg.hedge_by_e_index(r),), True))
            for r in range(-self.q, self.p + 1)
            if r != 0
        }
        self._dir[0] = 1  # chains over the bare primary always ascend

    def column(self, hedge: str) -> tuple[int, ...]:
        r = self.alg.e_index(hedge)
        out = []
        for v in self.domain:
            out.append(self.domain.index_of(self._invert(r, v)))
        return tuple(out)

    def _invert(self, r: int, x: TruthValue) -> TruthValue:
        if not x.is_term:
            return x
        if x.positive:
            return self._clamp(self._invert_positive(r, x), positive=True)
        m = min(self.p, self.q)
        if -m <= r <= m:
            z = -r
        elif r > 0:  # more strengthening than weakening hedges
            z = -self.q
        else:
            z = self.p
        y = self._invert_positive(z, self.alg.negate(x))
        return self._clamp(self._negate(y), positive=False)

    def _invert_positive(self, r: int, x: TruthValue) -> TruthValue:
        """Raw image on the positive side; may return a constant to clamp."""
        alg = self.alg
        if not x.hedges:
            m = min(self.p, self.q)
            if -m <= r <= m:
                return self._mk((alg.hedge_by_e_index(-r),)) if r else term((), True)
            return MIDDLE if r > 0 else TOP
        s = alg.e_index(x.hedges[-1])  # innermost hedge
        sigma = x.hedges[:-1]
        if r == s:
            if not sigma:
                return term((), True)
            cell = self._reference_cell(r, sigma)
            return cell if cell is not None else term((), True)
        d = s - r
        if d < -self.q:
            return MIDDLE
        if d > self.p:
            return TOP
        hd = alg.hedge_by_e_index(d)
        if self._dir[s] == self._dir[d]:
            return self._mk(sigma + (hd,))
        if not sigma:
            return self._mk((hd,))
        t = alg.e_index(sigma[-1])  # hedge adjacent to the cancelled one
        delta = alg.hedge_by_e_index(max(-self.q, min(self.p, -t)))
        return self._mk((delta, hd))

    def _reference_cell(self, r: int, sigma: tuple[str, ...]) -> TruthValue | None:
        if r > 0 or self.p != 2 or self.q != 2 or self.alg.limit != 2 or len(sigma) != 1:
            return None
        cell = _REFERENCE_CELLS.get((r, self.alg.e_index(sigma[0])))
        if cell is None:
            return None
        outer, inner = cell
        return term(
            (self.alg.hedge_by_e_index(outer), self.alg.hedge_by_e_index(inner)), True
        )

    def _mk(self, hedges: tuple[str, ...]) -> TruthValue:
        # Fold through clamped application so degenerate limits stay in range.
        if len(hedges) <= self.alg.limit:
            return term(hedges, True)
        v = term((), True)
        for h in reversed(hedges):
            v = self.alg.apply_hedge(h, v)
        return v

    def _negate(self, y: TruthValue) -> TruthValue:
        if y.kind == "top":
            return BOTTOM
        if y.kind == "middle":
            return MIDDLE
        return self.alg.negate(y)

    def _clamp(self, y: TruthValue, positive: bool) -> TruthValue:
        """Bounded domains have no room for constant images; pull them to
        the nearest term on the input's side of the scale."""
        d = self.domain
        if positive:
            if y.kind == "middle":
                return d[d.least_positive_term]
            if y.kind == "top":
                return d[d.greatest_positive_term]
        else:
            if y.kind == "middle":
                return d[d.greatest_negative_term]
            if y.kind == "bottom":
                return d[d.least_negative_term]
        return y


def _interp(v: int, x0: int, y0: int, x1: int, y1: int) -> int:
    if x1 == x0:
        return y1 if v >= x1 else y0
    return y0 + (v - x0) * (y1 - y0) // (x1 - x0)


def _anchored_columns(domain: TruthDomain) -> dict[str, list[int]]:
    """Fallback columns: per hedge, interpolate the positive side through
    (middle, middle), (index of the hedged positive primary, index of the
    positive primary) and (top, top); mirror onto the negative side through
    negation, pairing each hedge with its opposite-class peer."""
    alg = domain.algebra
    n = domain.n
    w = domain.middle_index
    y0 = domain.index_of(term((), True))
    p, q = len(alg.plus_hedges), len(alg.minus_hedges)

    pos: dict[str, list[int]] = {}
    for h in alg.extended_order():
        x = domain.index_of(alg.apply_hedge(h, term((), True)))
        col = [0] * (n + 1)
        for v in range(w, n + 1):
            if v <= x:
                col[v] = _interp(v, w, w, x, y0)
            else:
                col[v] = _interp(v, x, y0, n, n)
        pos[h] = col

    out: dict[str, list[int]] = {}
    for h in alg.extended_order():
        r = alg.e_index(h)
        z = -r if -min(p, q) <= -r <= min(p, q) else (-q if r > 0 else p)
        pair = alg.hedge_by_e_index(z)
        col = list(pos[h])
        for v in range(w):
            col[v] = n - pos[pair][n - v]
        out[h] = col
    return out


def build_inverse_table(
    domain: TruthDomain, overrides: Iterable[InverseOverride] = ()
) -> InverseMappingTable:
    """Derive the default table, apply overrides, validate, return.

    Raises :class:`InverseTableError` listing every violated condition when
    an override breaks the table.
    """
    builder = _Builder(domain)
    columns = {h: list(builder.column(h)) for h in domain.algebra.extended_order()}
    probe = InverseMappingTable(domain, {h: tuple(c) for h, c in columns.items()})
    if validate_inverse_table(probe):
        columns = _anchored_columns(domain)

    problems: list[str] = []
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
        columns[ov.hedge][src] = dst
    if problems:
        raise InverseTableError(problems)

    table = InverseMappingTable(domain, {h: tuple(c) for h, c in columns.items()})
    violations = validate_inverse_table(table)
    if violations:
        raise InverseTableError(violations)
    return table


def validate_inverse_table(table: InverseMappingTable) -> list[str]:
    """Check the three table conditions plus fixed points and side safety."""
    domain = table.domain
    alg = domain.algebra
    lit = domain.literal
    out: list[str] = []

    c_plus = domain.index_of(term((), True))
    for h in alg.extended_order():
        col = table.columns[h]
        hedged = domain.index_of(alg.apply_hedge(h, term((), True)))
        if col[hedged] != c_plus:
            out.append(
                f"{h!r} must cancel on {lit(hedged)!r}, maps to {lit(col[hedged])!r}"
            )
        for i in range(domain.n):
            if col[i] > col[i + 1]:
                out.append(
                    f"{h!r} is not monotone: {lit(i)!r} -> {lit(col[i])!r} but "
                    f"{lit(i + 1)!r} -> {lit(col[i + 1])!r}"
                )
        for i in (0, domain.middle_index, domain.n):
            if col[i] != i:
                out.append(f"{h!r} must fix {lit(i)!r}, maps to {lit(col[i])!r}")
        w = domain.middle_index
        for i, j in enumerate(col):
            if 0 < i < w and not (0 <= j <= w):
                out.append(f"{h!r} maps {lit(i)!r} across the middle to {lit(j)!r}")
            if w < i < domain.n and not (w <= j <= domain.n):
                out.append(f"{h!r} maps {lit(i)!r} across the middle to {lit(j)!r}")

    # Weaker hedges in the extended order must have pointwise larger images;
    # the identity sits between the classes.
    ordered: list[str | None] = list(reversed(list(alg.extended_order())))
    ordered.insert(len(alg.plus_hedges), None)
    for a, b in zip(ordered, ordered[1:]):  # a above b in the extended order
        for i in range(domain.n + 1):
            va, vb = table.apply(a, i), table.apply(b, i)
            if va > vb:
                na, nb = a or "identity", b or "identity"
                out.append(
                    f"{na!r} above {nb!r} needs smaller images, but at {lit(i)!r}: "
                    f"{lit(va)!r} > {lit(vb)!r}"
                )
    return out
