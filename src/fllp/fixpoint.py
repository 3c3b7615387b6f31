"""Bottom-up evaluation: grounding, the consequence operator, least models.

An interpretation assigns a domain index to every ground atom, sparsely
(absent means bottom).  One application of the consequence operator grades
each head atom with the best support any statement gives it: a fact's own
grade, or the rule conjunction of the body value under the current
interpretation with the rule grade.  The operator is monotone over a
finite lattice, so iterating from the empty interpretation reaches the
least model; iteration stops on the first round that changes nothing, and
that confirming round is included in the reported count.

Grounding instantiates variables over the constants appearing in the
program (a single fallback constant when there are none).  The number of
instances is counted before anything is built and capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .connectives import t_norm
from .inverse import InverseMappingTable
from .lang import (
    Atom,
    Body,
    Conj,
    Const,
    Fact,
    Grade,
    HedgeApp,
    Program,
    Var,
    atoms_of,
    format_atom,
    format_value,
    free_vars,
    map_atoms,
)

GROUND_LIMIT = 10**6


class GroundingLimitError(RuntimeError):
    def __init__(self, needed: int, limit: int):
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"grounding needs {needed} instances, over the limit of {limit}"
        )


class Interpretation(dict):
    """Ground atom -> domain index; missing atoms sit at bottom."""

    def __missing__(self, key) -> int:
        return 0

    def raise_to(self, atom: Atom, value: int) -> bool:
        if value > self.get(atom, 0):
            self[atom] = value
            return True
        return False

    def leq(self, other: "Interpretation") -> bool:
        return all(v <= other[a] for a, v in self.items())


@dataclass(frozen=True)
class GroundRule:
    head: Atom
    kind: str
    body: Body
    tv: int


@dataclass(frozen=True)
class GroundProgram:
    facts: tuple[tuple[Atom, int], ...]
    rules: tuple[GroundRule, ...]
    base: tuple[Atom, ...]
    universe: tuple[str, ...]


def _binder(env: dict[str, Const]):
    """Atom mapper that puts the constants of ``env`` in place of variables."""

    def bind(atom: Atom) -> Atom:
        return Atom(
            atom.pred,
            tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args),
        )

    return bind


def ground(program: Program, limit: int = GROUND_LIMIT) -> GroundProgram:
    universe = program.constants() or ("a",)
    u = len(universe)

    needed = 0
    for pred, arity in program.predicates().items():
        needed += u**arity
    for st in program.statements:
        if isinstance(st, Fact):
            needed += u ** len(free_vars(st.atom))
        else:
            head_vars = free_vars(st.head)
            body_vars = free_vars(st.body)
            joint = tuple(dict.fromkeys(head_vars + body_vars))
            needed += u ** len(joint)
    if needed > limit:
        raise GroundingLimitError(needed, limit)

    consts = tuple(Const(c) for c in universe)
    facts: list[tuple[Atom, int]] = []
    rules: list[GroundRule] = []
    for st in program.statements:
        if isinstance(st, Fact):
            names = free_vars(st.atom)
            for combo in itertools.product(consts, repeat=len(names)):
                bind = _binder(dict(zip(names, combo)))
                facts.append((bind(st.atom), st.tv))
        else:
            names = tuple(dict.fromkeys(free_vars(st.head) + free_vars(st.body)))
            for combo in itertools.product(consts, repeat=len(names)):
                bind = _binder(dict(zip(names, combo)))
                rules.append(
                    GroundRule(bind(st.head), st.kind, map_atoms(st.body, bind), st.tv)
                )

    base: list[Atom] = []
    for pred, arity in sorted(program.predicates().items()):
        for combo in itertools.product(consts, repeat=arity):
            base.append(Atom(pred, combo))
    return GroundProgram(tuple(facts), tuple(rules), tuple(base), universe)


def eval_ground_body(body: Body, interp: Interpretation, table: InverseMappingTable) -> int:
    """Value of a ground body, its atoms read from ``interp``."""
    n = table.domain.n
    if isinstance(body, Atom):
        return interp[body]
    if isinstance(body, HedgeApp):
        return table.apply(body.hedge, eval_ground_body(body.body, interp, table))
    if isinstance(body, Conj):
        acc = eval_ground_body(body.parts[0], interp, table)
        for p in body.parts[1:]:
            acc = t_norm(body.kind, acc, eval_ground_body(p, interp, table), n)
        return acc
    if isinstance(body, Grade):
        return body.value
    return max(eval_ground_body(p, interp, table) for p in body.parts)


def tp_apply(
    gp: GroundProgram, table: InverseMappingTable, interp: Interpretation
) -> Interpretation:
    """One round of the consequence operator."""
    n = table.domain.n
    out = Interpretation()
    for atom, tv in gp.facts:
        out.raise_to(atom, tv)
    for rule in gp.rules:
        body = eval_ground_body(rule.body, interp, table)
        out.raise_to(rule.head, t_norm(rule.kind, body, rule.tv, n))
    return out


def least_model(
    program: Program,
    table: InverseMappingTable,
    mode: str = "naive",
    limit: int = GROUND_LIMIT,
    gp: GroundProgram | None = None,
) -> tuple[Interpretation, int]:
    """Least model and the number of rounds taken to settle on it."""
    if gp is None:
        gp = ground(program, limit)
    if mode == "naive":
        return _naive(gp, table)
    if mode == "delta":
        return _delta(gp, table)
    raise ValueError(f"unknown evaluation mode: {mode!r}")


def _round_cap(gp: GroundProgram, table: InverseMappingTable) -> int:
    return len(gp.base) * (table.domain.n + 1) + 1


def _naive(gp: GroundProgram, table: InverseMappingTable) -> tuple[Interpretation, int]:
    cap = _round_cap(gp, table)
    interp = Interpretation()
    rounds = 0
    while True:
        nxt = tp_apply(gp, table, interp)
        rounds += 1
        if nxt == interp:
            return interp, rounds
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
        interp = nxt


def _delta(gp: GroundProgram, table: InverseMappingTable) -> tuple[Interpretation, int]:
    """Same fixpoint, recomputing only rules whose bodies saw a change."""
    cap = _round_cap(gp, table)
    n = table.domain.n
    triggers: dict[Atom, list[GroundRule]] = {}
    for rule in gp.rules:
        for atom in atoms_of(rule.body):
            triggers.setdefault(atom, []).append(rule)

    interp = Interpretation()
    bottom = Interpretation()
    changed: set[Atom] = set()
    for atom, tv in gp.facts:
        if interp.raise_to(atom, tv):
            changed.add(atom)
    for rule in gp.rules:
        body = eval_ground_body(rule.body, bottom, table)
        if interp.raise_to(rule.head, t_norm(rule.kind, body, rule.tv, n)):
            changed.add(rule.head)
    rounds = 1

    while changed:
        pending: list[GroundRule] = []
        seen: set[int] = set()
        for atom in changed:
            for rule in triggers.get(atom, ()):
                if id(rule) not in seen:
                    seen.add(id(rule))
                    pending.append(rule)
        changed = set()
        for rule in pending:
            body = eval_ground_body(rule.body, interp, table)
            if interp.raise_to(rule.head, t_norm(rule.kind, body, rule.tv, n)):
                changed.add(rule.head)
        rounds += 1
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
    return interp, rounds


def dump_model(
    model: Interpretation,
    domain,
    base: tuple[Atom, ...] | None = None,
    include_zero: bool = False,
) -> list[str]:
    atoms = list(base) if (include_zero and base is not None) else list(model)
    atoms.sort(key=format_atom)
    lines = []
    for atom in atoms:
        v = model[atom]
        if v == 0 and not include_zero:
            continue
        lines.append(f"{format_atom(atom)} : {format_value(domain, v)}")
    return lines
