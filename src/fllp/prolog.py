"""Compilation of graded programs to plain clause text.

Truth values travel as an extra final argument holding the domain index,
so the output runs on any standard Prolog without fuzzy extensions.  The
emitted text is self-contained: a legend for the indices, the two
conjunctions and the disjunction as three-place arithmetic predicates with
the top index baked in, the full inverse-mapping relation, and one clause
per program statement.  Rule clauses thread intermediate grades through
``_TV`` variables in body order and deliver the head grade in ``_TV0``.
Two-place atoms named like a helper would compile onto it and are refused,
as is a query variable named like the answer grade.
"""

from __future__ import annotations

import itertools

from .algebra import GODEL
from .inverse import InverseMappingTable
from .program import (Atom, Body, Conj, Disj, Fact, HedgeApp, ParseError, Program, Rule, Var,
                      atoms_of, ground)

QUERY_VAR = "Truth_value"
HELPERS = ("and_godel", "and_luka", "or_godel", "inv_map")  # three places each


def _refuse_helpers(uses, others: tuple[str, ...] = ()) -> None:
    """One violation per helper that an atom of the ``(statement or None,
    atom)`` pairs in ``uses`` would compile onto, at its first such atom,
    raised together with the ``others``."""
    clashes: dict[str, str] = {}
    for st, atom in uses:
        if atom.pred in HELPERS and len(atom.args) == 2:
            clashes.setdefault(atom.pred, f"line {st.line}: " if st else "")
    problems = [f"{where}{pred}/2 would compile onto the helper {pred}/3"
                for pred, where in clashes.items()] + list(others)
    if problems:
        raise ParseError(problems)


def _hedge_atoms(algebra) -> dict[str, str]:
    """Each hedge as a clause atom: first letters when unambiguous."""
    names = [d.name for d in algebra.spec.hedges]
    firsts = [n[0] for n in names]
    if len(set(firsts)) == len(firsts):
        return dict(zip(names, firsts))
    return {n: n for n in names}


def _args(atom: Atom, extra: str) -> str:
    if ground(atom):  # constants are their names
        return ",".join((*atom.args, extra))
    return ",".join([a if a.__class__ is str else a.name for a in atom.args] + [extra])


def _emit(body: Body, goals: list[str], fresh, abbr: dict[str, str], named: list[Atom],
          sink: str | None = None) -> str:
    """The goals of ``body`` go on ``goals``, and its atoms named like a
    helper on ``named``; returns the variable or index holding its grade."""
    if body.__class__ is int:  # a grade leaf is its index
        return str(body)
    if isinstance(body, Atom):
        if body.pred in HELPERS:
            named.append(body)
        v = sink or next(fresh)
        goals.append(f"{body.pred}({_args(body, v)})")
        return v
    if isinstance(body, HedgeApp):
        cv = _emit(body.body, goals, fresh, abbr, named)
        v = sink or next(fresh)
        goals.append(f"inv_map({abbr[body.hedge]},{cv},{v})")
        return v
    op = "or_godel" if isinstance(body, Disj) else "and_godel" if body.kind == GODEL else "and_luka"
    parts = [_emit(p, goals, fresh, abbr, named) for p in body.parts]
    acc = parts[0]
    for i, nxt in enumerate(parts[1:]):
        last = i == len(parts) - 2
        v = sink if (sink and last) else next(fresh)
        goals.append(f"{op}({acc},{nxt},{v})")
        acc = v
    return acc


def _compile_rule(rule: Rule, abbr: dict[str, str], named: list[Atom]) -> str:
    fresh = (f"_TV{k}" for k in itertools.count(1))
    goals: list[str] = []
    _emit(Conj(rule.kind, (rule.body, rule.tv)), goals, fresh, abbr, named, sink="_TV0")
    return f"{rule.head.pred}({_args(rule.head, '_TV0')}) :- {', '.join(goals)}."


def compile_program(program: Program, table: InverseMappingTable) -> str:
    domain = table.domain
    algebra = domain.algebra
    n = domain.n
    abbr = _hedge_atoms(algebra)
    tvs = [str(i) for i in range(n + 1)]
    uses: list = []  # the (statement, atom) pairs that may compile onto a helper
    clauses: list[str] = []
    for st in program.statements:
        if st.__class__ is Fact:
            atom = st.atom
            if atom.pred in HELPERS:
                uses.append((st, atom))
            clauses.append(f"{atom.pred}({_args(atom, tvs[st.tv])}).")
        else:
            named = [st.head]
            clauses.append(_compile_rule(st, abbr, named))
            uses += [(st, atom) for atom in named]
    _refuse_helpers(uses)

    lines = [
        f"% Graded logic program over a {len(domain)} value linguistic scale.",
        "% Truth values are the domain indices:",
    ]
    for i in range(len(domain)):
        lines.append(f"% v{i} = {domain.literal(i)}")
    lines.append("")

    lines += [
        "and_godel(X,Y,Z) :- (X=<Y,Z=X;X>Y,Z=Y).",
        f"and_luka(X,Y,Z) :- H is X+Y-{n},(H=<0,Z=0;H>0,Z=H).",
        "or_godel(X,Y,Z) :- (X=<Y,Z=Y;X>Y,Z=X).",
        "",
    ]

    lines.append("% inv_map(hedge, value, image of value under the hedge inverse)")
    if any(abbr[h] != h for h in abbr):
        legend = ", ".join(f"{abbr[h]} = {h}" for h in abbr)
        lines.append(f"% hedge atoms: {legend}")
    fixed = (0, domain.middle_index, n)
    decl_order = [d.name for d in algebra.spec.hedges]
    for i in range(len(domain)):
        if i in fixed:
            lines.append(f"inv_map(H,{i},{i}).")
            continue
        for h in decl_order:
            lines.append(f"inv_map({abbr[h]},{i},{table.columns[h][i]}).")
    lines.append("")
    lines += clauses
    lines.append("")
    return "\n".join(lines)


def compile_query(query: Body, table: InverseMappingTable) -> str:
    abbr = _hedge_atoms(table.domain.algebra)
    fresh = (f"_TV{k}" for k in itertools.count(1))
    goals: list[str] = []
    named: list[Atom] = []
    _emit(query, goals, fresh, abbr, named, sink=QUERY_VAR)
    answer = any(Var(QUERY_VAR) in atom.args for atom in atoms_of(query))
    _refuse_helpers([(None, atom) for atom in named],
                    (f"query variable {QUERY_VAR} would name the answer grade",) if answer else ())
    return f"?- {', '.join(goals)}."
