"""Validation of a parsed program: arity conflicts, repeated statements
and loose variables.  Only ``fllp check`` loads this module."""

from __future__ import annotations

from .algebra import TruthDomain
from .program import (
    Atom, Fact, Program, Rule, Statement, Var, free_vars, map_atoms, statement_atoms,
)


def _canonical(st: Statement) -> Statement:
    """The statement with variables renamed by first occurrence, grade dropped."""
    names: dict[str, Var] = {}

    def rename(atom: Atom) -> Atom:
        return Atom(atom.pred, tuple(
            names.setdefault(a.name, Var(f"V{len(names)}")) if isinstance(a, Var) else a
            for a in atom.args
        ))

    if isinstance(st, Fact):
        return Fact(rename(st.atom), 0)
    return Rule(rename(st.head), st.kind, map_atoms(st.body, rename), 0)


def validate_program(
    program: Program, domain: TruthDomain, safe: bool = False
) -> list[str]:
    """Arity conflicts, then statements repeated with another grade, then
    (with ``safe``) loose variables, each in statement order."""
    arity: list[str] = []
    repeats: list[str] = []
    loose: list[str] = []
    arities: dict[str, tuple[int, int]] = {}
    grades: dict[Statement | Atom, tuple[int, int]] = {}
    for st in program.statements:
        fact = st.__class__ is Fact
        for atom in statement_atoms(st):
            prev = arities.setdefault(atom.pred, (len(atom.args), st.line))
            if prev[0] != len(atom.args):
                arity.append(f"line {st.line}: {atom.pred!r} used with arity {len(atom.args)}, "
                             f"but line {prev[1]} uses arity {prev[0]}")
        # a ground fact is its own key: renaming would rebuild it unchanged
        key = st.atom if fact and Var not in map(type, st.atom.args) else _canonical(st)
        prev = grades.setdefault(key, (st.tv, st.line))
        if prev[0] != st.tv:
            repeats.append(f"line {st.line}: statement repeats line {prev[1]} with grade "
                           f"{domain.literal(st.tv)!r} instead of {domain.literal(prev[0])!r}")
        if safe:
            body_vars = () if fact else set(free_vars(st.body))
            names = [v for v in free_vars(st.atom if fact else st.head) if v not in body_vars]
            if names and fact:
                loose.append(f"line {st.line}: fact is not ground, variable(s) {', '.join(names)}")
            elif names:
                loose.append(f"line {st.line}: rule is not range restricted, variable(s) "
                             f"{', '.join(names)} occur only in the head")
    return arity + repeats + loose
