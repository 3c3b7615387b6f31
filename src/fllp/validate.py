"""Validation of a parsed program: arity conflicts, repeated statements
and loose variables.  Only ``fllp check`` loads this module."""

from __future__ import annotations

from .algebra import TruthDomain
from .program import Atom, Fact, Program, Rule, Statement, Var, free_vars, ground, map_atoms


def _canonical(st: Statement, atoms: list[Atom]) -> Statement:
    """The statement with each variable numbered by first occurrence, grade
    dropped; its atoms go on ``atoms`` in ``Program.atoms`` order."""
    numbers: dict[Var, int] = {}

    def rename(atom: Atom) -> Atom:
        atoms.append(atom)
        return Atom(atom.pred, tuple(
            numbers.setdefault(a, len(numbers)) if a.__class__ is Var else a for a in atom.args
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
    arities: dict[str, tuple[int, int]] = {}  # each predicate's first arity, and its line
    first: dict[Statement | Atom, Statement] = {}  # the first statement of each key
    for st in program.statements:
        fact = st.__class__ is Fact
        if fact and ground(st.atom):  # its own key: renaming would rebuild it unchanged
            atoms = (key := st.atom,)
        else:
            atoms = []
            key = _canonical(st, atoms)
        for atom in atoms:
            n = len(atom.args)
            prev = arities.get(atom.pred) or arities.setdefault(atom.pred, (n, st.line))
            if prev[0] != n:
                arity.append(f"line {st.line}: {atom.pred!r} used with arity {n}, "
                             f"but line {prev[1]} uses arity {prev[0]}")
        prev = first.setdefault(key, st)
        if prev.tv != st.tv:
            repeats.append(f"line {st.line}: statement repeats line {prev.line} with grade "
                           f"{domain.literal(st.tv)!r} instead of {domain.literal(prev.tv)!r}")
        if safe and key.__class__ is not Atom:  # a ground fact holds no variable
            body_vars = () if fact else set(free_vars(st.body))
            names = [v for v in free_vars(st.atom if fact else st.head) if v not in body_vars]
            if names and fact:
                loose.append(f"line {st.line}: fact is not ground, variable(s) {', '.join(names)}")
            elif names:
                loose.append(f"line {st.line}: rule is not range restricted, variable(s) "
                             f"{', '.join(names)} occur only in the head")
    return arity + repeats + loose
