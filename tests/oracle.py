"""The fixpoint semantics as the paper states it, as a reference for the engine.

The full grounding instantiates every statement over the program's
constants (one fallback constant when there are none): facts in program
order, then rules in program order, each over ``itertools.product`` of the
sorted constants for its variables in first-occurrence order, head first.
The Herbrand base is every atom of every predicate, a predicate being a
name and an arity, sorted by name and then arity.
``tp`` is one application of the consequence operator and ``iterate_tp``
iterates it from the empty interpretation.  Interpretations are plain
dicts holding nonzero grades only.  ``conj`` is a rule's conjunction and
``implicator`` its residuum, as Vojtáš defines them.

Nothing here comes from ``fllp.fixpoint``: the engine is checked against
this module, so the two share no grounding or evaluation code, and rule
conjunctions are computed here, not by the engines' folds.
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from fllp.algebra import GODEL
from fllp.lang import Atom, Fact, Rule, Var, map_atoms, value

Grounding = namedtuple("Grounding", "facts rules base")


def _atoms(statement) -> list[Atom]:
    """The statement's atoms, head first, then its body's from left to right."""
    if isinstance(statement, Fact):
        return [statement.atom]
    found = [statement.head]
    map_atoms(statement.body, lambda atom: found.append(atom) or atom)
    return found


def _variables(atoms) -> tuple[str, ...]:
    return tuple(dict.fromkeys(a.name for atom in atoms for a in atom.args if isinstance(a, Var)))


def universe(program) -> tuple[str, ...]:
    """The program's constants, sorted; ``("a",)`` when it has none."""
    consts = {a for st in program.statements for atom in _atoms(st)
              for a in atom.args if not isinstance(a, Var)}
    return tuple(sorted(consts)) or ("a",)


def _bind(atom: Atom, env: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args))


def _envs(atoms, consts):
    names = _variables(atoms)
    for combo in itertools.product(consts, repeat=len(names)):
        yield dict(zip(names, combo))


def ground(program) -> Grounding:
    """Every instance of every statement, and the Herbrand base."""
    consts = universe(program)
    facts, rules = [], []
    preds = {(atom.pred, len(atom.args)) for st in program.statements for atom in _atoms(st)}
    for st in program.facts:
        facts += [(_bind(st.atom, env), st.tv) for env in _envs([st.atom], consts)]
    for rule in program.rules:
        for env in _envs(_atoms(rule), consts):
            body = map_atoms(rule.body, lambda atom, env=env: _bind(atom, env))
            rules.append(Rule(_bind(rule.head, env), rule.kind, body, rule.tv))
    base = [Atom(pred, combo) for pred, arity in sorted(preds)
            for combo in itertools.product(consts, repeat=arity)]
    return Grounding(tuple(facts), tuple(rules), tuple(base))


def conj(kind: str, i: int, j: int, n: int) -> int:
    """Gödel's minimum or Łukasiewicz's bounded sum of ``i`` and ``j`` in ``0..n``."""
    return min(i, j) if kind == GODEL else max(i + j - n, 0)


def implicator(kind: str, head: int, body: int, n: int) -> int:
    """The residuum of ``conj``: the largest ``r`` with ``conj(kind, body, r, n) <= head``."""
    return n if body <= head else head if kind == GODEL else n + head - body


def body_value(rule: Rule, table, interp: dict) -> int:
    """The value of a ground rule's body under ``interp``."""
    return value(rule.body, lambda atom: interp.get(atom, 0), table.columns, table.domain.n)


def tp(grounding: Grounding, table, interp: dict) -> dict:
    """One round of the consequence operator: each head atom gets the best
    support any ground statement gives it."""
    out: dict = {}
    supports = [(atom, tv) for atom, tv in grounding.facts]
    supports += [(r.head, conj(r.kind, body_value(r, table, interp), r.tv, table.domain.n))
                 for r in grounding.rules]
    for atom, grade in supports:
        if grade > out.get(atom, 0):
            out[atom] = grade
    return out


def leq(lo: dict, hi: dict) -> bool:
    """Whether ``lo`` is below ``hi`` at every atom."""
    return all(v <= hi.get(atom, 0) for atom, v in lo.items())


def iterate_tp(grounding: Grounding, table) -> tuple[dict, int]:
    """The least model by iterating ``tp`` from the empty interpretation, and
    the number of rounds, the confirming round included."""
    interp, rounds = {}, 0
    while True:
        nxt = tp(grounding, table, interp)
        rounds += 1
        if nxt == interp:
            return interp, rounds
        interp = nxt
