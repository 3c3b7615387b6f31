"""Bottom-up evaluation: grounding, the consequence operator, least models.

An interpretation assigns a domain index to every ground atom, sparsely
(absent means bottom).  One application of the consequence operator grades
each head atom with the best support any statement gives it: a fact's own
grade, or the rule conjunction of the body value under the current
interpretation with the rule grade.  The operator is monotone over a
finite lattice, so iterating from the empty interpretation reaches the
least model; iteration stops on the first round that changes nothing, and
that confirming round is included in the reported count.  ``least_model``
iterates semi-naively: the first round fires every instance, each later
round only the instances with a body atom that rose in the round before,
reading the interpretation the previous round left.  The iterates ascend,
so any other instance gives what it gave last round, at most its head's
current value; every round equals a full application, and the count is
the number of operator rounds.

Grounding instantiates variables over the constants appearing in the
program (a single fallback constant when there are none).  ``ground``
builds every instance and is the reference; ``least_model`` builds only
the rule instances whose bodies can be nonzero (``ground_relevant``).
Every conjunction and every hedge keeps bottom at bottom, so the other
instances add nothing to any round, and the model and the round count
are the same.  Both count the Herbrand base and the fact instances
before building anything; ``ground`` adds every rule instance to that
count up front, ``ground_relevant`` each instance as it is found.  Either
stops at ``GROUND_LIMIT``.
"""

from __future__ import annotations

import functools
import itertools

from .algebra import LimitError, format_value, record
from .connectives import t_norm
from .inverse import InverseMappingTable
from .lang import (
    Atom,
    Body,
    Conj,
    Const,
    Grade,
    HedgeApp,
    Program,
    Rule,
    Var,
    atoms_of,
    format_atom,
    free_vars,
    map_atoms,
    value,
)

GROUND_LIMIT = 10**6


class GroundingLimitError(LimitError):
    subject, unit = "grounding", "instances"


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


class GroundProgram(record("GroundProgram", "facts rules base universe")):
    """``facts`` holds ``(atom, grade)`` pairs, ``rules`` ground instances
    (line 0), ``base`` the Herbrand base and ``universe`` constant names."""

    __slots__ = ()


def _binder(env: dict[str, Const]):
    """Atom mapper that puts the constants of ``env`` in place of variables."""

    def bind(atom: Atom) -> Atom:
        return Atom(
            atom.pred,
            tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args),
        )

    return bind


def _rule_vars(rule: Rule) -> tuple[str, ...]:
    """The variables a rule instance binds: head first, by first occurrence."""
    return tuple(dict.fromkeys(free_vars(rule.head) + free_vars(rule.body)))


def _instance(rule: Rule, names: tuple[str, ...], combo: tuple[Const, ...]) -> Rule:
    bind = _binder(dict(zip(names, combo)))
    return Rule(bind(rule.head), rule.kind, map_atoms(rule.body, bind), rule.tv)


def _frame(program: Program, limit: int) -> tuple[tuple[Const, ...], int]:
    """The universe, and the count of base atoms plus fact instances, which
    every grounding builds; refused up front when over ``limit``."""
    consts = tuple(Const(c) for c in program.constants() or ("a",))
    u = len(consts)
    needed = sum(u**arity for arity in program.predicates().values())
    needed += sum(u ** len(free_vars(f.atom)) for f in program.facts)
    if needed > limit:
        raise GroundingLimitError(needed, limit)
    return consts, needed


def _ground_facts(program: Program, consts: tuple[Const, ...]) -> list[tuple[Atom, int]]:
    facts: list[tuple[Atom, int]] = []
    for st in program.facts:
        names = free_vars(st.atom)
        for combo in itertools.product(consts, repeat=len(names)):
            facts.append((_binder(dict(zip(names, combo)))(st.atom), st.tv))
    return facts


def _ground_program(program, consts, facts, rules) -> GroundProgram:
    base: list[Atom] = []
    for pred, arity in sorted(program.predicates().items()):
        for combo in itertools.product(consts, repeat=arity):
            base.append(Atom(pred, combo))
    universe = tuple(c.name for c in consts)
    return GroundProgram(tuple(facts), tuple(rules), tuple(base), universe)


def ground(program: Program, limit: int = GROUND_LIMIT) -> GroundProgram:
    """Every instance of every statement over the program's constants."""
    consts, needed = _frame(program, limit)
    u = len(consts)
    needed += sum(u ** len(_rule_vars(r)) for r in program.rules)
    if needed > limit:
        raise GroundingLimitError(needed, limit)
    rules: list[Rule] = []
    for rule in program.rules:
        names = _rule_vars(rule)
        for combo in itertools.product(consts, repeat=len(names)):
            rules.append(_instance(rule, names, combo))
    return _ground_program(program, consts, _ground_facts(program, consts), rules)


def ground_relevant(program: Program, limit: int = GROUND_LIMIT) -> GroundProgram:
    """The rule instances of ``ground(program)`` whose bodies can be nonzero
    in the least model, in the same order; facts and base are the same.

    An instance is built once every atom of one of its body's alternatives
    (see ``_alternatives``) is derivable: a fact above bottom or the head of
    an instance built before.  Rule instances are counted as they are found
    and refused as soon as they would take the total over ``limit``.
    """
    consts, needed = _frame(program, limit)
    facts = _ground_facts(program, consts)
    seeds = [(a.pred, tuple(c.name for c in a.args)) for a, tv in facts if tv > 0]
    found = _relevant_bindings(
        program.rules, tuple(c.name for c in consts), seeds, needed, limit
    )
    by_name = {c.name: c for c in consts}
    rules: list[Rule] = []
    for rule, bindings in zip(program.rules, found):
        names = _rule_vars(rule)
        # sorted name tuples are itertools.product order over the sorted universe
        for binding in sorted(bindings):
            rules.append(_instance(rule, names, tuple(by_name[c] for c in binding)))
    return _ground_program(program, consts, facts, rules)


def _alternatives(body: Body) -> list[tuple[Atom, ...]]:
    """Atom sets such that ``body`` is nonzero only if all atoms of one of
    them are: conjunctions and hedges keep bottom at bottom, a disjunction
    is its highest part."""
    if isinstance(body, Atom):
        return [(body,)]
    if isinstance(body, HedgeApp):
        return _alternatives(body.body)
    if isinstance(body, Grade):
        return [()] if body.value > 0 else []
    if isinstance(body, Conj):
        alts: list[tuple[Atom, ...]] = [()]
        for part in body.parts:
            alts = [tuple(dict.fromkeys(a + b)) for a in alts for b in _alternatives(part)]
        return alts
    return [alt for part in body.parts for alt in _alternatives(part)]


def _relevant_bindings(rules, universe, seeds, needed, limit) -> list[set[tuple[str, ...]]]:
    """Per rule, the bindings of its ``_rule_vars`` (constant names) whose
    body has an alternative made of derivable atoms.

    Semi-naive worklist join: each ground atom, once derivable, is matched
    against every alternative atom with its predicate, and the rest of that
    alternative is joined against the atoms made derivable before it,
    through indexes keyed on the argument positions already bound.
    Variables no atom of the alternative binds range over the universe.
    Ground atoms are ``(pred, names)`` tuples; a binding under construction
    is a list of variable slots followed by the rule's constants.
    """
    found: list[set[tuple[str, ...]]] = [set() for _ in rules]
    queue = list(dict.fromkeys(seeds))
    derivable = set(queue)
    # pred -> bound argument positions -> their values -> ground args
    indexes: dict[str, dict[tuple[int, ...], dict]] = {}
    triggers: dict[str, list] = {}

    def emit(r: int, env: list, free: tuple[int, ...], nvars: int, head) -> None:
        nonlocal needed
        for combo in itertools.product(universe, repeat=len(free)):
            for s, c in zip(free, combo):
                env[s] = c
            binding = tuple(env[:nvars])
            if binding in found[r]:
                continue
            needed += 1
            if needed > limit:
                raise GroundingLimitError(needed, limit)
            found[r].add(binding)
            atom = (head[0], tuple(env[s] for s in head[1]))
            if atom not in derivable:
                derivable.add(atom)
                queue.append(atom)

    def join(steps, k: int, env: list, done) -> None:
        if k == len(steps):
            done(env)
            return
        idx, key, assign, check = steps[k]
        for args in idx.get(tuple([env[s] for s in key]), ()):
            for p, s in assign:
                env[s] = args[p]
            if all(args[p] == env[s] for p, s in check):
                join(steps, k + 1, env, done)

    for r, rule in enumerate(rules):
        names = _rule_vars(rule)
        slots = {name: i for i, name in enumerate(names)}
        template: list = [None] * len(names)

        def slot(term) -> int:
            if isinstance(term, Var):
                return slots[term.name]
            key = ("const", term.name)
            if key not in slots:
                slots[key] = len(template)
                template.append(term.name)
            return slots[key]

        head = (rule.head.pred, tuple(slot(a) for a in rule.head.args))
        for alt in _alternatives(rule.body):
            consts = {slot(a) for atom in alt for a in atom.args if isinstance(a, Const)}
            bound = {slot(a) for atom in alt for a in atom.args}
            free = tuple(s for s in range(len(names)) if s not in bound)
            done = functools.partial(emit, r, free=free, nvars=len(names), head=head)
            if not alt:
                done(list(template))
            for i, first in enumerate(alt):
                seen = set(consts)
                plan = [_step(first, slot, seen)]
                rest = list(alt[:i] + alt[i + 1 :])
                while rest:
                    best = max(rest, key=lambda a: sum(slot(t) in seen for t in a.args))
                    rest.remove(best)
                    plan.append(_step(best, slot, seen))
                steps = [
                    (indexes.setdefault(pred, {}).setdefault(pos, {}), *match)
                    for pred, pos, *match in plan[1:]
                ]
                triggers.setdefault(first.pred, []).append(
                    (template, *plan[0][1:], steps, done)
                )

    for pred, args in queue:  # grows while it is walked
        for positions, idx in indexes.get(pred, {}).items():
            idx.setdefault(tuple([args[p] for p in positions]), []).append(args)
        for template, positions, key, assign, check, steps, done in triggers.get(pred, ()):
            env = list(template)
            if any(args[p] != env[s] for p, s in zip(positions, key)):
                continue
            for p, s in assign:
                env[s] = args[p]
            if all(args[p] == env[s] for p, s in check):
                join(steps, 0, env, done)
    return found


def _step(atom: Atom, slot, bound: set[int]) -> tuple:
    """How to match ``atom`` once the slots in ``bound`` hold values: the
    argument positions that must equal those slots, the slots the other
    positions fill, and repeated fresh variables to compare; ``bound`` then
    gains the filled slots."""
    positions, key, assign, check = [], [], [], []
    fresh: set[int] = set()
    for p, arg in enumerate(atom.args):
        s = slot(arg)
        if s in bound:
            positions.append(p)
            key.append(s)
        elif s in fresh:
            check.append((p, s))
        else:
            fresh.add(s)
            assign.append((p, s))
    bound |= fresh
    return atom.pred, tuple(positions), tuple(key), tuple(assign), tuple(check)


def eval_ground_body(body: Body, interp: Interpretation, table: InverseMappingTable) -> int:
    """Value of a ground body, its atoms read from ``interp``."""
    return value(body, interp.__getitem__, table.columns, table.domain.n)


def tp_apply(
    gp: GroundProgram, table: InverseMappingTable, interp: Interpretation
) -> Interpretation:
    """One round of the consequence operator."""
    leaf, columns, n = interp.__getitem__, table.columns, table.domain.n
    out = Interpretation()
    for atom, tv in gp.facts:
        out.raise_to(atom, tv)
    for rule in gp.rules:
        body = value(rule.body, leaf, columns, n)
        out.raise_to(rule.head, t_norm(rule.kind, body, rule.tv, n))
    return out


def least_model(
    program: Program,
    table: InverseMappingTable,
    mode: str = "naive",
    limit: int = GROUND_LIMIT,
    gp: GroundProgram | None = None,
) -> tuple[Interpretation, int]:
    """Least model and the number of consequence-operator rounds taken to
    settle on it, over ``gp`` when given, else over the relevant instances
    of ``program``.  Both modes run the same engine."""
    if mode not in ("naive", "delta"):
        raise ValueError(f"unknown evaluation mode: {mode!r}")
    if gp is None:
        gp = ground_relevant(program, limit)
    n = table.domain.n
    cap = len(gp.base) * (n + 1) + 1
    triggers: dict[Atom, list[int]] = {}
    for i, rule in enumerate(gp.rules):
        for atom in atoms_of(rule.body):
            triggers.setdefault(atom, []).append(i)

    interp = tp_apply(gp, table, Interpretation())
    leaf, columns = interp.__getitem__, table.columns
    rounds, changed = 1, list(interp)
    while changed:
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
        raised = Interpretation()
        for i in {i for atom in changed for i in triggers.get(atom, ())}:
            rule = gp.rules[i]
            grade = t_norm(rule.kind, value(rule.body, leaf, columns, n), rule.tv, n)
            if grade > interp[rule.head]:
                raised.raise_to(rule.head, grade)
        interp.update(raised)
        rounds, changed = rounds + 1, list(raised)
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
