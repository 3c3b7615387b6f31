"""Bottom-up evaluation: grounding and least models.

An interpretation assigns a domain index to every ground atom, sparsely
(absent means bottom).  One application of the consequence operator grades
each head atom with the best support any statement gives it: a fact's own
grade, or the rule conjunction of the body value under the current
interpretation with the rule grade.  The operator is monotone over a
finite lattice, so iterating from the empty interpretation reaches the
least model; iteration stops on the first round that changes nothing, and
that confirming round is included in the reported count.

Grounding instantiates variables over the program's constants (one fallback
constant when there are none), but only where a body can be nonzero: a join
finds the instances whose bodies have an alternative made of derivable
atoms (every conjunction and hedge keeps bottom at bottom, so the others
add nothing), and ``ground`` builds them as rules.  ``least_model`` works
on atom ids: an instance is its head's id and its body atoms' ids, each
rule is compiled once into a function of those ids and of an
interpretation held as a list by id, and the join emits instances in that
form.  Rounds are semi-naive: the first reads bottom everywhere, so it
fires the facts and only the instances of rules nonzero there (one probe
per rule tells), and each later one those with a body atom that rose in
the round before, reading the interpretation the previous round left.
The iterates ascend, so an instance not fired gives at most its head's
value: every round, and so the round count, equals a full application's.
The grounding counts the Herbrand base and the fact instances before
building anything, then each rule instance as it is found, and stops at
``GROUND_LIMIT``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .algebra import GODEL, LimitError, format_value, record
from .inverse import InverseMappingTable
from .lang import (
    Atom,
    Body,
    Conj,
    Disj,
    HedgeApp,
    Program,
    Rule,
    Var,
    _pop,
    _postorder,
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


class GroundProgram(record("GroundProgram", "facts rules")):
    """``facts`` holds ``(atom, grade)`` pairs, ``rules`` ground instances (line 0)."""

    __slots__ = ()


def _bind(atom: Atom, env: dict[str, str]) -> Atom:
    """``atom`` with the constants of ``env`` in place of its variables."""
    return Atom(atom.pred, tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args))


def _rule_vars(rule: Rule) -> tuple[str, ...]:
    """The variables a rule instance binds: head first, by first occurrence."""
    return tuple(dict.fromkeys(free_vars(rule.head) + free_vars(rule.body)))


def _instance(rule: Rule, names: tuple[str, ...], combo: tuple[str, ...]) -> Rule:
    bind = functools.partial(_bind, env=dict(zip(names, combo)))
    return Rule(bind(rule.head), rule.kind, map_atoms(rule.body, bind), rule.tv)


def _frame(program: Program, limit: int) -> tuple[tuple[str, ...], int]:
    """The universe, and the Herbrand base's size plus the fact instances,
    which every grounding counts; refused up front when over ``limit``."""
    consts = program.constants() or ("a",)
    u = len(consts)
    needed = sum(u**arity for arity in program.predicates().values())
    needed += sum(u ** len(free_vars(f.atom)) for f in program.facts)
    if needed > limit:
        raise GroundingLimitError(needed, limit)
    return consts, needed


def _ground_facts(program: Program, consts: tuple[str, ...]) -> list[tuple[Atom, int]]:
    facts: list[tuple[Atom, int]] = []
    for st in program.facts:
        names = free_vars(st.atom)
        for combo in itertools.product(consts, repeat=len(names)):
            facts.append((_bind(st.atom, dict(zip(names, combo))), st.tv))
    return facts


def ground(program: Program, limit: int = GROUND_LIMIT) -> GroundProgram:
    """Every fact instance, and the rule instances whose bodies can be nonzero
    in the least model, by statement and then ``itertools.product`` order
    over the sorted constants.

    An instance is built once every atom of one of its body's alternatives
    (see ``_alternatives``) is derivable: a fact above bottom or the head of
    an instance built before.  Rule instances are counted as they are found
    and refused as soon as they would take the total over ``limit``.
    """
    consts, needed = _frame(program, limit)
    facts = _ground_facts(program, consts)
    found, _ = _relevant_bindings(program.rules, consts, facts, needed, limit)
    # sorted bindings are itertools.product order over the sorted universe
    rules = [_instance(rule, _rule_vars(rule), binding)
             for rule, bindings in zip(program.rules, found) for binding in sorted(bindings)]
    return GroundProgram(tuple(facts), tuple(rules))


def _alternatives(body: Body) -> list[tuple[Atom, ...]]:
    """Atom sets such that ``body`` is nonzero only if all atoms of one of
    them are: conjunctions and hedges keep bottom at bottom, a disjunction
    is its highest part."""
    if isinstance(body, Atom):
        return [(body,)]
    if isinstance(body, HedgeApp):
        return _alternatives(body.body)
    if isinstance(body, int):
        return [()] if body > 0 else []
    if isinstance(body, Conj):
        alts: list[tuple[Atom, ...]] = [()]
        for part in body.parts:
            alts = [tuple(dict.fromkeys(a + b)) for a in alts for b in _alternatives(part)]
        return alts
    return [alt for part in body.parts for alt in _alternatives(part)]


def _relevant_bindings(rules, universe, facts, needed, limit) -> tuple[list[dict], dict]:
    """Per rule, the bindings of its ``_rule_vars`` (constants) whose body has an
    alternative made of derivable atoms, each mapped to its head and body atom ids; and the ids.

    Semi-naive worklist join: each ground atom, once derivable, is matched
    against every alternative atom with its predicate, and the rest of that
    alternative is joined against the atoms made derivable before it,
    through indexes keyed on the argument positions already bound.
    Variables no atom of the alternative binds range over the universe.
    Ground atoms are ``(pred, args)`` tuples; a binding under construction
    is a list of variable slots followed by the rule's constants.
    """
    found: list[dict] = [{} for _ in rules]
    queue = list(dict.fromkeys((a.pred, a.args) for a, tv in facts if tv))
    derivable = set(queue)
    ids = {atom: i for i, atom in enumerate(queue)}
    # pred -> bound argument positions -> (their getter, their values -> ground args)
    indexes: dict[str, dict[tuple[int, ...], tuple]] = {}
    triggers: dict[str, list] = {}

    def emitter(found_r: dict, free: tuple[int, ...], binding, head, leaves):
        """``done(env)``: record each instance ``env`` completes over its ``free`` slots."""
        pred, head_args = head

        def add(env: list) -> None:
            nonlocal needed
            key = binding(env)
            if key in found_r:
                return
            needed += 1
            if needed > limit:
                raise GroundingLimitError(needed, limit)
            atom = (pred, head_args(env))
            found_r[key] = (ids.setdefault(atom, len(ids)), tuple(
                [ids.setdefault((p, args(env)), len(ids)) for p, args in leaves]))
            if atom not in derivable:
                derivable.add(atom)
                queue.append(atom)

        def done(env: list) -> None:
            for combo in itertools.product(universe, repeat=len(free)):
                for s, c in zip(free, combo):
                    env[s] = c
                add(env)
        return done if free else add

    def step(idx: dict, key, assign, check, then):
        """Match one more atom through ``idx``, then go on with ``then(env)``."""
        def run(env: list) -> None:
            for args in idx.get(key(env), ()):
                for p, s in assign:
                    env[s] = args[p]
                if not check or all(args[p] == env[s] for p, s in check):
                    then(env)
        return run

    for r, rule in enumerate(rules):
        names = _rule_vars(rule)
        slots = {name: i for i, name in enumerate(names)}
        template: list = [None] * len(names)

        def slot(term) -> int:
            if isinstance(term, Var):
                return slots[term.name]
            key = ("const", term)  # apart from a variable of the same name
            if key not in slots:
                slots[key] = len(template)
                template.append(term)
            return slots[key]

        head = (rule.head.pred, _getter([slot(a) for a in rule.head.args]))
        leaves = [(a.pred, _getter([slot(t) for t in a.args])) for a in atoms_of(rule.body)]
        binding = _getter(range(len(names)))
        for alt in _alternatives(rule.body):
            consts = {slot(a) for atom in alt for a in atom.args if isinstance(a, str)}
            bound = {slot(a) for atom in alt for a in atom.args}
            free = tuple(s for s in range(len(names)) if s not in bound)
            done = emitter(found[r], free, binding, head, leaves)
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
                run = done
                for pred, pos, key, assign, check in reversed(plan[1:]):
                    idx = indexes.setdefault(pred, {}).setdefault(pos, (_getter(pos), {}))[1]
                    run = step(idx, _getter(key), assign, check, run)
                triggers.setdefault(first.pred, []).append((template, *plan[0][1:], run))

    for pred, args in queue:  # grows while it is walked
        for get, idx in indexes.get(pred, {}).values():
            idx.setdefault(get(args), []).append(args)
        for template, positions, key, assign, check, run in triggers.get(pred, ()):
            env = list(template)
            if any(args[p] != env[s] for p, s in zip(positions, key)):
                continue
            for p, s in assign:
                env[s] = args[p]
            if not check or all(args[p] == env[s] for p, s in check):
                run(env)
    return found, ids


def _getter(slots):
    """``get(seq)``: the tuple of ``seq``'s items at ``slots``."""
    if len(slots) == 1:
        (s,) = slots
        return lambda seq: (seq[s],)
    return operator.itemgetter(*slots) if slots else lambda seq: ()


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


def _compile(rule: Rule, columns, n: int, cache: dict) -> tuple:
    """``grade(I, L)``: the head grade of an instance of ``rule`` under the
    interpretation ``I`` (a list by atom id) when ``L`` holds its body atoms'
    ids; and those atoms.  ``cache`` maps postfix op lists (None for an atom, a
    grade's index, a hedge's name, a connective's kind or "or" and part count;
    the rule grade is a last conjunct) to functions, nesting calls as bodies do."""
    nodes = _postorder(rule.body)
    ops = tuple(None if c is Atom else x if c is int else x.hedge if c is HedgeApp
                else ("or" if c is Disj else x.kind, len(x.parts))
                for x in nodes for c in (x.__class__,)) + (rule.tv, (rule.kind, 2))
    if (grade := cache.get(ops)) is None:
        done, count = [], itertools.count()
        for op in ops:
            if op is None:
                done.append(lambda I, L, k=next(count): I[L[k]])
            elif op.__class__ is int:
                done.append(lambda I, L, v=op: v)
            elif op.__class__ is str:
                done.append(lambda I, L, col=columns[op], f=done.pop(): col[f(I, L)])
            else:
                fs = _pop(done, op[1])
                fold = max if op[0] == "or" else min if op[0] == GODEL else (
                    lambda vs: max(sum(vs) - (len(vs) - 1) * n, 0))
                if len(fs) == 2:
                    done.append(lambda I, L, f=fs[0], g=fs[1], fold=fold: fold((f(I, L), g(I, L))))
                else:
                    done.append(lambda I, L, fs=fs, fold=fold: fold([f(I, L) for f in fs]))
        grade = cache[ops] = done[0]
    return grade, [x for x in nodes if x.__class__ is Atom]


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
    columns, n, cache = table.columns, table.domain.n, {}
    if gp is None:
        consts, needed = _frame(program, limit)
        facts = _ground_facts(program, consts)
        found, ids = _relevant_bindings(program.rules, consts, facts, needed, limit)
        instances, fired = [], []
        for rule, bindings in zip(program.rules, found):
            grade, atoms = _compile(rule, columns, n, cache)
            # round 1 reads bottom everywhere: only a rule nonzero there can raise a head
            if bindings and grade((0,), (0,) * len(atoms)):
                fired += range(len(instances), len(instances) + len(bindings))
            instances += [(head, grade, leaves) for head, leaves in bindings.values()]
        facts = [((a.pred, a.args), tv) for a, tv in facts]
    else:
        ids, instances, facts = {}, [], gp.facts
        for rule in gp.rules:
            grade, leaves = _compile(rule, columns, n, cache)
            instances.append((ids.setdefault(rule.head, len(ids)), grade,
                              tuple([ids.setdefault(a, len(ids)) for a in leaves])))
        fired = list(range(len(instances)))
    facts = [(ids.setdefault(a, len(ids)), lambda I, L, tv=tv: tv, ()) for a, tv in facts if tv]
    fired += range(len(instances), len(instances) + len(facts))
    instances += facts
    triggers: list[list[int]] = [[] for _ in ids]
    for i, (_, _, leaves) in enumerate(instances):
        for a in leaves:
            triggers[a].append(i)
    interp, raised = [0] * len(ids), {}
    # only interned atoms rise, each at most n times
    rounds, cap = 1, len(ids) * (n + 1) + 1
    while True:
        for i in fired:
            head, grade, leaves = instances[i]
            g = grade(interp, leaves)
            if g > interp[head] and g > raised.get(head, 0):
                raised[head] = g
        if not raised:  # ids are keyed by ground atoms, or by (pred, args) when built here
            return Interpretation((k if gp else Atom(*k), v)
                                  for k, v in zip(ids, interp) if v), rounds
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
        for a, g in raised.items():
            interp[a] = g
        fired, rounds, raised = {i for a in raised for i in triggers[a]}, rounds + 1, {}


def dump_model(model: Interpretation, domain) -> list[str]:
    """The model's nonzero atoms as ``atom : value`` lines, sorted by atom."""
    shown = sorted((format_atom(atom), v) for atom, v in model.items() if v)
    return [f"{text} : {format_value(domain, v)}" for text, v in shown]
