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
add nothing), and ``ground`` builds them as rules.  A predicate is a name
and an arity.  ``least_model`` has one path, which reads a ground program
it is given as statements: each rule is compiled once into a function of
an instance's atom ids and of an interpretation held as a list by id, and
the join emits instances as those ids.  Rounds are semi-naive: the first
reads bottom everywhere, so it fires the facts and only the instances of
rules nonzero there (one probe per rule tells), and each later one those
with a body atom that rose in the round before, reading what that round
left.  The iterates ascend, so an instance not fired gives at most its
head's value: every round, and so the round count, equals a full
application's.  Grounding stops at ``GROUND_LIMIT`` (see ``_relevant_bindings``).
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
    Fact,
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


class JoinLimitError(GroundingLimitError):
    subject, unit = "a rule body's join", "alternatives and plan steps"


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


def ground(program: Program, limit: int = GROUND_LIMIT) -> GroundProgram:
    """Every fact instance, and the rule instances whose bodies can be nonzero
    in the least model (see ``_relevant_bindings``), by statement and then
    ``itertools.product`` order over the sorted constants."""
    facts, found, _ = _relevant_bindings(program, limit)
    # sorted bindings are itertools.product order over the sorted universe
    rules = [Rule(bind(rule.head), rule.kind, map_atoms(rule.body, bind), rule.tv)
             for rule, bindings in zip(program.rules, found) for binding in sorted(bindings)
             for bind in (functools.partial(_bind, env=dict(zip(_rule_vars(rule), binding))),)]
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


def _join_steps(body: Body) -> int:
    """The number of ``_alternatives`` of ``body`` plus the steps of their
    join plans (``|alt|`` plans of ``|alt|`` steps each), counted without
    expanding them and before repeated atoms merge, so an upper bound."""
    done: list[tuple[int, int, int]] = []  # per part: alternatives, Σ|alt|, Σ|alt|²
    for node in _postorder(body):
        cls = node.__class__
        if cls is Atom:
            done.append((1, 1, 1))
        elif cls is int:
            done.append((int(node > 0), 0, 0))
        elif cls is Disj:
            done.append(tuple(map(sum, zip(*_pop(done, len(node.parts))))))
        elif cls is Conj:
            c, s, q = 1, 0, 0
            for c2, s2, q2 in _pop(done, len(node.parts)):
                c, s, q = c * c2, s * c2 + c * s2, q * c2 + 2 * s * s2 + c * q2
            done.append((c, s, q))
    return done[0][0] + done[0][2]


def _relevant_bindings(program: Program, limit: int) -> tuple[list, list[dict], dict]:
    """The fact instances; per rule, the bindings of its ``_rule_vars``
    (constants) whose body has an alternative made of derivable atoms, each
    mapped to its head and body atom ids; and the ids.

    The Herbrand base's size and the fact instances are counted first, then
    each rule instance as it is found, all refused past ``limit``; so is a
    body whose alternatives and join plans would take more steps, before
    either is built.  Semi-naive worklist join: each ground atom, once
    derivable, is matched against every alternative atom with its
    predicate, and the rest of that alternative is joined against the atoms
    made derivable before it, through indexes keyed on the argument
    positions already bound.  Variables no atom of the alternative binds
    range over the universe.  Ground atoms are ``(pred, args)`` tuples, and
    a predicate is its name and arity; a binding under construction is a
    list of variable slots followed by the rule's constants.
    """
    universe = program.constants() or ("a",)
    u, rules = len(universe), program.rules
    needed = sum(u**arity for _, arity in {(a.pred, len(a.args)) for a in program.atoms()})
    needed += sum(u ** len(free_vars(f.atom)) for f in program.facts)
    if needed > limit:
        raise GroundingLimitError(needed, limit)
    facts = [(_bind(st.atom, dict(zip(names, combo))), st.tv)
             for st in program.facts for names in (free_vars(st.atom),)
             for combo in itertools.product(universe, repeat=len(names))]
    found: list[dict] = [{} for _ in rules]
    queue = list(dict.fromkeys((a.pred, a.args) for a, tv in facts if tv))
    derivable = set(queue)
    ids = {atom: i for i, atom in enumerate(queue)}
    # (pred, arity) -> bound argument positions -> (their getter, their values -> ground args)
    indexes: dict[tuple[str, int], dict[tuple[int, ...], tuple]] = {}
    triggers: dict[tuple[str, int], list] = {}

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
        if (steps := _join_steps(rule.body)) > limit:
            raise JoinLimitError(steps, limit)
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
                triggers.setdefault(plan[0][0], []).append((template, *plan[0][1:], run))

    for pred, args in queue:  # grows while it is walked
        pred = pred, len(args)
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
    return facts, found, ids


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
    return (atom.pred, len(atom.args)), tuple(positions), tuple(key), tuple(assign), tuple(check)


def eval_ground_body(body: Body, interp: Interpretation, table: InverseMappingTable) -> int:
    """Value of a ground body, its atoms read from ``interp``."""
    return value(body, interp.__getitem__, table.columns, table.domain.n)


def _compile(rule: Rule, columns, n: int) -> tuple:
    """``grade(I, L)``: the head grade of an instance of ``rule`` under the
    interpretation ``I`` (a list by atom id) when ``L`` holds its body atoms'
    ids; and those atoms.  The rule grade is a last conjunct, and each node
    becomes a function that calls its parts', nesting as the body does."""
    nodes = _postorder(Conj(rule.kind, (rule.body, rule.tv)))
    done, count = [], itertools.count()
    for x in nodes:
        cls = x.__class__
        if cls is Atom:
            done.append(lambda I, L, k=next(count): I[L[k]])
        elif cls is int:
            done.append(lambda I, L, v=x: v)
        elif cls is HedgeApp:
            done.append(lambda I, L, col=columns[x.hedge], f=done.pop(): col[f(I, L)])
        else:
            fs = _pop(done, len(x.parts))
            fold = max if cls is Disj else min if x.kind == GODEL else (
                lambda vs: max(sum(vs) - (len(vs) - 1) * n, 0))
            if len(fs) == 2:
                done.append(lambda I, L, f=fs[0], g=fs[1], fold=fold: fold((f(I, L), g(I, L))))
            else:
                done.append(lambda I, L, fs=fs, fold=fold: fold([f(I, L) for f in fs]))
    return done[0], [x for x in nodes if x.__class__ is Atom]


def least_model(
    program: Program,
    table: InverseMappingTable,
    mode: str = "naive",
    limit: int = GROUND_LIMIT,
    gp: GroundProgram | None = None,
) -> tuple[Interpretation, int]:
    """Least model and the number of consequence-operator rounds taken to
    settle on it, over the relevant instances of ``program``, or of ``gp``'s
    facts and rules read as statements when given: an instance whose body
    is bottom gives its head bottom, so dropping it changes neither the
    model nor the rounds.  Both modes run the same engine."""
    if mode not in ("naive", "delta"):
        raise ValueError(f"unknown evaluation mode: {mode!r}")
    if gp is not None:
        program = Program(tuple(Fact(atom, tv) for atom, tv in gp.facts) + gp.rules)
    columns, n = table.columns, table.domain.n
    facts, found, ids = _relevant_bindings(program, limit)
    instances, fired = [], []
    for rule, bindings in zip(program.rules, found):
        grade, atoms = _compile(rule, columns, n)
        # round 1 reads bottom everywhere: only a rule nonzero there can raise a head
        if bindings and grade((0,), (0,) * len(atoms)):
            fired += range(len(instances), len(instances) + len(bindings))
        instances += [(head, grade, leaves) for head, leaves in bindings.values()]
    facts = [(ids[a.pred, a.args], lambda I, L, tv=tv: tv, ()) for a, tv in facts if tv]
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
        if not raised:
            return Interpretation((Atom(*k), v) for k, v in zip(ids, interp) if v), rounds
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
        for a, g in raised.items():
            interp[a] = g
        fired, rounds, raised = {i for a in raised for i in triggers[a]}, rounds + 1, {}


def dump_model(model: Interpretation, domain) -> list[str]:
    """The model's nonzero atoms as ``atom : value`` lines, sorted by atom."""
    shown = sorted((format_atom(atom), v) for atom, v in model.items() if v)
    return [f"{text} : {format_value(domain, v)}" for text, v in shown]
