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
it is given as statements.  The join interns ground atoms as ids and emits
each instance as the ids of its head and body atoms; a matched atom's id
rides along in the binding.  Each rule is compiled once into a function
grading a batch of its instances over an interpretation held as a list by
id.  Rounds are semi-naive: the first reads bottom everywhere, so it fires
the facts and only the instances of rules nonzero there (one probe per
rule tells), and each later one those with a body atom that rose in the
round before, reading what that round left, each rule's share as one
batch.  The iterates ascend, so an instance not fired gives at most its
head's value: every round, and so the round count, equals a full
application's.  Grounding stops at ``GROUND_LIMIT`` instances and
``JOIN_LIMIT`` join steps (see ``_relevant_bindings``).
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import operator

from .algebra import GODEL, LUKA, LimitError, format_value, record
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
JOIN_LIMIT = 10**6


class GroundingLimitError(LimitError):
    subject, unit = "grounding", "instances"


class JoinLimitError(GroundingLimitError):
    subject, unit = "joining the rule bodies", "alternatives and plan steps"


class Interpretation(dict):
    """Ground atom -> domain index; missing atoms sit at bottom."""

    def __missing__(self, key) -> int:
        return 0


# ``facts`` holds ``(atom, grade)`` pairs, ``rules`` ground instances (line 0).
GroundProgram = record("GroundProgram", "facts rules")


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
    each rule instance as it is found, all refused past ``limit``; the
    steps of the program's alternatives and join plans, past ``JOIN_LIMIT``
    and before any is built.  Semi-naive worklist join: each ground atom,
    once derivable, is matched against every alternative atom with its
    predicate, and the rest of that alternative is joined against the atoms
    made derivable before it, through indexes keyed on the argument
    positions already bound.  Variables no atom of the alternative binds
    range over the universe.  Ground atoms are ``(pred, args)`` tuples, and
    a predicate is its name and arity; a binding under construction is a
    list of variable slots, the rule's constants, and one slot per body
    atom, which its match fills with the atom's id."""
    universe = program.constants() or ("a",)
    u, rules = len(universe), program.rules
    needed = sum(u**arity for _, arity in {(a.pred, len(a.args)) for a in program.atoms()})
    needed += sum(u ** len(free_vars(f.atom)) for f in program.facts)
    if needed > limit:
        raise GroundingLimitError(needed, limit)
    if (steps := sum(_join_steps(rule.body) for rule in rules)) > JOIN_LIMIT:
        raise JoinLimitError(steps, JOIN_LIMIT)
    facts = [(_bind(st.atom, dict(zip(names, combo))), st.tv)
             for st in program.facts for names in (free_vars(st.atom),)
             for combo in itertools.product(universe, repeat=len(names))]
    found: list[dict] = [{} for _ in rules]
    ids = {a: i for i, a in enumerate(dict.fromkeys((a.pred, a.args) for a, tv in facts if tv))}
    queue = [((pred, len(args)), args, i) for (pred, args), i in ids.items()]
    derivable = set(ids.values())
    # (pred, arity) -> bound argument positions -> (their getter, their values -> [(args, id)])
    indexes: dict[tuple[str, int], dict[tuple[int, ...], tuple]] = collections.defaultdict(dict)
    triggers: dict[tuple[str, int], list] = collections.defaultdict(list)

    def walk(plan: list, env: list, add, entries) -> None:
        """Match ``plan``, its first atom against ``entries`` and each next one
        through its index, ids into their slots, then ``add(env)``; in a loop."""
        todo, n = [iter(entries)], len(plan)  # per atom matched so far, its candidates left
        while todo:
            k = len(todo)
            _, _, _, assign, check, at = plan[k - 1]
            for args, i in todo[-1]:
                for p, s in assign:
                    env[s] = args[p]
                if not check or all(args[p] == env[s] for p, s in check):
                    env[at] = i
                    if k == n:
                        add(env)
                    else:
                        _, idx, key, _, _, _ = plan[k]
                        todo.append(iter(idx.get(key(env), ())))
                        break
            else:
                todo.pop()

    anything = {(): [((c,), c) for c in universe]}  # for a variable no atom binds: c, "id" c
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

        head = [slot(a) for a in rule.head.args]
        body = list(atoms_of(rule.body))
        leaves = [(a.pred, _getter([slot(t) for t in a.args])) for a in body]
        at = {a: len(template) + k for k, a in reversed(list(enumerate(body)))}  # id slots
        template += [None] * len(body)
        for alt in _alternatives(rule.body):
            bound, inside = {slot(a) for atom in alt for a in atom.args}, set(alt)

            def add(env: list, found_r=found[r], binding=_getter(range(len(names))),
                    pred=rule.head.pred,
                    head_args=_getter(head), key=(rule.head.pred, len(head)),
                    leaf_ids=_getter([at[a] for a in body]),
                    outside=[(at[a], *leaf) for a, leaf in zip(body, leaves) if a not in inside]):
                """Record the instance ``env`` completes; intern the other body atoms first."""
                nonlocal needed
                args = head_args(env)
                h = ids.setdefault((pred, args), len(ids))
                for s, p, get in outside:
                    env[s] = ids.setdefault((p, get(env)), len(ids))
                instance = h, leaf_ids(env)
                if found_r.setdefault(binding(env), instance) is not instance:
                    return
                needed += 1
                if needed > limit:
                    raise GroundingLimitError(needed, limit)
                if h not in derivable:
                    derivable.add(h)
                    queue.append((key, args, h))

            free = [(None, anything, _getter(()), ((0, s),), (), s)
                    for s in range(len(names)) if s not in bound]
            if not alt:
                walk(free, list(template), add, anything[()]) if free else add(list(template))
            consts = {slot(a) for atom in alt for a in atom.args if isinstance(a, str)}
            for first, plan in zip(alt, _plans(alt, slot, consts, indexes, at)):
                triggers[first.pred, len(first.args)].append((plan + free, template, add))

    for pred, args, i in queue:  # grows while it is walked
        for get, idx in indexes[pred].values():
            idx.setdefault(get(args), []).append((args, i))
        for plan, template, add in triggers[pred]:
            get, _, key = plan[0][:3]
            if get(args) == key(template):  # the constants of the first atom
                walk(plan, list(template), add, ((args, i),))
    return facts, found, ids


def _plans(alt: tuple[Atom, ...], slot, consts: set[int], indexes: dict, at: dict):
    """Per first atom of ``alt``, its join plan as ``_step``s: next, the atom
    with the most argument positions bound, the earliest on ties, from a
    heap of those counts that a step updates only where it fills a slot."""
    describe = functools.cache(lambda j, bound, first: _step(
        alt[j], slot, bound, {} if first else indexes[alt[j].pred, len(alt[j].args)], at))
    slots = [[slot(t) for t in atom.args] for atom in alt]
    uses: dict[int, list[int]] = {}  # slot -> its atoms, once per argument position
    for j, ss in enumerate(slots):
        for s in ss:
            uses.setdefault(s, []).append(j)
    start = [sum(s in consts for s in ss) for ss in slots]
    for first in range(len(alt)):
        seen, count, plan = set(consts), start[:], []
        heap = [(-c, j) for j, c in enumerate(start)] + [(float("-inf"), first)]
        heapq.heapify(heap)
        while heap:
            c, j = heapq.heappop(heap)
            if count[j] is None or -c < count[j]:
                continue  # done, or counted again since
            plan.append(describe(j, tuple(s for s in slots[j] if s in seen), j == first))
            count[j] = None
            for s in set(slots[j]) - seen:
                seen.add(s)
                for k in uses[s]:
                    if count[k] is not None:
                        count[k] += 1
                        heapq.heappush(heap, (-count[k], k))
        yield plan


def _getter(slots):
    """``get(seq)``: the tuple of ``seq``'s items at ``slots``."""
    if len(slots) == 1:
        (s,) = slots
        return lambda seq: (seq[s],)
    return operator.itemgetter(*slots) if slots else lambda seq: ()


def _step(atom: Atom, slot, bound: tuple[int, ...], indexes: dict, at: dict) -> tuple:
    """How ``walk`` matches ``atom`` once its slots in ``bound`` hold values:
    the index on the positions bound, from ``indexes`` by positions (its
    getter, its entries by value), their slots' getter, the slots the others
    fill, repeats to compare, its id's slot.  A plan's first atom is matched
    by the arriving atom itself, so its index is a throwaway one."""
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
    pos = tuple(positions)
    get, idx = indexes.setdefault(pos, (_getter(pos), {}))
    return get, idx, _getter(key), tuple(assign), tuple(check), at[atom]


def eval_ground_body(body: Body, interp: Interpretation, table: InverseMappingTable) -> int:
    """Value of a ground body, its atoms read from ``interp``."""
    return value(body, interp.__getitem__, table.columns, table.domain.n)


_FOLDS = {  # two columns of part grades into one, pairwise
    "or": lambda a, b: [x if x > y else y for x, y in zip(a, b)],
    GODEL: lambda a, b: [x if x < y else y for x, y in zip(a, b)],
    LUKA: lambda a, b: [x + y for x, y in zip(a, b)],  # then cut, clamped at 0
}


def _compile(rule: Rule, columns, n: int) -> tuple:
    """``grade(I, Ls)``: the head grades of the instances of ``rule`` whose
    body atoms' ids are the tuples in ``Ls``, under the interpretation ``I``
    (a list by atom id); and those atoms.  The rule grade is a last
    conjunct, and each node grades the whole batch at once: an atom reads a
    column of grades, a hedge maps it, a connective folds its parts'."""
    nodes = _postorder(Conj(rule.kind, (rule.body, rule.tv)))
    done, count = [], itertools.count()
    for x in nodes:
        cls = x.__class__
        if cls is Atom:
            done.append(lambda I, Ls, k=next(count): [I[L[k]] for L in Ls])
        elif cls is int:
            done.append(lambda I, Ls, v=x: [v] * len(Ls))
        elif cls is HedgeApp:
            done.append(lambda I, Ls, c=columns[x.hedge], f=done.pop(): [c[v] for v in f(I, Ls)])
        else:
            fs = _pop(done, len(x.parts))
            fold = _FOLDS["or" if cls is Disj else x.kind]
            cut = (len(fs) - 1) * n if fold is _FOLDS[LUKA] else 0

            def node(I, Ls, fs=fs, fold=fold, cut=cut):
                vs = fs[0](I, Ls)
                for f in fs[1:]:
                    vs = fold(vs, f(I, Ls))
                return [v - cut if v > cut else 0 for v in vs] if cut else vs
            done.append(node)
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
    model nor the rounds.  Both modes run the same engine, which interns
    atoms as ids and grades each rule's fired instances as one batch."""
    if mode not in ("naive", "delta"):
        raise ValueError(f"unknown evaluation mode: {mode!r}")
    if gp is not None:
        program = Program(tuple(Fact(atom, tv) for atom, tv in gp.facts) + gp.rules)
    columns, n = table.columns, table.domain.n
    facts, found, ids = _relevant_bindings(program, limit)
    # instances numbered by rule: their head ids and body atom ids side by side
    heads, leaves, batches, fired = [], [], [], []
    for rule, bindings in zip(program.rules, found):
        if bindings:
            grade, atoms = _compile(rule, columns, n)
            lo = len(heads)
            heads += [h for h, _ in bindings.values()]
            leaves += [L for _, L in bindings.values()]
            batches.append((lo, len(heads), grade))
            # round 1 reads bottom everywhere: only a rule nonzero there can raise a head
            if grade((0,), [(0,) * len(atoms)])[0]:
                fired += range(lo, len(heads))
    triggers: list[list[int]] = [[] for _ in ids]  # atom id -> the instances reading it
    for i, L in enumerate(leaves):
        for a in L:
            triggers[a].append(i)
    interp = [0] * len(ids)
    graded = [([ids[a.pred, a.args] for a, tv in facts if tv], [tv for _, tv in facts if tv])]
    # only interned atoms rise, each at most n times
    rounds, cap = 1, len(ids) * (n + 1) + 1
    while True:
        for lo, hi, grade in batches:
            mine = fired[bisect.bisect_left(fired, lo):bisect.bisect_left(fired, hi)]
            if mine:
                graded.append(([heads[i] for i in mine], grade(interp, [leaves[i] for i in mine])))
        raised = []
        for hs, gs in graded:
            for h, g in zip(hs, gs):
                if g > interp[h]:
                    interp[h] = g
                    raised.append(h)
        if not raised:
            atoms = map(Atom._make, itertools.compress(ids, interp))
            return Interpretation(zip(atoms, itertools.compress(interp, interp))), rounds
        if rounds > cap:
            raise RuntimeError("consequence operator failed to settle")
        fired = sorted(set(itertools.chain.from_iterable(map(triggers.__getitem__, set(raised)))))
        rounds, graded = rounds + 1, []


def dump_model(model: Interpretation, domain) -> list[str]:
    """The model's nonzero atoms as ``atom : value`` lines, sorted by atom."""
    shown = sorted((format_atom(atom), v) for atom, v in model.items() if v)
    return [f"{text} : {format_value(domain, v)}" for text, v in shown]
