"""Top-down resolution for graded logic programs.

A query is turned into a goal word: a body of the program language whose
atoms are open or resolved to their grades (plain ints), rewritten step
by step.  Each step picks the leftmost open atom and pushes one branch per
rewrite: a matching fact's grade, a matching rule's body (joined with the
rule grade under the rule's own conjunction), and, taken last, a bottom
grade, when nothing in the program matches the atom or it is open inside a
disjunction.  A statement's head variables are bound to the atom's terms,
so only the variables a rule body adds get fresh ``~tag`` names, and the
substitution grows only when a goal variable is bound.  When no atoms
remain the word's value, hedges going through the inverse mapping, is a
computed answer together with the bindings of the query variables.

One bound prunes the search.  Every connective and hedge column is
monotone, so a node that must reach ``want`` gives each part a least
useful value, its lower residual (Vojtáš, "Fuzzy logic programming", FSS
2001): :func:`_need`, ``n + 1`` when no value will do.  A word is a zipper
(Huet 1997): the replacement in focus under a shared chain of frames, each
a connective or hedge with a hole, its resolved parts folded, its open
parts and ``need``, what the hole must reach for the word to reach
``max(threshold, 1)`` with its open atoms at ``cap``, the greatest grade
an atom can reach (``n`` without a threshold).  A focus carries its value
so valued, and one below ``need`` is cut; without a threshold it ends in
one bottom answer, so recursion through an unmatched atom ends.  Under a
threshold the ``need`` of the selected atom also skips the statements
that cannot reach it, and cuts the atom when nothing matches it; a
threshold of 0 bounds nothing.  Pruned search thus returns exactly the
answers of unpruned search that pass the threshold, in the same order.
Each state pushed counts its depth plus its substitution's bindings; past
``SEARCH_LIMIT`` such entries :class:`SearchLimitError` ends left
recursion and cycles that no depth bound stops.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

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
    Term,
    Var,
    format_atom,
    format_body,
    free_vars,
    map_atoms,
    value,
)


SEARCH_LIMIT = 8 * 10**6


class SearchLimitError(LimitError):
    """``trace`` holds the lines traced before the search gave up."""

    subject, unit = "the search", "entries"
    trace: tuple[str, ...] = ()


# A dataclass, not a record: perfbench/tracing.py calls dataclasses.replace on it.
@dataclass(frozen=True)
class SolveOptions:
    depth: int | None = 64  # None or 0: unlimited
    threshold: int | None = None
    best: bool = False
    exhaustive: bool = False
    trace: bool = False

    def __post_init__(self):
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"depth must be None or 0 or more, not {self.depth}")


# ``bindings`` pairs query variables with terms.
ComputedAnswer = record("ComputedAnswer", "value bindings")
SolveResult = record("SolveResult", "answers depth_exhausted trace", defaults=(False, ()))


# ---------------------------------------------------------------------------
# bounds

def _need(node, want: int, rest: int, columns, n: int) -> int:
    """Least value of one part of ``node`` (a connective, a hedge, or a rule
    whose other part is its grade) with which ``node`` reaches ``want``, its
    other parts folded to ``rest``; ``n + 1`` when no value does."""
    if node.__class__ is HedgeApp:
        return bisect_left(columns[node.hedge], want)  # columns are monotone
    if node.__class__ is Disj:
        return 0 if rest >= want else want
    if node.kind == GODEL:
        return want if rest >= want else n + 1
    return min(want + n - rest, n + 1) if want else 0


# (program, table, thresholded, prepared) for the last program solved, so
# that a REPL session, which passes one program to every query, prepares it once.
_last: tuple = (None, None, None, None)


def _prepare(program: Program, table: InverseMappingTable, thresholded: bool) -> tuple[int, dict]:
    """``cap``, the value of an open atom, and entries ``(pos, statement, head,
    tagged, bound, key, local)`` by the head's predicate, and by ``(pred, c)``
    for a first argument ``c``, ``None`` for a variable: the statement's value
    at ``cap``, its best-first rank and its rule body's own variables.  Under
    a threshold ``cap`` is ``n - 1`` when no statement reaches ``n`` from atoms
    at ``n - 1``, so no atom is ever graded top; else it is ``n``."""
    global _last
    if _last[:3] != (program, table, thresholded):  # the same objects compare at once
        n = table.domain.n
        for cap in (n - 1, n) if thresholded else (n,):
            bounds = [st.tv if isinstance(st, Fact) else value(
                Conj(st.kind, (st.body, st.tv)), lambda atom: cap, table.columns, n
            ) for st in program.statements]
            if n not in bounds:
                break
        by_head: dict = {}
        for pos, (st, bound) in enumerate(zip(program.statements, bounds)):
            if isinstance(st, Fact):
                head, key, local = st.atom, (-st.tv, 0, 0, pos), ()
            else:
                head, key = st.head, (-st.tv, 1, 0 if st.kind == GODEL else 1, pos)
                local = tuple(v for v in free_vars(st.body) if v not in free_vars(head))
            tagged = not isinstance(st, Fact) or any(isinstance(a, Var) for a in head.args)
            first = head.args[0] if head.args else None
            for k in (head.pred, (head.pred, first if isinstance(first, str) else None)):
                by_head.setdefault(k, []).append((pos, st, head, tagged, bound, key, local))
        _last = (program, table, thresholded, (cap, by_head))
    return _last[3]


# ---------------------------------------------------------------------------
# substitutions (terms are flat, so no occurs check is needed)

def walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def subst_atom(atom: Atom, subst: dict[str, Term]) -> Atom:
    if not atom.args:
        return atom
    return Atom(atom.pred, tuple(walk(a, subst) for a in atom.args))


def _match(params: tuple, args: tuple, subst: dict[str, Term]) -> tuple | None:
    """``(env, subst)``, ``env`` binding a head's variables ``params`` to the
    walked goal terms ``args`` and ``subst`` copied only if a goal variable
    is bound; None when they do not match."""
    if len(params) != len(args):
        return None
    env, s = {}, subst
    for p, t in zip(params, args):
        if p.__class__ is Var:
            p = env.setdefault(p.name, t)  # a goal term, as t is
        if s is not subst:
            p, t = walk(p, s), walk(t, s)
        if p is t or p == t:
            continue
        if t.__class__ is Var:
            name, term = t.name, p
        elif p.__class__ is Var:
            name, term = p.name, t
        else:
            return None
        if s is subst:
            s = dict(subst)
        s[name] = term
    return env, s


# ---------------------------------------------------------------------------
# goal words as zippers

def _fold(word: Conj | Disj, acc: int, v: int, n: int) -> int:
    if isinstance(word, Disj):
        return acc if acc > v else v
    return (v if v < acc else acc) if word.kind == GODEL else max(acc + v - n, 0)


def _root(floor: int) -> tuple:
    """The frame above the whole word, which must reach ``floor``."""
    return (None, (), 0, (), floor, False, None, None)


def _frame(
    word: Body, lefts: tuple, acc: int, rights: tuple, up: tuple, leaf, columns, n: int
) -> tuple:
    """Frame ``(word, lefts, acc, rights, need, in_disj, up, step)`` of a hole
    in ``word`` inside ``up``, after ``lefts`` (resolved, folded to ``acc``),
    before ``rights``, whose open atoms ``leaf`` values; ``in_disj`` when
    ``word`` or a word above it is a disjunction.  When the hole is the last
    open part, ``step`` folds a value through the frame: a hedge's column, or
    the connective's other parts folded.  A part in ``lefts`` may be an entry
    ``(node, hole, stop)``, ``node`` plugged up from ``hole`` to below ``stop``."""
    rest = acc
    for part in rights:
        rest = _fold(word, rest, value(part, leaf, columns, n), n)
    last = all(part.__class__ is int for part in rights)
    step = columns[word.hedge] if word.__class__ is HedgeApp else rest if last else None
    need = _need(word, up[4], rest, columns, n)
    return (word, lefts, acc, rights, need, up[5] or word.__class__ is Disj, up, step)


def _next(node: Body, up: tuple, leaf, columns, n: int) -> tuple:
    """The leftmost open atom at or after the focus ``node`` and the frame
    of its hole, else ``(None, None, value of the whole word)``."""
    while True:
        while not isinstance(node, (Atom, int)):  # down to the leftmost leaf
            if isinstance(node, HedgeApp):
                up, node = _frame(node, (), 0, (), up, leaf, columns, n), node.body
            else:
                acc = n if isinstance(node, Conj) else 0
                up, node = _frame(node, (), acc, node.parts[1:], up, leaf, columns, n), node.parts[0]
        if isinstance(node, Atom):
            return node, up, None
        v, hole, step = node, up, up[7]
        while step is not None:  # up through frames whose hole was their last open part
            if step.__class__ is not int:
                v = step[v]
            elif up[0].__class__ is Disj:
                v = v if v > step else step
            elif up[0].kind == GODEL:
                v = v if v < step else step
            else:
                v = v + step - n if v + step > n else 0
            up, step = up[6], up[6][7]
        word, lefts, acc, rights, _, _, above, _ = up
        if word is None:
            return None, None, v
        acc, lefts = _fold(word, acc, v, n), lefts + (node if hole is up else (node, hole, up),)
        while rights[0].__class__ is int:  # resolved already; an open part follows
            acc, lefts, rights = _fold(word, acc, rights[0], n), lefts + rights[:1], rights[1:]
        up, node = _frame(word, lefts, acc, rights[1:], above, leaf, columns, n), rights[0]


def _plug(node: Body, up: tuple) -> Body:
    """The whole goal word with ``node`` in the hole of ``up``, entries rebuilt
    inner ones first, in a loop so that words of any depth plug."""
    built: dict[int, Body] = {}
    todo = [(node, up, None)]
    while todo:
        node, up, stop = todo[-1]
        frames = []
        while up is not stop and up[0] is not None:
            frames.append(up)
            up = up[6]
        inner = [p for f in frames for p in f[1] if p.__class__ is tuple and id(p) not in built]
        if inner:
            todo += inner
            continue
        for word, lefts, _, rights, *_ in frames:
            if word.__class__ is HedgeApp:
                node = HedgeApp(word.hedge, node)
            else:
                parts = tuple(built[id(p)] if p.__class__ is tuple else p for p in lefts)
                node = word._replace(parts=parts + (node,) + rights)
        built[id(todo.pop())] = node
    return node


def format_word(word: Body, subst: dict[str, Term] | None = None) -> str:
    s = subst or {}
    return format_body(map_atoms(word, lambda a: subst_atom(a, s)))


# ---------------------------------------------------------------------------
# search

def solve(
    program: Program,
    table: InverseMappingTable,
    query: Body,
    options: SolveOptions | None = None,
) -> SolveResult:
    """Answers to ``query``; raises :class:`SearchLimitError` past ``SEARCH_LIMIT``."""
    opts = options or SolveOptions()
    columns, n = table.columns, table.domain.n
    # Open atoms are valued at the greatest grade they can reach, or at n
    # without a threshold, where a cut word still ends in a bottom answer.
    cap, by_head = _prepare(program, table, bool(opts.threshold))
    leaf = lambda atom: cap
    floor = max(opts.threshold or 0, 1)
    trace: list[str] = []
    qvars = free_vars(query)

    bound = value(query, leaf, columns, n)
    if opts.threshold and bound < floor:
        return SolveResult((), False, ())
    if opts.trace:
        trace.append(f"goal {format_word(query)}")

    fresh = itertools.count(1)
    answers: list[ComputedAnswer] = []
    exhausted = False
    # (focus, its value with open atoms at cap, its hole's frame, substitution, depth, note)
    stack: list[tuple] = [(query, bound, _root(floor), {}, 0, None)]
    pushed = 0

    while stack:
        if pushed > SEARCH_LIMIT:
            err = SearchLimitError(pushed, SEARCH_LIMIT)
            err.trace = tuple(trace)
            raise err
        focus, bound, up, subst, depth, note = stack.pop()
        if note is not None and opts.trace:
            trace.append(note)
        if bound < up[4]:
            if opts.trace:
                trace.append(f"[{depth}] cut {format_word(_plug(focus, up), subst)} (below bound)")
            if opts.threshold:
                continue
            sel, grade = None, 0  # without a threshold the cut word ends in one bottom answer
        else:
            sel, up, grade = _next(focus, up, leaf, columns, n)
        if sel is None:
            bindings = tuple((v, walk(Var(v), subst)) for v in qvars)
            answers.append(ComputedAnswer(grade, bindings))
            if opts.trace:
                trace.append(f"[{depth}] computed v{grade}")
            continue

        atom = subst_atom(sel, subst)
        need = up[4] if opts.threshold else 0
        unifiable = False
        branches: list[tuple] = []
        first = atom.args[0] if atom.args else None
        if isinstance(first, str):  # heads with this constant or a variable first
            candidates = by_head.get((atom.pred, first), []) + by_head.get((atom.pred, None), [])
        else:
            candidates = by_head.get(atom.pred, ())
        for pos, st, head, tagged, bound, key, local in candidates:
            tag = str(next(fresh)) if tagged else None  # drawn per candidate: names stay put
            if (matched := _match(head.args, atom.args, subst)) is None:
                continue
            unifiable = True
            if bound < need:
                continue
            env, s2 = matched
            if isinstance(st, Fact):
                replacement: Body = st.tv
            else:
                env.update((name, Var(f"{name}~{tag}")) for name in local)
                body = map_atoms(st.body, lambda a: Atom(a.pred, tuple(
                    env[t.name] if t.__class__ is Var else t for t in a.args)))
                replacement = Conj(st.kind, (body, st.tv))
            branches.append((pos if opts.exhaustive else key, replacement, s2, bound))

        if not branches and (unifiable or need):
            if opts.trace:
                why = "below bound" if unifiable else "nothing matches"
                trace.append(f"[{depth}] cut {format_atom(atom)} ({why})")
            continue
        if opts.depth and depth >= opts.depth and any(b[1].__class__ is Conj for b in branches):
            exhausted = True  # the depth counts rule unfoldings: facts stay
            if opts.trace:
                trace.append(f"[{depth}] depth limit at {format_atom(atom)}")
            branches = [b for b in branches if b[1].__class__ is int]
        branches.sort(key=lambda b: b[0])

        # A bottom grade is one more branch, taken last: the grade of an atom
        # that nothing matches, and a choice for an open atom inside a
        # disjunction.  That releases its variables, so a sibling disjunct can
        # still bind them to something the facts for this atom would have
        # ruled out; anywhere else a bottom grade annihilates the whole branch.
        if not unifiable or up[5] and any(isinstance(a, Var) for a in atom.args):
            if opts.trace and not unifiable:  # noted at selection: the search limit may come first
                trace.append(f"[{depth}] {format_atom(atom)} graded bottom")
            branches.append((None, 0, subst, 0))
        for key, replacement, s2, bound in reversed(branches):
            note = None
            if opts.trace:
                if key is not None:
                    note = f"[{depth}] {format_atom(atom)} -> {format_word(replacement, s2)}"
                elif unifiable:
                    note = f"[{depth}] {format_atom(atom)} graded bottom (open choice)"
            d = depth + (replacement.__class__ is Conj)
            stack.append((replacement, bound, up, s2, d, note))
            pushed += d + len(s2)

    if opts.best:  # one answer per binding as shown, every unbound variable alike
        best: dict[tuple, ComputedAnswer] = {}
        for a in answers:
            shown = tuple(t if t.__class__ is str else None for _, t in a.bindings)
            prev = best.get(shown)
            if prev is None or a.value > prev.value:
                best[shown] = a
        answers = sorted(best.values(), key=lambda a: -a.value)
    return SolveResult(tuple(answers), exhausted, tuple(trace))


def format_answer(domain, answer: ComputedAnswer) -> str:
    parts = []
    for name, term in answer.bindings:
        shown = term if isinstance(term, str) else "_"
        parts.append(f"{name}={shown}")
    shown = f" {', '.join(parts)}" if parts else ""
    return f"answer:{shown} ; tv={format_value(domain, answer.value)}"
