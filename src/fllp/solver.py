"""Top-down resolution for graded logic programs.

A query is turned into a goal word: a body of the program language whose
atoms are open or resolved to their grades (plain ints), rewritten step
by step.  Each step picks the leftmost open atom and pushes one branch per
rewrite: a matching fact's grade, a matching rule's word (its body joined
with the rule grade under the rule's own conjunction), and, taken last, a
bottom grade, when nothing in the program matches the atom or it is open
inside a disjunction.  A rule's word is built once per program and shared
by its unfoldings (Boyer and Moore 1972): each binds it an ``env``, the
head's variables to the atom's terms and the body's own to fresh ``~tag``
names, and the substitution grows only when a goal variable is bound.
When no atoms remain the word's value, hedges going through the inverse
mapping, is a computed answer with the bindings of the query variables.

One bound prunes the search.  Every connective and hedge column is
monotone, so a node that must reach ``want`` gives each part a least
useful value, its lower residual (Vojtáš, "Fuzzy logic programming", FSS
2001): :func:`_need`, ``n + 1`` when no value will do.  A word is a zipper
(Huet 1997): the replacement in focus under a shared chain of frames, each
a connective or hedge with a hole, its word's ``env``, its resolved parts
folded, its open parts and ``need``, what the hole must reach for the word
to reach ``max(threshold, 1)`` with its open atoms at ``cap``, the greatest
grade an atom can reach (``n`` without a threshold); the open parts fold
through their connective's row, tabulated once (:func:`_rows`).  A focus
carries its value so valued, and one below ``need`` is cut; without a
threshold it ends in one bottom answer, so recursion through an unmatched
atom ends.  Under a threshold the ``need`` of the selected atom also skips
the statements that cannot reach it, and cuts the atom when nothing
matches it; a threshold of 0 bounds nothing.  Pruned search thus returns
exactly the answers of unpruned search that pass the threshold, in the
same order.  Each state pushed counts its depth plus its substitution's
bindings; past ``SEARCH_LIMIT`` such entries the search stops, which ends
left recursion and cycles that no depth bound stops, and hands back what
it built.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left

from .algebra import GODEL, LimitError, format_value, record
from .inverse import InverseMappingTable
from .program import (
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
    value,
)


SEARCH_LIMIT = 8 * 10**6


class SearchLimitError(LimitError):
    """``result``: the :class:`SolveResult` built before the search stopped."""

    subject, unit = "the search", "entries"

    def __init__(self, needed: int, limit: int, result):
        super().__init__(needed, limit)
        self.result = result


def __getattr__(name: str):
    """``SolveOptions``, a frozen dataclass built on first use (PEP 562) and
    cached in the module, so that importing the solver, and so ``fllp
    query``, loads no ``dataclasses``.  It is a dataclass, not a record,
    because perfbench/tracing.py calls ``dataclasses.replace`` on it;
    :func:`solve` reads only its five fields."""
    if name != "SolveOptions":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in globals():  # solve calls this directly for its default
        return globals()[name]
    from dataclasses import dataclass

    class SolveOptions:
        __qualname__ = "SolveOptions"
        depth: int | None = 64  # None or 0: unlimited
        threshold: int | None = None
        best: bool = False
        exhaustive: bool = False
        trace: bool = False

        def __post_init__(self):
            if self.depth is not None and self.depth < 0:
                raise ValueError(f"depth must be None or 0 or more, not {self.depth}")

    globals()[name] = cls = dataclass(frozen=True)(SolveOptions)
    return cls


# ``bindings`` pairs query variables with terms.
ComputedAnswer = record("ComputedAnswer", "value bindings")
SolveResult = record("SolveResult", "answers depth_exhausted trace")


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


def _prepare(program: Program, table: InverseMappingTable, thresholded: bool) -> tuple:
    """``cap``, the value of an open atom; entries ``(pos, word, head, tagged,
    bound, key, local)`` by the head's predicate, and by ``(pred, c)`` for a
    first argument ``c``, ``None`` for a variable: a fact's grade or a rule's
    shared word ``Conj(kind, (body, tv))``, its value at ``cap``, its rank
    and its body's own variables; and the words' :func:`_rows`.  Under a
    threshold ``cap`` is ``n - 1`` when no statement reaches ``n`` from atoms
    at ``n - 1``, so no atom is ever graded top; else it is ``n``."""
    global _last
    if _last[:3] != (program, table, thresholded):  # the same objects compare at once
        n = table.domain.n
        words = [st.tv if isinstance(st, Fact) else Conj(st.kind, (st.body, st.tv))
                 for st in program.statements]
        for cap in (n - 1, n) if thresholded else (n,):
            bounds = [value(word, lambda atom: cap, table.columns, n) for word in words]
            if n not in bounds:
                break
        by_head: dict = {}
        for pos, (st, word, bound) in enumerate(zip(program.statements, words, bounds)):
            if isinstance(st, Fact):
                head, key, local = st.atom, (-st.tv, 0, 0, pos), ()
            else:
                head, key = st.head, (-st.tv, 1, 0 if st.kind == GODEL else 1, pos)
                local = tuple(v for v in free_vars(st.body) if v not in free_vars(head))
            tagged = not isinstance(st, Fact) or any(isinstance(a, Var) for a in head.args)
            first = head.args[0] if head.args else None
            for k in (head.pred, (head.pred, first if isinstance(first, str) else None)):
                by_head.setdefault(k, []).append((pos, word, head, tagged, bound, key, local))
        # the rows are keyed by the ids of the words that by_head keeps alive
        _last = (program, table, thresholded, (cap, by_head, _rows(words, cap, table.columns, n)))
    return _last[3]


def _rows(words, cap: int, columns, n: int) -> dict:
    """By ``id``, each connective in ``words``: its row ``(fold, grades)`` for
    each number ``r`` of parts right of a hole, the fold of its last ``r``
    parts at ``cap`` from the connective's unit and whether all are grades."""
    rows, todo = {}, list(words)
    for node in todo:
        if node.__class__ is HedgeApp:
            todo.append(node.body)
        elif node.__class__ in (Conj, Disj):
            todo += node.parts
            row = [(n if node.__class__ is Conj else 0, True)]
            for part in node.parts[:0:-1]:
                v, grades = row[-1]
                v = _fold(node, v, value(part, lambda atom: cap, columns, n), n)
                row.append((v, grades and part.__class__ is int))
            rows[id(node)] = row
    return rows


# ---------------------------------------------------------------------------
# substitutions (terms are flat, so no occurs check is needed)

def walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


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


def _root(floor: int, env) -> tuple:
    """The frame above the whole word, which must reach ``floor``; ``env`` binds a lone atom."""
    return (None, (), 0, (), floor, False, None, None, env, None)


def _frame(
    word: Body, lefts: tuple, acc: int, rights: tuple, env, row, up: tuple, columns, n: int
) -> tuple:
    """Frame ``(word, lefts, acc, rights, need, in_disj, up, step, env, row)``
    of a hole in ``word`` inside ``up``, after ``lefts`` (resolved, folded to
    ``acc``), before ``rights``; ``env`` binds ``word``, ``row`` is its
    :func:`_rows` entry (None for a hedge), and ``in_disj`` when ``word`` or a
    word above it is a disjunction.  When the hole is the last open part,
    ``step`` folds a value through the frame: a hedge's column, or the other
    parts folded.  A part in ``lefts`` may be an entry ``(node, hole, stop)``,
    ``node`` plugged up from ``hole`` to below ``stop``."""
    if row is None:
        rest, step = acc, columns[word.hedge]
    else:
        rest, grades = row[len(rights)]
        rest = _fold(word, acc, rest, n)
        step = rest if grades else None
    need = _need(word, up[4], rest, columns, n)
    return (word, lefts, acc, rights, need, up[5] or word.__class__ is Disj, up, step, env, row)


def _next(node: Body, env, up: tuple, rows, more, columns, n: int) -> tuple:
    """The leftmost open atom at or after the focus ``node``, whose word
    ``env`` binds, and the frame of its hole, else ``(None, None, value of
    the whole word)``.  A connective's row is in ``rows``, else in ``more``."""
    while True:
        while not isinstance(node, (Atom, int)):  # down to the leftmost leaf
            if isinstance(node, HedgeApp):
                up, node = _frame(node, (), 0, (), env, None, up, columns, n), node.body
            else:
                row = rows.get(id(node)) or more[id(node)]  # row[0][0]: the unit
                up = _frame(node, (), row[0][0], node.parts[1:], env, row, up, columns, n)
                node = node.parts[0]
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
        word, lefts, acc, rights, _, _, above, _, env, row = up
        if word is None:
            return None, None, v
        acc, lefts = _fold(word, acc, v, n), lefts + (node if hole is up else (node, hole, up),)
        while rights[0].__class__ is int:  # resolved already; an open part follows
            acc, lefts, rights = _fold(word, acc, rights[0], n), lefts + rights[:1], rights[1:]
        up, node = _frame(word, lefts, acc, rights[1:], env, row, above, columns, n), rights[0]


# ---------------------------------------------------------------------------
# search

def solve(
    program: Program,
    table: InverseMappingTable,
    query: Body,
    options: SolveOptions | None = None,
) -> SolveResult:
    """Answers to ``query``; a search stopped past ``SEARCH_LIMIT`` entries raises
    :class:`SearchLimitError` with those it built, each a sound lower bound."""
    opts = __getattr__("SolveOptions")() if options is None else options
    columns, n = table.columns, table.domain.n
    # Open atoms are valued at the greatest grade they can reach, or at n
    # without a threshold, where a cut word still ends in a bottom answer.
    cap, by_head, rows = _prepare(program, table, bool(opts.threshold))
    qenv = {v: Var(v) for v in free_vars(query)}  # the query's variables are its own
    trace: list[str] = []
    if opts.trace:  # only a traced solve compiles the goal-word printer
        from .trace import _plug, _rename
        trace.append(f"goal {format_body(query)}")

    fresh = itertools.count(1)
    answers: list[ComputedAnswer] = []
    exhausted = False
    more = _rows((query,), cap, columns, n)  # the query's rows, for this search only
    bound = value(query, lambda atom: cap, columns, n)
    # (focus, its word's env, its value at cap, its hole's frame, substitution, depth, note)
    root = _root(max(opts.threshold or 0, 1), qenv)
    stack: list[tuple] = [(query, qenv, bound, root, {}, 0, None)]
    pushed = 0

    while stack and pushed <= SEARCH_LIMIT:
        focus, env, bound, up, subst, depth, note = stack.pop()
        if note is not None and opts.trace:
            trace.append(note)
        if bound < up[4]:
            if opts.trace:
                cut = format_body(_plug(focus, env, up, subst))
                trace.append(f"[{depth}] cut {cut} (below bound)")
            if opts.threshold:
                continue
            sel, grade = None, 0  # without a threshold the cut word ends in one bottom answer
        else:
            sel, up, grade = _next(focus, env, up, rows, more, columns, n)
        if sel is None:
            bindings = tuple((v, walk(t, subst)) for v, t in qenv.items())
            answers.append(ComputedAnswer(grade, bindings))
            if opts.trace:
                trace.append(f"[{depth}] computed v{grade}")
            continue

        env = up[8]  # the atom's arguments, read through its word's env
        args = tuple([walk(env[t.name], subst) if t.__class__ is Var else t for t in sel.args])
        atom = Atom(sel.pred, args) if opts.trace else None
        need = up[4] if opts.threshold else 0
        unifiable = False
        branches: list[tuple] = []
        first = args[0] if args else None
        if isinstance(first, str):  # heads with this constant or a variable first
            candidates = by_head.get((sel.pred, first), []) + by_head.get((sel.pred, None), [])
        else:
            candidates = by_head.get(sel.pred, ())
        for pos, word, head, tagged, bound, key, local in candidates:
            tag = next(fresh) if tagged else None  # drawn per candidate: names stay put
            if (matched := _match(head.args, args, subst)) is None:
                continue
            unifiable = True
            if bound < need:
                continue
            env, s2 = matched
            if local:
                env.update((name, Var(f"{name}~{tag}")) for name in local)
            branches.append((pos if opts.exhaustive else key, word, env, s2, bound))

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
        if not unifiable or up[5] and any(isinstance(a, Var) for a in args):
            if opts.trace and not unifiable:  # noted at selection: the search limit may come first
                trace.append(f"[{depth}] {format_atom(atom)} graded bottom")
            branches.append((None, 0, None, subst, 0))
        for key, word, env, s2, bound in reversed(branches):
            note = None
            if opts.trace:
                if key is not None:
                    note = f"[{depth}] {format_atom(atom)} -> {format_body(_rename(word, env, s2))}"
                elif unifiable:
                    note = f"[{depth}] {format_atom(atom)} graded bottom (open choice)"
            d = depth + (word.__class__ is Conj)
            stack.append((word, env, bound, up, s2, d, note))
            pushed += d + len(s2)

    if opts.best:  # one answer per binding as shown, every unbound variable alike
        best: dict[tuple, ComputedAnswer] = {}
        for a in answers:
            shown = tuple(t if t.__class__ is str else None for _, t in a.bindings)
            prev = best.get(shown)
            if prev is None or a.value > prev.value:
                best[shown] = a
        answers = sorted(best.values(), key=lambda a: -a.value)
    result = SolveResult(tuple(answers), exhausted, tuple(trace))
    if stack:  # raised unnamed: a name in this frame would make a cycle
        raise SearchLimitError(pushed, SEARCH_LIMIT, result)
    return result


def format_answer(domain, answer: ComputedAnswer) -> str:
    shown = ",".join(f" {name}={t if t.__class__ is str else '_'}" for name, t in answer.bindings)
    return f"answer:{shown} ; tv={format_value(domain, answer.value)}"
