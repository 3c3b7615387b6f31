"""Top-down resolution for graded logic programs.

A query is turned into a goal word: a body of the program language whose
atoms are open or resolved to their grades (plain ints), rewritten step
by step.  Each step picks the leftmost open atom and either replaces it with
a matching fact's grade, unfolds it through a matching rule (the rule
body joined with the rule grade under the rule's own conjunction), or
grades it bottom when nothing in the program matches.  When no atoms
remain the word is evaluated like a ground rule body, hedges going
through the inverse mapping, yielding a computed answer together with
the bindings of the query variables.

One bound prunes the search.  Every connective and hedge column is
monotone, so a node that must reach ``want`` gives each part a least
useful value, its lower residual (Vojtáš, "Fuzzy logic programming", FSS
2001): :func:`_need`, ``n + 1`` when no value will do.  A word is a zipper
(Huet 1997): the replacement in focus under a shared chain of frames, each
a connective or hedge with a hole, its resolved parts folded, its open
parts and ``need``, what the hole must reach for the word to reach
``max(threshold, 1)`` with its open atoms at ``top``, the greatest grade
an atom can reach (at ``n`` without a threshold).  A word whose focus is
below ``need`` is cut, so a step does local work; without a threshold it
ends in one bottom answer, so recursion through an unmatched atom ends.
Under a threshold the ``need`` of the selected atom also skips the facts
graded below it and the rules whose body cannot lift it that far, and
cuts the atom when nothing matches it; a threshold of 0 bounds nothing.
Pruned search thus returns exactly the answers of unpruned search that
pass the threshold, in the same order.  Each state pushed counts its
depth plus its substitution's bindings; past ``SEARCH_LIMIT`` such
entries :class:`SearchLimitError` ends left recursion and cycles that no
depth bound stops.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .algebra import LimitError, format_value, record
from .connectives import GODEL
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


class ComputedAnswer(record("ComputedAnswer", "value bindings")):
    """``bindings`` pairs query variables with terms."""

    __slots__ = ()


class SolveResult(record(
    "SolveResult", "answers depth_exhausted trace", defaults=(False, ())
)):
    __slots__ = ()


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


def _all_below_top(program: Program, table: InverseMappingTable) -> bool:
    """True when no atom can ever be graded with the top value: no fact has
    it, and no rule reaches it from atoms below it."""
    n = table.domain.n
    return all(f.tv < n for f in program.facts) and all(
        value(Conj(r.kind, (r.body, r.tv)), lambda atom: n - 1, table.columns, n) < n
        for r in program.rules
    )


# (program, table, prepared) for the last program solved, so that a REPL
# session, which passes one program to every query, prepares it once.
_last: tuple = (None, None, None)


def _prepare(program: Program, table: InverseMappingTable) -> tuple[int, dict]:
    """``top``, the greatest grade an atom can reach (``n - 1`` when
    :func:`_all_below_top`), and the statements by head.  An entry
    ``(pos, statement, head, rename)`` is filed under the head's predicate,
    and under ``(pred, c)`` when the head's first argument is the constant
    ``c``, else under ``(pred, None)``.  Ground facts are never renamed."""
    global _last
    last_program, last_table, prepared = _last
    if last_program is not program or last_table is not table:
        by_head: dict = {}
        for pos, st in enumerate(program.statements):
            head = st.atom if isinstance(st, Fact) else st.head
            rename = not isinstance(st, Fact) or any(isinstance(a, Var) for a in head.args)
            first = head.args[0] if head.args else None
            for key in (head.pred, (head.pred, first if isinstance(first, str) else None)):
                by_head.setdefault(key, []).append((pos, st, head, rename))
        n = table.domain.n
        prepared = (n - 1 if _all_below_top(program, table) else n, by_head)
        _last = (program, table, prepared)
    return prepared


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


def unify(a: Atom, b: Atom, subst: dict[str, Term]) -> dict[str, Term] | None:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    s = dict(subst)
    for x, y in zip(a.args, b.args):
        x, y = walk(x, s), walk(y, s)
        if x == y:
            continue
        if isinstance(x, Var):
            s[x.name] = y
        elif isinstance(y, Var):
            s[y.name] = x
        else:
            return None
    return s


def _rename_term(t: Term, tag: str) -> Term:
    return Var(f"{t.name}~{tag}") if isinstance(t, Var) else t


def _rename_atom(atom: Atom, tag: str) -> Atom:
    return Atom(atom.pred, tuple(_rename_term(a, tag) for a in atom.args))


# ---------------------------------------------------------------------------
# goal words as zippers

def _fold(word: Conj | Disj, acc: int, v: int, n: int) -> int:
    if isinstance(word, Disj):
        return acc if acc > v else v
    return (v if v < acc else acc) if word.kind == GODEL else max(acc + v - n, 0)


def _frame(
    word: Body, lefts: tuple, acc: int, rights: tuple, up: tuple, leaf, columns, n: int
) -> tuple:
    """Frame ``(word, lefts, acc, rights, need, in_disj, up)`` of a hole in
    ``word`` inside ``up``, after ``lefts`` (resolved, folded to ``acc``),
    before ``rights``, whose open atoms ``leaf`` values; ``in_disj`` when
    ``word`` or a word above it is a disjunction.  The root frame, above
    the whole word, is ``(None, (), 0, (), floor, False, None)``."""
    rest = acc
    for part in rights:
        rest = _fold(word, rest, value(part, leaf, columns, n), n)
    need = _need(word, up[4], rest, columns, n)
    return (word, lefts, acc, rights, need, up[5] or word.__class__ is Disj, up)


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
        v = node
        while True:  # up past resolved parts, folding their values
            word, lefts, acc, rights, _, _, above = up
            if word is None:
                return None, None, v
            if isinstance(word, HedgeApp):
                up, node, v = above, HedgeApp(word.hedge, node), columns[word.hedge][v]
                continue
            acc, lefts = _fold(word, acc, v, n), lefts + (node,)
            while rights and rights[0].__class__ is int:  # resolved already
                acc, lefts, rights = _fold(word, acc, rights[0], n), lefts + rights[:1], rights[1:]
            if rights:
                up, node = _frame(word, lefts, acc, rights[1:], above, leaf, columns, n), rights[0]
                break
            up, node, v = above, Conj(word.kind, lefts) if isinstance(word, Conj) else Disj(lefts), acc


def _plug(node: Body, up: tuple) -> Body:
    """The whole goal word with ``node`` in the hole of ``up``."""
    while up[0] is not None:
        word, lefts, _, rights, _, _, up = up
        if isinstance(word, HedgeApp):
            node = HedgeApp(word.hedge, node)
        else:
            node = word._replace(parts=lefts + (node,) + rights)
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
    top, by_head = _prepare(program, table)
    columns, n = table.columns, table.domain.n
    # Open atoms are valued at the greatest grade they can reach, or at n
    # without a threshold, where a cut word still ends in a bottom answer.
    cap = top if opts.threshold else n
    leaf = lambda atom: cap
    floor = max(opts.threshold or 0, 1)
    trace: list[str] = []
    qvars = free_vars(query)

    if opts.threshold and value(query, leaf, columns, n) < floor:
        return SolveResult((), False, ())
    if opts.trace:
        trace.append(f"goal {format_word(query)}")

    fresh = itertools.count(1)
    answers: list[ComputedAnswer] = []
    exhausted = False
    # (focus, frame of its hole, substitution, depth, trace note)
    stack: list[tuple] = [(query, (None, (), 0, (), floor, False, None), {}, 0, None)]
    pushed = 0

    while stack:
        if pushed > SEARCH_LIMIT:
            err = SearchLimitError(pushed, SEARCH_LIMIT)
            err.trace = tuple(trace)
            raise err
        focus, up, subst, depth, note = stack.pop()
        if note is not None and opts.trace:
            trace.append(note)
        if value(focus, leaf, columns, n) < up[4]:
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
        branches: list[tuple[tuple, Body, dict[str, Term]]] = []
        first = atom.args[0] if atom.args else None
        if isinstance(first, str):  # heads with this constant or a variable first
            candidates = itertools.chain(
                by_head.get((atom.pred, first), ()), by_head.get((atom.pred, None), ())
            )
        else:
            candidates = by_head.get(atom.pred, ())
        for pos, st, head, rename in candidates:
            if rename:
                tag = str(next(fresh))
                head = _rename_atom(head, tag)
            s2 = unify(atom, head, subst)
            if s2 is None:
                continue
            unifiable = True
            if isinstance(st, Fact):
                if st.tv < need:
                    continue
                replacement: Body = st.tv
                key = (-st.tv, 0, 0, pos)
            else:
                if need and _need(st, need, st.tv, columns, n) > value(st.body, leaf, columns, n):
                    continue
                body = map_atoms(st.body, lambda a: _rename_atom(a, tag))
                replacement = Conj(st.kind, (body, st.tv))
                key = (-st.tv, 1, 0 if st.kind == GODEL else 1, pos)
            if opts.exhaustive:
                key = (pos,)
            branches.append((key, replacement, s2))

        if not unifiable:
            if need > 0:
                if opts.trace:
                    trace.append(f"[{depth}] cut {format_atom(atom)} (nothing matches)")
                continue
            if opts.trace:
                trace.append(f"[{depth}] {format_atom(atom)} graded bottom")
            stack.append((0, up, subst, depth, None))
            pushed += depth + len(subst)
            continue
        if not branches:
            if opts.trace:
                trace.append(f"[{depth}] cut {format_atom(atom)} (below bound)")
            continue
        if opts.depth and depth >= opts.depth and any(b[1].__class__ is Conj for b in branches):
            exhausted = True  # the depth counts rule unfoldings: facts stay
            if opts.trace:
                trace.append(f"[{depth}] depth limit at {format_atom(atom)}")
            branches = [b for b in branches if b[1].__class__ is int]

        # An open atom inside a disjunction may also be taken at bottom.  That
        # releases its variables, so a sibling disjunct can still bind them to
        # something the facts for this atom would have ruled out.  Anywhere
        # else a bottom grade annihilates the whole branch and is never worth
        # a detour.
        if up[5] and any(isinstance(a, Var) for a in atom.args):
            note0 = None
            if opts.trace:
                note0 = f"[{depth}] {format_atom(atom)} graded bottom (open choice)"
            stack.append((0, up, subst, depth, note0))
            pushed += depth + len(subst)
        elif not branches:
            continue

        branches.sort(key=lambda b: b[0])
        for key, replacement, s2 in reversed(branches):
            note = None
            if opts.trace:
                note = f"[{depth}] {format_atom(atom)} -> {format_word(replacement, s2)}"
            d = depth + (replacement.__class__ is Conj)
            stack.append((replacement, up, s2, d, note))
            pushed += d + len(s2)

    if opts.best:
        best: dict[tuple, ComputedAnswer] = {}
        for a in answers:
            prev = best.get(a.bindings)
            if prev is None or a.value > prev.value:
                best[a.bindings] = a
        answers = sorted(best.values(), key=lambda a: -a.value)
    return SolveResult(tuple(answers), exhausted, tuple(trace))


def format_answer(domain, answer: ComputedAnswer) -> str:
    parts = []
    for name, term in answer.bindings:
        shown = term if isinstance(term, str) else "_"
        parts.append(f"{name}={shown}")
    shown = f" {', '.join(parts)}" if parts else ""
    return f"answer:{shown} ; tv={format_value(domain, answer.value)}"
