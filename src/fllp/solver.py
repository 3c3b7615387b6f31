"""Top-down resolution for graded logic programs.

A query is turned into a goal word: a body of the program language whose
atoms are open (:class:`WAtom`) or resolved to truth values (``Grade``),
rewritten step by step.  Each step picks the leftmost open atom and either
replaces it with a matching fact's grade, unfolds it through a matching
rule (the rule body joined with the rule grade under the rule's own
conjunction), or grades it bottom when nothing in the program matches.
When no atoms remain the word is evaluated like a ground rule body,
hedges going through the inverse mapping, yielding a computed answer
together with the bindings of the query variables.

A word valued with its open atoms at top bounds every answer below it;
a word whose bound cannot reach ``max(threshold, 1)`` is cut.  Without a
threshold it ends in one bottom answer with the bindings made so far, so
recursion through an unmatched atom ends.  A word is a zipper (Huet
1997): the replacement in focus under a shared chain of frames, each a
connective or hedge with a hole, the value of its resolved parts, its
open parts and ``need``, the least hole value that lets the word reach
that floor.  Connectives and hedge columns are monotone, so a word is cut
exactly when its focus is below ``need``, and a step does local work.
Each state pushed counts its depth plus its substitution's bindings; past
``SEARCH_LIMIT`` such entries :class:`SearchLimitError` ends left recursion
and cycles that no depth bound stops.

Threshold mode pushes a lower bound down the goal tree.  Every connective
is monotone, so a bound on a node induces a least useful value for each
child; branches that cannot reach their bound are cut.  Bounds do not
cross disjunctions (a weak branch may be compensated by a stronger one),
so pruned search returns exactly the answers of unpruned search that pass
the threshold, in the same order.
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
    Const,
    Disj,
    Fact,
    Grade,
    HedgeApp,
    Program,
    Term,
    Var,
    format_atom,
    format_body,
    free_vars,
    map_atoms,
)


SEARCH_LIMIT = 8 * 10**6


class SearchLimitError(LimitError):
    subject, unit = "the search", "entries"


class BranchCut(Exception):
    """No value below this point can satisfy the active bound."""


class WAtom(record("WAtom", "atom bound in_disj", defaults=(False,))):
    """An open atom of a goal word, with the least value worth finding for
    it (or None); ``in_disj`` when some ancestor is a disjunction."""

    __slots__ = ()


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


class ComputedAnswer(record(
    "ComputedAnswer", "value bindings length", defaults=(0,), compared=2
)):
    """``bindings`` pairs query variables with terms; ``length`` is
    bookkeeping, not identity."""

    __slots__ = ()


class SolveResult(record(
    "SolveResult", "answers depth_exhausted trace", defaults=(False, ())
)):
    __slots__ = ()


# ---------------------------------------------------------------------------
# bounds

def next_threshold(
    table: InverseMappingTable, bound: int | None, context: tuple
) -> int | None:
    """Least value a child must reach for its parent to reach ``bound``.

    ``None`` means the child is unconstrained.  Raises :class:`BranchCut`
    when no child value can do it.  Contexts: ``("rule", kind, grade)``,
    ``("conjg",)``, ``("conjl", arity, all_below_top)``, ``("disj",)`` and
    ``("hedge", name)``.
    """
    if bound is None:
        return None
    n = table.domain.n
    tag = context[0]
    if tag == "rule":
        _, kind, grade = context
        if grade < bound:
            raise BranchCut
        return bound if kind == GODEL else n + bound - grade
    if tag == "conjg":
        return bound
    if tag == "conjl":
        _, arity, below_top = context
        if not below_top:
            return bound
        # No atom can reach the top value, so the other parts contribute
        # at most n-1 each and this part must make up the difference.
        b = bound + (arity - 1)
        if b > n - 1:
            raise BranchCut
        return b
    if tag == "disj":
        return None
    if tag == "hedge":
        v = bisect_left(table.columns[context[1]], bound)  # columns are monotone
        if v > n:
            raise BranchCut
        return v
    raise ValueError(f"unknown bound context: {context!r}")


def _all_below_top(program: Program, table: InverseMappingTable) -> bool:
    """True when no atom can ever be graded with the top value."""
    n = table.domain.n
    if any(f.tv == n for f in program.facts):
        return False
    return all(
        col[v] < n for col in table.columns.values() for v in range(n)
    )


# (program, table, prepared) for the last program solved, so that a REPL
# session, which passes one program to every query, prepares it once.
_last: tuple = (None, None, None)


def _prepare(program: Program, table: InverseMappingTable) -> tuple[bool, dict]:
    """:func:`_all_below_top` and the statements by head.  An entry
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
            for key in (head.pred, (head.pred, first.name if isinstance(first, Const) else None)):
                by_head.setdefault(key, []).append((pos, st, head, rename))
        prepared = (_all_below_top(program, table), by_head)
        _last = (program, table, prepared)
    return prepared


def _word(
    body: Body, bound: int | None, table, below_top: bool, in_disj: bool = False
) -> Body:
    """The goal word for ``body``: its atoms opened with their bounds."""
    if isinstance(body, Atom):
        return WAtom(body, bound, in_disj)
    if isinstance(body, HedgeApp):
        b = next_threshold(table, bound, ("hedge", body.hedge))
        return HedgeApp(body.hedge, _word(body.body, b, table, below_top, in_disj))
    if isinstance(body, Conj):
        if body.kind == GODEL:
            b = next_threshold(table, bound, ("conjg",))
        else:
            b = next_threshold(table, bound, ("conjl", len(body.parts), below_top))
        parts = tuple(_word(p, b, table, below_top, in_disj) for p in body.parts)
        return Conj(body.kind, parts)
    return Disj(tuple(_word(p, None, table, below_top, True) for p in body.parts))


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


def _value(word: Body, columns, n: int) -> int:
    """Value of ``word`` with every open atom at the top value ``n``: a
    bound on every answer below it, and the answer once no atom is open."""
    if isinstance(word, WAtom):
        return n
    if isinstance(word, Grade):
        return word.value
    if isinstance(word, HedgeApp):
        return columns[word.hedge][_value(word.body, columns, n)]
    acc = n if isinstance(word, Conj) else 0
    for part in word.parts:
        acc = _fold(word, acc, _value(part, columns, n), n)
    return acc


def _frame(word: Body, lefts: tuple, acc: int, rights: tuple, up: tuple, columns, n: int) -> tuple:
    """Frame ``(word, lefts, acc, rights, need, up)`` of a hole in ``word``
    inside ``up``, after ``lefts`` (resolved, folded to ``acc``), before ``rights``.
    The root frame, above the whole word, is ``(None, (), 0, (), floor, None)``."""
    want = up[4]
    if isinstance(word, HedgeApp):
        need = bisect_left(columns[word.hedge], want)
    else:
        rest = acc
        for part in rights:
            rest = _fold(word, rest, _value(part, columns, n), n)
        if isinstance(word, Disj):
            need = 0 if rest >= want else want
        elif word.kind == GODEL:
            need = want if rest >= want else n + 1
        else:
            need = min(want + n - rest, n + 1) if want else 0
    return (word, lefts, acc, rights, need, up)


def _next(node: Body, up: tuple, columns, n: int) -> tuple:
    """The leftmost open atom at or after the focus ``node`` and the frame
    of its hole, else ``(None, None, value of the whole word)``."""
    while True:
        while not isinstance(node, (WAtom, Grade)):  # down to the leftmost leaf
            if isinstance(node, HedgeApp):
                up, node = _frame(node, (), 0, (), up, columns, n), node.body
            else:
                acc = n if isinstance(node, Conj) else 0
                up, node = _frame(node, (), acc, node.parts[1:], up, columns, n), node.parts[0]
        if isinstance(node, WAtom):
            return node, up, None
        v = node.value
        while True:  # up past resolved parts, folding their values
            word, lefts, acc, rights, _, above = up
            if word is None:
                return None, None, v
            if isinstance(word, HedgeApp):
                up, node, v = above, HedgeApp(word.hedge, node), columns[word.hedge][v]
                continue
            acc, lefts = _fold(word, acc, v, n), lefts + (node,)
            while rights and isinstance(rights[0], Grade):  # resolved already
                acc, lefts, rights = _fold(word, acc, rights[0].value, n), lefts + rights[:1], rights[1:]
            if rights:
                up, node = _frame(word, lefts, acc, rights[1:], above, columns, n), rights[0]
                break
            up, node, v = above, Conj(word.kind, lefts) if isinstance(word, Conj) else Disj(lefts), acc


def _plug(node: Body, up: tuple) -> Body:
    """The whole goal word with ``node`` in the hole of ``up``."""
    while up[0] is not None:
        word, lefts, _, rights, _, up = up
        if isinstance(word, HedgeApp):
            node = HedgeApp(word.hedge, node)
        else:
            node = word._replace(parts=lefts + (node,) + rights)
    return node


def format_word(word: Body, subst: dict[str, Term] | None = None) -> str:
    s = subst or {}
    return format_body(map_atoms(word, lambda w: subst_atom(w.atom, s)))


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
    below_top, by_head = _prepare(program, table)
    columns, n = table.columns, table.domain.n
    trace: list[str] = []
    qvars = free_vars(query)

    try:
        goal = _word(query, opts.threshold, table, below_top)
    except BranchCut:
        return SolveResult((), False, ())
    if opts.trace:
        trace.append(f"goal {format_word(goal)}")

    fresh = itertools.count(1)
    answers: list[ComputedAnswer] = []
    exhausted = False
    # (focus, frame of its hole, substitution, depth, trace note)
    stack: list[tuple] = [(goal, (None, (), 0, (), max(opts.threshold or 0, 1), None), {}, 0, None)]
    pushed = 0

    while stack:
        if pushed > SEARCH_LIMIT:
            raise SearchLimitError(pushed, SEARCH_LIMIT)
        focus, up, subst, depth, note = stack.pop()
        if note is not None and opts.trace:
            trace.append(note)
        if _value(focus, columns, n) < up[4]:
            if opts.trace:
                trace.append(f"[{depth}] cut {format_word(_plug(focus, up), subst)} (below bound)")
            if opts.threshold:
                continue
            sel, value = None, 0  # without a threshold the cut word ends in one bottom answer
        else:
            sel, up, value = _next(focus, up, columns, n)
        if sel is None:
            bindings = tuple((v, walk(Var(v), subst)) for v in qvars)
            answers.append(ComputedAnswer(value, bindings, depth))
            if opts.trace:
                trace.append(f"[{depth}] computed v{value}")
            continue

        atom = subst_atom(sel.atom, subst)
        unifiable = False
        branches: list[tuple[tuple, Body, dict[str, Term]]] = []
        first = atom.args[0] if atom.args else None
        if isinstance(first, Const):  # heads with this constant or a variable first
            candidates = itertools.chain(
                by_head.get((atom.pred, first.name), ()), by_head.get((atom.pred, None), ())
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
                if sel.bound is not None and st.tv < sel.bound:
                    continue
                replacement: Body = Grade(st.tv)
                key = (-st.tv, 0, 0, pos)
            else:
                try:
                    b = next_threshold(table, sel.bound, ("rule", st.kind, st.tv))
                    body = map_atoms(st.body, lambda a: _rename_atom(a, tag))
                    child = _word(body, b, table, below_top, sel.in_disj)
                except BranchCut:
                    continue
                replacement = Conj(st.kind, (child, Grade(st.tv)))
                key = (-st.tv, 1, 0 if st.kind == GODEL else 1, pos)
            if opts.exhaustive:
                key = (pos,)
            branches.append((key, replacement, s2))

        if not unifiable:
            if sel.bound is not None and sel.bound > 0:
                if opts.trace:
                    trace.append(f"[{depth}] cut {format_atom(atom)} (nothing matches)")
                continue
            if opts.trace:
                trace.append(f"[{depth}] {format_atom(atom)} graded bottom")
            stack.append((Grade(0), up, subst, depth, None))
            pushed += depth + len(subst)
            continue
        if not branches:
            if opts.trace:
                trace.append(f"[{depth}] cut {format_atom(atom)} (below bound)")
            continue
        if opts.depth and depth >= opts.depth:
            exhausted = True
            if opts.trace:
                trace.append(f"[{depth}] depth limit at {format_atom(atom)}")
            branches = []

        # An open atom inside a disjunction may also be taken at bottom.  That
        # releases its variables, so a sibling disjunct can still bind them to
        # something the facts for this atom would have ruled out.  Anywhere
        # else a bottom grade annihilates the whole branch and is never worth
        # a detour.
        if sel.in_disj and any(isinstance(a, Var) for a in atom.args):
            note0 = None
            if opts.trace:
                note0 = f"[{depth}] {format_atom(atom)} graded bottom (open choice)"
            stack.append((Grade(0), up, subst, depth, note0))
            pushed += depth + len(subst)
        elif not branches:
            continue

        branches.sort(key=lambda b: b[0])
        for key, replacement, s2 in reversed(branches):
            note = None
            if opts.trace:
                note = f"[{depth}] {format_atom(atom)} -> {format_word(replacement, s2)}"
            stack.append((replacement, up, s2, depth + 1, note))
            pushed += depth + 1 + len(s2)

    if opts.threshold is not None:
        answers = [a for a in answers if a.value >= opts.threshold]
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
        shown = term.name if isinstance(term, Const) else "_"
        parts.append(f"{name}={shown}")
    shown = f" {', '.join(parts)}" if parts else ""
    return f"answer:{shown} ; tv={format_value(domain, answer.value)}"
