"""The goal words of traced top-down search, rebuilt from the zipper
(``solver``) and printed; ``solve`` loads this module only to trace."""

from __future__ import annotations

from .program import Body, HedgeApp, Term, format_body, map_atoms
from .solver import subst_atom


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
