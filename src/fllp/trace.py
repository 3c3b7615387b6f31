"""The goal words of traced top-down search, rebuilt from the zipper
(``solver``) for printing; ``solve`` loads this module only to trace.
The search shares each rule's word among its unfoldings, so a word is
rebuilt through the ``env`` its unfolding binds."""

from __future__ import annotations

from .program import Atom, Body, HedgeApp, Term, Var, map_atoms
from .solver import walk


def _rename(word: Body, env: dict, subst: dict[str, Term]) -> Body:
    """Copy of ``word`` with each variable read through ``env`` and walked
    through ``subst``."""
    return map_atoms(word, lambda a: Atom(a.pred, tuple(
        walk(env[t.name] if t.__class__ is Var else t, subst) for t in a.args)))


def _plug(node: Body, env: dict, up: tuple, subst: dict[str, Term]) -> Body:
    """The whole goal word under ``subst`` with ``node``, whose word ``env``
    binds, in the hole of ``up``: each frame's open parts are renamed through
    its own ``env``, and entries rebuilt inner ones first, in a loop so that
    words of any depth plug."""
    built: dict[int, Body] = {}
    todo = [(_rename(node, env, subst), up, None)]
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
        for word, lefts, _, rights, _, _, _, _, env, _ in frames:
            if word.__class__ is HedgeApp:
                node = HedgeApp(word.hedge, node)
            else:
                parts = tuple(built[id(p)] if p.__class__ is tuple else p for p in lefts)
                rights = tuple(_rename(p, env, subst) for p in rights)
                node = word._replace(parts=parts + (node,) + rights)
        built[id(todo.pop())] = node
    return node
