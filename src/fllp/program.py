"""The program model: terms, atoms, bodies, statements and programs.

A program is a tuple of statements in source order: graded facts and
rules whose bodies nest conjunctions (``Conj``, of either kind),
disjunctions (``Disj``) and hedge applications (``HedgeApp``) around
atoms.  The engines read programs through this module alone; ``lang``
holds the syntax that turns text into them and their loading, and
``validate`` their validation.  Bodies are walked by one post-order loop, so words of any depth
can be copied (``map_atoms``) and printed (``format_body``); ``value``
folds a body over the truth domain for both engines.
"""

from __future__ import annotations

from typing import Iterator, Union

from .algebra import GODEL, InputError, record

RESERVED_PREDICATES = ("and_g", "and_l", "or")

# Deepest nesting of connectives and hedges a body may have.  CPython's
# own parser stops at 200 nested brackets too; every recursive pass over
# a body then stays far below the interpreter's recursion limit.
MAX_NESTING = 200


class ParseError(InputError):
    """A program, query or control file that does not parse or validate."""


Var = record("Var", "name")

# A constant is its name, and a grade leaf (a resolved atom) its index.
Const = str
Grade = int
Term = Union[Var, str]


# ``args`` is a tuple of terms.
Atom = record("Atom", "pred args", defaults=((),))
# ``kind`` is GODEL or LUKA; ``parts`` is a tuple of bodies.
Conj = record("Conj", "kind parts")
Disj = record("Disj", "parts")
HedgeApp = record("HedgeApp", "hedge body")
Body = Union[Atom, Conj, Disj, HedgeApp, int]  # an int is a grade, never parsed


# The source line of a statement, and the source of a program, are not
# part of their identity.
Fact = record("Fact", "atom tv line", defaults=(0,), compared=2)
Rule = record("Rule", "head kind body tv line", defaults=(0,), compared=4)
Statement = Union[Fact, Rule]


class Program(record(
    "Program", "statements algebra_path source", defaults=(None, "<string>"), compared=2
)):
    """``statements`` is a tuple of facts and rules in source order."""

    __slots__ = ()

    @property
    def facts(self) -> tuple[Fact, ...]:
        return tuple(s for s in self.statements if isinstance(s, Fact))

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(s for s in self.statements if isinstance(s, Rule))

    def predicates(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for atom in self.atoms():
            out.setdefault(atom.pred, len(atom.args))
        return out

    def constants(self) -> tuple[str, ...]:
        return tuple(sorted({a for atom in self.atoms() for a in atom.args if isinstance(a, str)}))

    def atoms(self) -> Iterator[Atom]:
        """Each fact's atom, and each rule's head and then its body atoms."""
        for st in self.statements:
            if st.__class__ is Fact:
                yield st.atom
            else:
                yield st.head
                yield from atoms_of(st.body)


def ground(atom: Atom) -> bool:
    """Whether no term of ``atom`` is a variable: ``str.join`` takes only strs, constants."""
    try:
        "".join(atom.args)
    except TypeError:
        return False
    return True


def _postorder(body: Body) -> list[Body]:
    """The nodes of ``body``, each after its parts, leaves left to right;
    a loop, not recursion, so words of any depth can be walked."""
    nodes, todo = [], [body]
    while todo:
        node = todo.pop()
        nodes.append(node)
        if node.__class__ is HedgeApp:
            todo.append(node.body)
        elif node.__class__ is Conj or node.__class__ is Disj:
            todo += node.parts
    return nodes[::-1]


def _pop(done: list, k: int) -> tuple:
    """The last ``k`` entries of ``done``, taken off it."""
    parts = tuple(done[len(done) - k:])
    del done[len(done) - k:]
    return parts


def atoms_of(body: Body) -> Iterator[Atom]:
    return (node for node in _postorder(body) if node.__class__ is Atom)


def map_atoms(body: Body, f) -> Body:
    """Copy of ``body`` with every atom leaf replaced by ``f(leaf)``."""
    if body.__class__ is Atom:
        return f(body)
    done: list = []
    for node in _postorder(body):
        if node.__class__ is HedgeApp:
            done.append(HedgeApp(node.hedge, done.pop()))
        elif node.__class__ is Conj or node.__class__ is Disj:
            parts = _pop(done, len(node.parts))
            done.append(Conj(node.kind, parts) if node.__class__ is Conj else Disj(parts))
        else:
            done.append(node if node.__class__ is int else f(node))
    return done[0]


def value(body: Body, leaf, columns, n: int) -> int:
    """Value of ``body`` over ``0..n``, hedges through ``columns`` and atom
    leaves through ``leaf``; both engines evaluate bodies with it, and the
    parser's nesting cap bounds its recursion."""
    cls = body.__class__
    if cls is Conj:
        acc = n
        if body.kind == GODEL:
            for part in body.parts:
                v = value(part, leaf, columns, n)
                if v < acc:
                    acc = v
            return acc
        for part in body.parts:  # clamping once at the end gives the same fold
            acc += value(part, leaf, columns, n) - n
        return acc if acc > 0 else 0
    if cls is HedgeApp:
        return columns[body.hedge][value(body.body, leaf, columns, n)]
    if cls is int:
        return body
    if cls is Disj:
        return max([value(part, leaf, columns, n) for part in body.parts])
    return leaf(body)


def free_vars(node: Body | Atom) -> tuple[str, ...]:
    """Variable names in first-occurrence order."""
    seen: dict[str, None] = {}
    for atom in atoms_of(node):
        for arg in atom.args:
            if isinstance(arg, Var):
                seen.setdefault(arg.name)
    return tuple(seen)


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({','.join(a if a.__class__ is str else a.name for a in atom.args)})"


def format_body(body: Body) -> str:
    done: list[str] = []
    for node in _postorder(body):
        if node.__class__ is HedgeApp:
            done.append(f"#{node.hedge}({done.pop()})")
        elif node.__class__ is Conj or node.__class__ is Disj:
            name = "or" if node.__class__ is Disj else "and_g" if node.kind == GODEL else "and_l"
            done.append(f"{name}({','.join(_pop(done, len(node.parts)))})")
        else:
            done.append(f"v{node}" if node.__class__ is int else format_atom(node))
    return done[0]
