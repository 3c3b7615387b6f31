"""Surface syntax for graded logic programs.

A program is a sequence of statements over atoms built from lowercase
constants and uppercase variables:

    use algebra "vmpl.alg".          % optional, must come first
    st_hd(ann) : more true.          % graded fact
    gd_em(X) <-l and_g(#very(st_hd(X)), ho(X)) : very more true.

Rule arrows pick the conjunction grading the rule itself: ``<-g`` for the
minimum reading, ``<-l`` for the compensating one.  Bodies nest ``and_g``,
``and_l``, ``or`` (two or more parts each) and ``#hedge(...)`` around
atoms.  Grades are spelled as truth literals and must not be the bottom
constant, which would make the statement vacuous.

A line that holds one fact alone and starts a statement is read in one
regex match; every other line, and every one that match declines, goes
through the token scanner and parser, which alone report violations.
"""

from __future__ import annotations

import functools
import re
from itertools import islice
from pathlib import Path
from typing import Iterator, Union

from .algebra import (
    GODEL,
    LUKA,
    NAME_PATTERN,
    InputError,
    TruthDomain,
    format_value,  # re-exported
    load_algebra_config,
    read_algebra_config,
    read_text,
    record,
)
from .inverse import InverseMappingTable, build_inverse_table

RESERVED_PREDICATES = ("and_g", "and_l", "or")

# Deepest nesting of connectives and hedges a body may have.  CPython's
# own parser stops at 200 nested brackets too; every recursive pass over
# a body then stays far below the interpreter's recursion limit.
MAX_NESTING = 200


class ParseError(InputError):
    """A program, query or control file that does not parse or validate."""


class Var(record("Var", "name")):
    __slots__ = ()

    def __str__(self) -> str:
        return self.name


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
        for st in self.statements:
            yield from statement_atoms(st)


def statement_atoms(st: Statement) -> tuple[Atom, ...]:
    """A fact's atom, or a rule's head and then its body atoms."""
    return (st.atom,) if st.__class__ is Fact else (st.head, *atoms_of(st.body))


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


# ---------------------------------------------------------------------------
# scanner

# Tokens, then ``\S`` for a stray character, whose group is empty; blanks
# between matches are skipped.  A token's kind is its first character.
# ``_FACT_RE`` matches a line that holds one fact alone, spelled with the same
# names and variables; only the token parser reports violations.
_NAME, _VAR = NAME_PATTERN, "[A-Z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf'(%.*|<-[gl]|\?-|"[^"\n]*"|{_VAR}|{_NAME}|[(),:.#])|\S')
_TERM = f"(?:{_VAR}|{_NAME})"
_FACT_RE = re.compile(rf"\s*({_NAME})\s*(?:\(\s*({_TERM}(?:\s*,\s*{_TERM})*)\s*\))?"
                      rf"\s*:\s*({_NAME}(?:\s+{_NAME})*)\s*\.\s*")
_ARROWS = {"<-g": GODEL, "<-l": LUKA}


def _scan(text: str, errors: list[str], fact=None) -> tuple[list, list[int]]:
    """Token texts and their line numbers, closed by the empty ``end``
    token; comments are dropped and stray characters reported.  Only
    ``\n`` ends a line: ``\r`` and the other blanks are whitespace.  A line
    that starts a statement (after nothing, a ``.`` or such a line) and that
    ``fact(line, number)`` reads is one token instead: its ``Fact``."""
    texts: list = []
    lines: list[int] = []
    boundary = True
    for number, line in enumerate(text.split("\n"), 1):
        if boundary and fact and (read := fact(line, number)):
            texts.append(read)
            lines.append(number)
            continue
        toks = _TOKEN_RE.findall(line)
        if "" in toks:
            errors += [f"line {number}: unexpected character {m[0]!r}"
                       for m in _TOKEN_RE.finditer(line) if m[1] is None]
            toks = [t for t in toks if t]
        if toks and toks[-1][0] == "%":  # a comment runs to the end of its line
            toks.pop()
        if toks:
            boundary = toks[-1] == "."
        texts += toks
        lines += [number] * len(toks)
    lines.append(lines[-1] if lines else 1)
    texts.append("")
    return texts, lines


class _Parser:
    """Recursive descent over token texts (and facts read whole) closed by
    the empty ``end`` token, so the current token ``tok`` always exists.
    ``"a" <= tok < "{"`` holds for names and ``"A" <= tok < "["`` for
    variables.  Variables are interned by name and truth literals resolved
    once per parse."""

    def __init__(self, text: str, errors: list[str], domain: TruthDomain, facts: bool = False):
        self.domain = domain
        self.variables: dict[str, Var] = {}
        self.literal = functools.cache(domain.parse_literal)  # errors are not cached
        self.texts, self.lines = _scan(text, errors, facts and self.fact)
        self.pos = 0
        self.tok = self.texts[0]
        self.depth = 0  # connectives and hedges open around the current body

    def goto(self, pos: int) -> str:
        """Move to token ``pos``; returns the token left."""
        tok = self.tok
        self.pos = pos
        self.tok = self.texts[pos]
        return tok

    def skip(self, text: str) -> bool:
        if self.tok == text:
            self.goto(self.pos + 1)
            return True
        return False

    def _fail(self, wanted: str) -> None:
        found = repr(self.tok) if self.tok else "end of input"
        raise _Bail(f"line {self.lines[self.pos]}: expected {wanted}, found {found}")

    def expect(self, text: str) -> None:
        if self.tok != text:
            self._fail(text)
        self.goto(self.pos + 1)

    def sync_to_dot(self) -> None:
        while self.tok:
            if self.goto(self.pos + 1) == ".":
                return

    def fact(self, line: str, number: int) -> Fact | None:
        """The one fact on ``line``, if ``statement`` reads it without a violation."""
        m = _FACT_RE.fullmatch(line)
        if m is None or m[1] in RESERVED_PREDICATES:
            return None
        pred, terms, words = m.groups()
        try:
            idx = self.literal(" ".join(words.split()))
        except ValueError:
            return None
        if not idx:
            return None
        args = tuple(map(str.strip, terms.split(","))) if terms else ()
        if terms and not terms.islower():  # a variable, interned as ``atom`` does
            args = tuple(t if t >= "a" else self.variables.setdefault(t, Var(t)) for t in args)
        return Fact(Atom(pred, args), idx, number)

    # statements ----------------------------------------------------------

    def statement(self) -> Statement:
        start = self.lines[self.pos]
        self.depth = 0
        atom = self.atom(head=True)
        kind = _ARROWS.get(self.tok)
        if kind:
            self.goto(self.pos + 1)
            body = self.body()
        self.expect(":")
        tv = self.grade()
        self.expect(".")
        return Rule(atom, kind, body, tv, line=start) if kind else Fact(atom, tv, line=start)

    def atom(self, head: bool = False) -> Atom:
        texts, pos, pred = self.texts, self.pos + 1, self.tok
        if not "a" <= pred < "{":
            self._fail("a predicate name")
        if head and pred in RESERVED_PREDICATES:
            raise _Bail(f"line {self.lines[self.pos]}: {pred!r} is a connective, not a predicate")
        args: list[Term] = []
        if texts[pos] == "(":
            variables = self.variables
            while True:
                t = texts[pos + 1]
                if not "a" <= t < "{":  # not a constant, which is its name
                    if not "A" <= t < "[":
                        self.goto(pos + 1)
                        self._fail("a constant or variable")
                    t = variables.get(t) or variables.setdefault(t, Var(t))
                args.append(t)
                pos += 2
                if texts[pos] != ",":
                    break
        self.goto(pos)
        if args:  # after "(" and its terms
            self.expect(")")
        return Atom(pred, tuple(args))

    def body(self) -> Body:
        tok, line = self.tok, self.lines[self.pos]
        if not tok:
            self._fail("a body")
        if tok != "#" and tok not in RESERVED_PREDICATES:
            return self.atom()
        if self.depth == MAX_NESTING:
            raise _Bail(f"line {line}: body nested more than {MAX_NESTING} levels deep")
        self.goto(self.pos + 1)
        if tok == "#":
            hedge = self.tok
            if not "a" <= hedge < "{":
                self._fail("a hedge name")
            self.goto(self.pos + 1)
            if not self.domain.algebra.has_hedge(hedge):
                raise _Bail(f"line {line}: unknown hedge {hedge!r}")
        self.expect("(")
        self.depth += 1
        parts = [self.body()]
        while tok != "#" and self.skip(","):
            parts.append(self.body())
        self.depth -= 1
        self.expect(")")
        if tok == "#":
            return HedgeApp(hedge, parts[0])
        if len(parts) < 2:
            raise _Bail(f"line {line}: {tok!r} needs at least two parts")
        if tok == "or":
            return Disj(tuple(parts))
        return Conj(GODEL if tok == "and_g" else LUKA, tuple(parts))

    def grade(self) -> int:
        texts, start, pos = self.texts, self.pos, self.pos
        while "a" <= texts[pos] < "{":
            pos += 1
        if pos == start:
            self._fail("a truth literal")
        self.goto(pos)
        literal = " ".join(texts[start:pos])
        try:
            idx = self.literal(literal)
        except ValueError as exc:
            raise _Bail(f"line {self.lines[start]}: {exc}") from None
        if idx == 0:
            raise _Bail(
                f"line {self.lines[start]}: grade {literal!r} would make the statement vacuous"
            )
        return idx


class _Bail(Exception):
    pass


def algebra_directive(text: str) -> str | None:
    """Path from a leading ``use algebra "..."`` statement, if present.

    Only the first four tokens are read, so the scan costs the same on any
    program size."""
    tokens = (m[1] for m in _TOKEN_RE.finditer(text) if m[1] and m[1][0] != "%")
    toks = list(islice(tokens, 4))
    if toks[:2] == ["use", "algebra"] and len(toks) == 4 and toks[2][0] == '"' and toks[3] == ".":
        return toks[2][1:-1]
    return None


def parse_program(text: str, domain: TruthDomain, source: str = "<string>") -> Program:
    errors: list[str] = []
    parser = _Parser(text, errors, domain, facts=True)
    algebra_path: str | None = None
    statements: list[Statement] = []
    while parser.tok:
        try:
            if parser.tok.__class__ is Fact:  # a fact line, read in one match
                statements.append(parser.goto(parser.pos + 1))
            elif parser.tok == "use" and parser.texts[parser.pos + 1] == "algebra":
                if parser.pos:
                    raise _Bail(
                        f"line {parser.lines[parser.pos]}: "
                        "algebra directive must precede all statements"
                    )
                parser.goto(parser.pos + 2)
                if parser.tok[:1] != '"':
                    parser._fail("a quoted path")
                algebra_path = parser.goto(parser.pos + 1)[1:-1]
                parser.expect(".")
            else:
                statements.append(parser.statement())
        except _Bail as exc:
            errors.append(str(exc))
            parser.sync_to_dot()
    if errors:
        raise ParseError(errors)
    return Program(tuple(statements), algebra_path, source)


def parse_query(text: str, domain: TruthDomain) -> Body:
    """A query is a body with an optional ``?-`` prefix and trailing dot."""
    errors: list[str] = []
    parser = _Parser(text, errors, domain)
    if errors:
        raise ParseError(errors)
    parser.skip("?-")
    try:
        body = parser.body()
        parser.skip(".")
        if parser.tok:
            parser._fail("end of query")
    except _Bail as exc:
        raise ParseError([str(exc)]) from None
    return body


# ---------------------------------------------------------------------------
# validation

def _canonical(st: Statement) -> Statement:
    """The statement with variables renamed by first occurrence, grade dropped."""
    names: dict[str, Var] = {}

    def rename(atom: Atom) -> Atom:
        return Atom(atom.pred, tuple(
            names.setdefault(a.name, Var(f"V{len(names)}")) if isinstance(a, Var) else a
            for a in atom.args
        ))

    if isinstance(st, Fact):
        return Fact(rename(st.atom), 0)
    return Rule(rename(st.head), st.kind, map_atoms(st.body, rename), 0)


def validate_program(
    program: Program, domain: TruthDomain, safe: bool = False
) -> list[str]:
    """Arity conflicts, then statements repeated with another grade, then
    (with ``safe``) loose variables, each in statement order."""
    arity: list[str] = []
    repeats: list[str] = []
    loose: list[str] = []
    arities: dict[str, tuple[int, int]] = {}
    grades: dict[Statement | Atom, tuple[int, int]] = {}
    for st in program.statements:
        fact = st.__class__ is Fact
        for atom in statement_atoms(st):
            prev = arities.setdefault(atom.pred, (len(atom.args), st.line))
            if prev[0] != len(atom.args):
                arity.append(f"line {st.line}: {atom.pred!r} used with arity {len(atom.args)}, "
                             f"but line {prev[1]} uses arity {prev[0]}")
        # a ground fact is its own key: renaming would rebuild it unchanged
        key = st.atom if fact and Var not in map(type, st.atom.args) else _canonical(st)
        prev = grades.setdefault(key, (st.tv, st.line))
        if prev[0] != st.tv:
            repeats.append(f"line {st.line}: statement repeats line {prev[1]} with grade "
                           f"{domain.literal(st.tv)!r} instead of {domain.literal(prev[0])!r}")
        if safe:
            body_vars = () if fact else set(free_vars(st.body))
            names = [v for v in free_vars(st.atom if fact else st.head) if v not in body_vars]
            if names and fact:
                loose.append(f"line {st.line}: fact is not ground, variable(s) {', '.join(names)}")
            elif names:
                loose.append(f"line {st.line}: rule is not range restricted, variable(s) "
                             f"{', '.join(names)} occur only in the head")
    return arity + repeats + loose


# ---------------------------------------------------------------------------
# printing

def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({','.join(str(a) for a in atom.args)})"


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


def pretty_print(program: Program, domain: TruthDomain) -> str:
    lines: list[str] = []
    if program.algebra_path is not None:
        lines.append(f'use algebra "{program.algebra_path}".')
    for st in program.statements:
        if isinstance(st, Fact):
            lines.append(f"{format_atom(st.atom)} : {domain.literal(st.tv)}.")
        else:
            arrow = "<-g" if st.kind == GODEL else "<-l"
            lines.append(
                f"{format_atom(st.head)} {arrow} {format_body(st.body)} "
                f": {domain.literal(st.tv)}."
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loading

def load_inverse_table(*paths: str | Path | None) -> InverseMappingTable:
    """The table of the algebra that applies (see ``read_algebra_config``)
    for a command that also reads a program or control file, so each
    violation of a config file is prefixed with its path."""
    text, path = read_algebra_config(*paths)
    try:
        _, domain, overrides = load_algebra_config(text)
        return build_inverse_table(domain, overrides)
    except InputError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {v}" for v in exc.violations) from None


def load_program(
    path: str | Path,
    algebra_file: str | Path | None = None,
    fallback: str | Path | None = None,
) -> tuple[Program, InverseMappingTable]:
    """Read a program file and the algebra it runs on.

    An explicit ``algebra_file`` wins over the program's own directive,
    which is resolved relative to the program's location; without either,
    the ``fallback`` file applies, and without that the built-in algebra.
    Only the file that applies is read.  A directive's file that cannot be
    read is a violation of the directive.
    """
    path = Path(path)
    text = read_text(path)
    directive = algebra_directive(text)
    named = None if directive is None else path.parent / directive
    try:
        table = load_inverse_table(algebra_file, named, fallback)
    except OSError as exc:
        if algebra_file is not None or named is None:
            raise
        raise ParseError([f"line {_scan(text, [])[1][0]}: cannot read algebra {directive!r} "
                          f"({exc.strerror}: {named}); the program's grades and hedges are read "
                          "against it, so its other statements wait"]) from None
    return parse_program(text, table.domain, source=str(path)), table
