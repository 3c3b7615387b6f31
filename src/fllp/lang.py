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
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice
from pathlib import Path
from typing import Iterator, Union

from .algebra import (
    InputError,
    TruthDomain,
    format_value,  # re-exported
    load_algebra_config,
    read_algebra_config,
    record,
)
from .connectives import GODEL, LUKA
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


class Const(record("Const", "name")):
    __slots__ = ()

    def __str__(self) -> str:
        return self.name


Term = Union[Var, Const]


class Atom(record("Atom", "pred args", defaults=((),))):
    """``args`` is a tuple of terms."""

    __slots__ = ()


class Conj(record("Conj", "kind parts")):
    """``kind`` is GODEL or LUKA; ``parts`` is a tuple of bodies."""

    __slots__ = ()


class Disj(record("Disj", "parts")):
    __slots__ = ()


class HedgeApp(record("HedgeApp", "hedge body")):
    __slots__ = ()


class Grade(record("Grade", "value")):
    """A truth value standing in for a resolved atom; never parsed."""

    __slots__ = ()


Body = Union[Atom, Conj, Disj, HedgeApp, Grade]


# The source line of a statement, and the source of a program, are not
# part of their identity.

class Fact(record("Fact", "atom tv line", defaults=(0,), compared=2)):
    __slots__ = ()


class Rule(record("Rule", "head kind body tv line", defaults=(0,), compared=4)):
    __slots__ = ()


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
        names = {
            a.name for atom in self.atoms() for a in atom.args if isinstance(a, Const)
        }
        return tuple(sorted(names))

    def atoms(self) -> Iterator[Atom]:
        for st in self.statements:
            if isinstance(st, Fact):
                yield st.atom
            else:
                yield st.head
                yield from atoms_of(st.body)


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
            done.append(node if node.__class__ is Grade else f(node))
    return done[0]


def value(body: Body, leaf, columns, n: int) -> int:
    """Value of ``body`` over ``0..n``, hedges through ``columns`` and leaves
    other than ``Grade`` through ``leaf``; both engines evaluate bodies with
    it, and the parser's nesting cap bounds its recursion."""
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
    if cls is Grade:
        return body.value
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
# tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow><-[gl])
    | (?P<query>\?-)
    | (?P<string>"[^"\n]*")
    | (?P<var>[A-Z][A-Za-z0-9_]*)
    | (?P<ident>[a-z][a-z0-9_]*)
    | (?P<punct>[(),:.\#])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_Token = namedtuple("_Token", "kind text line")


def _tokenize(text: str, errors: list[str]) -> Iterator[_Token]:
    line = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            line += chunk.count("\n")
        elif kind == "bad":
            errors.append(f"line {line}: unexpected character {chunk!r}")
        elif kind != "comment":
            yield _Token(kind, chunk, line)


class _Parser:
    """Recursive descent over a token list closed by an ``end`` token, so
    the current token ``tok`` always exists."""

    def __init__(self, tokens: list[_Token], domain: TruthDomain):
        tokens.append(_Token("end", "", tokens[-1].line if tokens else 1))
        self.tokens = tokens
        self.domain = domain
        self.pos = 0
        self.tok = tokens[0]
        self.depth = 0  # connectives and hedges open around the current body

    def advance(self) -> _Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def skip(self, text: str) -> bool:
        if self.tok.text == text:
            self.advance()
            return True
        return False

    def _fail(self, wanted: str) -> None:
        tok = self.tok
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise _Bail(f"line {tok.line}: expected {wanted}, found {found}")

    def expect(self, kind: str, text: str | None = None, wanted: str | None = None) -> _Token:
        if self.tok.kind != kind or (text is not None and self.tok.text != text):
            self._fail(wanted or text or kind)
        return self.advance()

    def sync_to_dot(self) -> None:
        while self.tok.kind != "end":
            if self.advance().text == ".":
                return

    # statements ----------------------------------------------------------

    def statement(self) -> Statement:
        start = self.tok.line
        self.depth = 0
        atom = self.atom(head=True)
        arrow = self.tok.kind == "arrow"
        if arrow:
            kind = GODEL if self.advance().text == "<-g" else LUKA
            body = self.body()
        self.expect("punct", ":")
        tv = self.grade()
        self.expect("punct", ".")
        if arrow:
            return Rule(atom, kind, body, tv, line=start)
        return Fact(atom, tv, line=start)

    def atom(self, head: bool = False) -> Atom:
        tok = self.tok
        if tok.kind != "ident":
            self._fail("a predicate name")
        if head and tok.text in RESERVED_PREDICATES:
            raise _Bail(
                f"line {tok.line}: {tok.text!r} is a connective, not a predicate"
            )
        self.advance()
        args: list[Term] = []
        if self.skip("("):
            args.append(self.term())
            while self.skip(","):
                args.append(self.term())
            self.expect("punct", ")")
        return Atom(tok.text, tuple(args))

    def term(self) -> Term:
        tok = self.tok
        if tok.kind not in ("ident", "var"):
            self._fail("a constant or variable")
        self.advance()
        return Var(tok.text) if tok.kind == "var" else Const(tok.text)

    def body(self) -> Body:
        tok = self.tok
        if tok.kind == "end":
            self._fail("a body")
        nested = tok.text == "#" or (tok.kind == "ident" and tok.text in RESERVED_PREDICATES)
        if nested and self.depth == MAX_NESTING:
            raise _Bail(f"line {tok.line}: body nested more than {MAX_NESTING} levels deep")
        if self.skip("#"):
            hedge = self.expect("ident", wanted="a hedge name").text
            if not self.domain.algebra.has_hedge(hedge):
                raise _Bail(f"line {tok.line}: unknown hedge {hedge!r}")
            self.expect("punct", "(")
            self.depth += 1
            inner = self.body()
            self.depth -= 1
            self.expect("punct", ")")
            return HedgeApp(hedge, inner)
        if nested:
            self.advance()
            self.expect("punct", "(")
            self.depth += 1
            parts = [self.body()]
            while self.skip(","):
                parts.append(self.body())
            self.depth -= 1
            self.expect("punct", ")")
            if len(parts) < 2:
                raise _Bail(f"line {tok.line}: {tok.text!r} needs at least two parts")
            if tok.text == "or":
                return Disj(tuple(parts))
            return Conj(GODEL if tok.text == "and_g" else LUKA, tuple(parts))
        return self.atom()

    def grade(self) -> int:
        line = self.tok.line
        words: list[str] = []
        while self.tok.kind == "ident":
            words.append(self.advance().text)
        if not words:
            self._fail("a truth literal")
        try:
            idx = self.domain.parse_literal(" ".join(words))
        except ValueError as exc:
            raise _Bail(f"line {line}: {exc}") from None
        if idx == 0:
            raise _Bail(
                f"line {line}: grade {' '.join(words)!r} would make the statement vacuous"
            )
        return idx


class _Bail(Exception):
    pass


def algebra_directive(text: str) -> str | None:
    """Path from a leading ``use algebra "..."`` statement, if present.

    Only the first four tokens are read, so the scan costs the same on any
    program size."""
    toks = list(islice(_tokenize(text, []), 4))
    if (
        len(toks) >= 4
        and toks[0].text == "use"
        and toks[1].text == "algebra"
        and toks[2].kind == "string"
        and toks[3].text == "."
    ):
        return toks[2].text[1:-1]
    return None


def parse_program(text: str, domain: TruthDomain, source: str = "<string>") -> Program:
    errors: list[str] = []
    parser = _Parser(list(_tokenize(text, errors)), domain)
    algebra_path: str | None = None
    statements: list[Statement] = []
    while parser.tok.kind != "end":
        tok = parser.tok
        try:
            if tok.text == "use" and parser.tokens[parser.pos + 1].text == "algebra":
                if parser.pos:
                    raise _Bail(
                        f"line {tok.line}: algebra directive must precede all statements"
                    )
                parser.advance()
                parser.advance()
                algebra_path = parser.expect("string", wanted="a quoted path").text[1:-1]
                parser.expect("punct", ".")
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
    tokens = list(_tokenize(text, errors))
    if errors:
        raise ParseError(errors)
    parser = _Parser(tokens, domain)
    parser.skip("?-")
    try:
        body = parser.body()
        parser.skip(".")
        if parser.tok.kind != "end":
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
    problems: list[str] = []

    arities: dict[str, tuple[int, int]] = {}
    for st in program.statements:
        for atom in [st.atom] if isinstance(st, Fact) else [st.head, *atoms_of(st.body)]:
            prev = arities.setdefault(atom.pred, (len(atom.args), st.line))
            if prev[0] != len(atom.args):
                problems.append(
                    f"line {st.line}: {atom.pred!r} used with arity {len(atom.args)}, "
                    f"but line {prev[1]} uses arity {prev[0]}"
                )

    grades: dict[Statement, tuple[int, int]] = {}
    for st in program.statements:
        key = _canonical(st)
        prev = grades.setdefault(key, (st.tv, st.line))
        if prev[0] != st.tv:
            problems.append(
                f"line {st.line}: statement repeats line {prev[1]} with grade "
                f"{domain.literal(st.tv)!r} instead of {domain.literal(prev[0])!r}"
            )

    if safe:
        for st in program.statements:
            if isinstance(st, Fact):
                loose = free_vars(st.atom)
                if loose:
                    problems.append(
                        f"line {st.line}: fact is not ground, "
                        f"variable(s) {', '.join(loose)}"
                    )
                continue
            body_vars = set(free_vars(st.body))
            loose = tuple(v for v in free_vars(st.head) if v not in body_vars)
            if loose:
                problems.append(
                    f"line {st.line}: rule is not range restricted, "
                    f"variable(s) {', '.join(loose)} occur only in the head"
                )
    return problems


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
            done.append(f"v{node.value}" if node.__class__ is Grade else format_atom(node))
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

def load_program(
    path: str | Path,
    algebra_file: str | Path | None = None,
    fallback: str | Path | None = None,
) -> tuple[Program, InverseMappingTable]:
    """Read a program file and the algebra it runs on.

    An explicit ``algebra_file`` wins over the program's own directive,
    which is resolved relative to the program's location; without either,
    the ``fallback`` file applies, and without that the built-in algebra.
    Only the file that applies is read.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    directive = algebra_directive(text)
    config = read_algebra_config(
        algebra_file, None if directive is None else path.parent / directive, fallback
    )
    algebra, domain, overrides = load_algebra_config(config)
    table = build_inverse_table(domain, overrides)
    program = parse_program(text, domain, source=str(path))
    return program, table
