"""Surface syntax for graded logic programs: scanning, parsing, printing
and loading (``validate`` checks what parses).

A program is a sequence of statements over atoms built from lowercase
constants and uppercase variables:

    use algebra "vmpl.alg".          % optional, must come first
    st_hd(ann) : more true.          % graded fact
    gd_em(X) <-l and_g(#very(st_hd(X)), ho(X)) : very more true.

Rule arrows pick the conjunction grading the rule itself: ``<-g`` for the
minimum reading, ``<-l`` for the compensating one.  Bodies nest ``and_g``,
``and_l``, ``or`` (two or more parts each) and ``#hedge(...)`` around
atoms.  Grades are spelled as truth literals and must not be the bottom
constant, which would make the statement vacuous.  The records a program
parses into are those of ``program``.

Facts are read in one pass of a regex over the whole text: a line that
starts a statement and holds one fact as ``pretty_print`` writes it
(``p(a,X) : very true.``) becomes its ``Fact`` there.  The token scanner
and parser see only the text between such lines, and alone report
violations.
"""

from __future__ import annotations

import functools
import re
from itertools import islice
from pathlib import Path

# Const and format_value are re-exported: perfbench/ imports them from here.
from .algebra import GODEL, LUKA, NAME_PATTERN, TruthDomain, format_value, read_text
from .inverse import InverseMappingTable, load_config
from .program import (
    MAX_NESTING, RESERVED_PREDICATES, Atom, Body, Conj, Const, Disj, Fact, HedgeApp, ParseError,
    Program, Rule, Statement, Term, Var, format_atom, format_body,
)


def __getattr__(name: str):
    """``validate_program`` from ``validate`` (PEP 562), for perfbench/tracing.py."""
    if name != "validate_program":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .validate import validate_program
    return validate_program


# ---------------------------------------------------------------------------
# scanner

# Tokens, then ``\S`` for a stray character, whose group is empty; blanks
# between matches are skipped.  A token's kind is its first character.
# ``_FACT_RE`` matches, anywhere in a text, a line that holds one fact alone
# as ``pretty_print`` writes it, under a head that is no connective, with
# trailing blanks (a CRLF's ``\r``) and its newline.  Its groups are the
# predicate, the terms and the grade: one class of names and blanks, a
# quarter faster than a repeat of words, that only a literal makes a grade.
_NAME, _VAR = NAME_PATTERN, "[A-Z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf'(%.*|<-[gl]|\?-|"[^"\n]*"|{_VAR}|{_NAME}|[(),:.#])|\S')
_TERM = f"(?:{_NAME}|{_VAR})"
_FACT_RE = re.compile(
    rf"^(?!(?:{'|'.join(RESERVED_PREDICATES)})[( ])({_NAME})(?:\(({_TERM}(?:,{_TERM})*)\))? "
    r": ([a-z][a-z0-9_ ]*)\.[^\S\n]*(?:\n|\Z)", re.M)
_ARROWS = {"<-g": GODEL, "<-l": LUKA}
# ``_record(Fact, (atom, tv, line))`` is ``Fact(atom, tv, line)`` without the
# record's Python ``__new__``, which would cost reading 10,000 facts 15%
_record = tuple.__new__


def _scan(text: str, errors: list[str], parser: _Parser | None = None) -> tuple[list, list[int]]:
    """Token texts and their line numbers, closed by the empty ``end``
    token; comments are dropped and stray characters reported.  Only
    ``\n`` ends a line: ``\r`` and the other blanks are whitespace.  With a
    ``parser``, a ``_FACT_RE`` line that starts a statement (after nothing,
    a ``.`` or such a line) with a grade above bottom is read in place, and
    each run of them is one token, the list of their ``Fact``s."""
    texts: list = []
    lines: list[int] = []
    # the text before each fact line and the line's groups, then the rest and no line
    parts = _FACT_RE.split(text) if parser else [text]
    parts += (None, None, None)
    index = parser.domain.index if parser else {}
    it = iter(parts)
    number, run, held = 1, None, ""
    for gap, pred, terms, words in zip(it, it, it, it):
        if held or gap:
            for number, line in enumerate((held + gap).split("\n"), number):
                toks = _TOKEN_RE.findall(line)
                if "" in toks:
                    errors += [f"line {number}: unexpected character {m[0]!r}"
                               for m in _TOKEN_RE.finditer(line) if m[1] is None]
                    toks = [t for t in toks if t]
                if toks and toks[-1][0] == "%":  # a comment runs to the end of its line
                    toks.pop()
                texts += toks
                lines += [number] * len(toks)
            if texts and texts[-1] is not run:  # tokens end a run
                run = None
            held = ""
        idx = index.get(words)
        if idx and (run is not None or not texts or texts[-1] == "."):
            if run is None:
                run = []
                texts.append(run)
                lines.append(number)
            args = tuple(terms.split(",")) if terms else ()
            if terms and not terms.islower():  # a variable, interned as ``atom`` does
                variables = parser.variables
                args = tuple(t if t >= "a" else variables.setdefault(t, Var(t)) for t in args)
            run.append(_record(Fact, (_record(Atom, (pred, args)), idx, number)))
            number += 1
        elif pred:  # lexed with the text after it, spelled again from its groups
            held = f"{pred}({terms}) : {words}.\n" if terms else f"{pred} : {words}.\n"
    lines.append(lines[-1] if lines else 1)
    texts.append("")
    return texts, lines


class _Parser:
    """Recursive descent over token texts (and runs of facts) closed by
    the empty ``end`` token, so the current token ``tok`` always exists.
    ``"a" <= tok < "{"`` holds for names and ``"A" <= tok < "["`` for
    variables.  Variables are interned by name and truth literals resolved
    once per parse."""

    def __init__(self, text: str, errors: list[str], domain: TruthDomain, facts: bool = False):
        self.domain = domain
        self.variables: dict[str, Var] = {}
        self.literal = functools.cache(domain.parse_literal)  # errors are not cached
        self.texts, self.lines = _scan(text, errors, self if facts else None)
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
        raise ParseError([f"line {self.lines[self.pos]}: expected {wanted}, found {found}"])

    def expect(self, text: str) -> None:
        if self.tok != text:
            self._fail(text)
        self.goto(self.pos + 1)

    def sync_to_dot(self) -> None:
        while self.tok:
            if self.goto(self.pos + 1) == ".":
                return

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
            raise ParseError(
                [f"line {self.lines[self.pos]}: {pred!r} is a connective, not a predicate"])
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
            raise ParseError([f"line {line}: body nested more than {MAX_NESTING} levels deep"])
        self.goto(self.pos + 1)
        if tok == "#":
            hedge = self.tok
            if not "a" <= hedge < "{":
                self._fail("a hedge name")
            self.goto(self.pos + 1)
            if not self.domain.algebra.has_hedge(hedge):
                raise ParseError([f"line {line}: unknown hedge {hedge!r}"])
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
            raise ParseError([f"line {line}: {tok!r} needs at least two parts"])
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
            raise ParseError([f"line {self.lines[start]}: {exc}"]) from None
        if idx == 0:
            raise ParseError([
                f"line {self.lines[start]}: grade {literal!r} would make the statement vacuous"
            ])
        return idx


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
            if parser.tok.__class__ is list:  # a run of fact lines, read in place
                statements += parser.goto(parser.pos + 1)
            elif parser.tok == "use" and parser.texts[parser.pos + 1] == "algebra":
                if parser.pos:
                    raise ParseError([
                        f"line {parser.lines[parser.pos]}: "
                        "algebra directive must precede all statements"
                    ])
                parser.goto(parser.pos + 2)
                if parser.tok[:1] != '"':
                    parser._fail("a quoted path")
                algebra_path = parser.goto(parser.pos + 1)[1:-1]
                parser.expect(".")
            else:
                statements.append(parser.statement())
        except ParseError as exc:
            errors += exc.violations
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
    body = parser.body()
    parser.skip(".")
    if parser.tok:
        parser._fail("end of query")
    return body


# ---------------------------------------------------------------------------
# printing

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
    Only the file that applies is read.  A directive's file that cannot be
    read is a violation of the directive.
    """
    path = Path(path)
    text = read_text(path)
    directive = algebra_directive(text)
    named = None if directive is None else path.parent / directive
    try:
        _, _, table = load_config(algebra_file, named, fallback)
    except OSError as exc:
        if algebra_file is not None or named is None:
            raise
        raise ParseError([f"line {_scan(text, [])[1][0]}: cannot read algebra {directive!r} "
                          f"({exc.strerror}: {named}); the program's grades and hedges are read "
                          "against it, so its other statements wait"]) from None
    return parse_program(text, table.domain, source=str(path)), table
