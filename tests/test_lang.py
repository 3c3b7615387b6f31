from __future__ import annotations

import importlib
import pkgutil
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fllp
from fllp import lang
from fllp.algebra import DEFAULT_ALGEBRA_CONFIG
from fllp.lang import (
    Atom,
    Conj,
    Const,
    Disj,
    Fact,
    Grade,
    HedgeApp,
    ParseError,
    Program,
    Rule,
    Var,
    algebra_directive,
    atoms_of,
    format_atom,
    format_body,
    format_value,
    free_vars,
    load_program,
    map_atoms,
    parse_program,
    parse_query,
    pretty_print,
    validate_program,
)

from randprog import random_program
from strategies import programs

GOOD = """\
% staff appraisal
gd_em(X) <-g and_g(#very(st_hd(X)), #probably(hira_un(X))) : very more true.
st_hd(ann) : more true.
hira_un(ann) : very true.
"""


def test_parse_round_trip(domain):
    program = parse_program(GOOD, domain)
    assert len(program.facts) == 2 and len(program.rules) == 1
    rule = program.rules[0]
    assert rule.kind == "godel" and rule.tv == 38
    assert rule.head == Atom("gd_em", (Var("X"),))
    assert program.facts[0].tv == 36 and program.facts[1].tv == 41
    again = parse_program(pretty_print(program, domain), domain)
    assert again.statements == program.statements


def test_statement_lines_are_recorded(domain):
    program = parse_program(GOOD, domain)
    assert [st.line for st in program.statements] == [2, 3, 4]


def test_all_body_forms(domain):
    src = "p(X) <-l or(and_l(q(X), r(X)), #little(#very(s(X))), t) : probably true.\n"
    program = parse_program(src, domain)
    body = program.rules[0].body
    assert isinstance(body, Disj) and len(body.parts) == 3
    assert isinstance(body.parts[0], Conj) and body.parts[0].kind == "luka"
    hedged = body.parts[1]
    assert isinstance(hedged, HedgeApp) and hedged.hedge == "little"
    assert isinstance(hedged.body, HedgeApp) and hedged.body.hedge == "very"
    assert body.parts[2] == Atom("t", ())
    assert format_body(body) == "or(and_l(q(X),r(X)),#little(#very(s(X))),t)"


def test_map_atoms_reaches_every_atom_and_keeps_grades(domain):
    src = "p(X) <-l or(and_l(q(X), r(X)), #little(#very(s(X))), t) : probably true.\n"
    body = parse_program(src, domain).rules[0].body
    primed = map_atoms(body, lambda a: Atom(a.pred + "1", a.args))
    assert format_body(primed) == "or(and_l(q1(X),r1(X)),#little(#very(s1(X))),t1)"
    word = Conj("godel", (body, Grade(7)))
    assert map_atoms(word, lambda a: a) == word
    assert map_atoms(word, lambda a: Atom("z", a.args)).parts[1] == Grade(7)


def test_grades_print_as_indices_and_hold_no_atoms():
    word = Conj("luka", (Atom("q", (Var("X"),)), Grade(7)))
    assert format_body(Grade(7)) == "v7"
    assert format_body(word) == "and_l(q(X),v7)"
    assert list(atoms_of(word)) == [Atom("q", (Var("X"),))]
    assert list(atoms_of(Grade(7))) == []


def test_errors_are_collected_not_just_the_first(domain):
    bad = """\
    p(X <-g q(X) : true.
    q(a) : quite true.
    r(b) : absfalse.
    and_g(a) : true.
    """
    with pytest.raises(ParseError) as err:
        parse_program(bad, domain)
    text = str(err.value)
    assert "line 1" in text
    assert "quite" in text
    assert "vacuous" in text
    assert "connective, not a predicate" in text


def test_unknown_hedge_is_an_error(domain):
    with pytest.raises(ParseError, match="unknown hedge"):
        parse_program("p <-g #extremely(q) : true.\n", domain)


def test_single_part_connective_is_an_error(domain):
    with pytest.raises(ParseError, match="at least two parts"):
        parse_program("p <-g and_g(q) : true.\n", domain)


def test_directive_is_captured_and_must_lead(domain):
    src = 'use algebra "my.alg".\np : true.\n'
    program = parse_program(src, domain)
    assert program.algebra_path == "my.alg"
    assert algebra_directive(src) == "my.alg"
    assert algebra_directive("p : true.\n") is None
    late = 'p : true.\nuse algebra "my.alg".\n'
    with pytest.raises(ParseError, match="must precede"):
        parse_program(late, domain)


@pytest.mark.parametrize("text, violations", [
    (
        "p : true.\n% c\nq(a) @ : true.\n$",
        ["line 3: unexpected character '@'", "line 4: unexpected character '$'"],
    ),
    ("p(a) <-g q(", ["line 1: expected a constant or variable, found end of input"]),
    ("use algebra foo.", ["line 1: expected a quoted path, found 'foo'"]),
    (
        'use algebra "a.alg".\nuse algebra "b.alg".\np : true.\n',
        ["line 2: algebra directive must precede all statements"],
    ),
    # The scanner's edge cases: which line a violation names, what is
    # whitespace, what a comment swallows, how stray characters are
    # reported; and a bad literal is reported on every line it occurs on.
    ("p(a)\n:\nquite true.\n", ["line 3: unknown hedge 'quite' in truth literal 'quite true'"]),
    ('p : true.\n"\nq : true.\n', ["line 2: unexpected character '\"'"]),
    (
        'p : true.\n"a\nb"\nq : true.\n',
        [
            "line 2: unexpected character '\"'",
            "line 3: unexpected character '\"'",
            "line 3: expected :, found 'b'",
        ],
    ),
    (
        "p <- q : true.\nr : true.\n",
        [
            "line 1: unexpected character '<'",
            "line 1: unexpected character '-'",
            "line 1: expected :, found 'q'",
        ],
    ),
    ("? p.\nq : true.\n", ["line 1: unexpected character '?'", "line 1: expected :, found '.'"]),
    (
        "aB : true.\nAb : true.\n",
        ["line 1: expected :, found 'B'", "line 2: expected a predicate name, found 'Ab'"],
    ),
    (
        "p(\u00e9) : true.\n",
        ["line 1: unexpected character '\u00e9'", "line 1: expected a constant or variable, found ')'"],
    ),
    ("p : true.\r\nq : true.\r\nr @ : true.\r\n", ["line 3: unexpected character '@'"]),
    ("p : true.\x0cq : true.\u2028r @ : true.\n$", [
        "line 1: unexpected character '@'", "line 2: unexpected character '$'",
    ]),
    (
        "p : quite true.\nq : quite true.\n",
        [
            "line 1: unknown hedge 'quite' in truth literal 'quite true'",
            "line 2: unknown hedge 'quite' in truth literal 'quite true'",
        ],
    ),
])
def test_program_violations_are_exact(domain, text, violations):
    with pytest.raises(ParseError) as err:
        parse_program(text, domain)
    assert list(err.value.violations) == violations


# A statement's line is where it starts; only "\n" starts a line.
@pytest.mark.parametrize("text, lines", [
    ("p(a,\n  b)\n <-g\n q(a) :\n very\n true.\nr : true.\n", [1, 7]),
    ('p : true. % c @ $ " <-\nq : true.\n', [1, 2]),
    ("p : true.\r\nq(a) :\r\n true.\r\n", [1, 2]),
    ("p : true.\x0cq : true.\u2028r : true.\n\ns : true.", [1, 1, 1, 3]),
])
def test_statement_lines_are_exact(domain, text, lines):
    program = parse_program(text, domain)
    assert [st.line for st in program.statements] == lines


# Lines that look like facts: near-miss names and terms, reserved heads,
# literals that do not parse or are bottom, comments, two statements on a
# line, a statement left open on an earlier line, odd blanks.  Each text
# gives its statements as printed with their lines, or its violations.
@pytest.mark.parametrize("text, want", [
    ("p(aB) : true.", ["line 1: expected ), found 'B'"]),
    ("p(c1B) : true.", ["line 1: expected ), found 'B'"]),
    ("p(a b) : true.", ["line 1: expected ), found 'b'"]),
    ("fooBar : true.", ["line 1: expected :, found 'Bar'"]),
    ("or(a) : true.", ["line 1: 'or' is a connective, not a predicate"]),
    ("and_g : true.", ["line 1: 'and_g' is a connective, not a predicate"]),
    ("p : absfalse.", ["line 1: grade 'absfalse' would make the statement vacuous"]),
    ("p : quite true.", ["line 1: unknown hedge 'quite' in truth literal 'quite true'"]),
    ("p : true true.", ["line 1: unknown hedge 'true' in truth literal 'true true'"]),
    ("p : verytrue.", ["line 1: truth literal must end in a primary name, got 'verytrue'"]),
    ("p(a) : #very true.", ["line 1: expected a truth literal, found '#'"]),
    ("p(a) :: true.", ["line 1: expected a truth literal, found ':'"]),
    ("p() : true.", ["line 1: expected a constant or variable, found ')'"]),
    ("p(a,) : true.", ["line 1: expected a constant or variable, found ')'"]),
    ("p(,a) : true.", ["line 1: expected a constant or variable, found ','"]),
    ("p(a)(b) : true.", ["line 1: expected :, found '('"]),
    ("p(1) : true.", [
        "line 1: unexpected character '1'", "line 1: expected a constant or variable, found ')'",
    ]),
    ("_p : true.", ["line 1: unexpected character '_'"]),
    ("p(a) : true", ["line 1: expected ., found end of input"]),
    ("p(a) : true..", ["line 1: expected a predicate name, found '.'"]),
    ("p(a) : true\nq : true.", ["line 1: truth literal must end in a primary name, got 'true q'"]),
    ("q(a) <-g\np(a) : true.", (["q(a) <-g p(a) : true."], [1])),
    ('use algebra "x"\np : true.', ["line 2: expected ., found 'p'"]),
    ('use algebra "x".\np : true.', (['use algebra "x".', "p : true."], [2])),
    ("use : true.", (["use : true."], [1])),
    ("use(algebra) : true.", (["use(algebra) : true."], [1])),
    ("use algebra : true.", ["line 1: expected a quoted path, found ':'"]),
    ("p(a) : true. q : true.", (["p(a) : true.", "q : true."], [1, 1])),
    ("p(a) : true. % c", (["p(a) : true."], [1])),
    ("p(a) : true.%c\nq : true.", (["p(a) : true.", "q : true."], [1, 2])),
    ("p(a)\t:\tvery  true .\r", (["p(a) : very true."], [1])),
    ("p(X, Y) : true.\nq(Y) : true.", (["p(X,Y) : true.", "q(Y) : true."], [1, 2])),
    ("p(c1, Xb_1) : very more true.", (["p(c1,Xb_1) : very more true."], [1])),
    ("p(Xb_1c) : true.", (["p(Xb_1c) : true."], [1])),
    ("p(a) @\nq : true.", ["line 1: unexpected character '@'", "line 2: expected :, found 'q'"]),
    ("p : true. @\nq : true.", ["line 1: unexpected character '@'"]),
    ('p : true. "\nq : true.', ["line 1: unexpected character '\"'"]),
    ("@\np : true.", ["line 1: unexpected character '@'"]),
    ("p(a) : true.\n.\nq : true.", ["line 2: expected a predicate name, found '.'"]),
    ("p(a) :\x0ctrue.\u2028", (["p(a) : true."], [1])),
    ("p : true.\x0cq : true.", (["p : true.", "q : true."], [1, 1])),
    ("p\u2028(a)\x85: true.\u00a0", (["p(a) : true."], [1])),
    ("p : very\u2028true.", (["p : very true."], [1])),
    ("p(a) : true.\n\n  \n% c\nq(b) : true.", (["p(a) : true.", "q(b) : true."], [1, 5])),
    (
        "p(a) : true .\nq(a) <-g p(a) : true.\nr : true.",
        (["p(a) : true.", "q(a) <-g p(a) : true.", "r : true."], [1, 2, 3]),
    ),
    # stray characters are reported before every statement's violations
    ("p(a b) : true.\nq : true.\nr @ : true.", [
        "line 3: unexpected character '@'", "line 1: expected ), found 'b'",
    ]),
    ("or(a) : true.\np : absfalse.\nq(X) : very true.\n$", [
        "line 4: unexpected character '$'",
        "line 1: 'or' is a connective, not a predicate",
        "line 2: grade 'absfalse' would make the statement vacuous",
    ]),
])
def test_fact_like_lines_parse_as_pinned(domain, text, want):
    try:
        program = parse_program(text, domain)
    except ParseError as exc:
        assert list(exc.violations) == want
        return
    shown = pretty_print(program, domain).splitlines()
    assert (shown, [st.line for st in program.statements]) == want


@pytest.mark.parametrize("text, violation", [
    ("", "line 1: expected a body, found end of input"),
    ("p(X) q", "line 1: expected end of query, found 'q'"),
    ("? p", "line 1: unexpected character '?'"),
    ("p\n@", "line 2: unexpected character '@'"),
])
def test_query_violations_are_exact(domain, text, violation):
    with pytest.raises(ParseError) as err:
        parse_query(text, domain)
    assert list(err.value.violations) == [violation]


# Token spellings, fragments and stray characters the fuzzed texts are built from.
ALPHABET = (
    "use", "algebra", '"a.alg"', '"', "p", "q(a)", "X", "and_g", "and_l", "or",
    "#", "very", "true", "false", "(", ")", ",", ":", ".", "<-g", "<-l", "<-",
    "?-", "?", " ", "\n", "%", "$", "_", "é",
)
SHORT_RUN = settings(max_examples=300)


@SHORT_RUN
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_parsers_return_or_raise_parse_error_only(domain, text):
    for parse in (parse_program, parse_query):
        try:
            parse(text, domain)
        except ParseError as exc:
            assert exc.violations


# Whole statements, weighted so that about one fuzzed text in five parses.
STATEMENTS = ('use algebra "a.alg".', "p : true.", "q(a) <-g p : very true.", "% c\n", " ", "\n")


@SHORT_RUN
@given(st.lists(st.sampled_from(STATEMENTS * 8 + ALPHABET), max_size=8).map("".join))
def test_directive_scan_agrees_with_the_parser(domain, text):
    try:
        program = parse_program(text, domain)
    except ParseError:
        return
    assert algebra_directive(text) == program.algebra_path


def test_directive_scan_reads_four_tokens_only():
    assert algebra_directive('<-use algebra "x".') == "x"
    assert algebra_directive('% c $\n@ use algebra "x".\np') == "x"
    assert algebra_directive('use algebra "x"') is None


@SHORT_RUN
@given(st.integers(0, 2**32))
def test_pretty_print_round_trips_random_programs(vmpl, asym, seed):
    for _, domain, _ in (vmpl, asym):
        program = random_program(seed, domain, recursive=True)
        assert parse_program(pretty_print(program, domain), domain) == program


# -- fact lines read in one match ---------------------------------------------

def _parsed(text, domain):
    """The program and its statement lines, or the violations."""
    try:
        program = parse_program(text, domain)
    except ParseError as exc:
        return list(exc.violations)
    return program, [st.line for st in program.statements]


def _same_without_the_fact_pattern(text, domain):
    """``text`` parses as it does when every line goes through the token parser."""
    with mock.patch.object(lang, "_FACT_RE", re.compile("(?!)")):
        slow = _parsed(text, domain)
    assert _parsed(text, domain) == slow


# Near-miss fragments and whole fact lines, so that fuzzed lines often look
# like facts: names that run into variables, digits, odd blanks, bottom.
NEAR_MISSES = (
    "aB", "c1", "Xb_1", "p(a) : true.\n", "q(X, c1) : very true.\n", "p : absfalse.",
    "\t", "\r", "\x0c", "\u2028", "very true", "absfalse", " : ", "q(", "X, Y", "1",
)


@SHORT_RUN
@given(st.lists(st.sampled_from(ALPHABET + NEAR_MISSES * 2), max_size=40).map("".join))
def test_fuzzed_texts_parse_as_without_the_fact_pattern(domain, text):
    _same_without_the_fact_pattern(text, domain)


@settings(max_examples=100)
@given(programs())
def test_random_programs_parse_as_without_the_fact_pattern(drawn):
    table, program = drawn
    _same_without_the_fact_pattern(pretty_print(program, table.domain), table.domain)


@SHORT_RUN
@given(st.integers(0, 2**32))
def test_randprog_programs_parse_as_without_the_fact_pattern(vmpl, asym, seed):
    for _, domain, _ in (vmpl, asym):
        _same_without_the_fact_pattern(
            pretty_print(random_program(seed, domain, recursive=True), domain), domain
        )


def test_printed_facts_skip_the_token_parser(domain, monkeypatch):
    """On printed programs the token parser reads each rule and no fact, so
    a change to the printer's spacing or to the pattern cannot turn the
    one-match path off unnoticed."""
    calls = []
    statement = lang._Parser.statement
    monkeypatch.setattr(lang._Parser, "statement", lambda self: calls.append(1) or statement(self))
    good = parse_program(GOOD + "p(X, c1, Xb_1) : probably true.\n", domain)
    printed = [Program(good.statements, "x.alg")]
    printed += [random_program(seed, domain, recursive=True) for seed in range(20)]
    for program in printed:
        calls.clear()
        assert parse_program(pretty_print(program, domain), domain) == program
        assert program.facts and len(calls) == len(program.rules)


def test_parse_query_forms(domain):
    for text in ("p(X)", "?- p(X)", "p(X).", "?- p(X)."):
        assert parse_query(text, domain) == Atom("p", (Var("X"),))
    assert parse_query("#very(p)", domain) == HedgeApp("very", Atom("p", ()))
    with pytest.raises(ParseError):
        parse_query("p(X) : true.", domain)
    with pytest.raises(ParseError):
        parse_query("", domain)


def test_free_vars_in_first_occurrence_order(domain):
    body = parse_query("and_g(p(Y,X), or(q(Z), r(X)))", domain)
    assert free_vars(body) == ("Y", "X", "Z")
    assert [a.pred for a in atoms_of(body)] == ["p", "q", "r"]


def test_validate_arity_conflicts(domain):
    program = parse_program("p(a) : true.\np(a,b) : true.\n", domain)
    problems = validate_program(program, domain)
    assert len(problems) == 1 and "arity" in problems[0]


def test_validate_repeated_statement_with_other_grade(domain):
    program = parse_program("p(X) <-g q(X) : true.\np(Y) <-g q(Y) : more true.\n", domain)
    problems = validate_program(program, domain)
    assert len(problems) == 1 and "repeats" in problems[0]
    same = parse_program("p(X) <-g q(X) : true.\np(Y) <-g q(Y) : true.\n", domain)
    assert validate_program(same, domain) == []


def test_validate_lists_arity_then_repeats_then_loose_variables(domain):
    text = ("r(X,Y) <-g q(X) : true.\np(a) : true.\np(a) : very true.\nq(a,b) : true.\n"
            "p(X) : true.\nr(Z,W) <-g q(Z) : more true.\n")
    assert validate_program(parse_program(text, domain), domain, safe=True) == [
        "line 4: 'q' used with arity 2, but line 1 uses arity 1",
        "line 3: statement repeats line 2 with grade 'very true' instead of 'true'",
        "line 6: statement repeats line 1 with grade 'more true' instead of 'true'",
        "line 1: rule is not range restricted, variable(s) Y occur only in the head",
        "line 5: fact is not ground, variable(s) X",
        "line 6: rule is not range restricted, variable(s) W occur only in the head",
    ]


def test_validate_safe_mode(domain):
    program = parse_program("p(X) : true.\nr(X,Y) <-g q(X) : true.\n", domain)
    assert validate_program(program, domain) == []
    problems = validate_program(program, domain, safe=True)
    assert len(problems) == 2
    assert "not ground" in problems[0]
    assert "range restricted" in problems[1]


def test_formatting(domain):
    assert format_atom(Atom("p", (Const("a"), Var("X")))) == "p(a,X)"
    assert format_atom(Atom("p", ())) == "p"
    assert format_value(domain, 36) == "more true (v36)"


def test_load_program_precedence(tmp_path):
    alg = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 1")
    (tmp_path / "one.alg").write_text(alg)
    (tmp_path / "prog.fllp").write_text('use algebra "one.alg".\np : more true.\n')

    program, table = load_program(tmp_path / "prog.fllp")
    assert len(table.domain) == 13  # directive resolved next to the file

    (tmp_path / "two.alg").write_text(DEFAULT_ALGEBRA_CONFIG)
    program, table = load_program(tmp_path / "prog.fllp", algebra_file=tmp_path / "two.alg")
    assert len(table.domain) == 45  # explicit file wins over the directive

    program, table = load_program(tmp_path / "prog.fllp", fallback=tmp_path / "two.alg")
    assert len(table.domain) == 13  # the directive wins over the fallback

    (tmp_path / "plain.fllp").write_text("p : more true.\n")
    program, table = load_program(tmp_path / "plain.fllp", fallback=tmp_path / "one.alg")
    assert len(table.domain) == 13

    program, table = load_program(tmp_path / "plain.fllp")
    assert len(table.domain) == 45


def test_program_accessors(domain):
    program = parse_program(GOOD, domain)
    assert program.predicates() == {"gd_em": 1, "st_hd": 1, "hira_un": 1}
    assert program.constants() == ("ann",)


# -- records ------------------------------------------------------------------

def test_records_equal_only_records_of_their_own_class():
    assert Var("x") != Const("x") and not Var("x") == Const("x")
    assert Atom("p", ()) != ("p", ()) and ("p", ()) != Atom("p", ())
    assert Grade(3) != (3,) and Grade(3) == Grade(3)
    assert Atom("p", (Const("a"),)) == Atom("p", (Const("a"),))
    assert Atom("p", (Const("a"),)) != Atom("p", (Var("a"),))
    assert len({Var("x"), Const("x"), Var("x")}) == 2


def test_statement_lines_and_program_source_are_not_identity():
    atom = Atom("p", (Const("a"),))
    for one, other in [
        (Fact(atom, 3, line=1), Fact(atom, 3, line=9)),
        (Rule(atom, "godel", Atom("q"), 3, line=1), Rule(atom, "godel", Atom("q"), 3, line=9)),
    ]:
        assert one == other and not one != other and hash(one) == hash(other)
    assert Fact(atom, 3, line=1) != Fact(atom, 4, line=1)
    statements = (Fact(atom, 3),)
    assert Program(statements, None, "a.fllp") == Program(statements, None, "b.fllp")
    assert Program(statements, "x.alg") != Program(statements, None)


# Every record type of the package, by the module that declares it.
RECORD_TYPES = [(module, name) for module, names in {
    "fllp.algebra": "HedgeDecl HedgeAlgebraSpec InverseOverride",
    "fllp.inverse": "InverseMappingTable",
    "fllp.lang": "Var Atom Conj Disj HedgeApp Fact Rule Program",
    "fllp.fixpoint": "GroundProgram",
    "fllp.solver": "ComputedAnswer SolveResult",
    "fllp.control": "ControlRule ControlSystem",
}.items() for name in names.split()]


@pytest.mark.parametrize("module, name", RECORD_TYPES, ids=[f"{m}.{n}" for m, n in RECORD_TYPES])
def test_records_are_immutable(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert cls.__module__ == module
    record = cls(*range(len(cls._fields)))
    with pytest.raises(AttributeError):  # no ``__dict__``
        record.extra = 1
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_every_record_type_is_checked():
    found = set()
    for info in pkgutil.iter_modules(fllp.__path__):
        if info.name != "__main__":
            found.update(obj for obj in vars(importlib.import_module(f"fllp.{info.name}")).values()
                         if isinstance(obj, type) and hasattr(obj, "_fields"))
    assert sorted((c.__module__, c.__name__) for c in found) == sorted(RECORD_TYPES)


def test_record_repr_and_construction():
    assert repr(Atom("p", (Const("a"),))) == "Atom(pred='p', args=('a',))"
    assert repr(Fact(Atom("p"), 3)) == "Fact(atom=Atom(pred='p', args=()), tv=3, line=0)"
    assert Atom(pred="p") == Atom("p", ()) == Atom("p")
    rule = Rule(head=Atom("p"), kind="luka", body=Grade(2), tv=5)
    assert (rule.line, rule.tv, rule.body) == (0, 5, Grade(2))
    program = Program(statements=(rule,))
    assert (program.algebra_path, program.source) == (None, "<string>")
