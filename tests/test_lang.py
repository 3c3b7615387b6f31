from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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


def test_records_are_immutable():
    atom = Atom("p", (Const("a"),))
    with pytest.raises(AttributeError):
        atom.pred = "q"
    with pytest.raises(AttributeError):
        atom.extra = 1
    with pytest.raises(AttributeError):
        Fact(atom, 3).line = 2


def test_record_repr_and_construction():
    assert repr(Atom("p", (Const("a"),))) == "Atom(pred='p', args=('a',))"
    assert repr(Fact(Atom("p"), 3)) == "Fact(atom=Atom(pred='p', args=()), tv=3, line=0)"
    assert Atom(pred="p") == Atom("p", ()) == Atom("p")
    rule = Rule(head=Atom("p"), kind="luka", body=Grade(2), tv=5)
    assert (rule.line, rule.tv, rule.body) == (0, 5, Grade(2))
    program = Program(statements=(rule,))
    assert (program.algebra_path, program.source) == (None, "<string>")
