from __future__ import annotations

import pytest

from fllp.algebra import GODEL, LUKA, load_algebra_config
from fllp.fixpoint import least_model
from fllp.inverse import build_inverse_table
from fllp.lang import load_program, parse_program, parse_query
from fllp.program import Atom, Conj, Disj, HedgeApp, ParseError, Program, Rule, Var
from fllp.prolog import compile_program, compile_query
from fllp.validate import validate_program

from expected import (
    CONNECTIVE_CLAUSES,
    DOMAIN_LITERALS,
    EMPLOYEE_CLAUSE,
    EMPLOYEE_FACT_LINES,
    EMPLOYEE_QUERY_LINE,
    INV_MAP_LINES,
)


def test_employee_program_compiles_to_the_expected_clause(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    text = compile_program(program, table)
    lines = text.splitlines()
    assert EMPLOYEE_CLAUSE in lines
    for fact in EMPLOYEE_FACT_LINES:
        assert fact in lines
    for clause in CONNECTIVE_CLAUSES:
        assert clause in lines
    for row in INV_MAP_LINES:
        assert row in lines
    query = compile_query(parse_query("gd_em(X)", table.domain), table)
    assert query == EMPLOYEE_QUERY_LINE


def test_compiled_output_matches_the_golden_file(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    golden = (samples_dir / "golden" / "good_employee_luka.pl").read_text()
    assert compile_program(program, table) == golden


def test_legend_lists_every_value(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    lines = compile_program(program, table).splitlines()
    assert lines[0] == "% Graded logic program over a 45 value linguistic scale."
    for i, literal in enumerate(DOMAIN_LITERALS):
        assert f"% v{i} = {literal}" in lines
    assert "% hedge atoms: v = very, m = more, p = probably, l = little" in lines


def test_inv_map_rows_are_value_major(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    lines = compile_program(program, table).splitlines()
    rows = [l for l in lines if l.startswith("inv_map(")]
    # three variable rows for the grades every hedge fixes
    assert rows[0] == "inv_map(H,0,0)."
    assert "inv_map(H,22,22)." in rows and "inv_map(H,44,44)." in rows
    ground = [r for r in rows if not r.startswith("inv_map(H")]
    assert len(ground) == 4 * 42  # every hedge, every non-fixed value
    # rows are grouped by value, hedges in declaration order inside a group
    assert ground[:4] == [
        "inv_map(v,1,1).",
        "inv_map(m,1,1).",
        "inv_map(p,1,6).",
        "inv_map(l,1,11).",
    ]
    assert ground[4].startswith("inv_map(v,2,")


def test_rule_bodies_chain_fresh_truth_variables(samples_dir):
    program, table = load_program(samples_dir / "hotel.fllp")
    lines = compile_program(program, table).splitlines()
    assert (
        "su_ho(X,_TV0) :- co_lo(X,_TV1), inv_map(v,_TV1,_TV2), re_co(X,_TV3), "
        "ch_pr(X,_TV4), and_godel(_TV2,_TV3,_TV5), and_godel(_TV5,_TV4,_TV6), "
        "and_godel(_TV6,44,_TV0)." in lines
    )
    assert (
        "re_co(X,_TV0) :- ne_ce(X,_TV1), ne_be(X,_TV2), or_godel(_TV1,_TV2,_TV3), "
        "and_luka(_TV3,41,_TV0)." in lines
    )


def test_grade_leaves_compile_as_their_indices(table):
    body = Conj(GODEL, (Atom("q", (Var("X"),)), HedgeApp("very", 30), Disj((Atom("r"), 12))))
    program = Program((Rule(Atom("p", (Var("X"),)), LUKA, body, 40),))
    assert compile_program(program, table).splitlines()[-1] == (
        "p(X,_TV0) :- q(X,_TV1), inv_map(v,30,_TV2), r(_TV3), or_godel(_TV3,12,_TV4), "
        "and_godel(_TV1,_TV2,_TV5), and_godel(_TV5,_TV4,_TV6), and_luka(_TV6,40,_TV0)."
    )


def test_compound_queries_sink_into_the_answer_variable(samples_dir):
    program, table = load_program(samples_dir / "hotel.fllp")
    query = parse_query("and_g(su_ho(X), re_co(X))", table.domain)
    assert compile_query(query, table) == (
        "?- su_ho(X,_TV1), re_co(X,_TV2), and_godel(_TV1,_TV2,Truth_value)."
    )
    hedged = parse_query("#little(su_ho(X))", table.domain)
    assert compile_query(hedged, table) == (
        "?- su_ho(X,_TV1), inv_map(l,_TV1,Truth_value)."
    )


def test_ambiguous_hedge_names_stay_unabbreviated():
    config = """\
    primary: false, true
    hedge: very class=+ rank=1
    hedge: vaguely class=- rank=1
    positive: very -> very, vaguely
    positive: vaguely -> vaguely
    negative: vaguely -> very
    limit: 1
    """
    # conflicting first letters force full hedge names in the mapping rows
    _, domain, overrides = load_algebra_config(
        "\n".join(l.strip() for l in config.splitlines() if l.strip())
    )
    table = build_inverse_table(domain, overrides)
    program = parse_program("p <-g #very(q) : true.\nq : vaguely true.\n", domain)
    text = compile_program(program, table)
    assert "inv_map(very," in text and "inv_map(vaguely," in text
    assert "% hedge atoms:" not in text
    assert "p(_TV0) :- q(_TV1), inv_map(very,_TV1,_TV2), and_godel(_TV2," in text


def test_facts_and_statement_order_follow_the_source(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    lines = compile_program(program, table).splitlines()
    rule_at = lines.index(EMPLOYEE_CLAUSE)
    assert rule_at < lines.index("st_hd(ann,36).") < lines.index("hira_un(ann,41).")


# and_godel/2 would become and_godel/3, beside the helper of that name.
CLASHING = """\
p(a) : true.
and_godel(a,b) : very true.
q(X) <-g and_g(p(X), inv_map(X,X), or_godel(X)) : true.
and_godel(X,Y) <-l and_luka(X,Y) : true.
"""


def test_atoms_that_would_compile_onto_a_helper_are_refused(domain, table):
    program = parse_program(CLASHING, domain)
    with pytest.raises(ParseError) as err:
        compile_program(program, table)
    assert err.value.violations == (
        "line 2: and_godel/2 would compile onto the helper and_godel/3",
        "line 3: inv_map/2 would compile onto the helper inv_map/3",
        "line 4: and_luka/2 would compile onto the helper and_luka/3",
    )
    with pytest.raises(ParseError) as err:
        compile_query(parse_query("and_g(p(X), or_godel(X,a))", domain), table)
    assert err.value.violations == ("or_godel/2 would compile onto the helper or_godel/3",)
    # other arities compile, and the other subcommands keep accepting the program
    assert "or_godel(a,33)." in compile_program(parse_program("or_godel(a) : true.\n", domain), table)
    assert validate_program(program, domain) == []
    assert least_model(program, table)[0]


def test_a_query_variable_named_like_the_answer_grade_is_refused(domain, table):
    with pytest.raises(ParseError) as err:
        compile_query(parse_query("and_g(p(X), q(Truth_value, X))", domain), table)
    assert err.value.violations == ("query variable Truth_value would name the answer grade",)
    # with a helper clash, both are reported
    with pytest.raises(ParseError) as err:
        compile_query(parse_query("and_g(inv_map(Truth_value,b), p(X))", domain), table)
    assert err.value.violations == (
        "inv_map/2 would compile onto the helper inv_map/3",
        "query variable Truth_value would name the answer grade",
    )
    # other names compile, a constant spelled alike among them
    assert compile_query(parse_query("p(Truth, truth_value)", domain), table) == (
        "?- p(Truth,truth_value,Truth_value)."
    )
