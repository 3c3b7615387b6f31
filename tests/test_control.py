from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from fllp import control
from fllp.algebra import (
    DEFAULT_ALGEBRA_CONFIG, GODEL, LUKA, InputError, LimitError, load_algebra_config,
)
from fllp.cli import main
from fllp.control import (
    SurfaceLimitError,
    compile_control,
    format_surface,
    goodness_surface,
    parse_control_file,
    recommend,
)
from fllp.fixpoint import least_model
from fllp.inverse import build_inverse_table
from fllp.program import (
    MAX_NESTING, Atom, Conj, Const, Fact, HedgeApp, ParseError, Rule, Var, format_body,
)

from expected import HEATER_PICKS, HEATER_SURFACE
from randprog import random_control_text


@pytest.fixture(scope="module")
def heater(samples_dir, table):
    text = (samples_dir / "heater.ctl").read_text()
    return parse_control_file(text, table.domain)


def test_parse_heater(heater):
    assert heater.input_points == ("t15", "t20", "t25")
    assert heater.output_points == ("p0", "p50", "p100")
    assert [(format_body(r.body), r.kind, r.tv, r.line) for r in heater.program.rules] == [
        ("and_g(#very(cold(X)),#very(strong(Y)))", GODEL, 41, 5),
        ("and_g(warm(X),weak(Y))", GODEL, 44, 6),  # confidence defaults to top
    ]


def test_compiled_program_shape(heater):
    x, y = Var("X"), Var("Y")
    good = Atom("good", (x, y))
    rules = (
        Rule(good, GODEL, Conj(GODEL, (HedgeApp("very", Atom("cold", (x,))),
                                       HedgeApp("very", Atom("strong", (y,))))), 41),
        Rule(good, GODEL, Conj(GODEL, (Atom("warm", (x,)), Atom("weak", (y,)))), 44),
    )
    # one fact per sat row above bottom, in first-row order
    facts = tuple(Fact(Atom(pred, (point,)), tv) for pred, point, tv in (
        ("cold", "t15", 41), ("cold", "t20", 30), ("warm", "t20", 30), ("warm", "t25", 41),
        ("strong", "p50", 30), ("strong", "p100", 41), ("weak", "p0", 41), ("weak", "p50", 30),
    ))
    godel, luka = compile_control(heater), compile_control(heater, LUKA)
    assert godel.statements == rules + facts
    assert luka.statements == tuple(r._replace(kind=LUKA) for r in rules) + facts
    assert [r.line for r in godel.rules] == [r.line for r in luka.rules] == [5, 6]


def test_goodness_surface_and_recommendations(heater, table):
    surface = goodness_surface(heater, table)
    assert surface == HEATER_SURFACE
    assert recommend(heater, surface) == HEATER_PICKS


def test_surface_equals_the_least_model(heater, table):
    program = compile_control(heater)
    model, _ = least_model(program, table)
    surface = goodness_surface(heater, table)
    for (x, y), v in surface.items():
        assert model[Atom("good", (Const(x), Const(y)))] == v


def test_luka_compilation_matches_when_confidence_is_top(table):
    text = """\
    inputs: i1 i2
    outputs: o1 o2
    rule: hot => fast
    sat hot i1 probably true
    sat hot i2 very true
    sat fast o1 little true
    sat fast o2 more true
    """
    cs = parse_control_file(text, table.domain)
    godel = goodness_surface(cs._replace(program=compile_control(cs, GODEL)), table)
    luka = goodness_surface(cs._replace(program=compile_control(cs, LUKA)), table)
    assert godel == luka  # a top-graded rule makes both weights neutral


def test_format_surface_layout(heater, table):
    text = format_surface(heater, table.domain, goodness_surface(heater, table))
    lines = text.splitlines()
    assert lines[0].split() == ["input", "p0", "p50", "p100"]
    assert lines[1].split() == ["t15", "v0", "v23", "v33"]
    assert lines[2].split() == ["t20", "v30", "v30", "v23"]
    assert lines[3].split() == ["t25", "v41", "v30", "v0"]
    assert lines[4] == "recommend t15 -> p100 at true (v33)"
    assert lines[5] == "recommend t20 -> p0 at probably true (v30)"
    assert lines[6] == "recommend t25 -> p0 at very true (v41)"


def test_recommend_breaks_ties_by_declaration_order(table):
    text = """\
    inputs: i
    outputs: o1 o2
    rule: hot => fast
    sat hot i very true
    sat fast o1 probably true
    sat fast o2 probably true
    """
    cs = parse_control_file(text, table.domain)
    surface = goodness_surface(cs, table)
    assert surface[("i", "o1")] == surface[("i", "o2")]
    assert recommend(cs, surface)["i"][0] == "o1"


def _expect_problems(text, domain, *needles):
    with pytest.raises(ParseError) as err:
        parse_control_file(text, domain)
    for needle in needles:
        assert needle in str(err.value), needle


def test_parse_errors_are_collected(domain):
    _expect_problems(
        "rule: a => b\nsat a i true\nsat b o true\n",
        domain,
        "no inputs: line",
        "no outputs: line",
        "undeclared point",
    )
    _expect_problems(
        "inputs: i\noutputs: i\nrule: a => b\nsat a i true\nsat b i true\n",
        domain,
        "declared on both sides",
    )
    _expect_problems(
        "inputs: i\noutputs: o\nrule: a => a\nsat a i true\nsat a o true\n",
        domain,
        "both sides of a rule",
    )
    _expect_problems(
        "inputs: i\noutputs: o\nrule: a => b conf absfalse\n"
        "sat a i true\nsat b o true\n",
        domain,
        "vacuous",
    )
    _expect_problems(
        "inputs: i\noutputs: o\nrule: a => b\nsat a i true\n",
        domain,
        "no sat row for output term 'b' at 'o'",
    )
    _expect_problems(
        "inputs: i\noutputs: o\nrule: a => b\n"
        "sat a i true\nsat a i false\nsat b o true\n",
        domain,
        "conflicts",
    )
    _expect_problems(
        "inputs: i\noutputs: o\nnonsense here\nrule: a => b\n"
        "sat a i true\nsat b o true\n",
        domain,
        "cannot make sense",
    )


def test_points_repeated_within_a_line_are_refused(samples_dir, domain):
    text = (samples_dir / "heater.ctl").read_text()
    text = text.replace("inputs: t15 t20 t25", "inputs: t15 t20 t15 t25 t15 t20")
    with pytest.raises(ParseError) as err:
        parse_control_file(text.replace("outputs: p0", "outputs: p0 p0"), domain)
    assert err.value.violations == (
        "line 2: point 't15' declared twice",
        "line 2: point 't20' declared twice",
        "line 3: point 'p0' declared twice",
    )


@pytest.mark.parametrize("text, violations", [
    ("inputs:\noutputs: p1 p1\nrule: a => b\n", (
        "line 1: inputs declares no points",
        "line 2: point 'p1' declared twice",
        "no sat row for output term 'b' at 'p1'",  # once, though p1 is declared twice
    )),
    ("inputs: t1 t1\noutputs: p1\nrule: a => b\nsat b p1 true\n", (
        "line 1: point 't1' declared twice",
        "no sat row for input term 'a' at 't1'",
    )),
    ("inputs: i\noutputs: o\noutputs: p\nrule: a => b\nsat a i true\nsat b o true\n", (
        "line 3: outputs declared twice",
        "line 6: undeclared point 'o'",
        "no sat row for output term 'b' at 'p'",
    )),
])
def test_point_declaration_violations_are_listed_exactly(domain, text, violations):
    with pytest.raises(ParseError) as err:
        parse_control_file(text, domain)
    assert err.value.violations == violations


def test_missing_sat_rows_list_input_terms_then_output_terms_by_first_use(domain):
    text = ("inputs: i1 i2\noutputs: o1 o2\n"
            "rule: warm => weak\nrule: cold =>\nrule: very warm => strong\nrule: cold => weak\n"
            "sat warm i1 true\nsat weak o2 true\n")
    with pytest.raises(ParseError) as err:
        parse_control_file(text, domain)
    assert err.value.violations == (
        "line 4: empty rule side",
        "no sat row for input term 'warm' at 'i2'",
        "no sat row for input term 'cold' at 'i1'",
        "no sat row for input term 'cold' at 'i2'",
        "no sat row for output term 'weak' at 'o1'",
        "no sat row for output term 'strong' at 'o1'",
        "no sat row for output term 'strong' at 'o2'",
    )


def test_points_spelled_like_variables_stay_constants(table):
    # compile_control builds its rules over the variables X and Y
    text = """\
    inputs: {x} t2
    outputs: {y} p1
    rule: very cold => strong
    rule: warm => weak conf more true
    sat cold {x} very true
    sat cold t2 little true
    sat warm {x} probably true
    sat warm t2 true
    sat strong {y} true
    sat strong p1 more true
    sat weak {y} little true
    sat weak p1 very true
    """
    upper = parse_control_file(text.format(x="X", y="Y"), table.domain)
    lower = parse_control_file(text.format(x="x", y="y"), table.domain)
    rows = [format_surface(cs, table.domain, goodness_surface(cs, table)).lower().splitlines()
            for cs in (upper, lower)]
    assert rows[0] == rows[1]
    assert len(set(goodness_surface(lower, table).values())) > 1


# Only "\n" ends a line, as in programs; these other line breaks are blanks.
BLANKS = ("\r", "\x0c", "\x85", "\u2028")


@pytest.mark.parametrize("blank", BLANKS)
def test_only_newlines_end_control_lines(heater, samples_dir, domain, blank):
    text = (samples_dir / "heater.ctl").read_text()
    assert parse_control_file(text.replace(" ", blank), domain) == heater
    assert parse_control_file(text.replace(" ", f" {blank} "), domain) == heater  # t15 \x0c t20
    # with "\r", a CRLF file
    assert parse_control_file(text.replace("\n", f"{blank}\n"), domain) == heater


@pytest.mark.parametrize("blank", BLANKS)
def test_control_line_numbers_count_newlines_only(domain, blank):
    text = (f"inputs: t1{blank}t2\noutputs:{blank}p1\n{blank}\nrule: a => b{blank}\n"
            f"bogus{blank}here\nsat a t1 true\nsat a t2 true\nsat b p1 true{blank}sat b p2 true\n")
    with pytest.raises(ParseError) as err:
        parse_control_file(text, domain)
    assert err.value.violations == (
        "line 5: cannot make sense of 'bogus here'",
        "line 8: unknown hedge 'true' in truth literal 'true sat b p2 true'",
        "no sat row for output term 'b' at 'p1'",
    )


def test_hedge_chains_in_rules_are_capped(domain, table):
    def text(k):
        return (f"inputs: i\noutputs: o\nrule: {'very ' * k}a => {'little ' * k}b\n"
                "sat a i true\nsat b o true\n")

    cs = parse_control_file(text(MAX_NESTING), domain)
    assert goodness_surface(cs, table)[("i", "o")] >= 0
    _expect_problems(text(MAX_NESTING + 1), domain,
                     f"line 3: rule side nested more than {MAX_NESTING} levels deep")


def test_zero_grade_sat_rows_are_legal_but_silent(heater):
    program = compile_control(heater)
    graded = {(f.atom.pred, f.atom.args[0]) for f in program.facts}
    assert ("cold", "t25") not in graded
    assert ("cold", "t20") in graded


@pytest.mark.parametrize("k", range(20))
def test_random_surfaces_match_the_least_model(k, table):
    seed = 20 + k  # acceptance 12 draws seeds 0-19
    cs = parse_control_file(random_control_text(seed, table.domain), table.domain)
    kind = random.Random(seed).choice((GODEL, LUKA))
    program = compile_control(cs, kind)
    surface = goodness_surface(cs._replace(program=program), table)
    model, _ = least_model(program, table)
    for (x, y), v in surface.items():
        assert model[Atom("good", (Const(x), Const(y)))] == v


def test_the_surface_is_exactly_the_declared_grid(table):
    """A ``sat`` row may grade an input term at an output point, and the
    model then holds ``good`` atoms off the grid; the surface keeps only
    the grid, every cell of it, each at its least-model grade."""
    text = ("inputs: t1 t2\noutputs: p1 p2 p3\nrule: cold => strong\n"
            "sat cold t1 true\nsat cold t2 very true\nsat cold p2 true\n"
            "sat strong p1 true\nsat strong p2 more true\nsat strong p3 true\n")
    cs = parse_control_file(text, table.domain)
    surface = goodness_surface(cs, table)
    model, _ = least_model(compile_control(cs), table)
    assert model[Atom("good", ("p2", "p1"))] > 0  # off the grid
    assert list(surface) == [(x, y) for x in ("t1", "t2") for y in ("p1", "p2", "p3")]
    assert surface == {(x, y): model[Atom("good", (x, y))] for x, y in surface}


def _matches_the_least_model(cs, table) -> dict[tuple[str, str], int]:
    """The surface, checked cell by cell against the least model under both
    rule weightings; the Gödel one is returned."""
    for kind in (LUKA, GODEL):
        program = compile_control(cs, kind)
        surface = goodness_surface(cs._replace(program=program), table)
        model, _ = least_model(program, table)
        assert surface == {(x, y): model[Atom("good", (x, y))] for x, y in surface}, kind
    return surface


def test_a_term_may_be_the_input_of_one_rule_and_the_output_of_another(table):
    # each side reads its own term's rows at its own side's points
    text = ("inputs: t1 t2\noutputs: p1 p2\nrule: cold => very strong conf more true\n"
            "rule: probably strong => cold\n"
            "sat cold t1 very true\nsat cold t2 little true\n"
            "sat cold p1 true\nsat cold p2 absfalse\n"
            "sat strong p1 probably true\nsat strong p2 true\nsat strong t1 absfalse\n"
            "sat strong t2 very true\n")
    surface = _matches_the_least_model(parse_control_file(text, table.domain), table)
    assert surface[("t2", "p1")] > 0 and surface[("t1", "p2")] > 0


def test_a_cell_is_the_best_over_rules_on_the_same_terms(table):
    text = ("inputs: t1 t2\noutputs: p1 p2\nrule: cold => strong conf probably true\n"
            "rule: cold => strong conf very true\nrule: cold => strong conf little true\n"
            "sat cold t1 true\nsat cold t2 more true\nsat strong p1 very true\n"
            "sat strong p2 probably true\n")
    cs = parse_control_file(text, table.domain)
    surface = _matches_the_least_model(cs, table)
    alone = [goodness_surface(cs._replace(program=cs.program._replace(statements=(
        rule, *cs.program.facts))), table) for rule in cs.program.rules]
    assert surface == {cell: max(s[cell] for s in alone) for cell in surface}
    assert len({s[("t1", "p1")] for s in alone}) == 3  # the confidences differ there


def test_an_instance_whose_hedged_side_is_bottom_is_counted_and_weighs_nothing(monkeypatch):
    # an inverse: row sends 'very' of 'very very false' to absfalse
    config = DEFAULT_ALGEBRA_CONFIG + "inverse: very very very false -> absfalse\n"
    _, domain, overrides = load_algebra_config(config)
    table = build_inverse_table(domain, overrides)
    text = ("inputs: t1 t2\noutputs: p1\nrule: very cold => strong\n"
            "sat cold t1 very very false\nsat cold t2 true\nsat strong p1 true\n")
    cs = parse_control_file(text, domain)
    surface = _matches_the_least_model(cs, table)
    assert surface[("t1", "p1")] == 0 < surface[("t2", "p1")]
    monkeypatch.setattr(control, "SURFACE_LIMIT", 1)
    with pytest.raises(SurfaceLimitError) as err:
        goodness_surface(cs, table)
    assert (err.value.needed, err.value.limit) == (2, 1)  # t1's instance is one of the two


def test_the_surface_cap_is_read_when_a_surface_is_computed(heater, table, samples_dir,
                                                            monkeypatch, capsys):
    """``SURFACE_LIMIT`` is read by each surface, as ``GROUND_LIMIT`` is by each
    grounding: the heater's two rules have 2 × 2 graded points each, 8 in all,
    and a surface over the cap is refused before any side is valued."""
    monkeypatch.setattr(control, "SURFACE_LIMIT", 8)
    assert goodness_surface(heater, table) == HEATER_SURFACE
    monkeypatch.setattr(control, "SURFACE_LIMIT", 7)
    monkeypatch.setattr(control, "value", None)  # nothing is valued
    with pytest.raises(SurfaceLimitError) as err:
        goodness_surface(heater, table)
    assert (err.value.needed, err.value.limit) == (8, 7)
    assert main(["surface", str(samples_dir / "heater.ctl")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the surface needs at least 8 rule instances, over the limit of 7\n"


# Control-file words: mostly well placed, now and then misplaced or wrong.
NOISE = ("inputs:", "outputs:", "rule:", "sat", "=>", "conf", "%", ":", "\u00e9", "\r", "good",
         "and_g", "t1", "p1", "cold", "strong", "very", "true")


def control_text(seed: int) -> str:
    rng = random.Random(seed)

    def pick(good: tuple, bad: tuple):
        return rng.choice(bad if rng.random() < 0.04 else good)

    def points(pool: tuple, bad: str) -> list[str]:
        return rng.sample(pool, rng.randint(1, len(pool))) + [bad] * (rng.random() < 0.04)

    def side(terms: tuple, bad: tuple) -> str:
        hedges = [pick(("very", "little", "probably", "more"), ("quite", "cold"))
                  for _ in range(rng.randint(0, 2))]
        return " ".join(hedges + [pick(terms, bad)])

    inputs, outputs = points(("t1", "t2", "t3"), "p1"), points(("p1", "p2"), "t1")
    lines = [f"inputs: {' '.join(inputs)}", f"outputs: {' '.join(outputs)}"]
    sat = {}
    for _ in range(pick((1, 2, 3), (0,))):
        left = side(("cold", "warm"), ("good", "and_g", "strong"))
        right = side(("strong", "weak"), ("or", "cold", ""))
        conf = pick(("", " conf very true"), (" conf absfalse", " conf quite true"))
        lines.append(f"rule: {left} {pick(('=>',), ('',))} {right}{conf}")
        sat[left.split()[-1]] = inputs
        sat[right.split()[-1] if right else ""] = outputs
    for term, pts in sat.items():
        for point in pts:
            grade = pick(("very true", "probably true", "true", "absfalse", "more false"),
                         ("quite true", "W", "", "true conf true"))
            lines += [f"sat {term} {pick((point,), ('p9',))} {grade}"] * pick((1,), (0, 2))
    if rng.random() < 0.1:
        lines.append(" ".join(rng.choices(NOISE, k=rng.randint(0, 5))))
    rng.shuffle(lines)
    return "\n".join(lines)


@settings(max_examples=200)
@given(st.integers(0, 2**32).map(control_text))
def test_control_text_raises_only_input_or_limit_errors(table, text):
    try:
        goodness_surface(parse_control_file(text, table.domain), table)
    except (InputError, LimitError) as exc:
        assert str(exc)
