from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fllp import solver
from fllp.algebra import GODEL, LUKA
from fllp.fixpoint import least_model
from fllp.lang import (
    Atom,
    Conj,
    Const,
    Disj,
    Fact,
    Grade,
    HedgeApp,
    Program,
    Rule,
    load_program,
    map_atoms,
    parse_program,
    parse_query,
    value,
)
from fllp.solver import (
    SearchLimitError,
    SolveOptions,
    _need,
    _next,
    _plug,
    _prepare,
    _root,
    format_answer,
    solve,
)

import oracle
from expected import (
    HEDGE_VERY_BOUND,
    RULE_LUKA_BOUND,
    SAMPLE_ANSWERS,
    TRACE_DEFAULT,
    TRACE_GRID_100,
    TRACE_PROGRAM,
    TRACE_THRESHOLD,
)
from randprog import mixed_arity_program, random_program
from strategies import bodies, programs, random_table
import tracegrid


@pytest.mark.parametrize("name", sorted(SAMPLE_ANSWERS))
def test_sample_programs(samples_dir, name):
    query, const, want = SAMPLE_ANSWERS[name]
    program, table = load_program(samples_dir / name)
    result = solve(program, table, parse_query(query, table.domain), SolveOptions(depth=None))
    assert not result.depth_exhausted
    assert sorted({a.value for a in result.answers}) == [want]
    assert all(a.bindings == (("X", Const(const)),) for a in result.answers)


def test_one_name_at_two_arities_answers_as_the_least_model(domain, table):
    # Every ground atom of p and q at arities 0 to 2, so each model atom is
    # asked and so is an atom of the same name at every other arity.
    for seed in range(100):
        program = mixed_arity_program(seed, domain)
        model, _ = least_model(program, table)
        consts = oracle.universe(program)
        for pred, arity in itertools.product("pq", range(3)):
            for args in itertools.product(consts, repeat=arity):
                atom = Atom(pred, args)
                result = solve(program, table, atom, SolveOptions(best=True))
                got = max((a.value for a in result.answers), default=0)
                assert not result.depth_exhausted and got == model[atom], (seed, atom)


def test_exhaustive_mode_finds_the_same_answers(samples_dir):
    program, table = load_program(samples_dir / "hotel.fllp")
    query = parse_query("su_ho(X)", table.domain)
    fast = solve(program, table, query, SolveOptions(depth=None))
    slow = solve(program, table, query, SolveOptions(depth=None, exhaustive=True))
    assert set(fast.answers) == set(slow.answers)


def test_unmatched_atom_grades_bottom(domain, table):
    program = parse_program("q(a) : true.\n", domain)
    result = solve(program, table, parse_query("p(X)", domain), SolveOptions())
    assert [a.value for a in result.answers] == [0]
    assert format_answer(domain, result.answers[0]) == "answer: X=_ ; tv=absfalse (v0)"


def test_unmatched_atom_under_a_bound_is_cut(domain, table):
    program = parse_program("q(a) : true.\n", domain)
    result = solve(program, table, parse_query("p(X)", domain), SolveOptions(threshold=1))
    assert result.answers == ()


def test_open_atom_under_disjunction_reaches_the_model(domain, table):
    src = """\
    r(X) <-g or(p(Z), q(Z)) : abstrue.
    p(a) : probably false.
    q(b) : probably more true.
    """
    program = parse_program(src, domain)
    result = solve(program, table, parse_query("r(a)", domain), SolveOptions(depth=None))
    model, _ = least_model(program, table)
    assert max(a.value for a in result.answers) == model[Atom("r", (Const("a"),))] == 35


def test_conjunction_keeps_a_single_clean_answer(domain, table):
    src = """\
    r(X) <-g and_g(p(Z), q(Z)) : abstrue.
    p(a) : probably false.
    q(a) : probably more true.
    """
    program = parse_program(src, domain)
    result = solve(program, table, parse_query("r(b)", domain), SolveOptions(depth=None))
    assert [a.value for a in result.answers] == [14]


def test_depth_limit_reports_exhaustion(domain, table):
    src = "p(a) : little true.\np(X) <-g #very(p(X)) : abstrue.\n"
    program = parse_program(src, domain)
    result = solve(program, table, parse_query("p(a)", domain), SolveOptions(depth=3))
    assert result.depth_exhausted
    assert result.answers  # the fact branch still completes
    deeper = solve(program, table, parse_query("p(a)", domain), SolveOptions(depth=30))
    assert deeper.depth_exhausted  # the self loop never bottoms out
    # extra unfolds only weaken the grade, the best answer is the bare fact
    assert max(a.value for a in deeper.answers) == max(a.value for a in result.answers) == 25
    flat = parse_program("q(b) : true.\n", domain)
    done = solve(flat, table, parse_query("q(b)", domain), SolveOptions())
    assert not done.depth_exhausted


@pytest.mark.parametrize("head", ["p(X)", "p(a)"])  # the ground loop binds nothing
def test_search_limit_stops_left_recursion(domain, table, monkeypatch, head):
    src = f"p(a) : little true.\n{head} <-g #very({head}) : abstrue.\n"
    program = parse_program(src, domain)
    query = parse_query(head, domain)
    monkeypatch.setattr(solver, "SEARCH_LIMIT", 1000)
    with pytest.raises(SearchLimitError, match="the search needs at least") as exc:
        solve(program, table, query, SolveOptions(depth=0, threshold=1))
    assert exc.value.limit == 1000 < exc.value.needed
    assert solve(program, table, query, SolveOptions(depth=20)).answers


def test_negative_depth_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        SolveOptions(depth=-3)
    assert SolveOptions(depth=0).depth == 0 and SolveOptions(depth=None).depth is None


def test_depth_zero_means_unlimited(samples_dir):
    program, table = load_program(samples_dir / "hotel.fllp")
    query = parse_query("su_ho(X)", table.domain)
    zero = solve(program, table, query, SolveOptions(depth=0))
    unlimited = solve(program, table, query, SolveOptions(depth=None))
    assert zero == unlimited and len(zero.answers) == 1


def test_threshold_filters_final_answers(samples_dir):
    program, table = load_program(samples_dir / "hotel.fllp")
    query = parse_query("su_ho(X)", table.domain)
    result = solve(program, table, query, SolveOptions(depth=None, threshold=30))
    assert result.answers == ()
    result = solve(program, table, query, SolveOptions(depth=None, threshold=28))
    assert {a.value for a in result.answers} == {28}


def test_best_keeps_one_answer_per_binding(domain, table):
    src = "p(a) : true.\np(a) <-g q(a) : abstrue.\nq(a) : little true.\n"
    program = parse_program(src, domain)
    result = solve(program, table, parse_query("p(X)", domain), SolveOptions(best=True))
    assert len(result.answers) == 1
    assert result.answers[0].value == 33
    assert result.answers[0].bindings == (("X", Const("a")),)


def test_trace_narrates_the_search(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    query = parse_query("gd_em(X)", table.domain)
    result = solve(program, table, query, SolveOptions(trace=True))
    assert result.trace[0].startswith("goal gd_em(X)")
    assert any("st_hd" in line for line in result.trace)
    assert any("computed v29" in line for line in result.trace)
    quiet = solve(program, table, query, SolveOptions())
    assert quiet.trace == ()


@pytest.mark.parametrize("opts, want", [
    (SolveOptions(threshold=20, depth=0, trace=True), TRACE_THRESHOLD),
    (SolveOptions(trace=True), TRACE_DEFAULT),
])
def test_full_trace_is_frozen(domain, table, opts, want):
    program = parse_program(TRACE_PROGRAM, domain)
    assert solve(program, table, parse_query("good(b)", domain), opts).trace == want


def test_traced_search_of_the_randprog_grid_is_frozen():
    # Seeds 0-99 under four option sets, 31 of the 1,144 solves ending at the
    # lowered search limit: a line traced on another side of a push, such as
    # an unmatched atom's "graded bottom" noted when popped rather than when
    # selected, shortens the trace a limit leaves.
    assert tracegrid.grid_digest(100) == TRACE_GRID_100


def test_frozen_bounds_through_the_one_rule(table):
    bound, grade, want = RULE_LUKA_BOUND
    rule = Rule(Atom("p"), LUKA, Atom("q"), grade)
    assert _need(rule, bound, grade, table.columns, table.domain.n) == want
    bound, want = HEDGE_VERY_BOUND
    assert _need(HedgeApp("very", Atom("q")), bound, 0, table.columns, table.domain.n) == want


@settings(max_examples=200)
@given(st.integers(0, 11), st.data())
def test_need_is_the_least_part_value_that_reaches_want(seed, data):
    table = random_table(seed)
    columns, n = table.columns, table.domain.n
    node = data.draw(st.sampled_from(
        [Conj(GODEL, ()), Conj(LUKA, ()), Disj(())]
        + [HedgeApp(h, None) for h in sorted(columns)]
    ))
    want, rest = data.draw(st.integers(0, n + 1)), data.draw(st.integers(0, n))

    def reaches(x):
        if isinstance(node, HedgeApp):
            return value(node._replace(body=Grade(x)), None, columns, n) >= want
        return value(node._replace(parts=(Grade(x), Grade(rest))), None, columns, n) >= want

    least = min((x for x in range(n + 1) if reaches(x)), default=n + 1)
    assert _need(node, want, rest, columns, n) == least


def test_threshold_zero_prunes_nothing(table):
    # The acceptance-11 atoms: answers, depth flag and trace at threshold 0
    # are those of a search without a threshold.
    for seed in range(25):
        for recursive, depth in ((False, None), (True, 16)):
            program = random_program(seed, table.domain, recursive=recursive)
            for atom in oracle.ground(program).base[:5]:
                plain, zero = (
                    solve(program, table, atom, SolveOptions(depth=depth, threshold=t, trace=True))
                    for t in (None, 0)
                )
                assert zero == plain, (seed, recursive, atom)


def _shown(answers):
    """Values and bindings, unbound variables shown as ``_`` whatever their
    renaming, as the CLI prints them."""
    return [(a.value, [(v, t if isinstance(t, Const) else "_") for v, t in a.bindings])
            for a in answers]


@settings(max_examples=100)
@given(programs(), st.booleans(), st.data())
def test_threshold_pruning_is_exact(case, exhaustive, data):
    # Pruning under a threshold returns exactly the unpruned answers that
    # reach it, in the same order, and flags the depth only if the unpruned
    # search does.  Pruned search pushes a subset of the unpruned states, so
    # it ends within the search limit whenever the unpruned search does.
    table, program = case
    query = data.draw(bodies(table))
    opts = SolveOptions(depth=3, exhaustive=exhaustive)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "SEARCH_LIMIT", 2000)
        try:
            plain = solve(program, table, query, opts)
        except SearchLimitError:
            return
        # each answer's value and the grade above it, where the pruned
        # answers change, and 1, which prunes every zero-graded answer
        values = {a.value for a in plain.answers}
        for t in values | {v + 1 for v in values if v < table.domain.n} | {1}:
            pruned = solve(program, table, query, replace(opts, threshold=t))
            assert _shown(pruned.answers) == _shown(a for a in plain.answers if a.value >= t)
            assert plain.depth_exhausted or not pruned.depth_exhausted


def test_all_below_top(domain, table):
    # No default column promotes a lesser grade to the top one, so only an
    # abstrue fact can put the top grade in play.
    assert all(col[v] < 44 for col in table.columns.values() for v in range(44))
    modest = parse_program("p : more true.\nq <-l #very(p) : abstrue.\n", domain)
    assert _prepare(modest, table, True)[0] == 43
    certain = parse_program("p : abstrue.\n", domain)
    assert _prepare(certain, table, True)[0] == 44
    # ... or a top grade leaf in a rule body, which only library callers build
    p, q = Atom("p"), Atom("q")
    lifted = Program((Fact(q, 20), Rule(p, GODEL, Disj((q, Grade(44))), 44)))
    assert _prepare(lifted, table, True)[0] == 44
    assert [a.value for a in solve(lifted, table, p, SolveOptions(threshold=44)).answers] == [44]


def test_trace_reports_the_bound_cut(domain, table):
    src = """\
    edge(a,b) : true.
    path(X,Y) <-g edge(X,Y) : abstrue.
    path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : abstrue.
    """
    program = parse_program(src, domain)
    result = solve(program, table, parse_query("path(a,Y)", domain), SolveOptions(trace=True))
    cuts = [i for i, line in enumerate(result.trace) if line.endswith("(below bound)")]
    assert [result.trace[i] for i in cuts] == [
        "[2] cut and_g(and_g(v33,#more(and_g(v0,v44))),v44) (below bound)",
        "[2] cut and_g(and_g(v33,#more(and_g(and_g(v0,#more(path(Z~4,Y))),v44))),v44)"
        " (below bound)",
    ]
    # each cut word ends in one bottom answer instead of unfolding path(b,Y)
    assert all(result.trace[i + 1] == "[2] computed v0" for i in cuts)
    shown = [format_answer(domain, a) for a in result.answers]
    assert shown == ["answer: Y=b ; tv=true (v33)"] + ["answer: Y=_ ; tv=absfalse (v0)"] * 2
    assert not result.depth_exhausted


def test_trace_reports_an_atom_whose_every_candidate_is_below_its_need(domain, table):
    program = parse_program("p(a) : little true.\np(b) : true.\nq(c) : very true.\n", domain)
    query = parse_query("and_g(q(Y), p(X))", domain)
    result = solve(program, table, query, SolveOptions(threshold=41, trace=True))
    assert result.trace == (
        "goal and_g(q(Y),p(X))", "[0] q(Y) -> v41", "[0] cut p(X) (below bound)",
    )
    assert result.answers == ()


# One predicate with facts and rules whose heads start with a constant, a
# different constant, or a variable: the statement index must offer every
# head that can unify, and the answers keep the best-first order.
INDEXED = """\
p(a,b) : true.
p(X,c) : very true.
p(b,d) : more true.
p(a,e) : little true.
p(X,Y) <-g q(X,Y) : very true.
p(a,Y) <-l #very(q(Y,a)) : true.
p(X,X) : probably true.
q(a,f) : probably true.
q(g,a) : true.
q(b,h) : very true.
"""


@pytest.mark.parametrize("query, opts, want", [
    ("p(a,Y)", SolveOptions(), ["c v41", "f v30", "b v33", "g v14", "a v30", "e v25"]),
    ("p(a,Y)", SolveOptions(exhaustive=True),
     ["b v33", "c v41", "e v25", "f v30", "g v14", "a v30"]),
    ("p(a,Y)", SolveOptions(threshold=30), ["c v41", "f v30", "b v33", "a v30"]),
    ("p(b,Y)", SolveOptions(), ["c v41", "h v41", "d v36", "b v30"]),
    ("p(g,Y)", SolveOptions(), ["c v41", "a v33", "g v30"]),
    ("p(X,Y)", SolveOptions(threshold=33),
     ["_,c v41", "b,h v41", "g,a v33", "b,d v36", "a,b v33"]),
])
def test_indexed_candidates_keep_every_answer_in_order(domain, table, query, opts, want):
    program = parse_program(INDEXED, domain)
    result = solve(program, table, parse_query(query, domain), opts)
    shown = [
        ",".join(t if isinstance(t, Const) else "_" for _, t in a.bindings) + f" v{a.value}"
        for a in result.answers
    ]
    assert shown == want


@st.composite
def _goal_words(draw):
    """A random algebra's table, a goal word over its hedges whose leaves
    are grades and open atoms, and a floor for the whole word."""
    table = random_table(draw(st.integers(0, 11)))
    n = table.domain.n
    leaves = st.builds(Grade, st.integers(0, n)) | st.just(Atom("p"))

    def extend(inner):
        parts = st.lists(inner, min_size=2, max_size=3).map(tuple)
        return (st.builds(Conj, st.sampled_from((GODEL, LUKA)), parts)
                | st.builds(Disj, parts)
                | st.builds(HedgeApp, st.sampled_from(sorted(table.columns)), inner))

    return table, draw(st.recursive(leaves, extend, max_leaves=8)), draw(st.integers(1, n))


def _resolve_leftmost(word, grade):
    """``word`` with its leftmost open atom resolved to ``grade``."""
    done = []
    return map_atoms(word, lambda atom: atom if done else done.append(atom) or grade)


@settings(max_examples=150)
@given(_goal_words(), st.data())
def test_frame_need_cuts_exactly_like_the_whole_word(case, data):
    # At every open atom in turn, the hole's need decides each grade the way
    # valuing the whole word does; this rests on monotone hedge columns.
    # The word is rewritten apart from the zipper, so plugging also checks
    # the resolved parts that climbing skipped and only _plug rebuilds.
    table, word, floor = case
    columns, n = table.columns, table.domain.n
    leaf = lambda w: n  # open atoms at top
    sel, up, grade = _next(word, _root(floor), leaf, columns, n)
    while sel is not None:
        assert _plug(sel, up) == word
        for g in range(n + 1):
            assert (g >= up[4]) == (value(_plug(Grade(g), up), leaf, columns, n) >= floor)
        grade = Grade(data.draw(st.integers(0, n)))
        word = _resolve_leftmost(word, grade)
        sel, up, grade = _next(grade, up, leaf, columns, n)
    assert grade == value(word, leaf, columns, n)


def test_plug_rebuilds_parts_nested_in_skipped_parts(table):
    # #more(p) resolves through its hedge frame into an entry of the inner
    # and_g; #very(p) then climbs past that and_g into an entry of the
    # outer and_l, which _plug must rebuild with the inner entry inside it.
    columns, n = table.columns, table.domain.n
    p = Atom("p")
    word = Conj(LUKA, (Conj(GODEL, (HedgeApp("more", p), HedgeApp("very", p))), p))
    leaf = lambda w: n
    sel, up, _ = _next(word, _root(1), leaf, columns, n)
    sel, up, _ = _next(Grade(30), up, leaf, columns, n)
    sel, up, _ = _next(Grade(20), up, leaf, columns, n)
    assert sel == p and any(part.__class__ is tuple for part in up[1])
    inner = Conj(GODEL, (HedgeApp("more", Grade(30)), HedgeApp("very", Grade(20))))
    assert _plug(sel, up) == Conj(LUKA, (inner, p))
