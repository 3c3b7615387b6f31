from __future__ import annotations

import ast
import collections
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fllp import fixpoint
from fllp.algebra import GODEL, LUKA
from fllp.control import compile_control, parse_control_file
from fllp.fixpoint import (
    GroundingLimitError,
    Interpretation,
    dump_model,
    eval_ground_body,
    ground,
    least_model,
)
from fllp.inverse import build_inverse_table
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
    Var,
    load_program,
    parse_program,
    parse_query,
    value,
)
from fllp.solver import SolveOptions, solve

import oracle
from expected import EMPLOYEE_MODEL, EMPLOYEE_ROUNDS, SAMPLE_ANSWERS
from randprog import mixed_arity_program, random_algebra, random_program
from strategies import programs

CHAIN10 = "".join(f"edge(n{i},n{i + 1}) : true.\n" for i in range(10)) + (
    "path(X,Y) <-g edge(X,Y) : abstrue.\n"
    "path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : abstrue.\n"
)


def test_employee_least_model(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    model, rounds = least_model(program, table)
    got = {f"{atom.pred}({atom.args[0]})": v for atom, v in model.items() if v}
    assert got == EMPLOYEE_MODEL
    assert rounds == EMPLOYEE_ROUNDS


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


def _check_against_the_oracle(program, table) -> None:
    """Over ``program`` and over ``ground``'s instances, the least model and
    its round count are the oracle's iterated T_P over the full grounding;
    and ``ground`` keeps the oracle's facts, a subsequence of its rules, and
    every rule instance whose body is nonzero in that model."""
    full = oracle.ground(program)
    want = oracle.iterate_tp(full, table)
    relevant = ground(program)
    assert least_model(program, table, mode="delta") == want
    assert least_model(program, table, gp=relevant) == want
    assert relevant.facts == full.facts
    assert _is_subsequence(relevant.rules, full.rules)
    kept = set(relevant.rules)
    assert all(rule in kept for rule in full.rules if oracle.body_value(rule, table, want[0]))


def test_delta_mode_matches_naive(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    _check_against_the_oracle(program, table)
    with pytest.raises(ValueError, match="mode"):
        least_model(program, table, mode="eager")


@pytest.mark.parametrize("seed", range(25))
def test_delta_mode_matches_naive_on_random_programs(seed, domain, table):
    _, other = random_algebra(seed)
    for domain, table in ((domain, table), (other, build_inverse_table(other))):
        for recursive in (False, True):
            program = random_program(seed, domain, recursive=recursive)
            # listed backwards, recursive rules come before what they derive from
            for prog in (program, Program(program.statements[::-1])):
                _check_against_the_oracle(prog, table)


@pytest.mark.parametrize("seed", range(10))
def test_consequence_operator_is_monotone(seed, domain, table):
    program = random_program(seed, domain)
    full = oracle.ground(program)
    rng = random.Random(seed)
    lo, hi = {}, {}
    for atom in full.base:
        a, b = rng.randint(0, domain.n), rng.randint(0, domain.n)
        lo[atom], hi[atom] = min(a, b), max(a, b)
    assert oracle.leq(lo, hi)
    assert oracle.leq(oracle.tp(full, table, lo), oracle.tp(full, table, hi))


def test_rounds_stay_under_the_cap(domain, table):
    for seed in range(15):
        program = random_program(seed, domain, recursive=True)
        _, rounds = least_model(program, table)
        assert rounds <= len(oracle.ground(program).base) * (domain.n + 1) + 1


def test_grounding_universe_and_base(domain):
    program = parse_program("p(X) : true.\nq(a,b) : true.\n", domain)
    assert oracle.universe(program) == ("a", "b")
    # the open fact grounds over the whole universe
    assert sorted(f"{a.pred}({a.args[0]})" for a, _ in ground(program).facts if a.pred == "p") == [
        "p(a)", "p(b)",
    ]
    assert [a.pred for a in oracle.ground(program).base] == ["p", "p", "q", "q", "q", "q"]

    bare = parse_program("r(X) <-g s(X) : true.\ns(X) : middle.\n", domain)
    assert oracle.universe(bare) == ("a",)
    assert ground(bare).facts == ((Atom("s", ("a",)), 22),)


def test_grounding_limit_is_checked_before_expansion(domain):
    src = "p(A,B,C,D) <-g and_g(q(A,B), q(C,D)) : true.\nq(a,b) : true.\nq(b,c) : true.\n"
    program = parse_program(src, domain)
    with pytest.raises(GroundingLimitError) as err:
        ground(program, limit=50)  # 81 + 9 base atoms and 2 facts
    assert (err.value.needed, err.value.limit) == (92, 50)
    # the four pairs of q facts, of the oracle's 81 instances
    assert len(ground(program, limit=1000).rules) == 4
    assert len(oracle.ground(program).rules) == 81


def test_eval_ground_body_forms(domain, table):
    interp = Interpretation()
    p, q = Atom("p", (Const("a"),)), Atom("q", (Const("a"),))
    interp[p], interp[q] = 30, 38
    src = "r <-g and_l(#very(p(a)), q(a)) : true.\n"
    rule = parse_program(src, domain).rules[0]
    # very maps 30 back to 23; 23 (+) 38 - 44 = 17
    assert eval_ground_body(rule.body, interp, table) == 17
    src = "r <-g or(p(a), q(a)) : true.\n"
    rule = parse_program(src, domain).rules[0]
    assert eval_ground_body(rule.body, interp, table) == 38
    assert eval_ground_body(Atom("s", (Const("a"),)), interp, table) == 0


def test_interpretation_helpers():
    interp = Interpretation()
    atom = Atom("p", ())
    # reading an absent atom gives bottom and stores nothing
    assert interp[atom] == 0 and atom not in interp
    interp[atom] = 5
    assert interp == {atom: 5}


def test_dump_model_formats_and_sorts(samples_dir):
    program, table = load_program(samples_dir / "good_employee_luka.fllp")
    model, _ = least_model(program, table)
    lines = dump_model(model, table.domain)
    assert lines == [
        "gd_em(ann) : probably probably true (v29)",
        "hira_un(ann) : very true (v41)",
        "st_hd(ann) : more true (v36)",
    ]


def test_model_agrees_with_the_solver_on_the_samples(samples_dir):
    for name, (query, const, want) in SAMPLE_ANSWERS.items():
        program, table = load_program(samples_dir / name)
        model, _ = least_model(program, table)
        result = solve(program, table, parse_query(query, table.domain),
                       SolveOptions(depth=None, best=True))
        (answer,) = result.answers
        assert answer.bindings == (("X", Const(const)),), name
        pred = query.split("(")[0]
        assert answer.value == model[Atom(pred, (Const(const),))] == want, name


@pytest.mark.parametrize("algebra", ["default", "random"])
@pytest.mark.parametrize("seed", range(40))
def test_relevant_grounding_agrees_with_full_grounding(seed, algebra, domain, table):
    # the default algebra and randprog's programs, which ``programs()`` does not draw
    if algebra == "random":
        _, domain = random_algebra(seed)
        table = build_inverse_table(domain)
    _check_against_the_oracle(random_program(seed, domain, recursive=seed % 2 == 1), table)


def test_relevant_grounding_counts_only_instances_built(domain, table):
    program = parse_program(CHAIN10, domain)
    full = oracle.ground(program)  # 242 base atoms, 10 facts, 1,452 rules
    assert len(full.base) + len(full.facts) + len(full.rules) > 1000
    assert len(ground(program, limit=1000).rules) == 55
    model, _ = least_model(program, table, limit=1000)
    assert sum(1 for atom, v in model.items() if v and atom.pred == "path") == 55
    # the base and the facts fit under 300, the 55 relevant instances do not
    with pytest.raises(GroundingLimitError) as err:
        least_model(program, table, limit=300)
    assert err.value.needed > 300 and err.value.limit == 300


def test_grounding_limit_crossed_in_the_join_names_the_first_instance_over(domain, table):
    program = parse_program(CHAIN10, domain)  # 242 base atoms and 10 facts: 252
    for limit in (252, 300):
        for grounding in (lambda: least_model(program, table, limit=limit),
                          lambda: ground(program, limit)):
            with pytest.raises(GroundingLimitError) as err:
                grounding()
            assert (err.value.needed, err.value.limit) == (limit + 1, limit)


def test_relevant_grounding_handles_grades_and_loose_variables(domain, table):
    a, b = Const("a"), Const("b")
    x = Var("X")
    statements = (
        Fact(Atom("q", (a,)), 20),
        # X occurs only in the head: it ranges over the whole universe
        Rule(Atom("p", (x,)), GODEL, Atom("q", (a,)), 30),
        # the grade part alone can make the body nonzero
        Rule(Atom("r", (x,)), GODEL, Disj((Atom("s", (x,)), Grade(10))), 30),
        Rule(Atom("s", (b,)), GODEL, Disj((Atom("s", (b,)), Grade(0))), 30),
    )
    program = Program(statements)
    assert [f"{r.head.pred}({r.head.args[0]})" for r in ground(program).rules] == [
        "p(a)", "p(b)", "r(a)", "r(b)",
    ]
    _check_against_the_oracle(program, table)


def test_one_name_at_two_arities_is_two_predicates(domain, table):
    """``p/1`` and ``p/2`` are apart in the join, in the Herbrand base the
    grounding counts up front, and in the model, as in the oracle."""
    for seed in range(300):
        program = mixed_arity_program(seed, domain, recursive=seed % 2 == 1)
        _check_against_the_oracle(program, table)
        full = oracle.ground(program)
        before = len(full.base) + len(full.facts)
        with pytest.raises(GroundingLimitError) as err:
            ground(program, limit=before - 1)
        assert err.value.needed == before, seed


def test_a_body_is_refused_before_its_alternatives_are_expanded(domain, table, monkeypatch):
    # and_g(or(a0,b0), ..., or(a15,b15)) has 2**16 alternatives of 16 atoms
    parts = ",".join(f"or(a{i},b{i})" for i in range(16))
    program = parse_program(f"a0 : true.\nh <-g and_g({parts}) : true.\n", domain)
    monkeypatch.setattr(fixpoint, "_alternatives", None)  # never reached
    for grounding in (lambda: least_model(program, table), lambda: ground(program)):
        with pytest.raises(fixpoint.JoinLimitError) as err:
            grounding()
        assert (err.value.needed, err.value.limit) == (2**16 + 2**16 * 16**2, 10**6)


P, Q, R, S, T, U, V, W = (Atom(name) for name in "pqrstuvw")
JOIN_STEP_BODIES = {
    "atom": P,
    "hedged-conjunction": Conj(GODEL, (P, HedgeApp("very", Q))),
    "grade-leaves": Disj((P, Conj(LUKA, (Q, R)), Grade(3), Grade(0))),
    "nested": Conj(LUKA, (Disj((P, Q)), Disj((R, S, T)), Disj((Conj(GODEL, (U, V)), W)))),
}


@pytest.mark.parametrize("shape", JOIN_STEP_BODIES)
def test_join_steps_count_the_alternatives_and_their_plans(shape):
    body = JOIN_STEP_BODIES[shape]
    alts = fixpoint._alternatives(body)
    assert fixpoint._join_steps(body) == len(alts) + sum(len(alt) ** 2 for alt in alts)


def test_join_steps_count_repeated_atoms_before_they_merge():
    # the alternatives are (p,), (p, r), (q, p) and (q, r): 4 + 1 + 4 + 4 + 4 merged
    assert fixpoint._join_steps(Conj(GODEL, (Disj((P, Q)), Disj((P, R))))) == 4 + 4 * 2**2


def test_the_join_steps_are_bounded_per_program(domain, table, monkeypatch):
    """Each body's 8 alternatives of 3 atoms take 8 + 8 * 3**2 steps: under
    the join limit one by one, over it together."""
    parts = ",".join(f"or(a{i},b{i})" for i in range(3))
    rules = "".join(f"h{k} <-g and_g({parts}) : true.\n" for k in range(3))
    program = parse_program(f"a0 : true.\n{rules}", domain)
    monkeypatch.setattr(fixpoint, "JOIN_LIMIT", 239)
    for grounding in (lambda: least_model(program, table), lambda: ground(program)):
        with pytest.raises(fixpoint.JoinLimitError) as err:
            grounding()
        assert (err.value.needed, err.value.limit) == (240, 239)
    monkeypatch.setattr(fixpoint, "JOIN_LIMIT", 240)
    assert least_model(program, table) == ({Atom("a0"): 33}, 2)


def test_a_join_plan_of_any_length_is_walked_in_a_loop(domain, table):
    """With every atom of a 300-atom conjunction derivable, the join walks
    plans of up to 300 steps, within 150 frames of the caller's."""
    atoms = [f"a{i}" for i in range(300)]
    text = "".join(f"{a} : true.\n" for a in atoms) + f"h <-g and_g({', '.join(atoms)}) : true.\n"
    program = parse_program(text, domain)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        model, rounds = least_model(program, table)
    finally:
        sys.setrecursionlimit(before)
    assert (model[Atom("h")], rounds) == (33, 3)


def test_join_plans_take_the_most_bound_atom_next():
    """After its first atom, each plan takes the atom with the most argument
    positions bound, the earliest on ties: the greedy order, step by step."""
    rng = random.Random(0)
    terms = (Var("X"), Var("Y"), Var("Z"), Var("W"), Const("a"), Const("b"))
    for _ in range(400):
        atoms = [Atom(rng.choice("pq"), tuple(rng.choice(terms) for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(1, 8))]
        alt = tuple(dict.fromkeys(atoms))
        slots: dict = {}
        slot = lambda term: slots.setdefault(term, len(slots))  # noqa: E731
        consts = {slot(t) for atom in alt for t in atom.args if isinstance(t, str)}
        at = {atom: j for j, atom in enumerate(alt)}
        plans = fixpoint._plans(alt, slot, consts, collections.defaultdict(dict), at)
        for first, plan in zip(alt, plans):
            order, rest = [first], [a for a in alt if a != first]
            seen = consts | set(map(slot, first.args))
            while rest:
                order.append(max(rest, key=lambda a: sum(slot(t) in seen for t in a.args)))
                rest.remove(order[-1])
                seen |= set(map(slot, order[-1].args))
            assert [step[-1] for step in plan] == [at[atom] for atom in order]


# Shapes the join handles apart, which ``strategies.programs`` does not all
# draw: source, then what grounding counts before the join (the Herbrand base
# and the fact instances), then that plus the relevant rule instances.
JOIN_SHAPES = {
    "zero-arity": ("q : true.\np <-g q : very true.\nr <-l and_l(p, #very(q)) : true.\n", 4, 6),
    "one-argument": ("q(a) : true.\nq(b) : more true.\np(X) <-g #very(q(X)) : true.\n", 6, 8),
    "repeated-variable": ("e(a,a) : true.\ne(a,b) : true.\ne(b,b) : very true.\n"
                          "s(X,X) <-g e(X,X) : true.\nt(X) <-g s(X,X) : very true.\n", 13, 17),
    "head-only-variable": ("q(a) : true.\nq(b) : true.\np(X,Y) <-g q(X) : true.\n", 8, 12),
    "constant-in-body": ("e(a,b) : true.\ne(b,b) : more true.\ne(b,c) : true.\n"
                         "p(X) <-g e(X,b) : true.\n", 15, 17),
    # each diagonal binding is found from both of its atoms, and counted once
    "self-join": ("q(a) : true.\nq(b) : more true.\nq(c) : very true.\n"
                  "r(X,Y) <-g and_g(q(X), q(Y)) : true.\n", 15, 24),
    "or-same-binding": ("q(a) : true.\ns(a) : more true.\ns(b) : true.\n"
                        "p(X) <-g or(q(X), s(X)) : true.\n", 9, 11),
    # nonzero with every body atom at bottom, and no body atom ever rises
    "grade-leaf": (Program((
        Rule(Atom("p", ()), GODEL, Disj((Atom("q", ()), Grade(3))), 44),
        Rule(Atom("r", (Var("X"),)), GODEL, Conj(GODEL, (Atom("p", ()), Atom("s", (Var("X"),)))), 44),
        Fact(Atom("s", (Const("a"),)), 33),
    )), 5, 7),
}


@pytest.mark.parametrize("shape", JOIN_SHAPES)
def test_join_shapes_agree_with_the_oracle_and_count_exactly(shape, domain, table):
    source, before, total = JOIN_SHAPES[shape]
    program = parse_program(source, domain) if isinstance(source, str) else source
    _check_against_the_oracle(program, table)
    assert len(ground(program, limit=total).rules) == total - before
    for limit, needed in ((before - 1, before), (total - 1, total)):
        for grounding in (lambda: least_model(program, table, limit=limit),
                          lambda: ground(program, limit)):
            with pytest.raises(GroundingLimitError) as err:
                grounding()
            assert (err.value.needed, err.value.limit) == (needed, limit)


def test_each_relevant_instance_is_evaluated_once(monkeypatch, samples_dir, table):
    """Round 1 reads bottom everywhere, so it fires the facts and only the
    rules nonzero there: on the heater sample, each rule instance is
    evaluated once, in the round after its facts, plus one probe per rule."""
    control = parse_control_file((samples_dir / "heater.ctl").read_text(), table.domain)
    program = compile_control(control)
    instances = len(ground(program).rules)
    compile_, calls = fixpoint._compile, []

    def counted(*args):  # each batch grades the instances whose body atom ids it lists
        grade, atoms = compile_(*args)
        return lambda I, Ls: calls.extend(Ls) or grade(I, Ls), atoms

    monkeypatch.setattr(fixpoint, "_compile", counted)
    _, rounds = least_model(program, table)
    assert instances > len(program.rules) and rounds == 3
    assert instances <= len(calls) <= instances + len(program.rules)


@settings(max_examples=100)
@given(programs(), st.randoms(use_true_random=False))
def test_a_rule_grades_each_instance_of_a_batch_as_value_does(case, rng):
    table, program = case
    n = table.domain.n
    for rule in program.rules:
        grade, atoms = fixpoint._compile(rule, table.columns, n)
        interp = [rng.randint(0, n) for _ in range(6)]
        instances = [{atom: rng.randrange(6) for atom in atoms} for _ in range(rng.randint(1, 4))]
        got = grade(interp, [tuple(ids[atom] for atom in atoms) for ids in instances])
        whole = Conj(rule.kind, (rule.body, rule.tv))
        assert got == [value(whole, lambda atom: interp[ids[atom]], table.columns, n)
                       for ids in instances]


@settings(max_examples=150)
@given(programs())
def test_both_least_models_are_iterated_tp_over_the_full_grounding(case):
    table, program = case
    _check_against_the_oracle(program, table)


def test_the_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("fllp.fixpoint")]
