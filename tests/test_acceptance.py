"""Acceptance suite.

Each test prints one ``acceptance NN <name>: PASS|FAIL`` line so the
outcome survives any pytest output capture.  The checks pin down the
behaviour the package promises: the default truth scale, the hedge
mapping table, the worked examples, both evaluation directions agreeing,
pruning being exact, and the control reduction.
"""
from __future__ import annotations

import contextlib
import random
import time

from fllp.algebra import GODEL, LUKA, load_algebra_config
from fllp.cli import main
from fllp.control import compile_control, goodness_surface, parse_control_file
from fllp.fixpoint import least_model
from fllp.inverse import build_inverse_table, validate_inverse_table
from fllp.lang import load_program, parse_query
from fllp.program import Atom, Conj, Const, value
from fllp.prolog import compile_program, compile_query
from fllp.solver import SolveOptions, _need, solve

import oracle
from conftest import ASYM_CONFIG
from expected import (
    CONNECTIVE_CLAUSES,
    DOMAIN_LITERALS,
    EMPLOYEE_CLAUSE,
    EMPLOYEE_FACT_LINES,
    EMPLOYEE_MODEL,
    EMPLOYEE_QUERY_LINE,
    EMPLOYEE_ROUNDS,
    HEATER_PICKS,
    HEATER_SURFACE,
    HEDGE_COLUMNS,
    SAMPLE_ANSWERS,
    expand_inverse_rows,
)
from randprog import random_algebra, random_control_text, random_program

N = 44


@contextlib.contextmanager
def criterion(capsys, num: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"acceptance {num:02d} {name}: PASS")


def test_01_default_domain(capsys):
    with criterion(capsys, 1, "default truth domain"):
        start = time.perf_counter()
        assert main(["domain"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"{literal} (v{i})" for i, literal in enumerate(DOMAIN_LITERALS)
        ]
        assert elapsed < 1.0


def test_02_inverse_mapping_table(capsys, domain, table):
    with criterion(capsys, 2, "inverse mapping table"):
        rows = expand_inverse_rows()
        assert len(rows) == 45
        for v in range(45):
            got = tuple(domain.literal(table.columns[h][v]) for h in HEDGE_COLUMNS)
            assert got == rows[domain.literal(v)], domain.literal(v)


def test_03_worked_example_employee(capsys, samples_dir):
    with criterion(capsys, 3, "worked example, staff appraisal"):
        for name in ("good_employee.fllp", "good_employee_impl_luka.fllp"):
            query, const, want = SAMPLE_ANSWERS[name]
            program, table = load_program(samples_dir / name)
            result = solve(
                program, table, parse_query(query, table.domain), SolveOptions(depth=None)
            )
            assert {a.value for a in result.answers} == {want}, name
            assert all(a.bindings == (("X", Const(const)),) for a in result.answers)


def test_04_worked_example_hotel(capsys, samples_dir):
    with criterion(capsys, 4, "worked example, hotel choice"):
        got = {}
        for name in ("hotel.fllp", "hotel_probably.fllp", "hotel_plain.fllp"):
            query, const, want = SAMPLE_ANSWERS[name]
            program, table = load_program(samples_dir / name)
            result = solve(
                program, table, parse_query(query, table.domain), SolveOptions(depth=None)
            )
            assert {a.value for a in result.answers} == {want}, name
            got[name] = want
        # strengthening the hedge weakens the answer, dropping it sits between
        assert got["hotel.fllp"] < got["hotel_plain.fllp"] < got["hotel_probably.fllp"]


def test_05_both_engines_and_the_compiler_agree(capsys, samples_dir):
    with criterion(capsys, 5, "two engines and clause text"):
        program, table = load_program(samples_dir / "good_employee_luka.fllp")
        query = parse_query("gd_em(X)", table.domain)
        result = solve(program, table, query, SolveOptions(depth=None))
        assert {a.value for a in result.answers} == {29}

        model, rounds = least_model(program, table)
        named = {f"{a.pred}({a.args[0]})": v for a, v in model.items() if v}
        assert named == EMPLOYEE_MODEL and rounds == EMPLOYEE_ROUNDS
        # the least model and its round count are those of iterating T_P
        assert (model, rounds) == oracle.iterate_tp(oracle.ground(program), table)

        text = compile_program(program, table)
        lines = text.splitlines()
        assert EMPLOYEE_CLAUSE in lines
        for needed in EMPLOYEE_FACT_LINES + CONNECTIVE_CLAUSES:
            assert needed in lines
        assert compile_query(query, table) == EMPLOYEE_QUERY_LINE
        golden = (samples_dir / "golden" / "good_employee_luka.pl").read_text()
        assert text == golden


def test_06_adjointness(capsys):
    with criterion(capsys, 6, "residuated connective pairs"):
        start = time.perf_counter()
        for kind in (GODEL, LUKA):
            for body in range(N + 1):
                # the rule conjunction as the engines value it
                row = [value(Conj(kind, (body, r)), None, {}, N) for r in range(N + 1)]
                assert all(row[r] <= row[r + 1] for r in range(N)), (kind, body)
                for head in range(N + 1):
                    # largest r whose conjunction with the body stays under
                    # the head; with the row monotone this pins the whole
                    # adjointness equivalence
                    best = max(r for r in range(N + 1) if row[r] <= head)
                    assert oracle.implicator(kind, head, body, N) == best, (kind, head, body)
                    # least r whose conjunction reaches the head: the solver's bound
                    least = min((r for r in range(N + 1) if row[r] >= head), default=N + 1)
                    assert _need(Conj(kind, ()), head, body, {}, N) == least, (kind, head, body)
        assert time.perf_counter() - start < 10.0


def test_07_inverse_conditions_hold_widely(capsys, vmpl):
    with criterion(capsys, 7, "mapping conditions on many algebras"):
        from fllp.algebra import DEFAULT_ALGEBRA_CONFIG

        for limit in (1, 2, 3):
            config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", f"limit: {limit}")
            _, domain, overrides = load_algebra_config(config)
            assert validate_inverse_table(build_inverse_table(domain, overrides)) == []
        _, domain, overrides = load_algebra_config(ASYM_CONFIG)
        assert validate_inverse_table(build_inverse_table(domain, overrides)) == []
        for seed in range(60):
            _, domain = random_algebra(seed)
            assert validate_inverse_table(build_inverse_table(domain)) == [], seed


def test_08_soundness_under_a_depth_bound(capsys, table):
    with criterion(capsys, 8, "answers never beat the model"):
        domain = table.domain
        rng = random.Random(2026)
        programs = 0
        for seed in range(60):
            program = random_program(seed, domain, recursive=True)
            model, _ = least_model(program, table)
            programs += 1
            atoms = list(oracle.ground(program).base)
            rng.shuffle(atoms)
            for atom in atoms[:6]:
                result = solve(program, table, atom, SolveOptions(depth=16))
                for a in result.answers:
                    assert a.value <= model[atom], (seed, atom)
        assert programs >= 50


def test_09_completeness_without_recursion(capsys, table):
    with criterion(capsys, 9, "best answers reach the model"):
        domain = table.domain
        programs = 0
        for seed in range(60):
            program = random_program(seed, domain)
            model, _ = least_model(program, table)
            programs += 1
            for atom in oracle.ground(program).base:
                result = solve(program, table, atom, SolveOptions(depth=None))
                got = max((a.value for a in result.answers), default=0)
                assert got == model[atom], (seed, atom)
        assert programs >= 50


def test_10_consequence_operator_behaves(capsys, table):
    with criterion(capsys, 10, "consequence operator"):
        domain = table.domain
        rng = random.Random(7)
        checked = 0
        for seed in range(20):
            program = random_program(seed, domain, recursive=True)
            full = oracle.ground(program)
            for _ in range(5):
                lo, hi = {}, {}
                for atom in full.base:
                    a, b = rng.randint(0, domain.n), rng.randint(0, domain.n)
                    lo[atom], hi[atom] = min(a, b), max(a, b)
                assert oracle.leq(oracle.tp(full, table, lo), oracle.tp(full, table, hi))
                checked += 1
            # the least model and its round count are those of iterating T_P
            model, rounds = oracle.iterate_tp(full, table)
            assert least_model(program, table) == (model, rounds)
            assert rounds <= len(full.base) * (domain.n + 1) + 1
        assert checked == 100


def test_11_threshold_pruning_is_exact(capsys, table):
    with criterion(capsys, 11, "threshold pruning"):
        domain = table.domain
        for seed in range(25):
            for recursive, depth in ((False, None), (True, 16)):
                program = random_program(seed, domain, recursive=recursive)
                for atom in oracle.ground(program).base[:5]:
                    plain = solve(program, table, atom, SolveOptions(depth=depth)).answers
                    for t in (10, 22, 30, 38):
                        opts = SolveOptions(depth=depth, threshold=t)
                        pruned = solve(program, table, atom, opts).answers
                        assert pruned == tuple(a for a in plain if a.value >= t), (
                            seed, recursive, atom, t,
                        )


def test_12_control_reduction(capsys, samples_dir, table):
    with criterion(capsys, 12, "control reduction"):
        domain = table.domain
        heater = parse_control_file((samples_dir / "heater.ctl").read_text(), domain)
        surface = goodness_surface(heater, table)
        assert surface == HEATER_SURFACE
        from fllp.control import recommend

        assert recommend(heater, surface) == HEATER_PICKS
        for seed in range(20):
            cs = parse_control_file(random_control_text(seed, domain), domain)
            kind = GODEL if seed % 2 == 0 else LUKA
            program = compile_control(cs, kind)
            surface = goodness_surface(cs._replace(program=program), table)
            model, _ = least_model(program, table)
            for (x, y), v in surface.items():
                assert model[Atom("good", (Const(x), Const(y)))] == v, (seed, x, y)
