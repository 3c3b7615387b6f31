from __future__ import annotations

import ast
import errno
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fllp import cli
from fllp.algebra import DEFAULT_ALGEBRA_CONFIG, load_algebra_config
from fllp.cli import main
from fllp.fixpoint import least_model
from fllp.lang import MAX_NESTING, parse_program, pretty_print

from conftest import ASYM_CONFIG, shape_config
from expected import DOMAIN_INVERSE_SHA256, DOMAIN_LITERALS, L1_DOMAIN_LITERALS
from randprog import random_program

RECURSIVE = "p(a) : little true.\np(X) <-g #very(p(X)) : abstrue.\n"
SRC = Path(__file__).resolve().parent.parent / "src"

# six chained q atoms over eleven constants: 1,771,572 base atoms
CAPPED = "\n".join(
    [f"q(c{i}) : true." for i in range(11)]
    + ["p(A,B,C,D,E,F) <-g and_g(q(A), q(B), q(C), q(D), q(E), q(F)) : true."]
) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_domain_prints_the_scale(capsys):
    code, out, err = run(capsys, "domain")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"{literal} (v{i})" for i, literal in enumerate(DOMAIN_LITERALS)
    ]


def test_domain_inverse_blocks(capsys):
    code, out, _ = run(capsys, "domain", "--inverse")
    lines = out.splitlines()
    for h in ("very", "more", "probably", "little"):
        assert f"inverse {h}:" in lines
    assert "  absfalse (v0) -> absfalse (v0)" in lines
    assert "  true (v33) -> little true (v25)" in lines


@pytest.mark.parametrize("key", DOMAIN_INVERSE_SHA256)
def test_domain_inverse_output_is_frozen(tmp_path, key):
    config, out = tmp_path / "shape.alg", tmp_path / "out.txt"
    config.write_text(shape_config(key))
    assert main(["domain", "--inverse", "--algebra", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DOMAIN_INVERSE_SHA256[key]


def test_domain_algebra_flag_and_env(capsys, tmp_path, monkeypatch):
    small = tmp_path / "small.alg"
    small.write_text(DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 1"))

    code, out, _ = run(capsys, "domain", "--algebra", str(small))
    assert code == 0 and len(out.splitlines()) == len(L1_DOMAIN_LITERALS)

    monkeypatch.setenv("FLLP_ALGEBRA", str(small))
    code, out, _ = run(capsys, "domain")
    assert len(out.splitlines()) == 13  # env var applies

    vmpl = tmp_path / "vmpl.alg"
    vmpl.write_text(DEFAULT_ALGEBRA_CONFIG)
    code, out, _ = run(capsys, "domain", "--algebra", str(vmpl))
    assert len(out.splitlines()) == 45  # the flag beats the env var


def test_env_algebra_is_read_only_when_nothing_else_names_one(
    capsys, samples_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv("FLLP_ALGEBRA", str(tmp_path / "missing.alg"))
    hotel = str(samples_dir / "hotel.fllp")
    code, out, err = run(capsys, "check", hotel)  # the directive applies
    assert (code, out, err) == (0, "ok: 4 fact(s), 2 rule(s)\n", "")
    code, _, err = run(capsys, "check", hotel, "--algebra", str(samples_dir / "vmpl.alg"))
    assert code == 0 and err == ""

    plain = tmp_path / "plain.fllp"
    plain.write_text("p : true.\n")
    code, out, err = run(capsys, "check", str(plain))
    assert code == 1 and out == "" and "missing.alg" in err


def test_a_directive_naming_a_missing_file_is_its_violation(capsys, tmp_path):
    prog = tmp_path / "prog.fllp"
    prog.write_text('% grades below\nuse algebra "missing.alg".\np( : true.\nq : quite true.\n')
    assert run(capsys, "check", str(prog)) == (1, "", (
        f"error: line 2: cannot read algebra 'missing.alg' (No such file or directory: "
        f"{tmp_path / 'missing.alg'}); the program's grades and hedges are read against it, "
        "so its other statements wait\n"))


@pytest.mark.parametrize("route", ["flag", "directive", "env"])
def test_config_violations_name_their_file_beside_a_program(
    capsys, samples_dir, tmp_path, monkeypatch, route
):
    bad, prog = tmp_path / "bad.alg", tmp_path / "prog.fllp"
    prog.write_text(('use algebra "bad.alg".\n' if route == "directive" else "") + "p : true.\n")
    flag = ("--algebra", str(bad)) if route == "flag" else ()
    if route == "env":
        monkeypatch.setenv("FLLP_ALGEBRA", str(bad))
    rows = DEFAULT_ALGEBRA_CONFIG + "inverse: very tru -> true\n"
    for text, violation in [("primary: false, true\nlimit: 1\nbogus: 1\n",
                             "line 3: unknown declaration 'bogus'"),
                            (rows, "line 17: truth literal must end in a primary name, got 'tru'")]:
        bad.write_text(text)
        for argv in (["check"], ["model"], ["compile"], ["query", "-q", "p"]):
            got = run(capsys, argv[0], str(prog), *flag, *argv[1:])
            assert got == (1, "", f"error: {bad}: {violation}\n"), argv
        if route != "directive":
            got = run(capsys, "surface", str(samples_dir / "heater.ctl"), *flag)
            assert got == (1, "", f"error: {bad}: {violation}\n")
            # without a program or control file the config's own lines suffice
            assert run(capsys, "domain", *flag) == (1, "", f"error: {violation}\n")


def test_check_reports_ok(capsys, samples_dir):
    code, out, err = run(capsys, "check", str(samples_dir / "hotel.fllp"))
    assert code == 0 and out == "ok: 4 fact(s), 2 rule(s)\n" and err == ""


def test_check_collects_errors(capsys, tmp_path):
    bad = tmp_path / "bad.fllp"
    bad.write_text("p(a : true.\nq(b) : quite true.\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.count("error:") == 2


def test_check_safe_mode(capsys, tmp_path):
    open_fact = tmp_path / "open.fllp"
    open_fact.write_text("p(X) : true.\n")
    code, _, err = run(capsys, "check", str(open_fact))
    assert code == 0
    code, _, err = run(capsys, "check", "--safe", str(open_fact))
    assert code == 1 and "not ground" in err


def test_query_one_shot(capsys, samples_dir):
    code, out, err = run(
        capsys, "query", str(samples_dir / "good_employee_luka.fllp"), "-q", "gd_em(X)"
    )
    assert code == 0 and err == ""
    assert out == "answer: X=ann ; tv=probably probably true (v29)\n"


def test_query_threshold_forms(capsys, samples_dir):
    prog = str(samples_dir / "hotel.fllp")
    code, out, _ = run(capsys, "query", prog, "-q", "su_ho(X)", "--threshold", "v30")
    assert code == 0 and out == "no answers.\n"
    code, out, _ = run(
        capsys, "query", prog, "-q", "su_ho(X)", "--threshold", "little probably true"
    )
    assert "X=ritz" in out
    code, _, err = run(capsys, "query", prog, "-q", "su_ho(X)", "--threshold", "v99")
    assert code == 1 and "outside the domain" in err


@pytest.mark.parametrize("blank", ["", " "])
def test_an_empty_argument_is_given_not_omitted(capsys, samples_dir, blank):
    prog = str(samples_dir / "hotel.fllp")
    assert run(capsys, "query", prog, "--threshold", blank, "-q", "su_ho(X)") == (
        1, "", "error: empty truth literal\n")
    assert run(capsys, "compile", prog, "-q", blank) == (
        1, "", "error: line 1: expected a body, found end of input\n")


def test_query_threshold_zero_prunes_nothing(capsys, tmp_path):
    prog = tmp_path / "zero.fllp"
    prog.write_text("p(a) : very false.\np(b) : very true.\nq(X) <-l p(X) : more true.\n")
    code, plain, _ = run(capsys, "query", str(prog), "-q", "q(X)")
    assert code == 0 and "answer: X=a ; tv=absfalse (v0)" in plain.splitlines()
    for grade in ("v0", "absfalse"):
        assert run(capsys, "query", str(prog), "-q", "q(X)", "--threshold", grade) == (0, plain, "")


def test_query_depth_exhaustion_exit_code(capsys, tmp_path):
    prog = tmp_path / "loop.fllp"
    prog.write_text(RECURSIVE)
    code, out, err = run(capsys, "query", str(prog), "-q", "p(a)", "--depth", "5")
    assert code == 2
    assert "depth limit" in err
    assert "tv=little true (v25)" in out  # answers are still reported


def test_query_depth_counts_rule_unfoldings_only(capsys, tmp_path):
    # one rule unfolding, then 70 fact lookups, within the default --depth 64
    prog = tmp_path / "wide.fllp"
    prog.write_text(f"p(a) : true.\nq(X) <-g and_g({', '.join(['p(X)'] * 70)}) : abstrue.\n")
    assert run(capsys, "query", str(prog), "-q", "q(X)") == (
        0, "answer: X=a ; tv=true (v33)\n", ""
    )


@pytest.mark.parametrize("src", [RECURSIVE, RECURSIVE.replace("p(X)", "p(a)")])
def test_query_left_recursion_ends_at_the_search_limit(capsys, tmp_path, src):
    prog = tmp_path / "loop.fllp"
    prog.write_text(src)
    code, out, err = run(capsys, "query", str(prog), "-q", "p(a)", "--depth", "0",
                         "--threshold", "v1")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: the search needs at least \d+ entries, "
                        r"over the limit of 8000000\n", err)


def test_query_repl_goes_on_after_the_search_limit(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "loop.fllp"
    prog.write_text(RECURSIVE + "q(b) : true.\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("q(b)\np(X)\nq(b)\n"))
    dest = tmp_path / "answers.txt"
    code, out, err = run(capsys, "query", str(prog), "--depth", "0", "--threshold", "v1",
                         "--out", str(dest))
    assert (code, out) == (2, "")
    assert err.startswith("error: the search needs at least") and err.count("\n") == 1
    assert dest.read_text(encoding="utf-8") == "answer: ; tv=true (v33)\n" * 2


def test_query_under_an_unreachable_threshold_ends_at_once(capsys, tmp_path):
    # No atom of this program reaches abstrue, so the query is cut before any
    # unfolding; searching the self loop until the depth bound would flag
    # the depth limit and exit 2.
    _, domain, _ = load_algebra_config(DEFAULT_ALGEBRA_CONFIG)
    prog = tmp_path / "seed27.fllp"
    prog.write_text(pretty_print(random_program(27, domain, recursive=True), domain))
    assert "p0(X,Y) <-g p0(X,Y)" in prog.read_text()
    got = run(capsys, "query", str(prog), "-q", "or(p0(c,Z),p0(c,Y))", "--threshold", "v44",
              "--trace")
    assert got == (0, "no answers.\n", "")


def test_query_trace_survives_the_search_limit(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "loop.fllp"
    prog.write_text("p(a) : true.\np(X) <-g #very(p(X)) : true.\n")
    monkeypatch.setattr("fllp.solver.SEARCH_LIMIT", 2000)
    argv = ("query", str(prog), "--depth", "0", "--trace")
    code, out, err = run(capsys, *argv, "-q", "p(X)")
    lines = out.splitlines()
    assert code == 2 and err.startswith("error: the search needs at least")
    assert lines[:2] == ["goal p(X)", "[0] p(X) -> v33"]
    assert lines[-1].startswith("[") and "answer" not in out
    monkeypatch.setattr("sys.stdin", io.StringIO("p(X)\np(X)\n"))
    code, repl, err = run(capsys, *argv)
    assert code == 2 and err.count("error: the search needs at least") == 2
    assert repl == out * 2


def test_query_unlimited_depth_answers_a_900_edge_chain(capsys, tmp_path):
    # Gödel rules at abstrue grade a path with its weakest edge, so the
    # least model grades path(n0,n900) little true.
    edges = [f"edge(n{i},n{i + 1}) : {'little true' if i == 450 else 'true'}."
             for i in range(900)]
    rules = ["path(X,Y) <-g edge(X,Y) : abstrue.",
             "path(X,Y) <-g and_g(edge(X,Z), path(Z,Y)) : abstrue."]
    prog = tmp_path / "chain900.fllp"
    prog.write_text("\n".join(edges + rules) + "\n")
    code, out, err = run(capsys, "query", str(prog), "-q", "path(n0,n900)", "--depth", "0",
                         "--threshold", "v1")
    assert (code, out, err) == (0, "answer: ; tv=little true (v25)\n", "")


def test_query_unlimited_depth_answers_a_1200_edge_chain(capsys, tmp_path):
    # Rule variables bound to the goal's terms leave one binding per edge,
    # which keeps this proof within the search limit.
    edges = [f"edge(n{i},n{i + 1}) : {'little true' if i == 600 else 'true'}."
             for i in range(1200)]
    rules = ["path(X,Y) <-g edge(X,Y) : abstrue.",
             "path(X,Y) <-g and_g(edge(X,Z), path(Z,Y)) : abstrue."]
    prog = tmp_path / "chain1200.fllp"
    prog.write_text("\n".join(edges + rules) + "\n")
    code, out, err = run(capsys, "query", str(prog), "-q", "path(n0,n1200)", "--depth", "0",
                         "--threshold", "v1")
    assert (code, out, err) == (0, "answer: ; tv=little true (v25)\n", "")


def test_query_best_keeps_one_answer_per_shown_binding(capsys, tmp_path):
    # Both rules leave X unbound, so both answers show X=_ and --best keeps one.
    prog = tmp_path / "unbound.fllp"
    prog.write_text("q : true.\nr : very true.\np(X) <-g q : very true.\np(X) <-g r : true.\n")
    code, out, err = run(capsys, "query", str(prog), "-q", "p(X)", "--best")
    assert (code, out, err) == (0, "answer: X=_ ; tv=true (v33)\n", "")


def test_query_unbounded_depth(capsys, samples_dir):
    code, out, _ = run(
        capsys, "query", str(samples_dir / "hotel.fllp"),
        "-q", "su_ho(X)", "--depth", "0", "--best",
    )
    assert code == 0
    assert out == "answer: X=ritz ; tv=little probably true (v28)\n"


@pytest.mark.parametrize("depth", ["-3", "-1", "x"])
def test_query_rejects_a_malformed_depth(capsys, samples_dir, depth):
    with pytest.raises(SystemExit) as exc:
        main(["query", str(samples_dir / "good_employee_luka.fllp"),
              "-q", "gd_em(X)", "--depth", depth])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--depth" in captured.err


def test_query_trace_goes_to_the_answer_stream(capsys, samples_dir):
    code, out, _ = run(
        capsys, "query", str(samples_dir / "good_employee_luka.fllp"),
        "-q", "gd_em(X)", "--trace",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("goal ")
    assert out.splitlines()[-1].startswith("answer: ")


def test_query_out_file(capsys, samples_dir, tmp_path):
    target = tmp_path / "answers.txt"
    code, out, _ = run(
        capsys, "query", str(samples_dir / "hotel.fllp"),
        "-q", "su_ho(X)", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == "answer: X=ritz ; tv=little probably true (v28)\n"


def test_query_repl(capsys, samples_dir, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("gd_em(X)\n\nnot a query !\nquit\n"))
    code, out, err = run(capsys, "query", str(samples_dir / "good_employee_luka.fllp"))
    assert code == 0
    assert "answer: X=ann ; tv=probably probably true (v29)" in out
    assert "error:" in err  # the bad line is reported and the loop continues


def test_query_repl_writes_out_file(capsys, samples_dir, monkeypatch, tmp_path):
    prog = str(samples_dir / "hotel.fllp")
    monkeypatch.setattr("sys.stdin", io.StringIO("su_ho(X)\nnot a query !\nsu_ho(X)\n"))
    code, shown, _ = run(capsys, "query", prog)
    assert code == 0 and "answer:" in shown
    monkeypatch.setattr("sys.stdin", io.StringIO("su_ho(X)\nnot a query !\nsu_ho(X)\n"))
    dest = tmp_path / "answers.txt"
    code, out, err = run(capsys, "query", prog, "--out", str(dest))
    assert code == 0 and out == "" and "error:" in err
    assert dest.read_text(encoding="utf-8") == shown


@pytest.mark.parametrize("line, options, codes", [
    ("q(X)", (), (0, 0)),  # an answer
    ("q(a)", ("--trace",), (0, 0)),  # no answers.
    ("p(X)", ("--depth", "5"), (2, 2)),  # a depth warning
    ("q(X) !", (), (1, 0)),  # a parse error fails the one-shot run only
    ("p(X)", ("--depth", "0", "--trace"), (2, 2)),  # the search limit
])
def test_one_shot_query_is_a_one_line_session(capsys, monkeypatch, tmp_path, line, options,
                                              codes):
    prog = tmp_path / "session.fllp"
    prog.write_text(RECURSIVE + "q(b) : true.\n")
    monkeypatch.setattr("fllp.solver.SEARCH_LIMIT", 2000)
    code, out, err = run(capsys, "query", str(prog), *options, "-q", line)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{line}\n"))
    repl_code, repl_out, repl_err = run(capsys, "query", str(prog), *options)
    assert (out, err) == (repl_out, repl_err) and (code, repl_code) == codes
    assert err.startswith(("error:", "warning:")) if code else (out and not err)


def test_query_out_file_after_an_error(capsys, monkeypatch, tmp_path):
    # -q writes its file only when it has lines; the REPL always writes one
    prog, dest = tmp_path / "loop.fllp", tmp_path / "answers.txt"
    prog.write_text(RECURSIVE)
    monkeypatch.setattr("fllp.solver.SEARCH_LIMIT", 2000)
    for line, options, codes in (("p(X) !", (), (1, 0)), ("p(X)", ("--depth", "0"), (2, 2))):
        got = run(capsys, "query", str(prog), *options, "-q", line, "--out", str(dest))
        assert got[:2] == (codes[0], "") and not dest.exists(), line
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{line}\n"))
        got = run(capsys, "query", str(prog), *options, "--out", str(dest))
        assert got[:2] == (codes[1], "") and dest.read_text(encoding="utf-8") == "", line
        dest.unlink()


def test_query_failure_is_reported_before_a_failed_out_write(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "loop.fllp"
    prog.write_text(RECURSIVE)
    monkeypatch.setattr("fllp.solver.SEARCH_LIMIT", 2000)
    argv = ("query", str(prog), "--depth", "0", "--threshold", "v1", "--trace",
            "--out", str(tmp_path / "missing" / "answers.txt"))
    code, out, err = run(capsys, *argv, "-q", "p(X)")
    assert (code, out) == (1, "")
    limit, write = err.splitlines()
    assert limit.startswith("error: the search needs at least") and "No such file" in write
    monkeypatch.setattr("sys.stdin", io.StringIO("p(X)\n"))
    assert run(capsys, *argv) == (code, out, err)


def test_model_naive_and_delta(capsys, samples_dir):
    want = (
        "gd_em(ann) : probably probably true (v29)\n"
        "hira_un(ann) : very true (v41)\n"
        "st_hd(ann) : more true (v36)\n"
        "iterations: 3\n"
    )
    prog = str(samples_dir / "good_employee_luka.fllp")
    code, out, _ = run(capsys, "model", prog)
    assert code == 0 and out == want
    code, out, _ = run(capsys, "model", prog, "--mode", "delta")
    assert code == 0 and out == want


def test_model_counts_operator_rounds_in_both_modes(capsys, tmp_path):
    prog = tmp_path / "chain.fllp"
    prog.write_text(
        "".join(f"edge(n{i},n{i + 1}) : true.\n" for i in reversed(range(3)))
        + "path(X,Y) <-g edge(X,Y) : abstrue.\n"
        + "path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : abstrue.\n"
    )
    for mode in ((), ("--mode", "delta")):
        code, out, _ = run(capsys, "model", str(prog), *mode)
        assert code == 0 and out.splitlines()[-1] == "iterations: 5"


def test_model_grounding_cap(capsys, tmp_path):
    prog = tmp_path / "big.fllp"
    prog.write_text(CAPPED)
    code, out, err = run(capsys, "model", str(prog))
    assert code == 2 and "error:" in err


def _cap_memory() -> None:
    """Limit the child's address space to 1 GB, so that a run a resource
    limit failed to stop dies with a ``MemoryError`` instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _fllp(*argv, hash_seed="0", timeout=60, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "fllp", *argv], capture_output=True, text=True, env=env,
        timeout=timeout, input=stdin, preexec_fn=_cap_memory,
    )


def test_package_root_loads_only_the_algebra_layers():
    code = (
        "import sys, fllp\n"
        "print(sorted(m for m in sys.modules if m.startswith('fllp.')))\n"
        "print(sorted(n for n in fllp.__all__ if hasattr(fllp, n)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded, names = proc.stdout.splitlines()
    assert loaded == str(["fllp.algebra", "fllp.inverse"])
    assert names == str(sorted([
        "DEFAULT_ALGEBRA_CONFIG", "GODEL", "LUKA", "HedgeAlgebraSpec", "HedgeDecl",
        "build_algebra", "build_inverse_table", "enumerate_domain", "load_algebra_config",
    ]))


@pytest.mark.parametrize("argv, unused", [
    (["domain"], ["fllp.lang", "dataclasses"]),
    (["check", "hotel.fllp"], ["fllp.fixpoint", "fllp.solver", "dataclasses"]),
    (["compile", "hotel.fllp"], ["fllp.fixpoint", "fllp.solver", "dataclasses"]),
    (["model", "hotel.fllp"], ["fllp.control", "fllp.prolog", "fllp.solver", "dataclasses"]),
    (["surface", "heater.ctl"], ["fllp.prolog", "fllp.solver", "dataclasses"]),
    # query loads dataclasses for SolveOptions
    (["query", "hotel.fllp", "-q", "su_ho(X)"], ["fllp.control", "fllp.fixpoint", "fllp.prolog"]),
    (["--help"], ["fllp.lang", "dataclasses"]),
    (["query", "--help"], ["fllp.lang", "dataclasses"]),
])
def test_subcommands_load_only_the_layers_they_run(samples_dir, argv, unused):
    # no command line parser library either: argparse costs gettext and locale
    unused = [*unused, "argparse", "gettext", "locale"]
    argv = [str(samples_dir / a) if a.endswith((".fllp", ".ctl")) else a for a in argv]
    code = (
        "import json, sys\n"
        "from fllp.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"loaded = [m for m in sys.modules if m.startswith('fllp.') or m in {unused!r}]\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stderr)
    assert exit_code == 0 and proc.stdout
    assert sorted(set(unused) & set(loaded)) == []


def test_every_module_and_test_parses_as_python_3_10():
    """``pyproject.toml`` declares Python 3.10 and up, so no file may use
    syntax of a later version."""
    files = sorted([*(SRC / "fllp").glob("*.py"), *Path(__file__).parent.glob("*.py")])
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _closure_text(domain) -> tuple[str, list[str]]:
    """Transitive closure over chains of 1 to 10 edges and 2x2 to 4x4
    grids (edges right and down), as one program with its statements
    shuffled, and the nodes of every graph."""
    graphs = []
    for k in range(1, 11):
        graphs.append(([f"c{k}_{i}" for i in range(k + 1)], [(i, i + 1) for i in range(k)]))
    for k in (2, 3, 4):
        edges = [(i, i + 1) for i in range(k * k) if (i + 1) % k]
        edges += [(i, i + k) for i in range(k * k - k)]
        graphs.append(([f"g{k}_{i}" for i in range(k * k)], edges))
    n = domain.n
    lines = [
        f"edge({nodes[a]},{nodes[b]}) : {domain.literal(n - 1 - i % 5)}."
        for nodes, edges in graphs for i, (a, b) in enumerate(edges)
    ]
    top = domain.literal(n)
    lines += [
        f"path(X,Y) <-g edge(X,Y) : {top}.",
        f"path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : {top}.",
    ]
    random.Random(7).shuffle(lines)
    return "\n".join(lines) + "\n", [node for nodes, _ in graphs for node in nodes]


@pytest.mark.parametrize("which", ["vmpl", "asym"])
def test_default_recursive_queries_finish_at_the_least_model(request, tmp_path, which):
    _, domain, table = request.getfixturevalue(which)
    text, starts = _closure_text(domain)
    config = {"vmpl": DEFAULT_ALGEBRA_CONFIG, "asym": ASYM_CONFIG}[which]
    (tmp_path / "closure.alg").write_text(config)
    (tmp_path / "closure.fllp").write_text(text)
    queries = "".join(f"path({s},Y{j})\n" for j, s in enumerate(starts))
    proc = _fllp("query", str(tmp_path / "closure.fllp"), "--algebra",
                 str(tmp_path / "closure.alg"), timeout=10, stdin=queries)
    assert (proc.returncode, proc.stderr) == (0, "")  # no depth warning
    best: dict[tuple[str, str], int] = {}
    for line in proc.stdout.splitlines():
        m = re.fullmatch(r"answer: (Y\d+)=(\w+) ; tv=.*\(v(\d+)\)", line)
        if m and int(m.group(3)) > 0:
            key = (m.group(1), m.group(2))
            best[key] = max(best.get(key, 0), int(m.group(3)))
    model, _ = least_model(parse_program(text, domain), table)
    want = {
        (f"Y{j}", atom.args[1]): value
        for j, s in enumerate(starts)
        for atom, value in model.items()
        if atom.pred == "path" and atom.args[0] == s and value > 0
    }
    assert best == want and want


def test_model_grounding_cap_is_refused_without_building(tmp_path):
    prog = tmp_path / "big.fllp"
    prog.write_text(CAPPED)
    proc = _fllp("model", str(prog), timeout=20)
    assert proc.returncode == 2 and "error:" in proc.stderr


def test_model_reads_one_name_at_two_arities_as_two_predicates(capsys, tmp_path):
    prog = tmp_path / "mixed.fllp"
    prog.write_text("p(a) : true.\nq(X) <-g p(X,b) : true.\n")
    assert run(capsys, "model", str(prog)) == (0, "p(a) : true (v33)\niterations: 2\n", "")
    assert run(capsys, "check", str(prog)) == (
        1, "", "error: line 2: 'p' used with arity 2, but line 1 uses arity 1\n")


def _disjunctions(k: int) -> str:
    """One fact, and a rule whose body has 2**k alternatives of k atoms."""
    parts = ",".join(f"or(a{i},b{i})" for i in range(k))
    return f"a0 : true.\nh <-g and_g({parts}) : true.\n"


def test_model_refuses_a_body_with_too_many_alternatives(tmp_path):
    prog = tmp_path / "wide.fllp"
    prog.write_text(_disjunctions(16))
    start = time.perf_counter()
    proc = _fllp("model", str(prog), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: joining the rule bodies needs at least 16842752 alternatives"
                           " and plan steps, over the limit of 1000000\n")
    assert time.perf_counter() - start < 5.0
    prog.write_text(_disjunctions(10))
    proc = _fllp("model", str(prog), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "a0 : true (v33)\niterations: 2\n", "")


def test_model_bounds_the_join_steps_of_the_whole_program(tmp_path):
    """Four bodies, each under the join limit, are refused together."""
    parts = ",".join(f"or(a{i},b{i})" for i in range(12))
    prog = tmp_path / "four.fllp"
    rules = "".join(f"h{k} <-g and_g({parts}) : true.\n" for k in range(4))
    prog.write_text(f"a0 : true.\n{rules}")
    start = time.perf_counter()
    proc = _fllp("model", str(prog), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: joining the rule bodies needs at least {4 * 593920}"
                           " alternatives and plan steps, over the limit of 1000000\n")
    assert time.perf_counter() - start < 5.0


def test_model_plans_a_long_conjunction_in_quadratic_time(tmp_path):
    """400 atoms make 400 plans of 400 steps; a cubic planner took 16 s."""
    prog = tmp_path / "long.fllp"
    prog.write_text(f"a0 : true.\nh <-g and_g({', '.join(f'a{i}' for i in range(400))}) : true.\n")
    proc = _fllp("model", str(prog), timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "a0 : true (v33)\niterations: 2\n"


def test_model_delta_iterations_do_not_depend_on_hashing(tmp_path):
    prog = tmp_path / "chain.fllp"
    prog.write_text(
        "".join(f"edge(n{i},n{i + 1}) : more true.\n" for i in range(10))
        + "path(X,Y) <-g edge(X,Y) : abstrue.\n"
        + "path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : abstrue.\n"
    )
    runs = [_fllp("model", "--mode", "delta", str(prog), hash_seed=s) for s in ("1", "3")]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_conflicting_inverse_rows_exit_one(capsys, tmp_path):
    first = DEFAULT_ALGEBRA_CONFIG.count("\n") + 1
    config = tmp_path / "conflict.alg"
    config.write_text(DEFAULT_ALGEBRA_CONFIG + "inverse: very true -> probably little true\n"
                      "inverse: very true -> more little true\n")
    code, out, err = run(capsys, "domain", "--inverse", "--algebra", str(config))
    assert (code, out) == (1, "")
    assert err == (f"error: line {first + 1}: inverse 'very' of 'true' already set to "
                   f"'probably little true' on line {first}\n")


def test_domain_checks_inverse_rows_it_does_not_print(capsys, tmp_path):
    config = tmp_path / "rows.alg"
    config.write_text(DEFAULT_ALGEBRA_CONFIG + "inverse: very tru -> true\n")
    for argv in (("domain",), ("domain", "--inverse")):
        assert run(capsys, *argv, "--algebra", str(config)) == (
            1, "", "error: line 17: truth literal must end in a primary name, got 'tru'\n"
        ), argv
    # without rows no table is built, so a one-class algebra still lists its domain
    config.write_text("primary: false, true\nhedge: very class=+ rank=1\n"
                      "positive: very -> very\nlimit: 1\n")
    code, out, err = run(capsys, "domain", "--algebra", str(config))
    assert (code, err) == (0, "") and out.splitlines() == [
        "absfalse (v0)", "very false (v1)", "false (v2)", "middle (v3)", "true (v4)",
        "very true (v5)", "abstrue (v6)",
    ]


def test_domain_refuses_a_hedge_name_no_program_can_write(capsys, tmp_path):
    # ``#Very(...)`` would not parse, and ``fllp compile`` would spell the
    # hedge as a Prolog variable, matching the rows of every hedge
    config = tmp_path / "upper.alg"
    config.write_text("primary: false, true\nhedge: Very class=+ rank=1\n"
                      "hedge: little class=- rank=1\npositive: Very -> Very, little\n"
                      "positive: little -> Very, little\nlimit: 1\n")
    assert run(capsys, "domain", "--algebra", str(config)) == (
        1, "", "error: hedge name 'Very' must match [a-z][a-z0-9_]* to be written\n"
    )


def test_domain_refuses_a_primary_name_no_program_can_write(capsys, tmp_path):
    # ``p(a) : True.`` would not parse, so only the three constants could
    # grade a program on this algebra; a primary of several words is checked
    # word by word
    config = tmp_path / "upper.alg"
    config.write_text("primary: False, so True\nhedge: very class=+ rank=1\n"
                      "hedge: little class=- rank=1\npositive: very -> very, little\n"
                      "positive: little -> very, little\nlimit: 1\n")
    assert run(capsys, "domain", "--algebra", str(config)) == (1, "", (
        "error: primary name 'False' must be words matching [a-z][a-z0-9_]* to be written\n"
        "error: primary name 'so True' must be words matching [a-z][a-z0-9_]* to be written\n"
    ))


def test_hedgeless_algebra_with_a_huge_limit_lists_five_values(tmp_path):
    config = tmp_path / "plain.alg"
    config.write_text("primary: false, true\nlimit: 100000000\n")
    start = time.perf_counter()
    proc = _fllp("domain", "--algebra", str(config), timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "absfalse (v0)", "false (v1)", "middle (v2)", "true (v3)", "abstrue (v4)",
    ]
    assert time.perf_counter() - start < 1.0


def test_query_trace_of_a_deep_goal_word_has_no_traceback(tmp_path):
    # A recursive rule under a hedge nests the goal word one level per
    # unfolding; tracing it at unlimited depth must end at the search limit
    # (lowered here to keep the run short), not in a RecursionError.
    _, domain, _ = load_algebra_config(ASYM_CONFIG)
    prog, alg = tmp_path / "seed6.fllp", tmp_path / "asym.alg"
    prog.write_text(pretty_print(random_program(6, domain, recursive=True), domain))
    alg.write_text(ASYM_CONFIG)
    code = ("import sys, fllp.solver, fllp.cli\n"
            "fllp.solver.SEARCH_LIMIT = 6 * 10**5\n"
            "sys.exit(fllp.cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "query", str(prog), "--algebra", str(alg),
         "-q", "p1(X,Y)", "--trace", "--depth", "0", "--threshold", "v20"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2), proc.stderr


def test_domain_cap_exit_code(capsys, tmp_path):
    huge = tmp_path / "huge.alg"
    huge.write_text(DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 99"))
    code, out, err = run(capsys, "domain", "--algebra", str(huge))
    assert code == 2 and out == "" and "truth domain" in err


def test_domain_cap_counts_hedge_words(tmp_path):
    # One hedge at limit L gives 2L + 5 values holding about L² hedge words;
    # run apart, so that a cap that let this through is killed, not enumerated.
    one = tmp_path / "one.alg"
    one.write_text("primary: false, true\nhedge: very class=+ rank=1\n"
                   "positive: very -> very\nlimit: 49997\n")
    start = time.perf_counter()
    proc = _fllp("domain", "--algebra", str(one), timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "values and hedge words" in proc.stderr
    assert time.perf_counter() - start < 1.0


def _nested(levels: int, shape: str) -> str:
    body = "p(X)"
    for _ in range(levels):
        body = f"#very({body})" if shape == "hedge" else f"and_g(p(X),{body})"
    return body


@pytest.mark.parametrize("shape", ["hedge", "conj"])
@pytest.mark.parametrize("argv", [["check"], ["query", "-q", "q(X)"], ["model"], ["compile"]])
def test_body_nesting_is_capped(capsys, tmp_path, shape, argv):
    prog = tmp_path / "deep.fllp"
    for levels, codes in ((MAX_NESTING, (0, 2)), (MAX_NESTING + 1, (1,))):
        prog.write_text(f"p(a) : true.\nq(X) <-g {_nested(levels, shape)} : true.\n")
        code, _, err = run(capsys, argv[0], str(prog), *argv[1:])
        assert code in codes, err
        if levels > MAX_NESTING:
            assert err == f"error: line 2: body nested more than {MAX_NESTING} levels deep\n"


def test_query_nesting_is_capped(capsys, samples_dir):
    prog = str(samples_dir / "hotel.fllp")
    code, out, _ = run(capsys, "query", prog, "-q", _nested(MAX_NESTING, "hedge"))
    assert code in (0, 2) and out
    code, out, err = run(capsys, "query", prog, "-q", _nested(MAX_NESTING + 1, "conj"))
    assert (code, out) == (1, "")
    assert err == f"error: line 1: body nested more than {MAX_NESTING} levels deep\n"


def test_surface(capsys, samples_dir):
    code, out, _ = run(capsys, "surface", str(samples_dir / "heater.ctl"))
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["t15", "v0", "v23", "v33"]
    assert "recommend t25 -> p0 at very true (v41)" in lines


def test_surface_rule_side_nesting_is_capped(capsys, tmp_path):
    ctl = tmp_path / "deep.ctl"
    for levels, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 1)):
        ctl.write_text(f"inputs: i\noutputs: o\nrule: {'very ' * levels}a => "
                       f"{'little ' * levels}b\nsat a i true\nsat b o true\n")
        got, out, err = run(capsys, "surface", str(ctl))
        assert got == code, err
        if levels > MAX_NESTING:
            assert err == (f"error: line 3: rule side nested more than {MAX_NESTING} levels deep\n"
                           * 2)
        else:
            assert out.splitlines()[-1].startswith("recommend i -> o at ")


def test_surface_counts_the_base_it_does_not_build(tmp_path):
    # 1,002 points: good/2 alone has 1,004,004 base atoms, so the grounding
    # is refused before any instance is found.
    k = 501
    lines = ["inputs: " + " ".join(f"i{j}" for j in range(k)),
             "outputs: " + " ".join(f"o{j}" for j in range(k)), "rule: a => b"]
    lines += [f"sat a i{j} true" for j in range(k)] + [f"sat b o{j} true" for j in range(k)]
    ctl = tmp_path / "wide.ctl"
    ctl.write_text("\n".join(lines) + "\n")
    proc = _fllp("surface", str(ctl))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: grounding needs at least 1007010 instances, over the limit of 1000000\n"
    )


def test_compile_matches_golden(capsys, samples_dir, tmp_path):
    target = tmp_path / "out.pl"
    code, out, _ = run(
        capsys, "compile", str(samples_dir / "good_employee_luka.fllp"),
        "--out", str(target),
    )
    assert code == 0 and out == ""
    golden = (samples_dir / "golden" / "good_employee_luka.pl").read_text()
    assert target.read_text() == golden


def test_compile_appends_the_query(capsys, samples_dir):
    code, out, _ = run(
        capsys, "compile", str(samples_dir / "good_employee_luka.fllp"),
        "-q", "gd_em(X)",
    )
    assert code == 0
    assert out.splitlines()[-1] == "?- gd_em(X,Truth_value)."


def test_compile_refuses_atoms_on_helper_predicates(capsys, tmp_path):
    path = tmp_path / "clash.fllp"
    path.write_text("p(a) : true.\nand_godel(a,b) : very true.\n")
    code, out, err = run(capsys, "compile", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 2: and_godel/2 would compile onto the helper and_godel/3\n"
    plain = tmp_path / "plain.fllp"
    plain.write_text("p(a) : true.\n")
    code, out, err = run(capsys, "compile", str(plain), "-q", "inv_map(a,b)")
    assert (code, out) == (1, "")
    assert err == "error: inv_map/2 would compile onto the helper inv_map/3\n"
    for argv in (("check",), ("model",), ("query", "-q", "and_godel(a,X)")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0 and err == "", argv


def test_compile_refuses_a_query_variable_named_like_the_answer_grade(capsys, samples_dir):
    got = run(capsys, "compile", str(samples_dir / "hotel.fllp"), "-q", "su_ho(Truth_value)")
    assert got == (1, "", "error: query variable Truth_value would name the answer grade\n")
    got = run(capsys, "compile", str(samples_dir / "hotel.fllp"), "-q",
              "and_g(inv_map(Truth_value,b), su_ho(X))")
    assert got == (1, "", "error: inv_map/2 would compile onto the helper inv_map/3\n"
                          "error: query variable Truth_value would name the answer grade\n")


def test_missing_file_is_a_plain_error(capsys):
    code, out, err = run(capsys, "check", "no/such/file.fllp")
    assert code == 1 and "error:" in err


def test_usage_problems_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query"])  # missing the program argument
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# Each subcommand's fields when only its positional is given.
DEFAULT_FIELDS = {
    "domain": {"algebra": None, "inverse": False, "out": None},
    "check": {"algebra": None, "program": "p.fllp", "safe": False},
    "query": {"algebra": None, "program": "p.fllp", "query": None, "depth": 64,
              "threshold": None, "best": False, "exhaustive": False, "trace": False, "out": None},
    "model": {"algebra": None, "program": "p.fllp", "mode": "naive", "out": None},
    "surface": {"algebra": None, "control": "h.ctl", "out": None},
    "compile": {"algebra": None, "program": "p.fllp", "query": None, "out": None},
}
P = "p.fllp"
QUERY_ERROR = "fllp query: error: "

# argv, then the fields it sets or the last line of its usage error
PARSES = [
    (["query", P, "--query", "p(X)"], {"query": "p(X)"}),
    (["query", P, "--query=p(X)"], {"query": "p(X)"}),
    (["query", P, "-qp(X)"], {"query": "p(X)"}),
    (["query", P, "-q=p(X)"], {"query": "p(X)"}),
    (["query", P, "--thr", "v30"], {"threshold": "v30"}),
    (["query", P, "--thr=v30"], {"threshold": "v30"}),
    (["query", "-q", "p(X)", "--best", P, "--exhaustive", "--trace"],
     {"query": "p(X)", "best": True, "exhaustive": True, "trace": True}),
    (["query", P, "--depth", "3", "--depth", "5"], {"depth": 5}),
    (["query", P, "--depth", "0"], {"depth": 0}),
    (["query", P, "--depth", "07"], {"depth": 7}),
    (["query", P, "-q", ""], {"query": ""}),
    (["query", P, "--threshold", "-a b"], {"threshold": "-a b"}),
    (["model", P, "--mode=delta", "--out", "m.txt"], {"mode": "delta", "out": "m.txt"}),
    (["model", "--", P], {}),
    (["check", "--", "--safe"], {"program": "--safe"}),
    (["check", "-3"], {"program": "-3"}),
    (["check", P, "--safe", "--algebra", "a.alg"], {"safe": True, "algebra": "a.alg"}),
    (["surface", "--out=s.txt", "h.ctl"], {"out": "s.txt"}),
    (["compile", P, "--q", "p(X)", "--o", "c.pl"], {"query": "p(X)", "out": "c.pl"}),
    (["domain", "--in", "--alg=a.alg"], {"inverse": True, "algebra": "a.alg"}),
    (["query", P, "--t", "v30"],
     QUERY_ERROR + "ambiguous option: --t could match --threshold, --trace"),
    (["query", P, "--depth", "x", "--t"],  # every option is looked up before any is read
     QUERY_ERROR + "ambiguous option: --t could match --threshold, --trace"),
    (["query", P, "--best=1"], QUERY_ERROR + "argument --best: ignored explicit argument '1'"),
    (["query", P, "--depth", "-3"],
     QUERY_ERROR + "argument --depth: expected an integer, 0 or more, not '-3'"),
    (["query", P, "--depth", "x"],
     QUERY_ERROR + "argument --depth: expected an integer, 0 or more, not 'x'"),
    (["query", P, "-q"], QUERY_ERROR + "argument -q/--query: expected one argument"),
    (["query", P, "-q", "--best"], QUERY_ERROR + "argument -q/--query: expected one argument"),
    (["model", P, "--mode", "fast"],
     "fllp model: error: argument --mode: invalid choice: 'fast' (choose from 'naive', 'delta')"),
    (["check", P, "second.fllp"], "fllp: error: unrecognized arguments: second.fllp"),
    (["check", P, "--bogus"], "fllp: error: unrecognized arguments: --bogus"),
    (["check", P, "--", "--safe"], "fllp: error: unrecognized arguments: --safe"),
    (["check"], "fllp check: error: the following arguments are required: program"),
    ([], "fllp: error: the following arguments are required: command"),
    (["frobnicate"], "fllp: error: argument command: invalid choice: 'frobnicate' "
                     "(choose from 'domain', 'check', 'query', 'model', 'surface', 'compile')"),
]


@pytest.mark.parametrize("argv, want", PARSES)
def test_the_command_line_parses_as_pinned(capsys, monkeypatch, argv, want):
    seen = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)) or 0)
    if isinstance(want, dict):
        assert main(argv) == 0
        assert seen == [{"command": argv[0], **DEFAULT_FIELDS[argv[0]], **want}]
        assert tuple(capsys.readouterr()) == ("", "")
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, seen, out) == (1, [], "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: fllp") and lines[-1] == want


SUMMARIES = {
    "domain": "print the truth domain",
    "check": "parse and validate a program",
    "query": "answer queries top-down",
    "model": "compute the least model bottom-up",
    "surface": "evaluate a control file",
    "compile": "emit plain clause text",
}
# every option's metavar; the options not named here are switches
METAVARS = {"algebra": "FILE", "out": "FILE", "query": "QUERY", "depth": "N",
            "threshold": "GRADE", "mode": "{naive,delta}"}


@pytest.mark.parametrize("command", [None, *SUMMARIES])
def test_help_lists_the_subcommands_or_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: fllp ")
    if command is None:
        for name, summary in SUMMARIES.items():
            assert re.search(rf"^  {name} +{re.escape(summary)}$", out, re.M), name
        return
    fields = DEFAULT_FIELDS[command]
    for name in fields:
        if name in ("program", "control"):
            assert re.search(rf"^  {name} +{name} file$", out, re.M)
            continue
        left = f"--{name}" + (f" {METAVARS[name]}" if name in METAVARS else "")
        assert re.search(rf"^  (-q, )?{re.escape(left)} +\w", out, re.M), left
    assert len(re.findall(r"^  -", out, re.M)) == len(fields) - (command != "domain") + 1  # -h


@pytest.mark.parametrize("route", ["program", "flag", "env", "directive", "control"])
def test_a_file_that_is_not_utf8_is_a_violation_that_names_it(
    capsys, tmp_path, monkeypatch, route
):
    bad = tmp_path / {"program": "bad.fllp", "control": "bad.ctl"}.get(route, "bad.alg")
    bad.write_bytes(b"primary: false, true\n\xfe\n")
    prog = tmp_path / "prog.fllp"
    prog.write_text('use algebra "bad.alg".\np : true.\n' if route == "directive" else "p : true.\n")
    argv = ["check", str(prog)]
    if route == "program":
        argv = ["check", str(bad)]
    elif route == "flag":
        argv += ["--algebra", str(bad)]
    elif route == "env":
        monkeypatch.setenv("FLLP_ALGEBRA", str(bad))
    elif route == "control":
        argv = ["surface", str(bad)]
    reason = "not UTF-8 text, byte 0xfe at offset 21"
    want = (f"error: line 1: cannot read algebra 'bad.alg' ({reason}: {bad}); the program's "
            "grades and hedges are read against it, so its other statements wait\n"
            if route == "directive" else f"error: [Errno {errno.EILSEQ}] {reason}: '{bad}'\n")
    assert run(capsys, *argv) == (1, "", want)


@pytest.mark.parametrize("route", ["program", "flag", "env", "directive", "control"])
@pytest.mark.parametrize("bad", [False, True])
def test_a_leading_byte_order_mark_is_dropped(
    capsys, samples_dir, tmp_path, monkeypatch, route, bad
):
    """A UTF-8 file that starts with a byte-order mark reads as the same file
    without it, at every read site; a violation keeps its line number."""
    if route == "program":
        name, text = "prog.fllp", "p(a) : true.\n" + ("q @ : true.\n" if bad else "")
    elif route == "control":
        name, text = "heater.ctl", (samples_dir / "heater.ctl").read_text(encoding="utf-8")
        text += "bogus line\n" if bad else ""
    else:
        name, text = "mine.alg", DEFAULT_ALGEBRA_CONFIG + ("bogus line\n" if bad else "")
    prog = tmp_path / "prog.fllp"
    if route != "program":
        directive = 'use algebra "mine.alg".\n' if route == "directive" else ""
        prog.write_text(directive + "p(a) : true.\n", encoding="utf-8")
    argv = ["surface", str(tmp_path / name)] if route == "control" else ["check", str(prog)]
    if route == "flag":
        argv += ["--algebra", str(tmp_path / name)]
    elif route == "env":
        monkeypatch.setenv("FLLP_ALGEBRA", str(tmp_path / name))
    shown = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / name).write_bytes(bom + text.encode("utf-8"))
        shown.append(run(capsys, *argv))
    assert shown[1] == shown[0]
    assert shown[0][0] == (1 if bad else 0) and "\ufeff" not in shown[0][2]
    if bad:
        line = len(text.splitlines())
        assert f"line {line}: " in shown[0][2], shown[0][2]
