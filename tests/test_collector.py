"""The cyclic collector is off in an ``fllp`` process, and need not be on.

``python -m fllp`` and the ``fllp`` script run one command per process
with ``gc.disable()``; this holds only while reference counting frees
what a command leaves behind.  Each check runs with the collector off and
then counts, under ``DEBUG_SAVEALL``, the objects that only a collection
would have freed.
"""
from __future__ import annotations

import gc
import io
import os
import subprocess
import sys

import pytest

from fllp import solver
from fllp.cli import main

import nodecount

HOTEL = str(nodecount.ROOT / "samples" / "hotel.fllp")
# a left-recursive path over a 20-edge chain: unbounded, it stops at the search limit
CHAIN = "".join(f"e(n{i},n{i + 1}) : true.\n" for i in range(20)) + (
    "path(X,Y) <-g and_g(path(X,Z), e(Z,Y)) : true.\npath(X,Y) <-g e(X,Y) : true.\n")


def _garbage(run) -> tuple[int, int]:
    """``run()``'s result and the objects it left in reference cycles."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    return code, found


def _session(monkeypatch, program: str, lines: list[str]):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    return lambda: main(["query", program, "--depth", "0"])


@pytest.mark.parametrize("name", nodecount.COMMANDS)
def test_a_successful_command_leaves_no_cycles(capsys, name):
    argv = [str(nodecount.ROOT / "samples" / a) if a.endswith((".fllp", ".ctl")) else a
            for a in nodecount.COMMANDS[name]]
    assert _garbage(lambda: main(argv)) == (0, 0)
    assert capsys.readouterr().out


def test_a_session_of_good_and_malformed_queries_leaves_no_cycles(capsys, monkeypatch):
    lines = ["su_ho(X)", "not a query !", "", "su_ho(", "#nohedge(su_ho(X))", "su_ho(X)"]
    assert _garbage(_session(monkeypatch, HOTEL, lines)) == (0, 0)
    assert capsys.readouterr().err.count("error:") == 3


@pytest.mark.parametrize("bad", ["not a query !", "path(n0,X)"], ids=["malformed", "limit"])
def test_session_garbage_does_not_grow_with_its_failing_queries(
    capsys, monkeypatch, tmp_path, bad
):
    # Only the last failure's exception, traceback and frames stay in a
    # cycle when the session ends; each earlier one is freed once the next
    # query replaces it.
    monkeypatch.setattr(solver, "SEARCH_LIMIT", 20_000)
    program = tmp_path / "chain.fllp"
    program.write_text(CHAIN)
    found = []
    for k in (1, 4):
        code, garbage = _garbage(_session(monkeypatch, str(program), ["e(n0,X)", bad] * k))
        assert code == (2 if bad.startswith("path") else 0)
        assert capsys.readouterr().err.count("error:") == k
        found.append(garbage)
    assert found[0] == found[1] > 0


def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path):
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert main(["query", HOTEL, "-q", "su_ho(X)"]) == 0
            assert main(["check", str(tmp_path / "missing.fllp")]) == 1
            with pytest.raises(SystemExit):
                main(["check", HOTEL, "--bogus"])
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()


def test_python_m_fllp_and_the_script_run_without_the_collector():
    # runpy.run_module with alter_sys runs fllp/__main__.py as ``python -m fllp``
    # does; the script calls ``fllp.__main__.run`` (pyproject.toml).  Either
    # ends the process itself, so an atexit handler reads the collector's state
    # and the process's exit status carries the command's code.
    entries = {
        "python -m fllp": "sys.argv = ['fllp', 'domain']\n"
                          "runpy.run_module('fllp', run_name='__main__', alter_sys=True)\n",
        "run()": "from fllp.__main__ import run\n"
                 f"sys.argv = ['fllp', 'check', {str(nodecount.ROOT / 'missing.fllp')!r}]\n"
                 "run()\n",
    }
    for entry, body in entries.items():
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('collector on:', gc.isenabled(), file=sys.stderr))\n"
                + body + "print('not reached', file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(nodecount.ROOT / "src")),
        )
        assert proc.returncode == (0 if entry == "python -m fllp" else 1), entry
        assert proc.stderr.splitlines()[-1:] == ["collector on: False"], entry
        assert "not reached" not in proc.stderr
    pyproject = (nodecount.ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nfllp = "fllp.__main__:run"\n' in pyproject
