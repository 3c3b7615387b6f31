"""How an ``fllp`` process ends: ``python -m fllp`` against in-process ``cli.main``.

``fllp.__main__.run`` flushes stdout and stderr itself, runs the ``atexit``
handlers and calls ``os._exit``.  Each command here runs as ``python -m
fllp`` with stdout block-buffered and unbuffered (``PYTHONUNBUFFERED``),
into each stdout target, and must end with the exit code and output that
``cli.main`` gives in process with a stdout that behaves alike: a
``StringIO`` for a file or a pipe read to its end, a stdout whose writes
fail for ``/dev/full`` or a pipe whose reader closed, and ``None`` for a
closed stdout (``>&-``), where commands that take ``--out`` write there.
"""
from __future__ import annotations

import errno
import io
import os
import subprocess
import sys

import pytest

from fllp.cli import main

import nodecount

SRC = str(nodecount.ROOT / "src")
HOTEL = str(nodecount.ROOT / "samples" / "hotel.fllp")
REPL = "su_ho(X)\nnot a query !\nsu_ho(ritz)\n"
# argv, stdin, and whether the command takes --out
COMMANDS = {
    "domain --inverse": (["domain", "--inverse"], "", True),
    "check": (["check", HOTEL], "", False),
    "query -q": (["query", HOTEL, "-q", "su_ho(X)"], "", True),
    "query REPL": (["query", HOTEL], REPL, True),
    "--help": (["--help"], "", False),
    "usage error": (["check", HOTEL, "--bogus"], "", False),
}
TARGETS = ["file", "pipe", "/dev/full", "broken pipe", "closed"]
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class _Failing:
    """A stdout whose every write fails with ``errno``, as ``/dev/full``
    (ENOSPC) or a pipe whose reader closed (EPIPE) makes a write fail."""

    def __init__(self, code: int):
        self.code = code

    def write(self, text: str):
        raise OSError(self.code, os.strerror(self.code))

    def flush(self):
        pass


def _in_process(monkeypatch, argv, stdin, target) -> tuple[int, bytes, list[str]]:
    """``cli.main(argv)``'s exit code, what it wrote to a stdout like
    ``target``, and the last line of its stderr."""
    out = {"closed": None, "/dev/full": _Failing(errno.ENOSPC),
           "broken pipe": _Failing(errno.EPIPE)}.get(target, io.StringIO())
    err = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    written = out.getvalue().encode() if isinstance(out, io.StringIO) else b""
    return code, written, err.getvalue().splitlines()[-1:]


def _spawn(argv, stdin, target, unbuffered, tmp_path) -> subprocess.CompletedProcess:
    """``python -m fllp argv`` with its stdout on ``target``; ``stdout`` holds
    the bytes a file or pipe received, else none."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "FLLP_ALGEBRA")}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    closed = target == "closed"
    out, opened = subprocess.PIPE, None
    if target in ("file", "/dev/full"):
        out = opened = open(tmp_path / "stdout" if target == "file" else "/dev/full", "wb")
    elif target == "broken pipe":
        reader, out = os.pipe()
        os.close(reader)
    elif closed:
        out = None  # inherited, then closed in the child before it starts
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fllp", *argv], input=stdin.encode(), stdout=out,
            stderr=subprocess.PIPE, env=env, timeout=60,
            preexec_fn=(lambda: os.close(1)) if closed else None,
        )
    finally:
        if opened:
            opened.close()
        elif target == "broken pipe":
            os.close(out)
    if target == "file":
        proc.stdout = (tmp_path / "stdout").read_bytes()
    elif target != "pipe":
        proc.stdout = b""
    return proc


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", [
    pytest.param(t, marks=needs_dev_full) if t == "/dev/full" else t for t in TARGETS])
@pytest.mark.parametrize("name", COMMANDS)
def test_a_spawned_command_ends_as_main_does_in_process(
    monkeypatch, tmp_path, name, target, unbuffered
):
    argv, stdin, takes_out = COMMANDS[name]
    with_out = target == "closed" and takes_out
    spawned = _spawn([*argv, "--out", str(tmp_path / "spawned.out")] if with_out else argv,
                     stdin, target, unbuffered, tmp_path)
    code, written, last_error = _in_process(
        monkeypatch, [*argv, "--out", str(tmp_path / "in.out")] if with_out else argv,
        stdin, target)
    assert "Traceback" not in spawned.stderr.decode()
    assert (spawned.returncode, spawned.stdout, spawned.stderr.decode().splitlines()[-1:]) == (
        code, written, last_error)
    if with_out:
        assert (tmp_path / "spawned.out").read_bytes() == (tmp_path / "in.out").read_bytes()


@pytest.mark.parametrize("target, error", [
    pytest.param("/dev/full", "error: [Errno 28] No space left on device\n", marks=needs_dev_full),
    ("broken pipe", "error: [Errno 32] Broken pipe\n"),
])
def test_a_buffered_stdout_that_cannot_be_flushed_exits_1(tmp_path, target, error):
    # the interpreter's own flush at exit printed "Exception ignored in" and exited 120
    proc = _spawn(["check", HOTEL], "", target, False, tmp_path)
    assert (proc.returncode, proc.stderr.decode()) == (1, error)


@pytest.mark.parametrize("argv", [["domain"], ["check", HOTEL], ["--help"]], ids=lambda a: a[0])
def test_a_closed_stdout_is_an_error(tmp_path, argv):
    # closed, cli._emit and the help screen wrote to a None sys.stdout and
    # raised AttributeError, and check printed nothing and exited 0
    proc = _spawn(argv, "", "closed", False, tmp_path)
    assert (proc.returncode, proc.stderr.decode()) == (1, "error: standard output is closed\n")


def test_a_closed_stdout_is_no_error_when_out_names_a_file(tmp_path):
    out = tmp_path / "domain.txt"
    proc = _spawn(["domain", "--out", str(out)], "", "closed", False, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text(encoding="utf-8").splitlines()[:2] == ["absfalse (v0)", "very very false (v1)"]


def _script(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", "import atexit, runpy, sys\n"
         "atexit.register(print, 'handler ran', file=sys.stderr)\n" + body],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_atexit_handlers_run_and_the_exit_code_survives(tmp_path):
    missing = str(tmp_path / "missing.fllp")
    proc = _script(f"sys.argv = ['fllp', 'check', {missing!r}]\n"
                   "runpy.run_module('fllp', run_name='__main__', alter_sys=True)\n"
                   "print('after run_module', file=sys.stderr)\n")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: [Errno 2] No such file or directory: {missing!r}", "handler ran"]


def test_an_uncaught_exception_takes_the_interpreters_way_out():
    proc = _script("import fllp.cli\n"
                   "def fail(args): raise RuntimeError('boom')\n"
                   "fllp.cli._COMMAND_LINE['domain'] = (fail, *fllp.cli._COMMAND_LINE['domain'][1:])\n"
                   "sys.argv = ['fllp', 'domain']\n"
                   "runpy.run_module('fllp', run_name='__main__', alter_sys=True)\n")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-2:] == ["RuntimeError: boom", "handler ran"]


def test_a_repl_on_a_closed_stdin_is_an_error():
    # closed, _stdin_queries called isatty on a None sys.stdin and raised AttributeError
    env = dict(os.environ, PYTHONPATH=SRC)
    repl, one_shot = (subprocess.run(
        [sys.executable, "-m", "fllp", "query", HOTEL, *extra], capture_output=True, text=True,
        env=env, timeout=60, preexec_fn=lambda: os.close(0),
    ) for extra in ([], ["-q", "su_ho(X)"]))
    assert (repl.returncode, repl.stdout, repl.stderr) == (1, "", "error: standard input is closed\n")
    assert (one_shot.returncode, one_shot.stderr) == (0, "")
