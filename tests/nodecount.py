"""AST nodes each subcommand compiles, one fresh process per subcommand.

Where bytecode caches are off (``PYTHONDONTWRITEBYTECODE=1``), every run
compiles each ``fllp`` module it imports from source, at a cost that grows
with the module's AST, so the nodes of the modules a command loads are
what it pays before doing any work.  Each subcommand runs on a sample in a
fresh interpreter, and every ``fllp`` module it loaded, the package's
``__init__.py`` included, is counted with ``ast.walk``.

Run directly to print each command's total and its modules, and then the
lines of the package's source (what ``cat src/fllp/*.py | wc -l`` counts):

    PYTHONPATH=src python tests/nodecount.py

With ``--uncalled``, each command instead lists the top-level functions
and methods that it compiles but never calls, with their nodes, largest
first: a ``sys.setprofile`` hook records every Python function the run
enters, module bodies and nested functions aside.

    PYTHONPATH=src python tests/nodecount.py --uncalled
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each subcommand on a sample; a bare .fllp or .ctl name is a file of samples/
COMMANDS = {
    "domain --inverse": ["domain", "--inverse"],
    "check": ["check", "hotel.fllp"],
    "query": ["query", "hotel.fllp", "-q", "su_ho(X)"],
    "query --trace": ["query", "hotel.fllp", "-q", "su_ho(X)", "--trace"],
    "model": ["model", "hotel.fllp"],
    "surface": ["surface", "heater.ctl"],
    "compile": ["compile", "hotel.fllp"],
}

_CHILD = """\
import json, sys
called = set()
if {profile!r}:
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
from fllp.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
sys.setprofile(None)
files = {{m: mod.__file__ for m, mod in sys.modules.items() if m == "fllp" or m.startswith("fllp.")}}
print(json.dumps([code, sorted(sys.modules), files, sorted(called)]), file=sys.stderr)
"""


def run(argv: list[str], profile: bool = False) -> tuple:
    """``fllp argv`` in a fresh process: its exit code, its stdout, the names
    of every module it loaded, the source file of each ``fllp`` one, and
    (with ``profile``, else empty) the ``[file, first line]`` of every
    Python function it called."""
    argv = [str(ROOT / "samples" / a) if a.endswith((".fllp", ".ctl")) else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(argv=argv, profile=profile)], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    code, modules, files, called = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, modules, files, called


def nodes(path: str | Path) -> int:
    """The AST nodes of the source file at ``path``."""
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))))


def source_lines() -> int:
    """The lines of every module of the ``fllp`` package."""
    return sum(p.read_text(encoding="utf-8").count("\n") for p in ROOT.glob("src/fllp/*.py"))


def functions(module: str, path: str | Path):
    """``(name, first line, nodes)`` of each top-level function and method
    of the module at ``path``; the first line is a decorator's, if any, as
    in the function's code object."""
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in inner:
            if isinstance(f, ast.FunctionDef):
                name = f"{module}.{node.name}.{f.name}" if f is not node else f"{module}.{f.name}"
                first = f.decorator_list[0].lineno if f.decorator_list else f.lineno
                yield name, first, sum(1 for _ in ast.walk(f))


def uncalled(argv: list[str]) -> tuple[int, list[tuple[str, int]]]:
    """The nodes ``fllp argv`` compiles, and each top-level function or
    method it compiles but never calls with its nodes, largest first."""
    _, _, _, files, called = run(argv, profile=True)
    entered = set(map(tuple, called))
    idle = [(name, count) for module, path in files.items()
            for name, first, count in functions(module, path) if (path, first) not in entered]
    return sum(map(nodes, files.values())), sorted(idle, key=lambda item: (-item[1], item[0]))


def main() -> None:
    if sys.argv[1:] == ["--uncalled"]:
        for name, argv in COMMANDS.items():
            total, idle = uncalled(argv)
            print(f"{name}: {total:,} compiled, {sum(c for _, c in idle):,} in uncalled functions")
            for function, count in idle:
                print(f"  {function} {count:,}")
        return
    for name, argv in COMMANDS.items():
        counts = {m: nodes(f) for m, f in sorted(run(argv)[3].items())}
        print(f"{name}: {sum(counts.values()):,}")
        for module, count in counts.items():
            print(f"  {module} {count:,}")
    print(f"src/fllp lines: {source_lines():,}")


if __name__ == "__main__":
    main()
