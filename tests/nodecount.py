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
    "model": ["model", "hotel.fllp"],
    "surface": ["surface", "heater.ctl"],
    "compile": ["compile", "hotel.fllp"],
}

_CHILD = """\
import json, sys
from fllp.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
files = {{m: mod.__file__ for m, mod in sys.modules.items() if m == "fllp" or m.startswith("fllp.")}}
print(json.dumps([code, sorted(sys.modules), files]), file=sys.stderr)
"""


def run(argv: list[str]) -> tuple[int, str, list[str], dict[str, str]]:
    """``fllp argv`` in a fresh process: its exit code, its stdout, the names
    of every module it loaded, and the source file of each ``fllp`` one."""
    argv = [str(ROOT / "samples" / a) if a.endswith((".fllp", ".ctl")) else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(argv=argv)], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    code, modules, files = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, modules, files


def nodes(path: str | Path) -> int:
    """The AST nodes of the source file at ``path``."""
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))))


def source_lines() -> int:
    """The lines of every module of the ``fllp`` package."""
    return sum(p.read_text(encoding="utf-8").count("\n") for p in ROOT.glob("src/fllp/*.py"))


def main() -> None:
    for name, argv in COMMANDS.items():
        counts = {m: nodes(f) for m, f in sorted(run(argv)[3].items())}
        print(f"{name}: {sum(counts.values()):,}")
        for module, count in counts.items():
            print(f"  {module} {count:,}")
    print(f"src/fllp lines: {source_lines():,}")


if __name__ == "__main__":
    main()
