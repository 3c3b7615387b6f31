"""Usage errors and help screens of the command line.

Each is drawn from a subcommand's row in ``cli._COMMAND_LINE``.  ``cli``
imports this module only when it reports one, so a run whose command line
parses never compiles it.
"""

from __future__ import annotations

import sys

from .cli import _COMMAND_LINE, _HELP, _emit


def report(command: str | None, error: str = ""):
    """Exit 1 after the usage of ``command`` (None: of fllp itself) and the
    usage ``error``, or 0 after its help: a line per subcommand or argument."""
    prog = f"fllp {command}" if command else "fllp"
    positional, options = _COMMAND_LINE[command][2:] if command else ((), [])
    words = [f"[{opt[0].split()[0]}{' ' + opt[1] if opt[1] else ''}]" for opt in (_HELP, *options)]
    words += positional[:1] if command else ["{" + ",".join(_COMMAND_LINE) + "} ..."]
    usage = f"usage: {prog} {' '.join(words)}\n"
    if error:
        sys.stderr.write(f"{usage}{prog}: error: {error}\n")
        raise SystemExit(1)
    rows = [positional] if positional else [] if command else [
        (name, row[1]) for name, row in _COMMAND_LINE.items()]
    rows += [(f"{', '.join(opt[0].split())} {opt[1] or ''}", opt[3]) for opt in (_HELP, *options)]
    _emit(usage + "\n" + "".join(f"  {left:<22} {text}\n" for left, text in rows), None)
    raise SystemExit(0)
