"""The ``query`` subcommand, one-shot or as a REPL on stdin; ``cli`` loads
this module only to run it."""

from __future__ import annotations

import itertools
import re
import sys

from .algebra import LimitError, TruthDomain
from .cli import _emit, _errors, _load
from .lang import parse_query
from .solver import SearchLimitError, format_answer, solve


def _parse_grade(domain: TruthDomain, text: str) -> int:
    m = re.fullmatch(r"v(\d+)", text.strip())
    if m:
        idx = int(m.group(1))
        if idx > domain.n:
            raise ValueError(f"v{idx} is outside the domain (max v{domain.n})")
        return idx
    return domain.parse_literal(text)


def _stdin_queries():
    """REPL lines: one query per line, empty lines skipped, quit/exit or the end
    of stdin to leave.  ``input`` flushes the answers so far before each read;
    with stdout closed (answers go to ``--out``) it cannot run, so stdin is read."""
    if sys.stdin is None:  # started with its stdin closed
        raise OSError("standard input is closed")
    prompt = "?- " if sys.stdin.isatty() else ""
    lines = iter(sys.stdin) if sys.stdout is None else map(input, itertools.repeat(prompt))
    try:
        while (line := next(lines, "quit").strip()) not in ("quit", "exit", "quit.", "exit."):
            if line:
                yield line
    except EOFError:
        return


def run(args) -> int:
    program, table = _load(args)
    # solve reads its five options off args; the parser admits no negative --depth
    if args.threshold is not None:
        args.threshold = _parse_grade(table.domain, args.threshold)
    # -q is a one-line session whose error ends the run; in the REPL an error
    # is reported and only a limit fails the session.  Answers go to stdout as
    # each query is read, or to --out: under -q if any, in the REPL at the end.
    one_shot = args.query is not None
    code = 0
    written: list[str] = []
    for line in [args.query] if one_shot else _stdin_queries():
        result = failure = None
        try:
            result = solve(program, table, parse_query(line, table.domain), args)
        except SearchLimitError as exc:  # a stopped search hands back what it built
            result, failure = exc.result, exc
        except (LimitError, ValueError) as exc:
            failure = exc
        if failure is not None:  # reported first, so a failed --out write cannot hide it
            status = _errors(failure)
            if one_shot or status == 2:
                code = status
        lines = ()
        if result is not None:
            if result.depth_exhausted:
                print("warning: depth limit reached, the answer set may be incomplete",
                      file=sys.stderr)
                code = 2
            answers = [format_answer(table.domain, a) for a in result.answers]
            lines = (*result.trace, *(answers or ([] if failure else ["no answers."])))
        text = "".join(f"{shown}\n" for shown in lines)
        if args.out and not one_shot:
            written.append(text)
        elif text:
            _emit(text, args.out)
    if args.out and not one_shot:
        _emit("".join(written), args.out)
    return code
