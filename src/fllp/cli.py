"""Command line interface.

Subcommands: ``domain`` prints the truth scale (and, on request, the
inverse hedge mappings), ``check`` parses and validates a program,
``query`` answers queries top-down (one-shot or as a small REPL),
``model`` computes the least model bottom-up, ``surface`` evaluates a
control file, and ``compile`` emits plain clause text.

The algebra is taken from ``--algebra``, else from the program's own
``use algebra`` directive, else from the file named by the
``FLLP_ALGEBRA`` environment variable, else the built-in default.

Exit codes: 0 on success, 1 for usage, parse or validation problems, 2
when resources ran out (truth-domain or grounding cap, search limit, or a
depth-limited search that may have missed answers).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .algebra import (
    LimitError,
    TruthDomain,
    format_value,
    load_algebra_config,
    read_algebra_config,
)
from .inverse import build_inverse_table
# lang, fixpoint, solver, prolog and control load only in the subcommands
# that run them.

ENV_ALGEBRA = "FLLP_ALGEBRA"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"expected an integer, 0 or more, not {text!r}")
    return depth


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="fllp", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def algebra_opt(p):
        p.add_argument("--algebra", metavar="FILE", help="algebra config file")

    p = sub.add_parser("domain", help="print the truth domain")
    algebra_opt(p)
    p.add_argument("--inverse", action="store_true", help="also print inverse mappings")
    p.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")

    p = sub.add_parser("check", help="parse and validate a program")
    algebra_opt(p)
    p.add_argument("program", help="program file")
    p.add_argument("--safe", action="store_true", help="require ground facts and range-restricted rules")

    p = sub.add_parser("query", help="answer queries top-down")
    algebra_opt(p)
    p.add_argument("program", help="program file")
    p.add_argument("-q", "--query", help="query; omit for a REPL on stdin")
    p.add_argument("--depth", type=_depth, default=64, metavar="N",
                   help="rule unfoldings per branch, 0 for unlimited (default 64)")
    p.add_argument("--threshold", metavar="GRADE",
                   help="only answers at or above this grade ('probably true' or v30)")
    p.add_argument("--best", action="store_true", help="best answer per binding only")
    p.add_argument("--exhaustive", action="store_true",
                   help="explore statements in program order instead of best-first")
    p.add_argument("--trace", action="store_true", help="print resolution steps")
    p.add_argument("--out", metavar="FILE", help="write answers to a file")

    p = sub.add_parser("model", help="compute the least model bottom-up")
    algebra_opt(p)
    p.add_argument("program", help="program file")
    p.add_argument("--mode", choices=("naive", "delta"), default="naive",
                   help="accepted for compatibility; both run the same engine")
    p.add_argument("--out", metavar="FILE", help="write the model to a file")

    p = sub.add_parser("surface", help="evaluate a control file")
    algebra_opt(p)
    p.add_argument("control", help="control file")
    p.add_argument("--out", metavar="FILE", help="write the surface to a file")

    p = sub.add_parser("compile", help="emit plain clause text")
    algebra_opt(p)
    p.add_argument("program", help="program file")
    p.add_argument("-q", "--query", help="also emit this query")
    p.add_argument("--out", metavar="FILE", help="write clauses to a file")
    return top


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _errors(exc) -> int:
    violations = getattr(exc, "violations", None) or [str(exc)]
    for v in violations:
        print(f"error: {v}", file=sys.stderr)
    return 2 if isinstance(exc, LimitError) else 1


def _env_algebra() -> str | None:
    """The file in ``FLLP_ALGEBRA``, read only when nothing else names one."""
    return os.environ.get(ENV_ALGEBRA) or None


def _load(args) -> tuple:
    """Program plus inverse table for subcommands that read a program."""
    from .lang import load_program
    return load_program(args.program, args.algebra, _env_algebra())


def _parse_grade(domain: TruthDomain, text: str) -> int:
    m = re.fullmatch(r"v(\d+)", text.strip())
    if m:
        idx = int(m.group(1))
        if idx > domain.n:
            raise ValueError(f"v{idx} is outside the domain (max v{domain.n})")
        return idx
    return domain.parse_literal(text)


# -- subcommands ------------------------------------------------------------

def _cmd_domain(args) -> int:
    config, _ = read_algebra_config(args.algebra, _env_algebra())
    algebra, domain, overrides = load_algebra_config(config)
    lines = [format_value(domain, i) for i in range(len(domain))]
    if args.inverse or overrides:  # building the table checks the inverse: rows
        table = build_inverse_table(domain, overrides)
    if args.inverse:
        for decl in algebra.spec.hedges:
            lines.append("")
            lines.append(f"inverse {decl.name}:")
            col = table.columns[decl.name]
            for i in range(len(domain)):
                lines.append(f"  {format_value(domain, i)} -> {format_value(domain, col[i])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    from .lang import ParseError, validate_program
    program, table = _load(args)
    problems = validate_program(program, table.domain, safe=args.safe)
    if problems:
        raise ParseError(problems)
    n_facts = len(program.facts)
    n_rules = len(program.rules)
    print(f"ok: {n_facts} fact(s), {n_rules} rule(s)")
    return 0


def _stdin_queries():
    """REPL lines: one query per line, empty lines skipped, quit/exit to leave."""
    prompt = "?- " if sys.stdin.isatty() else ""
    try:
        while (line := input(prompt).strip()) not in ("quit", "exit", "quit.", "exit."):
            if line:
                yield line
    except EOFError:
        return


def _cmd_query(args) -> int:
    from .lang import parse_query
    from .solver import SearchLimitError, SolveOptions, format_answer, solve
    program, table = _load(args)
    opts = SolveOptions(
        depth=args.depth,
        threshold=None if args.threshold is None else _parse_grade(table.domain, args.threshold),
        best=args.best,
        exhaustive=args.exhaustive,
        trace=args.trace,
    )
    # -q is a one-line session whose error ends the run; in the REPL an error
    # is reported and only a limit fails the session.  Answers go to stdout as
    # each query is read, or to --out: under -q if any, in the REPL at the end.
    one_shot = args.query is not None
    code = 0
    written: list[str] = []
    for line in [args.query] if one_shot else _stdin_queries():
        lines: tuple[str, ...] = ()
        failure = None
        try:
            result = solve(program, table, parse_query(line, table.domain), opts)
        except SearchLimitError as exc:  # a search stopped at its limit still shows its trace so far
            lines, failure = exc.trace, exc
        except (LimitError, ValueError) as exc:
            failure = exc
        else:
            answers = [format_answer(table.domain, a) for a in result.answers]
            lines = (*result.trace, *(answers or ["no answers."]))
            if result.depth_exhausted:
                print("warning: depth limit reached, the answer set may be incomplete",
                      file=sys.stderr)
                code = 2
        if failure is not None:  # reported first, so a failed --out write cannot hide it
            status = _errors(failure)
            if one_shot or status == 2:
                code = status
        text = "".join(f"{shown}\n" for shown in lines)
        if args.out and not one_shot:
            written.append(text)
        elif text:
            _emit(text, args.out)
    if args.out and not one_shot:
        _emit("".join(written), args.out)
    return code


def _cmd_model(args) -> int:
    from .fixpoint import dump_model, least_model
    program, table = _load(args)
    model, rounds = least_model(program, table, mode=args.mode)
    lines = dump_model(model, table.domain)
    lines.append(f"iterations: {rounds}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_surface(args) -> int:
    from .control import format_surface, goodness_surface, parse_control_file
    from .lang import load_inverse_table
    table = load_inverse_table(args.algebra, _env_algebra())
    cs = parse_control_file(Path(args.control).read_text(encoding="utf-8"), table.domain)
    surface = goodness_surface(cs, table)
    _emit(format_surface(cs, table.domain, surface), args.out)
    return 0


def _cmd_compile(args) -> int:
    from .lang import parse_query
    from .prolog import compile_program, compile_query
    program, table = _load(args)
    text = compile_program(program, table)
    if args.query is not None:
        text += compile_query(parse_query(args.query, table.domain), table) + "\n"
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "domain": _cmd_domain,
    "check": _cmd_check,
    "query": _cmd_query,
    "model": _cmd_model,
    "surface": _cmd_surface,
    "compile": _cmd_compile,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (LimitError, OSError, ValueError) as exc:
        return _errors(exc)


if __name__ == "__main__":
    sys.exit(main())
