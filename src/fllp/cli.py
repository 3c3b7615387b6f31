"""Command line interface.

Subcommands: ``domain`` prints the truth scale (and, on request, the
inverse hedge mappings), ``check`` parses and validates a program,
``query`` answers queries top-down (one-shot or as a small REPL),
``model`` computes the least model bottom-up, ``surface`` evaluates a
control file, and ``compile`` emits plain clause text.

The algebra is taken from ``--algebra``, else from the program's own
``use algebra`` directive, else from the file named by the
``FLLP_ALGEBRA`` environment variable, else the built-in default.

Exit codes: 0 on success and after ``--help``, 1 for usage, parse or
validation problems, 2 when resources ran out (truth-domain or grounding
cap, search limit, or a depth-limited search that may have missed
answers).
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .algebra import (
    LimitError,
    TruthDomain,
    format_value,
    load_algebra_config,
    read_algebra_config,
    read_text,
)
from .inverse import build_inverse_table
# lang, fixpoint, solver, prolog and control load only in the subcommands
# that run them.

ENV_ALGEBRA = "FLLP_ALGEBRA"


# One row per subcommand: its help, its positional (name, help) or (), and its
# options as (flags, metavar, default, help).  An option without a metavar is
# a switch; the metavar N takes a count, 0 or more, and one in braces lists
# the choices.  The rows drive parsing, usage errors and --help.
_HELP = ("-h --help", None, None, "show this help message and exit")
_ALGEBRA = ("--algebra", "FILE", None, "algebra config file")
_OUT = ("--out", "FILE", None, "write to FILE instead of stdout")
_PROGRAM = ("program", "program file")
_COMMAND_LINE = {
    "domain": ("print the truth domain", (), [
        _ALGEBRA, ("--inverse", None, False, "also print inverse mappings"), _OUT]),
    "check": ("parse and validate a program", _PROGRAM, [
        _ALGEBRA, ("--safe", None, False, "require ground facts and range-restricted rules")]),
    "query": ("answer queries top-down", _PROGRAM, [
        _ALGEBRA, ("-q --query", "QUERY", None, "query; omit for a REPL on stdin"),
        ("--depth", "N", 64, "rule unfoldings per branch, 0 for unlimited (default 64)"),
        ("--threshold", "GRADE", None, "only answers at or above this grade ('probably true' or v30)"),
        ("--best", None, False, "best answer per binding only"),
        ("--exhaustive", None, False, "explore statements in program order instead of best-first"),
        ("--trace", None, False, "print resolution steps"), _OUT]),
    "model": ("compute the least model bottom-up", _PROGRAM, [
        _ALGEBRA, ("--mode", "{naive,delta}", "naive",
                   "accepted for compatibility; both run the same engine"), _OUT]),
    "surface": ("evaluate a control file", ("control", "control file"), [_ALGEBRA, _OUT]),
    "compile": ("emit plain clause text", _PROGRAM, [
        _ALGEBRA, ("-q --query", "QUERY", None, "also emit this query"), _OUT]),
}


def _exit(command: str | None, error: str = ""):
    """Exit 1 after the usage of ``command`` (None: of fllp itself) and the
    usage ``error``, or 0 after its help: a line per subcommand or argument."""
    prog = f"fllp {command}" if command else "fllp"
    _, positional, options = _COMMAND_LINE[command] if command else ("", (), [])
    words = [f"[{opt[0].split()[0]}{' ' + opt[1] if opt[1] else ''}]" for opt in (_HELP, *options)]
    words += positional[:1] if command else ["{" + ",".join(_COMMAND_LINE) + "} ..."]
    usage = f"usage: {prog} {' '.join(words)}\n"
    if error:
        sys.stderr.write(f"{usage}{prog}: error: {error}\n")
        raise SystemExit(1)
    rows = [] if command else [(name, row[0]) for name, row in _COMMAND_LINE.items()]
    rows += [positional] if positional else []
    rows += [(f"{', '.join(opt[0].split())} {opt[1] or ''}", opt[3]) for opt in (_HELP, *options)]
    sys.stdout.write(usage + "\n" + "".join(f"  {left:<22} {text}\n" for left, text in rows))
    raise SystemExit(0)


def _parse_args(argv) -> SimpleNamespace:
    """``argv`` read against the row of its subcommand: a long option may be
    cut to a prefix no other option shares, a value may follow ``=`` (or
    ``-q`` directly), and everything after ``--`` is a positional."""
    args = list(sys.argv[1:] if argv is None else argv)
    command = args.pop(0) if args else None
    if command in ("-h", "--h", "--he", "--hel", "--help"):
        _exit(None)
    if command not in _COMMAND_LINE:
        _exit(None, "the following arguments are required: command" if command is None else
              f"argument command: invalid choice: {command!r} "
              f"(choose from {', '.join(map(repr, _COMMAND_LINE))})")
    _, positional, options = _COMMAND_LINE[command]
    flags = {flag: opt for opt in (_HELP, *options) for flag in opt[0].split()}

    def option(arg):  # None for a positional, else the option (None: unknown) and its value
        if arg in flags:
            return flags[arg], None
        if arg[:1] != "-" or arg == "-":
            return None
        name, eq, value = (arg.partition("=") if arg[1] == "-"  # else -qVALUE or -q=VALUE
                           else (arg[:2], "=", arg[2:].removeprefix("=")))
        found = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            _exit(command, f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return flags[found[0]], value if eq else None
        return None if re.fullmatch(r"-\d+|-\d*\.\d+", arg) or " " in arg else (None, None)

    cut = args.index("--") if "--" in args else len(args)  # hit False: that "--"; None: positional
    hits = [option(arg) for arg in args[:cut]] + [False] + [None] * len(args[cut + 1:])
    values = {"command": command, **{opt[0].split()[-1][2:]: opt[2] for opt in options}}
    extras, pairs, beside = [], iter(zip(args, hits)), False
    for arg, hit in pairs:
        if hit is None and positional and positional[0] not in values:
            values[positional[0]], beside = arg, True
            continue
        if hit is False and positional and (positional[0] not in values or beside):
            continue  # a "--" before the positional, or right after it, is spent
        beside = False
        if not hit or hit[0] is None:  # a surplus positional or "--", or an unknown option
            extras.append(arg)
            continue
        (spec, metavar, _, _), value = hit
        names = "/".join(spec.split())
        if metavar is None and value is not None:
            _exit(command, f"argument {names}: ignored explicit argument {value!r}")
        if spec == _HELP[0]:
            _exit(command)
        if value is None and metavar is not None:
            value, following = next(pairs, (None, ()))
            if following is not None:
                _exit(command, f"argument {names}: expected one argument")
        if metavar == "N" and not value.isdecimal():
            _exit(command, f"argument {names}: expected an integer, 0 or more, not {value!r}")
        if metavar and metavar[0] == "{" and value not in metavar[1:-1].split(","):
            _exit(command, f"argument {names}: invalid choice: {value!r} (choose from "
                           f"{', '.join(map(repr, metavar[1:-1].split(',')))})")
        values[spec.split()[-1][2:]] = metavar is None or (int(value) if metavar == "N" else value)
    if positional and positional[0] not in values:
        _exit(command, f"the following arguments are required: {positional[0]}")
    if extras:
        _exit(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


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
    cs = parse_control_file(read_text(args.control), table.domain)
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
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (LimitError, OSError, ValueError) as exc:
        return _errors(exc)


if __name__ == "__main__":
    sys.exit(main())
