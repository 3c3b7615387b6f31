"""Command line interface.

Subcommands: ``domain`` prints the truth scale (and, on request, the
inverse hedge mappings), ``check`` parses and validates a program,
``query`` answers queries top-down (one-shot or as a small REPL),
``model`` computes the least model bottom-up, ``surface`` evaluates a
control file, and ``compile`` emits plain clause text.  Usage errors and
help screens are drawn by ``usage``, loaded only to report one, and
``query`` runs in ``repl``, loaded only by it.

The algebra is taken from ``--algebra``, else from the program's own
``use algebra`` directive, else from the file named by the
``FLLP_ALGEBRA`` environment variable, else the built-in default.

Exit codes: 0 on success and after ``--help``, 1 for usage, parse or
validation problems and output that cannot be written, 2 when resources
ran out (truth-domain, grounding or surface cap, join budget, search limit,
or a depth-limited search that may have missed answers).
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .algebra import LimitError, format_value, read_text
from .inverse import load_config
# lang, fixpoint, solver, prolog and control load only in the subcommands
# that run them, as do validate (check) and repl (query), and usage only
# when a usage error or help is reported.

ENV_ALGEBRA = "FLLP_ALGEBRA"


def _exit(command: str | None, error: str = ""):
    """Exit after a usage error or the help of ``command`` (see ``usage.report``)."""
    from .usage import report
    report(command, error)


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
    _, _, positional, options = _COMMAND_LINE[command]
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
    elif sys.stdout is None:  # started with its stdout closed
        raise OSError("standard output is closed")
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


# -- subcommands ------------------------------------------------------------

def _cmd_domain(args) -> int:
    # inverse: rows are checked by building the table, even when it is not printed
    algebra, domain, table = load_config(args.algebra, _env_algebra(), inverse=args.inverse)
    labels = [format_value(domain, i) for i in range(len(domain))]
    lines = labels.copy()
    if args.inverse:
        for decl in algebra.spec.hedges:
            lines.append("")
            lines.append(f"inverse {decl.name}:")
            lines += [f"  {label} -> {labels[j]}"
                      for label, j in zip(labels, table.columns[decl.name])]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    from .program import ParseError
    from .validate import validate_program
    program, table = _load(args)
    problems = validate_program(program, table.domain, safe=args.safe)
    if problems:
        raise ParseError(problems)
    n_rules = len(program.rules)
    _emit(f"ok: {len(program.statements) - n_rules} fact(s), {n_rules} rule(s)\n", None)
    return 0


def _cmd_query(args) -> int:
    from .repl import run
    return run(args)


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
    _, _, table = load_config(args.algebra, _env_algebra())
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


# One row per subcommand: its handler, help, positional (name, help) or (), and
# options as (flags, metavar, default, help).  An option without a metavar is a
# switch; the metavar N takes a count, 0 or more, and one in braces lists the
# choices.  The rows drive dispatch, parsing, usage errors and --help.
_HELP = ("-h --help", None, None, "show this help message and exit")
_ALGEBRA = ("--algebra", "FILE", None, "algebra config file")
_OUT = ("--out", "FILE", None, "write to FILE instead of stdout")
_PROGRAM = ("program", "program file")
_COMMAND_LINE = {
    "domain": (_cmd_domain, "print the truth domain", (), [
        _ALGEBRA, ("--inverse", None, False, "also print inverse mappings"), _OUT]),
    "check": (_cmd_check, "parse and validate a program", _PROGRAM, [
        _ALGEBRA, ("--safe", None, False, "require ground facts and range-restricted rules")]),
    "query": (_cmd_query, "answer queries top-down", _PROGRAM, [
        _ALGEBRA, ("-q --query", "QUERY", None, "query; omit for a REPL on stdin"),
        ("--depth", "N", 64, "rule unfoldings per branch, 0 for unlimited (default 64)"),
        ("--threshold", "GRADE", None, "only answers at or above this grade ('probably true' or v30)"),
        ("--best", None, False, "best answer per binding only"),
        ("--exhaustive", None, False, "explore statements in program order instead of best-first"),
        ("--trace", None, False, "print resolution steps"), _OUT]),
    "model": (_cmd_model, "compute the least model bottom-up", _PROGRAM, [
        _ALGEBRA, ("--mode", "{naive,delta}", "naive",
                   "accepted for compatibility; both run the same engine"), _OUT]),
    "surface": (_cmd_surface, "evaluate a control file", ("control", "control file"), [_ALGEBRA, _OUT]),
    "compile": (_cmd_compile, "emit plain clause text", _PROGRAM, [
        _ALGEBRA, ("-q --query", "QUERY", None, "also emit this query"), _OUT]),
}


def main(argv=None) -> int:
    try:  # parsing writes a help screen, and that write may fail like any other
        args = _parse_args(argv)
        return _COMMAND_LINE[args.command][0](args)
    except (LimitError, OSError, ValueError) as exc:
        return _errors(exc)
