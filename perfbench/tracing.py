"""Traced in-process run: per-layer metrics from spans around library calls.

Each job is mirrored in-process through the public functions its
subcommand calls, in the same order (``load_algebra_config`` ->
``build_inverse_table`` -> ``parse_program`` -> ``ground`` /
``least_model`` / ``solve`` / ``compile_program`` / ``goodness_surface``),
and its output is checked against the same expected outputs as the
process jobs.  Every call is wrapped in a span named after the layer; a
job's root span covers the whole mirror, so its self time is the work the
command-line layer does around the library (argument handling and output
formatting).  Spans are kept in memory and written out by the caller.

Counters that need extra work (useful ratios, the solver's trace lines)
are computed after a job's root span has closed, so they add nothing to
the spans.  Passes alternate untraced and traced; the difference of their
job totals is the tracing overhead.
"""
from __future__ import annotations

import re
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from fllp import DEFAULT_ALGEBRA_CONFIG
from fllp.algebra import load_algebra_config
from fllp.control import compile_control, format_surface, goodness_surface, parse_control_file
from fllp.fixpoint import dump_model, eval_ground_body, ground, least_model
from fllp.inverse import build_inverse_table
from fllp.lang import algebra_directive, format_value, parse_program, parse_query, validate_program
from fllp.prolog import compile_program, compile_query
from fllp.solver import SolveOptions, format_answer, solve

import harness

class Tracer:
    """Spans with name, start, end, parent and job id, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = 0
        self._open: list[dict] = []

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._open[-1]["id"] if tracer._open else None
        self.rec = {"job": tracer.job, "id": len(tracer.spans), "parent": parent,
                    "name": name, "start_ns": 0, "end_ns": 0, "child_ns": 0}

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer._open.append(self.rec)
        self.rec["start_ns"] = time.perf_counter_ns()

    def __exit__(self, *exc):
        rec = self.rec
        rec["end_ns"] = time.perf_counter_ns()
        self.tracer._open.pop()
        if self.tracer._open:
            self.tracer._open[-1]["child_ns"] += rec["end_ns"] - rec["start_ns"]


class NullTracer:
    def span(self, name: str):
        return nullcontext()


def self_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"] - span["child_ns"]


# -- mirrors of the subcommands ----------------------------------------------

def _flag(job, name: str, default=None):
    return job.flags[job.flags.index(name) + 1] if name in job.flags else default


def _config(job) -> str:
    return Path(job.algebra).read_text(encoding="utf-8") if job.algebra else DEFAULT_ALGEBRA_CONFIG


def _algebra(config: str, tr, counts):
    with tr.span("algebra.load"):
        algebra, domain, overrides = load_algebra_config(config)
    with tr.span("inverse.build"):
        table = build_inverse_table(domain, overrides)
    counts["algebra.values"] += len(domain)
    counts["inverse.cells"] += len(domain) * len(table.columns)
    return algebra, table


def _load(job, tr, counts):
    text = Path(job.path).read_text(encoding="utf-8")
    directive = algebra_directive(text)
    if directive is not None and not job.algebra:
        config = (Path(job.path).parent / directive).read_text(encoding="utf-8")
    else:
        config = _config(job)
    _, table = _algebra(config, tr, counts)
    with tr.span("lang.parse"):
        program = parse_program(text, table.domain, source=job.path)
    counts["lang.statements"] += len(program.statements)
    counts["lang.bytes"] += len(text.encode())
    return program, table


def _domain(job, tr, counts, later):  # every domain job passes --inverse
    algebra, table = _algebra(_config(job), tr, counts)
    domain = table.domain
    lines = [format_value(domain, i) for i in range(len(domain))]
    for decl in algebra.spec.hedges:
        col = table.columns[decl.name]
        lines += ["", f"inverse {decl.name}:"]
        lines += [f"  {format_value(domain, i)} -> {format_value(domain, col[i])}"
                  for i in range(len(domain))]
    return "\n".join(lines) + "\n"


def _check(job, tr, counts, later):
    program, table = _load(job, tr, counts)
    with tr.span("lang.validate"):
        problems = validate_program(program, table.domain)
    if problems:
        return "\n".join(problems) + "\n"
    return f"ok: {len(program.facts)} fact(s), {len(program.rules)} rule(s)\n"


def _query(job, tr, counts, later):
    program, table = _load(job, tr, counts)
    domain = table.domain
    grade = _flag(job, "--threshold")
    threshold = None
    if grade is not None:
        threshold = int(grade[1:]) if re.fullmatch(r"v\d+", grade) else domain.parse_literal(grade)
    depth = int(_flag(job, "--depth", 64))
    opts = SolveOptions(depth=depth or None, threshold=threshold, best="--best" in job.flags)
    if job.query:
        texts = [job.query]
    else:
        texts = [ln.strip() for ln in Path(job.stdin).read_text(encoding="utf-8").splitlines()]
    lines = []
    for text in filter(None, texts):
        with tr.span("lang.parse_query"):
            query = parse_query(text, domain)
        with tr.span("solver.solve"):
            result = solve(program, table, query, opts)
        lines += [format_answer(domain, a) for a in result.answers] or ["no answers."]
        later.append(lambda q=query, r=result: _solver_counts(program, table, q, opts, r, counts))
    return "\n".join(lines) + "\n"


_STEP = re.compile(r"^\[\d+\] .*( -> |graded bottom)")


def _solver_counts(program, table, query, opts, result, counts):
    """Steps, cuts and computed answers, read off a second, traced solve."""
    for line in solve(program, table, query, replace(opts, trace=True)).trace:
        counts["solver.steps"] += bool(_STEP.match(line))
        counts["solver.cuts_bound"] += line.endswith("(below bound)")
        counts["solver.cuts_nomatch"] += line.endswith("(nothing matches)")
        counts["solver.depth_limits"] += " depth limit at " in line
        counts["solver.answers"] += " computed v" in line
        counts["solver.zero_answers"] += line.endswith(" computed v0")
    counts["solver.returned"] += len(result.answers)


def _fixpoint_counts(gp, model, table, counts):
    counts["fixpoint.instances"] += len(gp.rules)
    counts["fixpoint.useful"] += sum(eval_ground_body(r.body, model, table) > 0 for r in gp.rules)
    counts["fixpoint.model_atoms"] += sum(v > 0 for v in model.values())


def _model(job, tr, counts, later):
    program, table = _load(job, tr, counts)
    delta = _flag(job, "--mode") == "delta"
    with tr.span("fixpoint.ground"):
        gp = ground(program)
    with tr.span("fixpoint.least_model_delta" if delta else "fixpoint.least_model"):
        model, rounds = least_model(program, table, mode="delta" if delta else "naive", gp=gp)
    counts["fixpoint.rounds"] += rounds
    later.append(lambda: _fixpoint_counts(gp, model, table, counts))
    lines = dump_model(model, table.domain)
    lines.append(f"iterations: {rounds}")
    return "\n".join(lines) + "\n"


def _surface(job, tr, counts, later):
    _, table = _algebra(_config(job), tr, counts)
    text = Path(job.path).read_text(encoding="utf-8")
    with tr.span("control.parse"):
        cs = parse_control_file(text, table.domain)
    with tr.span("control.surface"):
        surface = goodness_surface(cs, table)
    counts["control.cells"] += len(surface)

    def dense_counts():  # the ground program goodness_surface evaluates
        program = compile_control(cs)
        gp = ground(program)
        _fixpoint_counts(gp, least_model(program, table, mode="delta", gp=gp)[0], table, counts)
    later.append(dense_counts)
    return format_surface(cs, table.domain, surface)


def _compile(job, tr, counts, later):
    program, table = _load(job, tr, counts)
    with tr.span("prolog.compile"):
        text = compile_program(program, table)
    if job.query:
        with tr.span("lang.parse_query"):
            query = parse_query(job.query, table.domain)
        with tr.span("prolog.compile"):
            text += compile_query(query, table) + "\n"
    counts["prolog.out_bytes"] += len(text.encode())
    return text


MIRRORS = {"domain": _domain, "check": _check, "query": _query, "model": _model,
           "surface": _surface, "compile": _compile}


# -- passes ---------------------------------------------------------------------

def untraced_pass(jobs) -> float:
    total = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        MIRRORS[job.cmd](job, NullTracer(), Counter(), [])
        total += time.perf_counter() - t0
    return total


def traced_pass(jobs, expected: dict[str, str]):
    """One traced pass: (tracer, counters, failed job keys)."""
    tr, counts, failed = Tracer(), Counter(), []
    for i, job in enumerate(jobs):
        tr.job = i
        later: list = []
        with tr.span("job"):
            text = MIRRORS[job.cmd](job, tr, counts, later)
        for compute in later:
            compute()
        if harness.digest(job.cmd, text) != expected.get(job.key):
            failed.append(job.key)
    return tr, counts, failed


def layer_times(tr: Tracer) -> dict[str, float]:
    """Self time in ms per span name; the root spans are the CLI layer."""
    ms = Counter()
    for span in tr.spans:
        ms[span["name"]] += self_ns(span) / 1e6
    return ms


def per_layer_metrics(passes: list, untraced_s: list[float], probes: dict, skipped: int) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts per pass.

    ``passes`` holds what ``traced_pass`` returned, ``untraced_s`` the job
    totals of the untraced passes, ``probes`` the fresh-process start-up
    times and ``skipped`` the number of jobs per pass not mirrored.
    """
    times = [layer_times(tr) for tr, _, _ in passes]
    counts = passes[0][1]

    def t(name):
        return statistics.median(x[name] for x in times)

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    traced_s = [sum(s["end_ns"] - s["start_ns"] for s in tr.spans if s["parent"] is None) / 1e9
                for tr, _, _ in passes]
    parse_s = t("lang.parse") / 1000
    return {
        "cli.interpreter_ms": (probes["interpreter_ms"], "ms"),
        "cli.import_ms": (probes["import_ms"], "ms"),
        "cli.format_ms": (t("job"), "ms"),
        "algebra.load_ms": (t("algebra.load"), "ms"),
        "algebra.values": (counts["algebra.values"], "count"),
        "inverse.build_ms": (t("inverse.build"), "ms"),
        "inverse.cells": (counts["inverse.cells"], "count"),
        "lang.parse_ms": (t("lang.parse"), "ms"),
        "lang.parse_kb_per_s": (counts["lang.bytes"] / 1024 / parse_s if parse_s else 0.0, "kB/s"),
        "lang.validate_ms": (t("lang.validate"), "ms"),
        "lang.statements": (counts["lang.statements"], "count"),
        "lang.parse_query_ms": (t("lang.parse_query"), "ms"),
        "fixpoint.ground_ms": (t("fixpoint.ground"), "ms"),
        "fixpoint.instances": (counts["fixpoint.instances"], "count"),
        "fixpoint.useful_ratio": (ratio("fixpoint.useful", "fixpoint.instances"), "ratio"),
        "fixpoint.least_model_ms": (t("fixpoint.least_model"), "ms"),
        "fixpoint.least_model_delta_ms": (t("fixpoint.least_model_delta"), "ms"),
        "fixpoint.rounds": (counts["fixpoint.rounds"], "count"),
        "fixpoint.model_atoms": (counts["fixpoint.model_atoms"], "count"),
        "solver.solve_ms": (t("solver.solve"), "ms"),
        "solver.steps": (counts["solver.steps"], "count"),
        "solver.cuts_bound": (counts["solver.cuts_bound"], "count"),
        "solver.cuts_nomatch": (counts["solver.cuts_nomatch"], "count"),
        "solver.depth_limits": (counts["solver.depth_limits"], "count"),
        "solver.answers": (counts["solver.answers"], "count"),
        "solver.zero_answers": (counts["solver.zero_answers"], "count"),
        "solver.useful_ratio": (ratio("solver.returned", "solver.answers"), "ratio"),
        "prolog.compile_ms": (t("prolog.compile"), "ms"),
        "prolog.out_kb": (counts["prolog.out_bytes"] / 1024, "kB"),
        "control.parse_ms": (t("control.parse"), "ms"),
        "control.surface_ms": (t("control.surface"), "ms"),
        "control.cells": (counts["control.cells"], "count"),
        "trace.overhead_ms": (
            1000 * (statistics.median(traced_s) - statistics.median(untraced_s)), "ms"),
        "trace.spans": (len(passes[0][0].spans), "count"),
        "trace.skipped_jobs": (skipped, "count"),
    }
