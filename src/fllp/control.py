"""Rule-based control tables reduced to graded logic programs.

A control file declares two finite universes of points, a set of linguistic
rules pairing a hedged input term with a hedged output term, and membership
grades for the terms at each point:

    inputs: t10 t20 t30
    outputs: p0 p50 p100
    rule: very cold => very strong conf very true
    rule: warm => weak
    sat cold t10 very true
    sat strong p100 more true

Each rule becomes a graded rule over a two-place ``good`` predicate whose
body conjoins the hedged input and output atoms, and each membership row
becomes a graded fact.  The least model of that program grades every
input/output pair with how well the pairing honours the rule base; reading
the best output per input off that surface gives the controller.
"""

from __future__ import annotations

from collections import Counter

from .algebra import GODEL, TruthDomain, format_value, record
from .fixpoint import least_model
from .inverse import InverseMappingTable
from .lang import (
    MAX_NESTING,
    RESERVED_PREDICATES,
    Atom,
    Conj,
    Fact,
    HedgeApp,
    ParseError,
    Program,
    Rule,
    Var,
)

GOOD = "good"
_RESERVED = (GOOD, *RESERVED_PREDICATES)


ControlRule = record(
    "ControlRule", "in_hedges in_pred out_hedges out_pred conf line", defaults=(0,)
)


class ControlSystem(record("ControlSystem", "input_points output_points rules sat")):
    """``sat`` holds ``(pred, point, grade)`` rows in file order."""

    __slots__ = ()

    @property
    def input_preds(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.in_pred for r in self.rules))

    @property
    def output_preds(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.out_pred for r in self.rules))


def _parse_label(
    words: list[str], domain: TruthDomain, line: int, problems: list[str]
) -> tuple[tuple[str, ...], str]:
    if not words:
        problems.append(f"line {line}: empty rule side")
        return (), ""
    *hedges, pred = words
    if len(hedges) > MAX_NESTING:
        problems.append(f"line {line}: rule side nested more than {MAX_NESTING} levels deep")
    for h in hedges:
        if not domain.algebra.has_hedge(h):
            problems.append(f"line {line}: unknown hedge {h!r}")
    if pred in _RESERVED:
        problems.append(f"line {line}: {pred!r} cannot be used as a term name")
    return tuple(hedges), pred


def parse_control_file(text: str, domain: TruthDomain) -> ControlSystem:
    problems: list[str] = []
    points_of: dict[str, tuple[str, ...]] = {}  # "inputs"/"outputs" -> points
    rules: list[ControlRule] = []
    sat: dict[tuple[str, str], tuple[int, int]] = {}  # -> (grade, line)

    for lineno, raw in enumerate(text.split("\n"), start=1):  # as ``lang._scan`` does
        line = " ".join(raw.split("%", 1)[0].split())
        if not line:
            continue
        if line.startswith("inputs:") or line.startswith("outputs:"):
            key, rest = line.split(":", 1)
            points = tuple(rest.split())
            if not points:
                problems.append(f"line {lineno}: {key} declares no points")
            problems += [f"line {lineno}: point {p!r} declared twice"
                         for p, k in Counter(points).items() if k > 1]
            if key in points_of:
                problems.append(f"line {lineno}: {key} declared twice")
            points_of[key] = points
            continue
        if line.startswith("rule:"):
            rest = line[len("rule:"):]
            if "=>" not in rest:
                problems.append(f"line {lineno}: rule needs '=>'")
                continue
            left, right = rest.split("=>", 1)
            conf = domain.n
            if " conf " in f" {right} ":
                right, conf_text = f" {right} ".split(" conf ", 1)
                try:
                    conf = domain.parse_literal(conf_text.strip())
                except ValueError as exc:
                    problems.append(f"line {lineno}: {exc}")
                if conf == 0:
                    problems.append(f"line {lineno}: confidence at bottom is vacuous")
            in_h, in_p = _parse_label(left.split(), domain, lineno, problems)
            out_h, out_p = _parse_label(right.split(), domain, lineno, problems)
            if in_p and out_p and in_p == out_p:
                problems.append(
                    f"line {lineno}: {in_p!r} appears on both sides of a rule"
                )
            rules.append(ControlRule(in_h, in_p, out_h, out_p, conf, lineno))
            continue
        if line.startswith("sat "):
            parts = line.split()
            if len(parts) < 4:
                problems.append(
                    f"line {lineno}: expected 'sat <term> <point> <grade>'"
                )
                continue
            pred, point = parts[1], parts[2]
            try:
                grade = domain.parse_literal(" ".join(parts[3:]))
            except ValueError as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            prev = sat.get((pred, point))
            if prev is not None and prev[0] != grade:
                problems.append(
                    f"line {lineno}: sat for {pred!r} at {point!r} conflicts "
                    f"with line {prev[1]}"
                )
                continue
            sat.setdefault((pred, point), (grade, lineno))
            continue
        problems.append(f"line {lineno}: cannot make sense of {line!r}")

    problems += [f"no {key}: line" for key in ("inputs", "outputs") if key not in points_of]
    inputs, outputs = points_of.get("inputs", ()), points_of.get("outputs", ())
    overlap = sorted(set(inputs) & set(outputs))
    if overlap:
        problems.append(f"point(s) {', '.join(overlap)} declared on both sides")
    if not rules:
        problems.append("no rule: lines")

    cs = ControlSystem(
        inputs, outputs, tuple(rules), tuple((p, x, g) for (p, x), (g, _) in sat.items())
    )

    declared = set(inputs) | set(outputs)
    for (pred, point), (_, ln) in sat.items():
        if point not in declared:
            problems.append(f"line {ln}: undeclared point {point!r}")
    for side, preds, points in (("input", cs.input_preds, inputs),
                                ("output", cs.output_preds, outputs)):
        problems += [f"no sat row for {side} term {pred!r} at {point!r}" for pred in preds
                     for point in dict.fromkeys(points) if (pred, point) not in sat]

    if problems:
        raise ParseError(problems)
    return cs


def _wrap(hedges: tuple[str, ...], atom: Atom):
    body = atom
    for h in reversed(hedges):
        body = HedgeApp(h, body)
    return body


def compile_control(cs: ControlSystem, kind: str = GODEL) -> Program:
    """The graded program whose least model is the goodness surface."""
    statements: list = []
    x, y = Var("X"), Var("Y")
    for r in cs.rules:
        body = Conj(
            GODEL,
            (
                _wrap(r.in_hedges, Atom(r.in_pred, (x,))),
                _wrap(r.out_hedges, Atom(r.out_pred, (y,))),
            ),
        )
        statements.append(Rule(Atom(GOOD, (x, y)), kind, body, r.conf, line=r.line))
    for pred, point, grade in cs.sat:
        if grade == 0:
            continue  # bottom-graded facts say nothing
        statements.append(Fact(Atom(pred, (point,)), grade))
    return Program(tuple(statements), source="<control>")


def goodness_surface(
    cs: ControlSystem,
    table: InverseMappingTable,
    program: Program | None = None,
) -> dict[tuple[str, str], int]:
    """Grade of ``good(x, y)`` for every input point x and output point y,
    read off the least model of the compiled program in one pass."""
    if program is None:
        program = compile_control(cs)
    surface = {(x, y): 0 for x in cs.input_points for y in cs.output_points}
    for atom, v in least_model(program, table)[0].items():
        if atom.pred == GOOD and atom.args in surface:
            surface[atom.args] = v
    return surface


def recommend(
    cs: ControlSystem, surface: dict[tuple[str, str], int]
) -> dict[str, tuple[str, int]]:
    """Best output point per input point; earliest declared wins ties."""
    best = {x: max(cs.output_points, key=lambda y: surface[(x, y)]) for x in cs.input_points}
    return {x: (y, surface[(x, y)]) for x, y in best.items()}  # max keeps the first of the best


def format_surface(
    cs: ControlSystem, domain: TruthDomain, surface: dict[tuple[str, str], int]
) -> str:
    width = max(
        [len("input")] + [len(x) for x in cs.input_points + cs.output_points]
    ) + 2
    lines = ["".join(["input".ljust(width)] + [y.ljust(width) for y in cs.output_points])]
    for x in cs.input_points:
        cells = [f"v{surface[(x, y)]}".ljust(width) for y in cs.output_points]
        lines.append("".join([x.ljust(width)] + cells).rstrip())
    lines[0] = lines[0].rstrip()
    picks = recommend(cs, surface)
    for x in cs.input_points:
        y, v = picks[x]
        lines.append(f"recommend {x} -> {y} at {format_value(domain, v)}")
    return "\n".join(lines) + "\n"
