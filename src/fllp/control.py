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

Parsing builds the program the file means.  Each rule becomes a Gödel rule
over a two-place ``good`` predicate, graded by its confidence, whose body
conjoins the hedged input and output atoms, and each membership row above
bottom becomes a graded fact.  The least model of that program grades every
input/output pair with how well the pairing honours the rule base; reading
the best output per input off that surface gives the controller.
No rule body reads ``good``, a reserved term name, so that least model is
the facts' consequences in one step: ``goodness_surface`` values each rule
side once per point, and each rule once per distinct pair of side values.
"""

from __future__ import annotations

from collections import Counter

from .algebra import GODEL, LimitError, TruthDomain, format_value, record
from .inverse import InverseMappingTable
from .program import (
    MAX_NESTING,
    RESERVED_PREDICATES,
    Atom,
    Body,
    Conj,
    Fact,
    HedgeApp,
    ParseError,
    Program,
    Rule,
    Var,
    atoms_of,
    value,
)

GOOD = "good"
_RESERVED = (GOOD, *RESERVED_PREDICATES)

# Most rule instances one surface may weigh, counted as the relevant
# grounding would build them; read when a surface is computed.
SURFACE_LIMIT = 10**6


class SurfaceLimitError(LimitError):
    subject, unit = "the surface", "rule instances"


# ``program`` is what the file means: its rules in file order, then its facts.
ControlSystem = record("ControlSystem", "input_points output_points program")


def _parse_side(
    words: list[str], var: Var, domain: TruthDomain, line: int, problems: list[str]
) -> tuple[str, Body]:
    """A rule side's term, and its hedged atom over ``var``."""
    if not words:
        problems.append(f"line {line}: empty rule side")
        words = [""]
    *hedges, pred = words
    if len(hedges) > MAX_NESTING:
        problems.append(f"line {line}: rule side nested more than {MAX_NESTING} levels deep")
    for h in hedges:
        if not domain.algebra.has_hedge(h):
            problems.append(f"line {line}: unknown hedge {h!r}")
    if pred in _RESERVED:
        problems.append(f"line {line}: {pred!r} cannot be used as a term name")
    body = Atom(pred, (var,))
    for h in reversed(hedges):
        body = HedgeApp(h, body)
    return pred, body


def parse_control_file(text: str, domain: TruthDomain) -> ControlSystem:
    problems: list[str] = []
    points_of: dict[str, tuple[str, ...]] = {}  # "inputs"/"outputs" -> points
    rules: list[Rule] = []
    in_terms: dict[str, None] = {}  # the terms of each side, by first use; '' for none
    out_terms: dict[str, None] = {}
    sat: dict[tuple[str, str], tuple[int, int]] = {}  # -> (grade, line)
    x, y = Var("X"), Var("Y")

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
            in_p, in_body = _parse_side(left.split(), x, domain, lineno, problems)
            out_p, out_body = _parse_side(right.split(), y, domain, lineno, problems)
            if in_p and out_p and in_p == out_p:
                problems.append(
                    f"line {lineno}: {in_p!r} appears on both sides of a rule"
                )
            in_terms[in_p] = out_terms[out_p] = None
            body = Conj(GODEL, (in_body, out_body))
            rules.append(Rule(Atom(GOOD, (x, y)), GODEL, body, conf, line=lineno))
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

    declared = set(inputs) | set(outputs)
    for (pred, point), (_, ln) in sat.items():
        if point not in declared:
            problems.append(f"line {ln}: undeclared point {point!r}")
    for side, terms, points in (("input", in_terms, inputs), ("output", out_terms, outputs)):
        problems += [f"no sat row for {side} term {pred!r} at {point!r}" for pred in terms if pred
                     for point in dict.fromkeys(points) if (pred, point) not in sat]

    if problems:
        raise ParseError(problems)
    # bottom-graded facts say nothing
    facts = [Fact(Atom(pred, (point,)), g) for (pred, point), (g, _) in sat.items() if g]
    return ControlSystem(inputs, outputs, Program((*rules, *facts), source="<control>"))


def compile_control(cs: ControlSystem, kind: str = GODEL) -> Program:
    """The graded program whose least model is the goodness surface, its
    rules graded with the ``kind`` conjunction."""
    if kind == GODEL:
        return cs.program
    statements = tuple(s._replace(kind=kind) if s.__class__ is Rule else s
                       for s in cs.program.statements)
    return cs.program._replace(statements=statements)


def goodness_surface(cs: ControlSystem, table: InverseMappingTable) -> dict[tuple[str, str], int]:
    """Grade of ``good(x, y)`` in the least model of ``cs.program`` for every
    input point x and output point y: the best, over the rules whose terms
    grade x and y above bottom, of the rule's instance there.  The instances
    are counted first, refused past ``SURFACE_LIMIT``."""
    columns, n, outputs = table.columns, table.domain.n, cs.output_points
    grade = {(f.atom.pred, f.atom.args[0]): f.tv for f in cs.program.facts}

    def graded(side: Body, points: tuple[str, ...]) -> list[tuple[int, str]]:
        """The points, by position, where the term of ``side`` is above bottom."""
        pred = next(atoms_of(side)).pred
        return [(i, p) for i, p in enumerate(points) if (pred, p) in grade]

    rules = [(rule, *map(graded, rule.body.parts, (cs.input_points, outputs)))
             for rule in cs.program.rules]
    if (needed := sum(len(xs) * len(ys) for _, xs, ys in rules)) > SURFACE_LIMIT:
        raise SurfaceLimitError(needed, SURFACE_LIMIT)
    grid = [[0] * len(outputs) for _ in cs.input_points]
    for rule, *points in rules:
        xs, ys = [[(i, value(side, lambda atom, p=p: grade[atom.pred, p], columns, n))
                   for i, p in ps] for side, ps in zip(rule.body.parts, points)]
        rows: dict[int, list[int]] = {}  # input side value -> its instances' grades by output
        for i, a in xs:
            if a not in rows:
                weigh = {b: value(Conj(rule.kind, (Conj(rule.body.kind, (a, b)), rule.tv)),
                                  None, columns, n) for b in {b for _, b in ys}}
                rows[a] = [0] * len(outputs)
                for j, b in ys:
                    rows[a][j] = weigh[b]
            grid[i] = list(map(max, grid[i], rows[a]))
    return {(x, y): v for x, cells in zip(cs.input_points, grid) for y, v in zip(outputs, cells)}


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
