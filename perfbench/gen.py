"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments and a ``random.Random``
seed, so a variant id always yields the same text.  Programs are built as
``fllp.lang`` trees and written out with ``lang.pretty_print``; algebra
configs and control files are written as text.

``random_algebra`` and ``random_program`` mirror ``tests/randprog.py`` as it
stood when the expected outputs were made, so edits to the test helpers do
not move the benchmark's inputs.
"""
from __future__ import annotations

import itertools
import random

from fllp import (
    GODEL,
    LUKA,
    HedgeAlgebraSpec,
    HedgeDecl,
    build_algebra,
    enumerate_domain,
)
from fllp.lang import Atom, Conj, Const, Disj, Fact, HedgeApp, Program, Rule, Var

X, Y, Z = Var("X"), Var("Y"), Var("Z")

# Edge grades, cycled by edge position.  All keep every path atom of a chain
# above bottom under the #more recursion.
EDGE_GRADES = ("true", "more true", "very true", "very more true", "very very true")


# The built-in algebra of fllp (and samples/vmpl.alg) when the expected
# outputs were made, kept here so the inputs do not move with it.
_DEFAULT_HEDGES = """\
primary: false, true
hedge: very class=+ rank=2
hedge: more class=+ rank=1
hedge: probably class=- rank=1
hedge: little class=- rank=2
positive: very -> very, more, little
negative: very -> probably
positive: more -> very, more, little
negative: more -> probably
positive: probably -> probably
negative: probably -> very, more, little
positive: little -> probably
negative: little -> very, more, little
"""


def default_config(limit: int) -> str:
    """The default algebra with its hedge-string cap set to ``limit``."""
    return f"{_DEFAULT_HEDGES}limit: {limit}\n"


def config_text(spec: HedgeAlgebraSpec) -> str:
    """An algebra config file that ``load_algebra_config`` reads back as ``spec``."""
    lines = [f"primary: {spec.negative_primary}, {spec.positive_primary}"]
    for d in spec.hedges:
        lines.append(f"hedge: {d.name} class={'+' if d.positive_class else '-'} rank={d.rank}")
    names = [d.name for d in spec.hedges]
    for a in names:
        for flag, key in ((True, "positive"), (False, "negative")):
            targets = [b for b in names if spec.positivity[(a, b)] is flag]
            if targets:
                lines.append(f"{key}: {a} -> {', '.join(targets)}")
    lines.append(f"limit: {spec.limit}")
    return "\n".join(lines) + "\n"


# -- graphs -------------------------------------------------------------------
#
# Graph variants differ only in node labels and statement order, not in
# shape or grades, so every seed asks the same fixpoint and search work of a
# graph of a given size.

def _edges(kind: str, size: int) -> list[tuple[int, int]]:
    if kind == "chain":
        return [(i, i + 1) for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(size):
            if j + 1 < size:
                edges.append((i * size + j, i * size + j + 1))
            if i + 1 < size:
                edges.append((i * size + j, (i + 1) * size + j))
    return edges


def graph_labels(kind: str, size: int, seed: int | None) -> list[str]:
    """Node labels by node position: a seeded renaming of ``n0 ... n<m>``."""
    count = size + 1 if kind == "chain" else size * size
    names = [f"n{i}" for i in range(count)]
    if seed is not None:
        random.Random(seed).shuffle(names)
    return names


def graph(kind: str, size: int, seed: int | None, domain) -> Program:
    """Transitive closure over a chain of ``size`` edges or a size x size grid.

    Grid edges run right and down.  Seed ``None`` keeps node ``n<i>`` at
    position i and the statements in order.
    """
    labels = graph_labels(kind, size, seed)
    statements: list = [
        Fact(Atom("edge", (Const(labels[a]), Const(labels[b]))),
             domain.parse_literal(EDGE_GRADES[i % len(EDGE_GRADES)]))
        for i, (a, b) in enumerate(_edges(kind, size))
    ]
    rec = Conj(GODEL, (Atom("edge", (X, Z)), HedgeApp("more", Atom("path", (Z, Y)))))
    statements += [
        Rule(Atom("path", (X, Y)), GODEL, Atom("edge", (X, Y)), domain.n),
        Rule(Atom("path", (X, Y)), GODEL, rec, domain.n),
    ]
    if seed is not None:
        random.Random(seed).shuffle(statements)
    return Program(tuple(statements))


# -- randprog mirror ------------------------------------------------------------

CONSTS = ("a", "b", "c")
BODY_VARS = ("Z", "W")


def random_algebra(seed: int, max_rank: int = 3, max_limit: int = 3):
    rng = random.Random(seed)
    p = rng.randint(1, max_rank)
    q = rng.randint(1, max_rank)
    decls = [HedgeDecl(f"h{i}", True, i) for i in range(1, p + 1)]
    decls += [HedgeDecl(f"k{i}", False, i) for i in range(1, q + 1)]
    names = [d.name for d in decls]
    positivity = {(a, b): rng.random() < 0.5 for a in names for b in names}
    limit = rng.randint(1, max_limit)
    spec = HedgeAlgebraSpec("lo", "hi", tuple(decls), positivity, limit)
    algebra = build_algebra(spec)
    return spec, enumerate_domain(algebra)


def _leaf(rng, preds, head_vars, hedges):
    pred, arity = rng.choice(preds)
    args = []
    for _ in range(arity):
        r = rng.random()
        if r < 0.5 and head_vars:
            args.append(rng.choice(head_vars))
        elif r < 0.7:
            args.append(Var(rng.choice(BODY_VARS)))
        else:
            args.append(Const(rng.choice(CONSTS)))
    body = Atom(pred, tuple(args))
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            body = HedgeApp(rng.choice(hedges), body)
    return body


def random_program(seed: int, domain, recursive: bool = False) -> Program:
    rng = random.Random(seed)
    n = domain.n
    hedges = list(domain.algebra.extended_order())
    npred = rng.randint(2, 3)
    preds = [(f"p{i}", rng.randint(1, 2)) for i in range(npred)]

    statements: list = []
    for _ in range(rng.randint(2, 4)):
        pred, arity = rng.choice(preds)
        args = tuple(Const(rng.choice(CONSTS)) for _ in range(arity))
        statements.append(Fact(Atom(pred, args), rng.randint(1, n)))

    for _ in range(rng.randint(1, 2)):
        hi = rng.randrange(1, npred)
        head_pred, head_arity = preds[hi]
        head_vars = [X, Y][:head_arity]
        head = Atom(head_pred, tuple(head_vars))
        width = rng.choices((1, 2, 3), weights=(9, 9, 2))[0]
        parts = tuple(_leaf(rng, preds[:hi], head_vars, hedges) for _ in range(width))
        if width == 1:
            body = parts[0]
        else:
            pick = rng.random()
            if pick < 0.35:
                body = Disj(parts)
            elif pick < 0.7:
                body = Conj(GODEL, parts)
            else:
                body = Conj(LUKA, parts)
        kind = GODEL if rng.random() < 0.5 else LUKA
        statements.append(Rule(head, kind, body, rng.randint(1, n)))

    if recursive and rng.random() < 0.6:
        pred, arity = rng.choice(preds)
        args = tuple(Var(v) for v in ("X", "Y")[:arity])
        self_atom = Atom(pred, args)
        body = self_atom
        if rng.random() < 0.5:
            body = HedgeApp(rng.choice(hedges), body)
        kind = GODEL if rng.random() < 0.5 else LUKA
        statements.append(Rule(self_atom, kind, body, rng.randint(1, n)))

    return Program(tuple(statements))


def ground_atoms(program: Program, consts=CONSTS) -> list[str]:
    """Every ground atom over the program's predicates and ``consts``."""
    return [
        f"{pred}({','.join(args)})"
        for pred, arity in sorted(program.predicates().items())
        for args in itertools.product(consts, repeat=arity)
    ]


# -- wide inputs -----------------------------------------------------------------

def flat_program(facts: int, rules: int, seed: int, domain) -> Program:
    """Many distinct ground facts plus hedged, non-recursive rules over them."""
    rng = random.Random(seed)
    hedges = list(domain.algebra.extended_order())
    nconst = 60
    fpreds = [f"f{i}" for i in range(max(1, facts // (nconst * nconst // 4)))]
    atoms: set[tuple[str, str, str]] = set()
    while len(atoms) < facts:
        atoms.add((rng.choice(fpreds), f"c{rng.randrange(nconst)}", f"c{rng.randrange(nconst)}"))
    statements: list = [
        Fact(Atom(p, (Const(a), Const(b))), rng.randint(1, domain.n))
        for p, a, b in sorted(atoms)
    ]
    for j in range(rules):
        parts = []
        for _ in range(rng.randint(2, 3)):
            leaf = Atom(rng.choice(fpreds), (rng.choice((X, Z)), rng.choice((Y, Z))))
            for _ in range(rng.randint(1, 2)):
                leaf = HedgeApp(rng.choice(hedges), leaf)
            parts.append(leaf)
        body = Conj(rng.choice((GODEL, LUKA)), tuple(parts))
        if rng.random() < 0.3:
            body = Disj((body, parts[0]))
        kind = rng.choice((GODEL, LUKA))
        statements.append(Rule(Atom(f"r{j}", (X, Y)), kind, body, rng.randint(1, domain.n)))
    rng.shuffle(statements)
    return Program(tuple(statements))


def heater_control(k: int, seed: int, domain) -> str:
    """The heater sample scaled to k input and k output points.

    Memberships follow the sample's shape (cold falls and warm rises with
    temperature, strong rises and weak falls with power) with seeded jitter.
    """
    rng = random.Random(seed)
    n = domain.n

    def grade(frac: float) -> str:
        idx = round(frac * n) + rng.randint(-2, 2)
        return domain.literal(min(n, max(0, idx)))

    lines = [
        "inputs: " + " ".join(f"t{i}" for i in range(k)),
        "outputs: " + " ".join(f"p{i}" for i in range(k)),
        "rule: very cold => very strong conf very true",
        "rule: warm => weak",
        "rule: probably warm => probably strong conf more true",
    ]
    for i in range(k):
        f = i / (k - 1)
        lines.append(f"sat cold t{i} {grade(1 - f)}")
        lines.append(f"sat warm t{i} {grade(f)}")
    for i in range(k):
        f = i / (k - 1)
        lines.append(f"sat strong p{i} {grade(f)}")
        lines.append(f"sat weak p{i} {grade(1 - f)}")
    return "\n".join(lines) + "\n"
