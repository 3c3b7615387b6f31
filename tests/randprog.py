"""Seeded generators for differential tests.

Shapes are kept small on purpose: stratified rule sets so the search tree
stays finite without a depth bound, and recursion only as a single rule
whose body repeats the head atom, so unrolling adds a branch per step
instead of multiplying them.
"""
from __future__ import annotations

import random

from fllp.algebra import GODEL, LUKA, HedgeAlgebraSpec, HedgeDecl, build_algebra, enumerate_domain
from fllp.program import Atom, Conj, Const, Disj, Fact, HedgeApp, Program, Rule, Var

CONSTS = ("a", "b", "c")
BODY_VARS = ("Z", "W")


def random_algebra(seed: int, max_rank: int = 3, max_limit: int = 3):
    """A hedge algebra with random class sizes and positivity matrix."""
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
    return algebra, enumerate_domain(algebra)


def algebra_config_text(spec: HedgeAlgebraSpec) -> str:
    """``spec`` as algebra-config text, hedges in declaration order."""
    lines = [f"primary: {spec.negative_primary}, {spec.positive_primary}"]
    for d in spec.hedges:
        lines.append(f"hedge: {d.name} class={'+' if d.positive_class else '-'} rank={d.rank}")
    for (a, b), flag in spec.positivity.items():
        lines.append(f"{'positive' if flag else 'negative'}: {a} -> {b}")
    lines.append(f"limit: {spec.limit}")
    return "\n".join(lines) + "\n"


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
        head_vars = [Var("X"), Var("Y")][:head_arity]
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


def mixed_arity_program(seed: int, domain, recursive: bool = False) -> Program:
    """Facts and rules over ``p`` and ``q``, each name used at arities 0 to
    2 alike; rule heads are ``q`` and bodies read ``p`` unless ``recursive``."""
    rng = random.Random(seed)
    n = domain.n
    hedges = list(domain.algebra.extended_order())
    terms = (Const("a"), Const("b"), Var("X"), Var("Y"))

    def atom(preds: str) -> Atom:
        return Atom(rng.choice(preds), tuple(rng.choice(terms) for _ in range(rng.randint(0, 2))))

    statements: list = [Fact(atom("pq"), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 3)):
        leaves = [atom("pq" if recursive else "p") for _ in range(rng.randint(1, 3))]
        parts = tuple(HedgeApp(rng.choice(hedges), a) if rng.random() < 0.3 else a for a in leaves)
        body = parts[0] if len(parts) == 1 else rng.choice(
            (Disj(parts), Conj(GODEL, parts), Conj(LUKA, parts)))
        head = atom("pq" if recursive else "q")
        statements.append(Rule(head, rng.choice((GODEL, LUKA)), body, rng.randint(1, n)))
    rng.shuffle(statements)
    return Program(tuple(statements))


def random_control_text(seed: int, domain) -> str:
    """A complete random control file over the given domain."""
    rng = random.Random(seed)
    inputs = tuple(f"i{k}" for k in range(rng.randint(1, 3)))
    outputs = tuple(f"o{k}" for k in range(rng.randint(1, 3)))
    in_preds = tuple(f"a{k}" for k in range(rng.randint(1, 2)))
    out_preds = tuple(f"b{k}" for k in range(rng.randint(1, 2)))
    hedges = ("",) + tuple(f"{h} " for h in domain.algebra.extended_order())
    lines = [f"inputs: {' '.join(inputs)}", f"outputs: {' '.join(outputs)}"]
    for a in in_preds:
        for b in out_preds:
            conf = ""
            if rng.random() < 0.5:
                conf = f" conf {domain.literal(rng.randint(1, domain.n))}"
            lines.append(f"rule: {rng.choice(hedges)}{a} => {rng.choice(hedges)}{b}{conf}")
    for pred in in_preds:
        for x in inputs:
            lines.append(f"sat {pred} {x} {domain.literal(rng.randint(0, domain.n))}")
    for pred in out_preds:
        for y in outputs:
            lines.append(f"sat {pred} {y} {domain.literal(rng.randint(0, domain.n))}")
    return "\n".join(lines) + "\n"
