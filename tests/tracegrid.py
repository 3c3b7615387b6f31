"""Traced top-down search over a grid of random programs, as one digest.

Every predicate (each name at each arity it is used with) of the randprog
programs for seeds ``0 .. seeds - 1`` is queried with fresh variables
under four option sets, with ``SEARCH_LIMIT`` lowered so that some
searches stop at the limit.  Seeds divisible by 3 run on
``random_algebra(seed, 2, 2)``, the rest on the default algebra; every
fifth seed is a ``mixed_arity_program``, and odd seeds are recursive.
Each solve adds its trace, answers and depth flag, or the trace it left at
the search limit, to one sha256, so a change to search that keeps answers
but moves a trace line shows.

Run directly to print the solve count and the digest:

    PYTHONPATH=src python tests/tracegrid.py --seeds 400
"""
from __future__ import annotations

import argparse
import hashlib

from fllp import solver
from fllp.algebra import DEFAULT_ALGEBRA_CONFIG, load_algebra_config
from fllp.inverse import build_inverse_table
from fllp.lang import Atom, Var

from randprog import mixed_arity_program, random_algebra, random_program

LIMIT = 20_000


def _options(n: int) -> tuple[solver.SolveOptions, ...]:
    return (
        solver.SolveOptions(trace=True),
        solver.SolveOptions(depth=3, threshold=n // 2, trace=True),
        solver.SolveOptions(exhaustive=True, depth=5, trace=True),
        solver.SolveOptions(best=True, depth=0, threshold=1, trace=True),
    )


def _shown(result: solver.SolveResult) -> tuple:
    answers = tuple(
        (a.value, tuple((v, t if t.__class__ is str else f"?{t.name}") for v, t in a.bindings))
        for a in result.answers
    )
    return result.trace, answers, result.depth_exhausted


def grid_digest(seeds: int) -> tuple[int, str]:
    """``(solves, sha256 hex digest)`` over seeds ``0 .. seeds - 1``."""
    _, default, overrides = load_algebra_config(DEFAULT_ALGEBRA_CONFIG)
    default_table = build_inverse_table(default, overrides)
    digest, solves = hashlib.sha256(), 0
    saved, solver.SEARCH_LIMIT = solver.SEARCH_LIMIT, LIMIT
    try:
        for seed in range(seeds):
            if seed % 3:
                domain, table = default, default_table
            else:
                domain = random_algebra(seed, 2, 2)[1]
                table = build_inverse_table(domain)
            make = mixed_arity_program if seed % 5 == 0 else random_program
            program = make(seed, domain, recursive=seed % 2 == 1)
            preds = sorted({(a.pred, len(a.args)) for a in program.atoms()})
            for pred, arity in preds:
                query = Atom(pred, tuple(Var(v) for v in ("X", "Y")[:arity]))
                for k, opts in enumerate(_options(domain.n)):
                    try:
                        shown = _shown(solver.solve(program, table, query, opts))
                    except solver.SearchLimitError as err:
                        shown = ("limit", err.trace)
                    digest.update(repr((seed, pred, arity, k, shown)).encode())
                    solves += 1
    finally:
        solver.SEARCH_LIMIT = saved
    return solves, digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    solves, digest = grid_digest(parser.parse_args(argv).seeds)
    print(f"{solves} solves sha256 {digest}")


if __name__ == "__main__":
    main()
