"""Reproduce the ROADMAP baseline tables with one command.

    python3 perfbench/baseline.py

Run from the root of an fllp checkout.  These are in-process timings of
single layers on the inputs the ROADMAP's baseline names, reported apart
from the gated workloads of ``run.py``: grounding and both fixpoint modes
on the 20- and 40-edge chains, the top-down query ``path(n0,Y)`` on the
10-edge chain at three depth bounds, and domain enumeration and the
inverse table at ``limit:`` 2 to 4.  Each call is timed once.  The chains
are the benchmark's own (``gen.graph``, nodes ``n0`` to ``n<n>`` in
order), whose edge grades may differ from the ones the ROADMAP was first
measured on.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import gen  # noqa: E402
from fllp import build_inverse_table, load_algebra_config  # noqa: E402
from fllp.fixpoint import ground, least_model  # noqa: E402
from fllp.lang import Conj, parse_query  # noqa: E402
from fllp.solver import SolveOptions, solve  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def fmt(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 1 else f"{seconds * 1000:.1f} ms"


def main() -> int:
    _, domain, overrides = load_algebra_config(gen.default_config(2))
    table = build_inverse_table(domain, overrides)

    print("Transitive-closure chain\n")
    print("| n | recursive-rule instances | `ground` | naive fixpoint | delta fixpoint |")
    print("|---|---|---|---|---|")
    for n in (20, 40):
        program = gen.graph("chain", n, None, domain)
        t_ground, gp = timed(lambda: ground(program))
        recursive = sum(isinstance(r.body, Conj) for r in gp.rules)
        t_naive, _ = timed(lambda: least_model(program, table, "naive", gp=gp))
        t_delta, _ = timed(lambda: least_model(program, table, "delta", gp=gp))
        print(f"| {n} | {recursive:,} | {fmt(t_ground)} | {fmt(t_naive)} | {fmt(t_delta)} |")

    print("\nTop-down query `path(n0,Y)` on the 10-edge chain\n")
    print("| depth | time | answers | zero-graded |")
    print("|---|---|---|---|")
    program = gen.graph("chain", 10, None, domain)
    query = parse_query("path(n0,Y)", domain)
    for depth in (16, 24, 32):
        t, result = timed(lambda: solve(program, table, query, SolveOptions(depth=depth)))
        zero = sum(a.value == 0 for a in result.answers)
        print(f"| {depth} | {fmt(t)} | {len(result.answers)} | {zero} |")

    print("\nDomain enumeration plus inverse table\n")
    print("| `limit:` | values | enumeration | inverse table |")
    print("|---|---|---|---|")
    for limit in (2, 3, 4):
        config = gen.default_config(limit)
        t_enum, (_, dom, ovr) = timed(lambda: load_algebra_config(config))
        t_inv, _ = timed(lambda: build_inverse_table(dom, ovr))
        print(f"| {limit} | {len(dom)} | {fmt(t_enum)} | {fmt(t_inv)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
