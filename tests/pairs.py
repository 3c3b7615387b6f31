"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tests/pairs.py PARENT CHANGE --workload wide --pairs 10 --seed 201

Runs ``python3 perfbench/run.py --trace 0`` from the root of each
checkout on seeds ``S ... S+N-1``, one pair per seed, the parent first on
even seeds and the change first on odd ones, for ``run_seconds`` of
``BENCHMARK.json`` each.  The JSON object on the last line of every run is
kept.  For each end-to-end metric of ``BENCHMARK.json`` it then prints
the parent's and the change's median and quartiles, the pairs the change
won (by the metric's ``better``), the relative change of the medians, the
bound, whether the change is worse than the bound, and whether a gain
claim holds: at least 10 pairs, at least 9 in 10 of them won, and a gap
between the medians wider than the parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one benchmark run in ``checkout``, as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarise(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over paired run records (the run
    lines of the two sides, pair ``i`` at index ``i`` of each)."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        (old_med, old_q1, old_q3), (new_med, new_q1, new_q3) = _spread(old), _spread(new)
        won = sum(n < o if lower else n > o for o, n in zip(old, new))
        gain = old_med - new_med if lower else new_med - old_med
        relative = (new_med - old_med) / old_med if old_med else 0.0
        rows.append({
            "metric": name, "unit": spec["unit"], "parent": (old_med, old_q1, old_q3),
            "change": (new_med, new_q1, new_q3), "won": won, "pairs": len(old),
            "relative": relative, "bound": spec["bound"],
            "worse_than_bound": -gain > spec["bound"] * abs(old_med),
            "claim": len(old) >= 10 and won * 10 >= 9 * len(old) and gain > old_q3 - old_q1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    def spread(m):
        return f"{m[0]:.4g} ({m[1]:.4g}, {m[2]:.4g})"
    lines = [f"{'metric':16} {'parent median (q1, q3)':28} {'change median (q1, q3)':28} "
             f"{'won':>7} {'change':>8} {'bound':>6}  verdict"]
    for r in rows:
        verdict = ["worse than bound" if r["worse_than_bound"] else "within bound"]
        verdict += ["claim holds"] if r["claim"] else []
        lines.append(f"{r['metric']:16} {spread(r['parent']):28} {spread(r['change']):28} "
                     f"{r['won']:>3}/{r['pairs']:<3} {r['relative']:>+8.1%} {r['bound']:>6.0%}  "
                     f"{', '.join(verdict)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=("bottomup", "topdown", "wide"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    for seed in range(args.seed, args.seed + args.pairs):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in sides if seed % 2 == 0 else sides[::-1]:
            runs.append(run(checkout, args.workload, seed, bench["run_seconds"]))
            print(f"seed {seed} {checkout}: correct {runs[-1]['correct']}", file=sys.stderr)
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}, "
          f"{sum(r['correct'] for r in parent + change)}/{2 * args.pairs} runs correct")
    print(format_rows(summarise(parent, change, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
