"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tests/pairs.py PARENT CHANGE --workload wide --pairs 10 --seed 201
    python3 tests/pairs.py PARENT CHANGE --spawns 21

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

With ``--spawns N`` it instead times fresh processes: ``python -c pass``
and each command of ``nodecount.COMMANDS`` as ``python -m fllp``, run N
times from each checkout (``PYTHONPATH`` its ``src``, samples its own,
stdout and stderr to ``/dev/null``), the sides alternating which goes
first.  It prints the minimum and median of each command's wall time and
of its CPU time as ``wait4`` reports it, per side.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import nodecount


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


def spawn(checkout: Path, argv: list[str]) -> tuple[float, float]:
    """Wall and CPU seconds of ``python argv`` run from ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k != "FLLP_ALGEBRA"}
    env["PYTHONPATH"] = str(checkout / "src")
    null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{argv} in {checkout} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime + usage.ru_stime


def spawn_commands(checkout: Path) -> dict[str, list[str]]:
    """``python -c pass`` and ``nodecount.COMMANDS`` as interpreter arguments,
    samples read from ``checkout``."""
    return {"python -c pass": ["-c", "pass"], **{
        f"fllp {name}": ["-m", "fllp", *(str(checkout / "samples" / a)
                                          if a.endswith((".fllp", ".ctl")) else a for a in argv)]
        for name, argv in nodecount.COMMANDS.items()}}


def summarise_spawns(times: dict[tuple[str, str], list[tuple[float, float]]]) -> list[dict]:
    """One row per (command, side) of ``times``, in its order: the minimum and
    median of the wall and CPU seconds of its spawns."""
    return [{"command": command, "side": side, "spawns": len(runs),
             "wall": (min(w for w, _ in runs), statistics.median(w for w, _ in runs)),
             "cpu": (min(c for _, c in runs), statistics.median(c for _, c in runs))}
            for (command, side), runs in times.items()]


def format_spawns(rows: list[dict]) -> str:
    lines = [f"{'command':28} {'side':6} {'spawns':>6} {'wall min':>9} {'median':>9} "
             f"{'cpu min':>9} {'median':>9}  (ms)"]
    for r in rows:
        lines.append(f"{r['command']:28} {r['side']:6} {r['spawns']:>6} "
                     f"{1000 * r['wall'][0]:>9.1f} {1000 * r['wall'][1]:>9.1f} "
                     f"{1000 * r['cpu'][0]:>9.1f} {1000 * r['cpu'][1]:>9.1f}")
    return "\n".join(lines)


def main_spawns(parent: Path, change: Path, n: int) -> int:
    checkouts = {"parent": parent, "change": change}
    commands = {side: spawn_commands(checkout) for side, checkout in checkouts.items()}
    times: dict = {(command, side): [] for command in commands["change"] for side in checkouts}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for command in commands["change"]:
            for side in order:
                times[command, side].append(spawn(checkouts[side], commands[side][command]))
    print(f"{n} spawns per command and side")
    print(format_spawns(summarise_spawns(times)))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", choices=("bottomup", "topdown", "wide"))
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spawns", type=int, help="time N fresh processes per command instead")
    args = p.parse_args(argv)
    if args.spawns:
        return main_spawns(args.parent, args.change, args.spawns)
    if None in (args.workload, args.pairs, args.seed):
        p.error("--workload, --pairs and --seed are required without --spawns")
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
