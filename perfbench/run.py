"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload bottomup --seed 1 --seconds 15 --trace 0

Run from the root of an fllp checkout.  Set-up generates the seed's
inputs, writes them under ``perfbench/results/`` and loads the expected
outputs; it is repeated and its median reported as ``setup_s``.  With
``--trace 0`` the workload runs as a closed loop with one client: one
fresh ``python -m fllp`` process at a time, in full passes over the job
list, until ``--seconds`` have passed and at least two passes are done.
With ``--trace 1`` the same jobs are mirrored in-process instead (see
``tracing.py``) and per-layer metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The full record of the run (metadata, every job
sample, every span) is written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
PROBE_REPEATS = 5


def _setup(workload: str, seed: int, root: Path, env: dict, work: Path):
    """Generate and write the inputs and load the expected outputs, timed.

    Every repeat starts from an empty input directory and empty caches, and
    is scaled to reference speed by the reference runs before and after it.
    Returns the jobs, the expected outputs and the median set-up time at
    reference speed and as measured.
    """
    import workloads  # imports fllp, so only once src/ is on the path

    inputs = work / "inputs"
    scaled, raw = [], []
    before = harness.reference(env, work)[0]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        workloads.clear_caches()
        t0 = time.perf_counter()
        jobs = workloads.build(workload, seed, inputs, root)
        expected = harness.load_expected(BENCH / "expected.json")
        raw.append(time.perf_counter() - t0)
        after = harness.reference(env, work)[0]
        scaled.append(raw[-1] * harness.reference_scale(before, after))
        before = after
    return jobs, expected, statistics.median(scaled), statistics.median(raw)


def _closed_loop(jobs, expected, env, work, seconds, timeout):
    """Full passes over the jobs, with a reference process before every job."""
    samples, refs = [], []
    passes = 0
    t0 = time.perf_counter()
    while passes < harness.MIN_PASSES or time.perf_counter() - t0 < seconds:
        for job in jobs:
            refs.append(harness.reference(env, work))
            samples.append(harness.run_job(job, env, work, expected, timeout))
        passes += 1
    refs.append(harness.reference(env, work))
    return samples, refs, passes


def _cli_probes(env, work) -> dict:
    """Fresh-process start-up: bare interpreter, and ``import fllp.cli`` on top."""
    def median_ms(argv):
        return 1000 * statistics.median(
            harness.spawn(argv, env, work / "probe.out")[0] for _ in range(PROBE_REPEATS))

    interpreter = median_ms(["-c", "pass"])
    return {"interpreter_ms": interpreter,
            "import_ms": median_ms(["-c", "import fllp.cli"]) - interpreter}


def _traced(jobs, expected, env, work, seconds):
    import tracing  # imports fllp, so only once src/ is on the path
    import workloads

    runnable = [j for j in jobs if j.cls not in workloads.NON_TERMINATING]
    probes = _cli_probes(env, work)
    untraced, passes = [], []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        # Alternate which side goes first, so warm-up favours neither.
        if len(passes) % 2:
            passes.append(tracing.traced_pass(runnable, expected))
            untraced.append(tracing.untraced_pass(runnable))
        else:
            untraced.append(tracing.untraced_pass(runnable))
            passes.append(tracing.traced_pass(runnable, expected))
    metrics = tracing.per_layer_metrics(passes, untraced, probes, len(jobs) - len(runnable))
    failed = [key for _, _, f in passes for key in f]
    spans = [dict(s, **{"pass": i}) for i, (tr, _, _) in enumerate(passes) for s in tr.spans]
    return metrics, len(runnable) * len(passes), len(passes), failed, spans


def _class_report(samples) -> list[str]:
    by_cls = defaultdict(list)
    for s in samples:
        by_cls[s.cls].append(s)
    lines = []
    for cls, ss in sorted(by_cls.items()):
        bad = [s for s in ss if s.status != "ok"]
        p50 = 1000 * statistics.median(s.wall_s for s in ss)
        lines.append(f"  {cls:22s} jobs {len(ss):4d}  p50 {p50:9.1f} ms  failed {len(bad)}"
                     + (f" ({bad[0].status})" if bad else ""))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("bottomup", "topdown", "wide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fllp" / "__init__.py").is_file() or not (root / "samples").is_dir():
        print("perfbench: run from the root of an fllp checkout (src/fllp or samples/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    results = BENCH / "results"
    work = results / f"work-{os.getpid()}"
    env = harness.child_env(root)
    timeout = workloads.TIMEOUT_S[args.workload]
    try:
        work.mkdir(parents=True)
        jobs, expected, setup_s, setup_raw_s = _setup(args.workload, args.seed, root, env, work)
        harness.spawn(["-m", "fllp", "domain"], env, work / "warmup.out")  # fill bytecode caches
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "executable": sys.executable, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": harness.commit(root),
            "src_sha256": harness.source_digest(root), "job_timeout_s": timeout,
            "jobs_per_pass": len(jobs), "setup_repeats": SETUP_REPEATS,
        }
        record = {"meta": meta}
        if args.trace:
            metrics, attempted, passes, failed, spans = _traced(jobs, expected, env, work,
                                                                args.seconds)
            meta["traced_passes"] = passes
            record["spans"] = spans
            is_correct = not failed
            failed_n = len(failed)
            report = [f"  in-process failures: {sorted(set(failed))}"] if failed else []
        else:
            pct = harness.tail_percentile(len(jobs))
            samples, refs, passes = _closed_loop(jobs, expected, env, work, args.seconds, timeout)
            ref_s = statistics.median(w for w, _ in refs)
            metrics = harness.summarise(harness.at_reference_speed(samples, refs), setup_s, pct)
            raw = harness.summarise(samples, setup_raw_s, pct)
            failed_n = sum(s.status != "ok" for s in samples)
            attempted = len(samples)
            is_correct = harness.correct(samples, workloads.NON_TERMINATING)
            meta.update(passes=passes, samples=attempted, job_tail_percentile=pct,
                        fail_ratio=failed_n / attempted, reference_p50_ms=1000 * ref_s,
                        raw={name: v for name, (v, _) in raw.items()})
            record["samples"] = [s.__dict__ for s in samples]
            record["reference_s"] = refs
            report = _class_report(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed_n} failed, record in {results / name}")
    print("meta " + json.dumps(meta))
    print("\n".join(report))
    if args.trace:
        for k, (v, u) in metrics.items():
            print(f"  {k:30s} {v:14.4f} {u}")
    else:
        print(f"  {'metric':22s} {'at reference speed':>18s} {'as measured':>14s}")
        for k, (v, u) in metrics.items():
            print(f"  {k:22s} {v:18.4f} {meta['raw'][k]:14.4f} {u}")
        print(f"  {'fail_ratio':22s} {meta['fail_ratio']:18.4f} {meta['fail_ratio']:14.4f} ratio")
    print(harness.result_line(is_correct, attempted, failed_n, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
