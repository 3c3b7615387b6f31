"""Running ``fllp`` jobs as fresh processes, checking them, and summarising.

Each job is spawned with ``posix_spawn`` from the benchmark's own
interpreter with ``PYTHONPATH=src``, its standard streams redirected to
files, and waited for with ``wait4`` so its CPU time and peak RSS come
from the kernel.  A timer kills a job that outlives its timeout; the job
is reaped only after the timer is cancelled, so the kill can never reach
a recycled pid.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

_ANSWER = re.compile(r"^answer:(.*) ; tv=.*\(v(\d+)\)$")


def normalise(cmd: str, text: str) -> str:
    """The part of a subcommand's output that must match the expected output.

    Models drop the ``iterations:`` line, whose count differs by mode.
    Queries keep the best nonzero grade per binding, so answers graded
    bottom and their order do not matter.
    """
    if cmd == "model":
        return "\n".join(ln for ln in text.splitlines() if not ln.startswith("iterations:"))
    if cmd == "query":
        best: dict[str, int] = {}
        for line in text.splitlines():
            m = _ANSWER.match(line)
            if m and int(m.group(2)) > 0:
                best[m.group(1).strip()] = max(best.get(m.group(1).strip(), 0), int(m.group(2)))
        return "\n".join(f"{b} v{v}" for b, v in sorted(best.items()))
    return text


def digest(cmd: str, text: str) -> str:
    return hashlib.sha256(normalise(cmd, text).encode()).hexdigest()[:20]


def load_expected(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


def source_digest(root: Path) -> str:
    """Digest of the package sources, to tell runs of different code apart."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fllp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str | None:
    """The checked-out commit, when ``root`` is a git work tree."""
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FLLP_ALGEBRA"}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Sample:
    job: str  # expected-output key
    cls: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    status: str  # "ok", "timeout", "exit <code>", "wrong output", "no expected output"


def spawn(argv: list[str], env: dict, out: Path, stdin: str = "", timeout: float = 60.0):
    """Run ``sys.executable argv``; return (wall s, cpu s, maxrss KB, exit code or None)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin or os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    killed = threading.Event()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)

    def kill():
        killed.set()
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        wall = time.perf_counter() - t0
    except BaseException:  # interrupted: stop the child before reaping it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(pid, 0)
    code = None if killed.is_set() else os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, code


def run_job(job, env: dict, work: Path, expected: dict[str, str], timeout: float) -> Sample:
    out = work / "job.out"
    wall, cpu, rss, code = spawn(job.argv(), env, out, job.stdin, timeout)
    if code is None:
        status = "timeout"
    elif code != 0:
        status = f"exit {code}"
    elif job.key not in expected:
        status = "no expected output"
    elif digest(job.cmd, out.read_text(encoding="utf-8")) != expected[job.key]:
        status = "wrong output"
    else:
        status = "ok"
    if status != "ok":  # failures count at the timeout in the latency metrics
        wall = cpu = timeout
    return Sample(job.key, job.cls, wall, cpu, rss, status)


MIN_PASSES = 2


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile with at least ten jobs beyond it in a shortest run.

    Every run makes at least ``MIN_PASSES`` full passes, so the same
    percentile has ten or more samples beyond it in every run, whatever its
    pass count, and lands on the same job class.
    """
    n = MIN_PASSES * jobs_per_pass
    return 100.0 * max(n - 10, 1) / n


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


# The machine's speed drifts by tens of percent from one second to the next,
# for jobs and a bare interpreter alike.  A reference process (a fresh
# interpreter that imports some standard modules and runs a fixed loop,
# nothing of fllp) therefore runs before every job and after the last, and
# each job's times are reported at reference speed: scaled by REFERENCE_MS
# over the mean of the two reference runs around it.  Each set-up repeat is
# scaled the same way.  Timeouts are not scaled.  The raw figures stay in
# the run record.
REFERENCE_ARGV = ["-c", "import argparse, dataclasses, itertools, json, re\n"
                  "s = 0\nfor i in range(150000): s += i * i % 7"]
REFERENCE_MS = 100.0


def reference(env: dict, work: Path) -> tuple[float, float]:
    """One reference run: (wall s, cpu s)."""
    return spawn(REFERENCE_ARGV, env, work / "ref.out")[:2]


def reference_scale(before: float, after: float) -> float:
    """Factor that brings a time taken between two reference times to reference speed."""
    return REFERENCE_MS / 1000 / ((before + after) / 2)


def at_reference_speed(samples: list[Sample], refs: list[tuple[float, float]]) -> list[Sample]:
    """Scale each sample by the reference runs before and after it."""
    out = []
    for s, before, after in zip(samples, refs, refs[1:]):
        if s.status == "ok":
            s = replace(s, wall_s=s.wall_s * reference_scale(before[0], after[0]),
                        cpu_s=s.cpu_s * reference_scale(before[1], after[1]))
        out.append(s)
    return out


def summarise(samples: list[Sample], setup_s: float, pct: float) -> dict:
    """End-to-end metrics of one run as ``{name: (value, unit)}``."""
    ok = sum(s.status == "ok" for s in samples)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (1000 * statistics.median(s.wall_s for s in samples), "ms"),
        "job_tail_ms": (1000 * nearest_rank([s.wall_s for s in samples], pct), "ms"),
        "job_cpu_p50_ms": (1000 * statistics.median(s.cpu_s for s in samples), "ms"),
        "jobs_per_s": (ok / sum(s.wall_s for s in samples), "1/s"),
        "ok_ratio": (ok / len(samples), "ratio"),
        "peak_rss_mb": (max(s.maxrss_kb for s in samples) / 1024, "MB"),
    }


def correct(samples, may_time_out=()) -> bool:
    """No job gave a wrong output or exit code, and only classes in
    ``may_time_out``, known not to terminate, timed out."""
    return all(s.status == "ok" or (s.status == "timeout" and s.cls in may_time_out)
               for s in samples)


def result_line(is_correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": is_correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
