"""The benchmark's own self-check, run as a plain test.

``perfbench/tracing.py`` imports engine functions by name and counts the
solver's trace lines by pattern; renaming either must fail here, not only
in a benchmark run.  No timing is asserted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One job of each ``wide`` class at seed 1, run and checked as the benchmark
# does; ``perfbench/selftest.py`` runs only ``bottomup`` and ``topdown`` jobs.
WIDE_JOBS = """\
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import harness, workloads
work = Path(sys.argv[1])
first = {}
for job in workloads.build("wide", 1, work):
    first.setdefault(job.cls, job)
expected = harness.load_expected(Path("perfbench/expected.json"))
env = harness.child_env(Path.cwd())
for cls, job in sorted(first.items()):
    print(f"{job.key}: {harness.run_job(job, env, work, expected, 15.0).status}")
"""


def _run(*argv: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_benchmark_selftest_passes():
    _run("perfbench/selftest.py")


def test_wide_outputs_match_the_benchmark(tmp_path):
    lines = _run("-c", WIDE_JOBS, str(tmp_path)).stdout.splitlines()
    assert [line.split("/")[0] for line in lines] == ["check", "compile", "domain", "surface"]
    assert all(line.endswith(": ok") for line in lines), lines
