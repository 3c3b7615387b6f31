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


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
