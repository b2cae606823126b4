"""The benchmark's self-tests, perfbench/selftest.py, as one test of the suite.

They pin the stepped ``single`` run that the benchmark traces.  They run in
a subprocess from the repository root, because their top-level module names
(``run``, ``oracle``, ``worker``) would shadow others in this process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/selftest.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
