"""perfbench/smoke.py runs every benchmark workload at tiny sizes through
the names it imports from arm7ik, so a change that breaks one of those
names fails here and not only in a benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
