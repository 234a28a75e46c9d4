"""The benchmark's self-tests pass against the library in src/, so a
renamed function or a dropped oracle call that the benchmark relies on
fails here rather than only when the benchmark runs."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
