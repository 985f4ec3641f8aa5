"""The benchmark's quick mode: every workload small, with all its checks."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_quick_passes_its_checks():
    run = subprocess.run([sys.executable, "bench/run.py", "--quick"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    results = [json.loads(line) for line in run.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 4
    assert all(r["correct"] is True for r in results), results
