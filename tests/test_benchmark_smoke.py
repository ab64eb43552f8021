"""The benchmark harness runs one round of a workload to a correct end.

``perfbench/run.py`` reads several library names (``kernel_name``,
``from_generators``, ``convexsets.hull_coefficients``) and checks every
output independently, so a library change that breaks what it reads, or an
answer its checks reject, fails here rather than only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["eq-random", "normalize-wide", "sets-base"])
def test_one_round_of_the_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr[-2000:]
    assert report["failed"] == 0 and report["attempted"] > 0
