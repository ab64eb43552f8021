"""The benchmark harness runs one round of a workload to a correct end.

``perfbench/run.py`` reads several library names (``kernel_name``,
``from_generators``, ``convexsets.hull_coefficients``) and checks every
output independently, so a library change that breaks what it reads, or an
answer its checks reject, fails here rather than only in a benchmark run.
Each in-process workload runs once untimed (``--trace 0``) and once traced
(``--trace 1``): the tracer in ``perfbench/spans.py`` patches library
functions by name (``hull_witness``, ``member_of_hull``, ``rewrite_step``
and more), so a change that removes or renames one of them fails here too.
The ``cli`` workload runs once untimed: one round starts ``csl eval``,
``eq``, ``normalize``, ``canon`` and ``base`` as child processes and checks
their outputs end to end, the only workload that does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["eq-random", "normalize-wide", "sets-base"]


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload + ("-traced" if trace else ""))
    for trace in (0, 1) for workload in WORKLOADS
] + [pytest.param("cli", 0, id="cli")])
def test_one_round_of_the_workload_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr[-2000:]
    assert report["failed"] == 0 and report["attempted"] > 0
