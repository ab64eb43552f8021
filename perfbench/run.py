#!/usr/bin/env python3
"""The csl benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eq-random --seed 1 --seconds 28 --trace 0

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. A run sets up (imports csl and builds
the seeded inputs, several times, keeping the median), then repeats whole
rounds of the workload's operations until the round boundary nearest to
``--seconds``, then checks every distinct output with independent
computations (see ``checks.py``) and that repeated operations answered the
same.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the library is wrapped
by ``spans.Tracer`` and the metrics are the per-layer ones, and every span
is written to ``.perfbench-out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("eq-random", "normalize-wide", "sets-base", "cli")
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 60


class Context:
    """What operations need from the runner: how to start a csl process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.child_totals: Counter = Counter()
        self.child_max_bits = 0
        self.peak_child_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run_cli(self, args, stdin=None):
        """Run one csl command to its end; returns (exit code, stdout, stderr).

        The child writes to files rather than pipes so that it can be reaped
        with ``os.wait4``, which gives its own peak memory.
        """
        if self.trace:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *args]
        else:
            cmd = [sys.executable, "-m", "csl.cli", *args]
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / "child.out", "w+", encoding="utf-8") as out, \
                open(OUT_DIR / "child.err", "w+", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env, text=True)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                if stdin:
                    proc.stdin.write(stdin)
                proc.stdin.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        if self.trace:
            stderr = self._take_report(stderr, wall)
        return proc.returncode, stdout, stderr

    def _take_report(self, stderr, wall):
        import cli_child

        lines = stderr.splitlines(keepends=True)
        if not lines or not lines[-1].startswith(cli_child.MARKER):
            return stderr
        report = json.loads(lines[-1][len(cli_child.MARKER):])
        totals = Counter(report["totals"])
        self.child_max_bits = max(self.child_max_bits, totals.pop("simplex.input_max_bits", 0))
        self.child_totals.update(totals)
        self.child_totals["cli.import"] += report["import"]
        self.child_totals["cli.process"] += wall - report["import"] - report["main"] - report["tracer"]
        return "".join(lines[:-1])


def set_up(name, seed, ctx):
    """Import csl and build the workload's inputs; returns them with the time taken."""
    start = perf_counter()
    import csl as lib
    import workloads

    ops = workloads.ROUNDS[name](lib, seed, ctx)
    if name == "cli":
        ctx.run_cli(["eval", "a"])  # the command's first start fills the bytecode caches
    return lib, ops, perf_counter() - start


def setup_samples(name, seed):
    """Set-up times of fresh processes, each importing csl from scratch."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.splitlines()[-1]))
    return samples


def timed_rounds(ops, seconds, tracer):
    """Whole rounds until the round boundary nearest to ``seconds``.

    Returns per round the latencies of its successful operations (by
    position in the round), the failure count, the outputs of the first
    round and the operations that answered differently later.
    """
    rounds, failed, first, drift = [], 0, [], []
    start = perf_counter()
    while True:
        latencies = {}
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = len(rounds) * len(ops) + i
                span = tracer.open("op." + op.kind)
            t0 = perf_counter()
            try:
                out, ok = op.run(), True
            except Exception as exc:  # an operation that fails is counted, not fatal
                out, ok = f"{type(exc).__name__}: {exc}", False
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            if ok:
                latencies[i] = dt
            else:
                failed += 1
            if not rounds:
                first.append((ok, out))
            elif (ok, out) != first[i]:
                drift.append(i)
        rounds.append(latencies)
        elapsed = perf_counter() - start
        # Stop at the round boundary nearest to ``seconds``: another round
        # would end further past it than this one ends before it.
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
    return rounds, failed, first, drift


def end_to_end(rounds):
    """Throughput and latency percentiles over the operations of a round,
    each operation timed by the upper quartile of its successful repeats.

    The host is a shared machine that spends most of its time in a slow
    state and now and then runs about twice as fast for a fraction of a
    second to a few minutes. The repeats of one operation are spread over
    the whole run, so their upper quartile reads the common state unless
    three quarters of the run were fast, where the median and the mean
    follow the share of fast time and the minimum the presence of any.
    Over the same eight runs of ``eq-random`` the spread of ``ops_per_s``
    between runs was 0.08 of its median with the upper quartile, 0.11
    with the minimum, 0.12 with the mean and 0.19 with the median.
    """
    repeats = {}
    for latencies in rounds:
        for i, dt in latencies.items():
            repeats.setdefault(i, []).append(dt)
    times = [upper_quartile(v) for v in repeats.values()]
    return len(times) / sum(times), statistics.median(times), percentile(times, 0.9)


def upper_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def check_outputs(ops, first, drift):
    problems = []
    for i, (op, (ok, out)) in enumerate(zip(ops, first)):
        if ok:
            problems += [f"{op.kind} #{i}: {p}" for p in op.check(out)]
    problems += [f"{ops[i].kind} #{i}: answered differently in a later round" for i in sorted(set(drift))]
    return problems


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    needed = [ROOT / "src" / "csl" / "__init__.py", ROOT / "tests" / "genrandom.py", ROOT / "tests" / "fm_oracle.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a csl checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    ctx = Context(bool(args.trace))
    lib, ops, setup_s = set_up(args.workload, args.seed, ctx)
    if args.setup_only:
        print(setup_s)
        return 0
    setup_s = statistics.median([setup_s] + setup_samples(args.workload, args.seed))
    ctx.child_totals.clear()
    ctx.child_max_bits = ctx.peak_child_rss_kb = 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(lib)
    try:
        rounds, failed, first, drift = timed_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.workload == "cli":
        peak_rss_mb = ctx.peak_child_rss_kb / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = perf_counter()
    problems = check_outputs(ops, first, drift)
    attempted = len(rounds) * len(ops)
    busy = sum(sum(latencies.values()) for latencies in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations, {busy:.2f} s inside them, "
          f"{failed} failed, checked in {perf_counter() - check_start:.2f} s, "
          f"kernel {lib.kernel_name()}", file=sys.stderr)
    for p in problems[:20]:
        print("CHECK FAILED " + p, file=sys.stderr)

    if tracer is None:
        ops_per_s, p50, p90 = end_to_end(rounds)
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        import spans

        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        totals = Counter(tracer.layer_totals())
        totals["simplex.input_max_bits"] = max(totals["simplex.input_max_bits"], ctx.child_max_bits)
        totals.update(ctx.child_totals)
        metrics = {name: (value, spans.METRICS[name]) for name, value in spans.per_layer(totals, attempted).items()}
        metrics["trace.ops_per_s"] = (end_to_end(rounds)[0], "op/s")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
