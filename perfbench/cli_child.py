"""One ``csl`` command, run as the traced run's child process.

Usage: python perfbench/cli_child.py <csl arguments...>

Does what ``python -m csl.cli <arguments>`` does, with the benchmark's tracer
installed around the library, and prints one last line to standard error:
``PERFBENCH-CHILD <json>`` with the import time of ``csl.cli``, the time in
``main`` and the tracer's totals. An uncaught exception prints its traceback
and exits 1, as the plain command does.
"""

import json
import sys
import traceback
from time import perf_counter

MARKER = "PERFBENCH-CHILD "

if __name__ == "__main__":
    t0 = perf_counter()
    import csl
    import csl.cli

    t1 = perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.install(csl)
    t2 = perf_counter()
    try:
        code = csl.cli.main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        code = 1
    t3 = perf_counter()
    sys.stdout.flush()
    report = {"import": t1 - t0, "main": t3 - t2, "tracer": t2 - t1, "totals": tracer.layer_totals()}
    print(MARKER + json.dumps(report), file=sys.stderr)
    sys.exit(code)
