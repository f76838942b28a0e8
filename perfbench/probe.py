"""Set-up probe: one fresh interpreter up to its first checked result.

Run by ``run.py`` as ``python3 perfbench/probe.py <workload> <workdir>``.
It imports numpy, then cheshire from the checkout's ``src/``, makes the
first call of the workload's kind and checks it against the oracle.  It
prints one JSON line with the two import times, the check's error (or
null) and the monotonic clock reading at the checked result, which the
parent compares with the clock reading it took just before starting this
interpreter.
"""

import json
import os
import sys
import time
from pathlib import Path

import oracle

workload, workdir = sys.argv[1], Path(sys.argv[2])
t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, os.path.join(Path(__file__).resolve().parent.parent, "src"))
import cheshire  # noqa: E402,F401

t2 = time.perf_counter()
import workloads  # noqa: E402

op = workloads.first_op(workload, workdir)
observation = op.observe(op.call())
error = None
try:
    op.check(observation)
except oracle.CheckFailure as exc:
    error = str(exc)
done = time.perf_counter()
print(json.dumps({"numpy_import_s": t1 - t0, "cheshire_import_s": t2 - t1, "done_at": done, "error": error}))
