"""One workload pass in a fresh interpreter, as a user's ``bpve run`` is.

    python child.py PLAN.json

The plan names the ``src`` directory to import ``bpve`` from, the op
configs with a fresh output directory each, the thread count, and whether
to trace.  The child times ``import bpve.cli`` (the set-up every ``bpve run``
pays), then runs every op through ``bpve.cli.main`` and writes a report:
import seconds, wall seconds from the start of the first op to the end of
the last, each op's exit code, and the peak resident memory of this
process.  A traced pass also writes its spans.  A plan without ops only
measures the import.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import bpve.cli
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(bpve.__file__)) != os.path.join(
            os.path.abspath(plan["src"]), "bpve"):
        raise SystemExit(f"imported bpve from {bpve.__file__}, "
                         f"not from {plan['src']}")

    tracer = None
    if plan.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install(bpve)

    codes, errors, op_s = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        op_start = time.perf_counter()
        if tracer is not None:
            tracer.op = i
        argv = ["run", op["config"], "--threads", str(plan["threads"]),
                "--out", op["out"]]
        try:
            codes.append(bpve.cli.main(argv))
            errors.append(None)
        except (Exception, SystemExit):
            codes.append(None)
            errors.append(traceback.format_exc(limit=3))
        op_s.append(time.perf_counter() - op_start)
    wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy
    report = {"import_s": import_s, "wall_s": wall_s, "op_s": op_s,
              "codes": codes, "errors": errors,
              "peak_rss_mb": peak_kb / 1024.0,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        report["missing_hooks"] = tracer.missing
        tracer.dump(plan["spans"])
    with open(plan["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1])
