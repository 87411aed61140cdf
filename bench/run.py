"""Benchmark of ``bpve run``: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload gw_quenched --seed 0 --seconds 32 --trace 0
    for w in gw_quenched heavy_tail random_env; do
        python3 bench/run.py --workload $w; done

Run from anywhere; ``bpve`` is imported from ``src/`` next to this
directory, and each run writes its outputs to a directory of its own under
``.bench_work/`` at the repository root, deleted when the run ends.  Each
pass runs the workload's ops (``bench/workloads.py``) in one fresh
interpreter at ``--threads 2``, every op into a fresh output directory, and
checks each op's ``results.json``; an op fails on a non-zero exit, an
exception, a failed check, or results that differ between passes.

``--trace 0`` first times ``import bpve.cli`` in separate fresh
interpreters, then repeats passes until the next one would end after
``--seconds``, and reports medians over the passes of ``wall_s`` and
``peak_rss_mb``, the median import time over every interpreter as
``setup_s``, and ``pass_ratio``, the share of op runs that passed (its
complement is printed as ``fail_ratio``).
``--trace 1`` runs one untraced pass, one traced pass at 2 threads and one
at 1 thread, and reports per-layer metrics (``bench/spans.py``); the exact
counts of every op must agree between the two traced passes, and are
printed as one ``exact counts:`` line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREADS = 2
SETUP_IMPORTS = 3
CHILD_TIMEOUT_S = 150


class Pass:
    """One workload pass in a fresh interpreter, and its outcome."""

    def __init__(self, work: Path, tag: str, cfgs, threads: int,
                 trace: bool = False):
        self.dir = work / tag
        self.dir.mkdir(parents=True)
        self.outs = [self.dir / op["name"] for op, _ in cfgs]
        self.spans_path = self.dir / "spans.json"
        configs = work / "configs"
        plan = {"src": str(SRC), "threads": threads, "trace": trace,
                "report": str(self.dir / "report.json"),
                "spans": str(self.spans_path),
                "ops": [{"config": str(configs / f"{op['name']}.json"),
                         "out": str(out)}
                        for (op, _), out in zip(cfgs, self.outs)]}
        plan_path = self.dir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(plan_path)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S)
            crashed = proc.returncode and \
                f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        except subprocess.TimeoutExpired:
            crashed = f"pass exceeded {CHILD_TIMEOUT_S} s"
        if crashed:
            self.report = {"codes": [None] * len(cfgs),
                           "errors": [crashed] * len(cfgs)}
        else:
            self.report = json.loads((self.dir / "report.json").read_text())

    def results(self, i):
        path = self.outs[i] / "results.json"
        return path.read_bytes() if path.exists() else None


def check_passes(cfgs, passes):
    """Check every op of every pass; returns the number of op runs and a
    failure message per failed ``(pass, op)``.  An op's results must also be
    byte-identical to its first pass."""
    failures = {}
    for i, (op, _) in enumerate(cfgs):
        reference = passes[0].results(i)
        for p in passes:
            code, error = p.report["codes"][i], p.report["errors"][i]
            raw = p.results(i)
            if code != 0:
                msg = f"exit code {code}" + (f": {error}" if error else "")
            elif raw is None:
                msg = "no results.json"
            elif raw != reference:
                msg = "results.json differs from the first pass"
            else:
                msg = op["check"](json.loads(raw))
            if msg:
                failures[p.dir.name, op["name"]] = msg
    return len(cfgs) * len(passes), failures


def measure(work, cfgs, seconds):
    imports = [Pass(work, f"import{i}", [], THREADS).report
               for i in range(SETUP_IMPORTS)]
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(Pass(work, f"pass{len(passes)}", cfgs, THREADS))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    attempted, failures = check_passes(cfgs, passes)
    ok = [p.report for p in passes if "wall_s" in p.report]
    if not ok:
        return attempted, failures, {}, []
    setup = [r["import_s"] for r in imports + ok if "import_s" in r]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok),
                        "MB"),
        "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    notes = [_machine(ok[0]),
             f"passes: {len(passes)}, import samples: {len(setup)}",
             f"fail_ratio: {len(failures) / attempted} (ratio)"]
    notes += [f"op {op['name']}: "
              f"{statistics.median(r['op_s'][i] for r in ok):.4f} s (median)"
              for i, (op, _) in enumerate(cfgs)]
    return attempted, failures, metrics, notes


def trace(work, cfgs):
    plain = Pass(work, "untraced_t2", cfgs, THREADS)
    t2 = Pass(work, "traced_t2", cfgs, THREADS, trace=True)
    t1 = Pass(work, "traced_t1", cfgs, 1, trace=True)
    attempted, failures = check_passes(cfgs, [plain, t2, t1])
    configs = [cfg for _, cfg in cfgs]
    loaded = {p: json.loads(p.spans_path.read_text())
              for p in (t2, t1) if p.spans_path.exists()}
    if len(loaded) < 2 or "wall_s" not in plain.report:
        failures.setdefault((t2.dir.name, "*"), "traced pass did not finish")
        return attempted, failures, {}, []
    counts2 = spans.op_counts(loaded[t2], len(cfgs))
    counts1 = spans.op_counts(loaded[t1], len(cfgs))
    for (op, _), c2, c1 in zip(cfgs, counts2, counts1):
        if c2 != c1:
            failures.setdefault(
                (t1.dir.name, op["name"]),
                f"exact counts differ from threads 2: {c1} vs {c2}")
    exact = {op["name"]: dict(zip(spans.EXACT_COUNTS, c))
             for (op, _), c in zip(cfgs, counts2)}
    metrics = spans.layer_metrics(loaded[t2], configs)
    single = spans.layer_metrics(loaded[t1], configs)
    metrics["estimators.ns_per_replica_gen.t1"] = \
        single["estimators.ns_per_replica_gen"]
    metrics["estimators.thread_speedup"] = (
        single["estimators.s"][0] / max(metrics["estimators.s"][0], 1e-9),
        "ratio")
    metrics["cli.bytes_written"] = (
        sum(f.stat().st_size for out in t2.outs for f in out.iterdir()),
        "bytes")
    metrics["trace.wall_ratio"] = (
        t2.report["wall_s"] / plain.report["wall_s"], "ratio")
    notes = [_machine(plain.report),
             f"exact counts: {json.dumps(exact, sort_keys=True)}"]
    if t2.report["missing_hooks"]:
        notes.append(f"trace hooks missing: {t2.report['missing_hooks']}")
    return attempted, failures, metrics, notes


def _machine(report):
    v = report["versions"]
    return (f"machine: nproc={os.cpu_count()} python={v['python']} "
            f"numpy={v['numpy']} scipy={v['scipy']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bpve" / "cli.py").is_file():
        print(f"error: no bpve sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    cfgs = workloads.configs(args.workload, args.seed)
    for op, cfg in cfgs:
        (work / "configs" / f"{op['name']}.json").write_text(json.dumps(cfg))

    try:
        if args.trace:
            attempted, failures, metrics, notes = trace(work, cfgs)
        else:
            attempted, failures, metrics, notes = measure(work, cfgs,
                                                          args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in notes:
        print(line)
    for (tag, name), msg in failures.items():
        print(f"FAILED {tag}/{name}: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
