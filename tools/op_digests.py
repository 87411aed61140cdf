"""sha256 digests of every benchmark op's outputs, to check that a change
keeps what bpve computes.

    python3 tools/op_digests.py

Runs each op of every workload in ``bench/workloads.py`` through ``bpve
run`` at benchmark seeds 0 and 1 and ``--threads`` 1 and 2 (80 runs),
with ``bpve`` imported from ``src/`` next to this directory, and prints
one line per run: workload, op, seed, threads, and the sha256 of its
``results.json`` and ``series.csv`` (``-`` when the op writes none).  The
last lines say whether every op's digests agree across thread counts,
and give one sha256 over all ``results.json`` lines.  Run it on two
checkouts and compare the output.  Exits 1 when a run fails or two
thread counts disagree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import bpve.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)
THREADS = (1, 2)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() \
        else "-"


def main() -> int:
    runs, failed = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for op, cfg in workloads.configs(workload, seed):
                    config = Path(tmp) / "config.json"
                    config.write_text(json.dumps(cfg))
                    for threads in THREADS:
                        out = Path(tmp) / f"{workload}-{op['name']}-{seed}-" \
                            f"{threads}"
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = bpve.cli.main([
                                "run", str(config), "--threads", str(threads),
                                "--out", str(out)])
                        failed |= code != 0
                        row = (digest(out / "results.json"),
                               digest(out / "series.csv"))
                        runs[workload, op["name"], seed, threads] = row
                        print(workload, op["name"], seed, threads, *row,
                              *([] if code == 0 else [f"exit {code}"]),
                              flush=True)
    by_op = {}
    for (workload, name, seed, _), row in runs.items():
        by_op.setdefault((workload, name, seed), set()).add(row)
    split = sorted(k for k, rows in by_op.items() if len(rows) > 1)
    print("threads agree:", "yes" if not split else f"no, {split}")
    every = "".join(f"{k} {row[0]}\n" for k, row in runs.items())
    print("results.json digest:", hashlib.sha256(every.encode()).hexdigest())
    return 1 if failed or split else 0


if __name__ == "__main__":
    sys.exit(main())
