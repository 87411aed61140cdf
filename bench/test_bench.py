"""Self-test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py

For every workload: two traced runs at one seed report identical exact
counts (each traced run also requires them to agree between threads 1 and
2), every per-layer metric is positive, and an untraced run at a second seed
passes every correctness check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

EXACT = "exact counts: "


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def exact_counts(log):
    line, = [ln for ln in log.splitlines() if ln.startswith(EXACT)]
    return json.loads(line[len(EXACT):])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat(workload):
    first, log1 = run_bench(workload, 0, trace=1)
    second, log2 = run_bench(workload, 0, trace=1)
    assert first["failed"] == 0, log1
    assert second["failed"] == 0, log2
    counts = exact_counts(log1)
    assert counts == exact_counts(log2)
    assert sum(c["distributions.totals_parents"] for c in counts.values()) > 0
    assert first["metrics"]["estimators.replica_gens"] == \
        second["metrics"]["estimators.replica_gens"]
    for name, metric in first["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_passes_checks(workload):
    result, log = run_bench(workload, 7, trace=0)
    assert result["correct"] and result["failed"] == 0, log
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
