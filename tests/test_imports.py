"""Checks that run in a fresh interpreter: what importing the CLI costs, and
that the benchmark's per-layer hooks still find every call boundary."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> str:
    prelude = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
               f"{str(ROOT / 'bench')!r}]\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_skips_scipy_stats():
    out = run_python("import bpve.cli\n"
                     "print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


def test_bench_tracer_finds_every_hook():
    out = run_python("import json, bpve, bpve.cli\n"
                     "from spans import Tracer\n"
                     "tracer = Tracer()\n"
                     "tracer.install(bpve)\n"
                     "print(json.dumps(tracer.missing))")
    assert json.loads(out) == []
