"""End-to-end acceptance checks.

Each test verifies one numbered claim about the toolkit at the stated
tolerance and prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) so the run log reads as a checklist.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from bpve import cli, conditions, estimators
from bpve.distributions import OffspringDistribution, PhiFunction
from bpve.environment import EnvironmentSpec, quench
from oracles import laws_of

THREADS = os.cpu_count() or 2


@pytest.fixture(scope="module")
def gw():
    d = OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5])
    return quench(EnvironmentSpec("constant", dists=(d,)), 1, 1100)


@pytest.fixture(scope="module")
def heavy():
    return quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 1, 210)


def report(capsys, num, ok, msg):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, msg


def test_criterion_01_closed_form_series(gw, capsys):
    vals = [conditions.variance_series(gw, start=l, horizon=300).certified_value
            for l in (1, 2, 17, 100)]
    ok = all(abs(v - 2.2) < 1e-9 for v in vals)
    report(capsys, 1, ok,
           f"certified series value 2.2 +/- 1e-9 at several starts "
           f"(max dev {max(abs(v - 2.2) for v in vals):.2e})")


def test_criterion_02_moment_ratio_comparison(gw, heavy, capsys):
    oracle = Fraction(2, 1) / (Fraction(5, 3) * Fraction(1, 1))
    term = laws_of(gw)[0].truncated_moment_ratio()
    heavy_ratio = conditions.moment_ratio_sup(heavy, horizon=5)
    frac = conditions.fractional_variance_series(heavy, start=1, delta=0.25,
                                                 horizon=200)
    ok = (abs(term - float(oracle)) < 1e-12
          and oracle == Fraction(6, 5)
          and heavy_ratio.verdict == "divergent"
          and math.isinf(heavy_ratio.partial_sum)
          and frac.verdict == "finite"
          and math.isfinite(frac.certified_value))
    report(capsys, 2, ok,
           f"moment ratio {term} == 6/5 exactly; heavy tail ratio infinite "
           f"while order-1.25 deviation series certifies "
           f"{frac.certified_value:.4f}")


def test_criterion_03_survival_positivity_equality(gw, capsys):
    surv = estimators.mc_survival(gw, 1, 200, 100000, 2024, threads=THREADS)
    eps = list(np.logspace(-4, -2, 13))
    chk = estimators.mc_w_positivity(gw, 1, 200, eps, 100000, 2024,
                                     threads=THREADS)
    dev = abs(surv.value - 0.5)
    ok_surv = dev < 3 * surv.std_error
    ok_plateau = (chk.plateau_window is not None
                  and chk.plateau_window[1] / chk.plateau_window[0] >= 10.0
                  and abs(chk.gap) < 3 * 2 * surv.std_error)
    report(capsys, 3, ok_surv and ok_plateau,
           f"survival {surv.value:.4f} vs 0.5 (3SE {3 * surv.std_error:.4f}); "
           f"plateau gap {chk.gap:.2e} over window {chk.plateau_window}")


def test_criterion_04_increment_identities(gw, capsys):
    inc = estimators.mc_l2_increment(gw, 1, 1, 10**6, 41, threads=THREADS)
    cov = estimators.mc_increment_covariance(gw, 1, 0, 2, 10**6, 42,
                                             threads=THREADS)
    ok_inc = abs(inc.value - 0.44) < 3 * inc.std_error
    ok_cov = abs(cov.value) < 3 * cov.std_error
    ok_span = True
    span_msg = []
    for m in (1, 10, 100):
        sp = estimators.mc_l2_span(gw, 1, 1, m, 200000, 43 + m,
                                   threads=THREADS)
        ok_span &= sp.value <= 2.2 + 3 * sp.std_error
        span_msg.append(f"m={m}:{sp.value:.3f}")
    report(capsys, 4, ok_inc and ok_cov and ok_span,
           f"E(W1-W0)^2={inc.value:.4f} (target 0.44), increment covariance "
           f"{cov.value:.1e}, spans {' '.join(span_msg)} all <= 2.2+3SE")


def test_criterion_05_halving_bound(gw, capsys):
    res = estimators.mc_halving_bound(gw, 64, 0, 400, 100000, 77,
                                      threads=THREADS)
    ok = (abs(res.bound - 0.1375) < 1e-9
          and res.upper_confidence <= 0.1375)
    report(capsys, 5, ok,
           f"halving probability UCL {res.upper_confidence:.4f} <= analytic "
           f"bound {res.bound:.4f}")


def test_criterion_06_path_spread_shrinks(gw, capsys):
    out = estimators.mc_flt_discrepancy(gw, [64, 256, 1024], 25000, 55,
                                        threads=THREADS)
    medians = [s.median for s in out]
    ok = (all(s.survivors >= 10**4 for s in out)
          and medians[0] > medians[1] > medians[2])
    report(capsys, 6, ok,
           f"conditional median path spread strictly decreasing: "
           f"{[round(v, 4) for v in medians]} with survivors "
           f"{[s.survivors for s in out]}")


def test_criterion_07_heavy_tail_regime(heavy, capsys):
    var = conditions.variance_series(heavy, start=1, horizon=50)
    frac = conditions.fractional_variance_series(heavy, start=1, delta=0.25,
                                                 horizon=200)
    d = laws_of(heavy)[0]
    assert d.mean > 1.0
    # the heavy-tail law puts slowly decaying mass near zero, so the flat
    # window of the exceedance curve sits at smaller thresholds
    eps = list(np.logspace(-8, -5, 13))
    chk = estimators.mc_w_positivity(heavy, 1, 200, eps, 100000, 3030,
                                     threads=THREADS)
    ok = (var.verdict == "divergent"
          and frac.verdict == "finite"
          and chk.plateau_window is not None
          and abs(chk.gap) < 3 * 2 * chk.p_survive.std_error)
    report(capsys, 7, ok,
           f"variance series divergent, delta=0.25 series finite "
           f"({frac.certified_value:.3f}); survival {chk.p_survive.value:.4f} "
           f"matches plateau (gap {chk.gap:.2e})")


def test_criterion_08_tightness_dichotomy(capsys):
    stable = conditions.tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"}),
        [1, 50, 100], 200, seed=88)
    blowup = conditions.tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "subcritical_mu0.2"}),
        [1, 50, 100], 200, seed=88)
    ok = (not stable.blowup_flag) and blowup.blowup_flag
    report(capsys, 8, ok,
           f"supercritical flag {stable.blowup_flag} (quantiles "
           f"{[round(float(v), 2) for v in stable.rows[-1]]}), subcritical flag "
           f"{blowup.blowup_flag}")


def test_criterion_09_critical_stabilization(capsys):
    out = estimators.mc_conditioned_critical(
        EnvironmentSpec.from_config({"preset": "critical_two_point"}),
        [64, 128], 60000, 90, threads=THREADS)
    m64, m128 = out[0].median_w, out[1].median_w
    factor = max(m64, m128) / min(m64, m128)
    ok = (factor < 2.0 and out[1].survivors >= 500
          and not out[1].inconclusive)
    report(capsys, 9, ok,
           f"conditional median {m64:.3f} -> {m128:.3f} (factor "
           f"{factor:.2f} < 2) with {out[1].survivors} survivors at n=128")


def test_criterion_10_thread_determinism(tmp_path, capsys):
    payload = {
        "experiment": "w_positivity",
        "environment": {"kind": "constant",
                        "dist": {"kind": "finite_pmf",
                                 "pmf": [0.25, 0.25, 0.5]}},
        "master_seed": 2024,
        "params": {"n": 120, "replicas": 50000},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    outs = []
    for threads in (1, THREADS if THREADS > 1 else 3):
        out = tmp_path / f"t{threads}"
        code = cli.main(["run", str(cfg), "--threads", str(threads),
                         "--out", str(out)])
        assert code == 0
        outs.append((out / "results.json").read_bytes())
    ok = outs[0] == outs[1]
    report(capsys, 10, ok,
           "results.json bitwise identical across thread counts")
