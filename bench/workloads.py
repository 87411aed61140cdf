"""Workload definitions and the correctness gate for each operation.

A workload is a fixed list of ``bpve run`` configs ("ops").  Every op's
master seed is shifted by the benchmark seed, so seed 0 reproduces the
seeds of ``tests/test_acceptance.py`` and any other seed gives fresh, still
deterministic replicas.  The environment seed is part of the workload and
stays fixed: the cost of a run on one quenched random environment depends
on that environment far more than on the replicas.  Each op carries the
check its ``results.json`` must pass; statistical checks allow ``Z_TOL``
standard errors, wide enough that a correct program almost never fails at
a new seed.
"""

from __future__ import annotations

import math

SEED_STRIDE = 1_000_003
Z_TOL = 4.5

# Experiments whose estimator runs on one quenched (fixed) environment.
QUENCHED = ("survival", "w_positivity", "l2", "halving", "flt")

GW_ENV = {"kind": "constant",
          "dist": {"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}}
HEAVY_ENV = {"preset": "heavy_tail_supercritical"}
GAUSSIAN_ENV = {"kind": "iid_random",
                "mixer": {"kind": "gaussian_logmean_geometric",
                          "mu": 0.0, "sigma": 0.5}}


def _logspace(lo: float, hi: float, num: int) -> list:
    return [10.0 ** (lo + (hi - lo) * i / (num - 1)) for i in range(num)]


def _num(v):
    """Decode the CLI's JSON spelling of non-finite floats."""
    return float(v) if isinstance(v, str) else v


# -- checks: each takes results.json as a dict, returns an error or None ---

def _near(name, value, target, se):
    if abs(value - target) > Z_TOL * se:
        return (f"{name} {value:.6g} differs from {target} by more than "
                f"{Z_TOL} SE ({se:.3g})")
    return None


def check_survival_half(res):
    est = res["survival"]
    return _near("survival", est["value"], 0.5, est["std_error"])


def check_l2(res):
    est = res["l2_increment"]
    return _near("E(W1-W0)^2", est["value"], 0.44, est["std_error"])


def check_plateau(res):
    chk = res["equality_check"]
    window = chk["plateau_window"]
    if window is None or window[1] / window[0] < 10.0 * (1 - 1e-9):
        return f"no decade-wide plateau (window {window})"
    se = chk["p_survive"]["std_error"]
    if abs(chk["gap"]) > Z_TOL * 2 * se:
        return f"plateau gap {chk['gap']:.3g} exceeds {Z_TOL}*2 SE"
    return None


def check_halving(res):
    h = res["halving"]
    if abs(h["bound"] - 0.1375) > 1e-9:
        return f"halving bound {h['bound']!r} != 0.1375"
    if not h["upper_confidence_99"] <= h["bound"]:
        return f"UCL {h['upper_confidence_99']:.5f} above bound {h['bound']}"
    return None


def check_flt(res):
    med = [s["median"] for s in res["path_spread"]]
    if not all(a > b for a, b in zip(med, med[1:])):
        return f"path-spread medians not strictly decreasing: {med}"
    return None


def check_survival_open(res):
    p = res["survival"]["value"]
    return None if 0.0 < p < 1.0 else f"survival {p} not in (0, 1)"


def check_critical(res):
    bad = [s["n"] for s in res["conditioned"] if s["inconclusive"]]
    return f"inconclusive at n={bad}" if bad else None


def check_verdict(expected, value=None):
    """Verdict must be ``expected``; a finite one must carry a tail bound
    and, when ``value`` is given, certify it to 1e-9."""
    def check(res):
        rep = res["report"]
        if rep["verdict"] != expected:
            return f"verdict {rep['verdict']!r}, expected {expected!r}"
        if expected == "finite":
            cert = _num(rep["partial_sum"]) + _num(rep["tail_bound"])
            if not math.isfinite(cert):
                return f"finite verdict with certified value {cert}"
            if value is not None and abs(cert - value) > 1e-9:
                return f"certified value {cert!r} != {value}"
        if expected == "divergent" and _num(rep["partial_sum"]) != math.inf:
            return f"divergent verdict with partial sum {rep['partial_sum']}"
        return None
    return check


def check_report_consistent(res):
    """Cooling environments have no closed form: the verdict depends on the
    drawn blocks, so only its internal consistency is checked."""
    rep = res["report"]
    tail = rep["tail_bound"]
    if rep["verdict"] == "finite":
        return None if tail is not None and math.isfinite(_num(tail)) \
            else "finite verdict without a finite tail bound"
    if rep["verdict"] in ("divergent", "inconclusive"):
        return None if tail is None else f"{rep['verdict']} with a tail bound"
    return f"unknown verdict {rep['verdict']!r}"


def check_tightness(expected_flag):
    def check(res):
        flag = res["tightness"]["blowup_flag"]
        return None if flag is expected_flag \
            else f"blow-up flag {flag}, expected {expected_flag}"
    return check


# -- workloads ---------------------------------------------------------------

def _op(name, experiment, env, base_seed, params, check, env_seed=1):
    return {"name": name, "experiment": experiment, "environment": env,
            "base_seed": base_seed, "env_seed": env_seed, "params": params,
            "check": check}


WORKLOADS = {
    "gw_quenched": [
        _op("survival", "survival", GW_ENV, 2024,
            {"n": 200, "replicas": 100000}, check_survival_half),
        _op("w_positivity", "w_positivity", GW_ENV, 2024,
            {"n": 200, "replicas": 100000, "eps_grid": _logspace(-4, -2, 13)},
            check_plateau),
        _op("l2", "l2", GW_ENV, 41,
            {"k": 1, "m": 1, "replicas": 1000000}, check_l2),
        _op("halving", "halving", GW_ENV, 77,
            {"k": 64, "start": 0, "horizon": 400, "replicas": 100000},
            check_halving),
        _op("flt", "flt", GW_ENV, 55,
            {"n_list": [64, 256, 1024], "replicas": 25000}, check_flt),
        _op("variance", "conditions", GW_ENV, 1,
            {"series": "variance", "horizon": 300},
            check_verdict("finite", 2.2)),
        _op("fractional_variance", "conditions", GW_ENV, 1,
            {"series": "fractional_variance", "delta": 0.25, "horizon": 300},
            check_verdict("finite")),
    ],
    "heavy_tail": [
        _op("w_positivity", "w_positivity", HEAVY_ENV, 3030,
            {"n": 200, "replicas": 10000, "eps_grid": _logspace(-8, -5, 13)},
            check_plateau),
        _op("fractional_variance", "conditions", HEAVY_ENV, 1,
            {"series": "fractional_variance", "delta": 0.25, "horizon": 200},
            check_verdict("finite")),
        _op("psi_power", "conditions", HEAVY_ENV, 1,
            {"series": "psi", "phi": {"power": 0.25}, "horizon": 8},
            check_verdict("finite")),
        _op("psi_log", "conditions", HEAVY_ENV, 1,
            {"series": "psi", "phi": {"log_power": 1}, "horizon": 8},
            check_verdict("finite")),
        _op("variance", "conditions", HEAVY_ENV, 1,
            {"series": "variance"}, check_verdict("divergent")),
        _op("moment_ratio", "conditions", HEAVY_ENV, 1,
            {"series": "moment_ratio"}, check_verdict("divergent")),
    ],
    "random_env": [
        _op("tightness_super", "tightness", {"preset": "supercritical_mu0.2"},
            88, {"l_grid": [1, 50, 100], "env_replicas": 200},
            check_tightness(False)),
        _op("tightness_sub", "tightness", {"preset": "subcritical_mu0.2"},
            88, {"l_grid": [1, 50, 100], "env_replicas": 200},
            check_tightness(True)),
        _op("critical_finite", "critical", {"preset": "critical_two_point"},
            90, {"n_list": [64, 128], "replicas": 60000}, check_critical),
        _op("critical_gaussian", "critical", GAUSSIAN_ENV,
            91, {"n_list": [64, 128], "replicas": 60000}, check_critical),
        _op("variance_cooling", "conditions",
            {"preset": "cooling_doubling_blocks"}, 1,
            {"series": "variance", "horizon": 2000}, check_report_consistent,
            env_seed=5),
        _op("fractional_super", "conditions", {"preset": "supercritical_mu0.2"},
            1, {"series": "fractional_variance", "delta": 0.25,
                "horizon": 200}, check_verdict("finite")),
        _op("survival", "survival", {"preset": "supercritical_mu0.2"},
            2024, {"n": 200, "replicas": 100000}, check_survival_open,
            env_seed=5),
    ],
}


def configs(workload: str, seed: int) -> list:
    """``(op, config)`` pairs of ``workload`` at benchmark seed ``seed``."""
    return [(op, {"experiment": op["experiment"],
                  "environment": op["environment"],
                  "env_seed": op["env_seed"],
                  "master_seed": op["base_seed"] + seed * SEED_STRIDE,
                  "params": op["params"]})
            for op in WORKLOADS[workload]]


def replica_generations(cfg: dict) -> int:
    """Replica-generations an op's estimator simulates, from its inputs."""
    p, exp = cfg["params"], cfg["experiment"]
    if exp in ("survival", "w_positivity"):
        return p["replicas"] * p["n"]
    if exp == "l2":
        return p["replicas"] * p["m"]
    if exp == "halving":
        return p["replicas"] * p["horizon"]
    if exp == "flt":
        return p["replicas"] * sum(p["n_list"])
    if exp == "critical":
        return p["replicas"] * max(p["n_list"])
    return 0
