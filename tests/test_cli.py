import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from bpve import cli, estimators
from bpve.cli import main
from bpve.environment import PRESET_CONFIGS


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "critical_two_point" in out
    assert "heavy_tail_supercritical" in out
    # every line parses back to the config it prints
    printed = dict(line.split(": ", 1) for line in out.splitlines())
    assert sorted(printed) == sorted(PRESET_CONFIGS)
    for name, cfg in printed.items():
        assert json.loads(cfg) == PRESET_CONFIGS[name]


def test_run_conditions(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"kind": "constant",
                        "dist": {"kind": "finite_pmf",
                                 "pmf": [0.25, 0.25, 0.5]}},
        "params": {"horizon": 300},
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    rep = results["report"]
    assert rep["verdict"] == "finite"
    assert abs(rep["partial_sum"] + rep["tail_bound"] - 2.2) < 1e-9
    assert results["config_digest"]
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["params"]["series"] == "variance"
    assert resolved["master_seed"] == 12345


def test_run_survival_round_trip(tmp_path):
    payload = {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "env_seed": 3,
        "master_seed": 7,
        "params": {"n": 30, "replicas": 5000},
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--threads", "1", "--out", str(out1)]) == 0
    assert main(["run", cfg, "--threads", "6", "--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() == \
        (out2 / "results.json").read_bytes()
    # re-running the emitted resolved config reproduces the results
    cfg2 = write_config(tmp_path, json.loads(
        (out1 / "resolved_config.json").read_text()), "resolved.json")
    out3 = tmp_path / "c"
    assert main(["run", cfg2, "--out", str(out3)]) == 0
    assert (out3 / "results.json").read_bytes() == \
        (out1 / "results.json").read_bytes()


def test_run_w_positivity_writes_series(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "w_positivity",
        "environment": {"kind": "constant",
                        "dist": {"kind": "finite_pmf",
                                 "pmf": [0.25, 0.25, 0.5]}},
        "params": {"n": 40, "replicas": 4000},
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    series = (out / "series.csv").read_text().splitlines()
    assert series[0].startswith("# config_digest=")
    assert series[1] == "eps,p_above,std_error"
    assert len(series) > 3


def test_schema_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, {"experiment": "nope"})
    assert main(["run", bad]) == 2
    unknown_key = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 10, "replicas": 100, "bogus": 1},
    }, "k.json")
    assert main(["run", unknown_key]) == 2
    bad_env = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"kind": "constant"},
        "params": {},
    }, "e.json")
    assert main(["run", bad_env]) == 2
    not_json = tmp_path / "nj.json"
    not_json.write_text("{")
    assert main(["run", str(not_json)]) == 2


def test_not_applicable_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "halving",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"k": 8, "horizon": 30, "replicas": 100},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("params", [
    # an empty span of generations, whose running minimum of log W is +inf
    {"k": 8, "horizon": 0, "replicas": 100},
    {"k": 8, "start": 3, "horizon": 0, "replicas": 100},
])
def test_halving_over_no_generation_halves_nothing(tmp_path, params):
    cfg = write_config(tmp_path, {
        "experiment": "halving",
        "environment": {"kind": "constant", "dist": {
            "kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}},
        "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    estimate = json.loads((tmp_path / "o" / "results.json").read_text()
                          )["halving"]["estimate"]
    assert (estimate["value"], estimate["replicas"]) == (0.0, 100)


def test_digest_mismatch_refused(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 10, "replicas": 500},
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    cfg2 = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 11, "replicas": 500},
    }, "cfg2.json")
    assert main(["run", cfg2, "--out", str(out)]) == 3


def test_out_dir_from_environment_variable(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 10, "replicas": 500},
    })
    target = tmp_path / "envdir"
    monkeypatch.setenv("BPVE_OUT_DIR", str(target))
    assert main(["run", cfg]) == 0
    assert (target / "results.json").exists()


def test_run_tightness_and_critical(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "tightness",
        "environment": {"preset": "subcritical_mu0.2"},
        "params": {"l_grid": [1, 20, 40], "env_replicas": 30},
    })
    out = tmp_path / "t"
    assert main(["run", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert res["tightness"]["blowup_flag"] is True
    lines = (out / "series.csv").read_text().splitlines()[1:]
    assert lines[0] == "l,q10,q50,q90,flag"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "20", "40"]

    cfg2 = write_config(tmp_path, {
        "experiment": "critical",
        "environment": {"preset": "critical_two_point"},
        "params": {"n_list": [8, 16], "replicas": 4000,
                   "min_survivors": 50},
    }, "crit.json")
    out2 = tmp_path / "c"
    assert main(["run", cfg2, "--out", str(out2)]) == 0
    res2 = json.loads((out2 / "results.json").read_text())
    assert len(res2["conditioned"]) == 2


def test_critical_requires_random_environment(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "critical",
        "environment": {"kind": "constant",
                        "dist": {"kind": "geometric", "mean": 1.0}},
        "params": {"n_list": [8], "replicas": 100},
    })
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize("experiment,environment,params,code", [
    # a second generation of 1e11 * 1e11 would pass int64: log scale instead
    ("survival", {"kind": "constant",
                  "dist": {"kind": "geometric", "mean": 1e11}},
     {"n": 5, "replicas": 200}, 0),
    # log-means up to ~40 put p = 1 - q beyond numpy's negative binomial
    ("critical", {"kind": "iid_random",
                  "mixer": {"kind": "gaussian_logmean_geometric",
                            "mu": 3.0, "sigma": 8.0}},
     {"n_list": [4, 8], "replicas": 500, "min_survivors": 10}, 0),
    # q = mean / (1 + mean) rounds to 1: no such geometric law
    ("survival", {"kind": "constant",
                  "dist": {"kind": "geometric", "mean": 1e18}},
     {"n": 5, "replicas": 200}, 2),
    # refused before the blocks are listed, which did not end within 60 s
    ("survival", {"preset": "critical_two_point"},
     {"n": 5, "replicas": 10**30}, 3),
    # refused before the environment seeds are listed, which did not end
    ("tightness", {"preset": "critical_two_point"},
     {"l_grid": [1, 5], "env_replicas": 10**30}, 3),
    # an immortal line: a run past the quench budget did not end
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "finite", "dists": [{"kind": "finite_pmf", "pmf": [0, 1]}],
        "weights": [1.0]}},
     {"n_list": [10**12], "replicas": 100}, 3),
])
def test_huge_populations_end_in_documented_exit_codes(tmp_path, experiment,
                                                       environment, params,
                                                       code):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "environment": environment,
                                  "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code


@pytest.mark.parametrize("kind", ["iid_random", "cooling"])
@pytest.mark.parametrize("mu,sigma", [(-800, 0), (800, 0), (0, 1e300)])
def test_quenched_and_annealed_runs_refuse_the_same_draws(tmp_path, capsys,
                                                         kind, mu, sigma):
    # each path refuses its first draw through the geometric law's own
    # checks; the annealed run used to take q = 0 for an underflowing mean
    # and exit 0.  At sigma 1e300 the three runs take their first normal
    # from different streams, so its sign, and the message, may differ
    outcomes = set()
    for experiment, params in [
            ("survival", {"n": 8, "replicas": 200}),
            ("tightness", {"l_grid": [1, 5], "env_replicas": 4}),
            ("critical", {"n_list": [8], "replicas": 200})]:
        cfg = write_config(tmp_path, {
            "experiment": experiment, "params": params,
            "environment": {"kind": kind, "mixer": {
                "kind": "gaussian_logmean_geometric", "mu": mu,
                "sigma": sigma}}}, f"{experiment}.json")
        code = main(["run", cfg, "--out", str(tmp_path / experiment)])
        outcomes.add((code, capsys.readouterr().err))
    assert len(outcomes) == 1 or sigma > 0, outcomes
    for code, err in outcomes:
        assert code == 2 and err.startswith("error: geometric mean")


TINY_ALPHA = {"kind": "power_law_tail", "alpha": 1e-9, "p0": 0.2}


@pytest.mark.parametrize("environment,params,code,message", [
    # a mean of 4.9e8 needs an exact moment head of 2^30 terms; both ran
    # past 15 s
    ({"kind": "constant", "dist": TINY_ALPHA},
     {"series": "fractional_variance", "delta": 1e-10, "horizon": 10}, 4,
     "power_law_tail, alpha=1e-09, p0=0.2) has mean 4.86e+08"),
    ({"kind": "constant", "dist": TINY_ALPHA},
     {"series": "psi", "phi": {"log_power": 2}, "horizon": 10}, 4,
     "power_law_tail, alpha=1e-09, p0=0.2) has mean 4.86e+08"),
    # the largest head misses this tol, and its value was called finite
    ({"preset": "heavy_tail_supercritical"},
     {"series": "fractional_variance", "delta": 0.25, "horizon": 20,
      "tol": 1e-300}, 4, "power_law_tail, alpha=0.5, p0=0.2): a moment's "
     "error bound"),
    # overflowing deviations gave a "nan" partial sum, a run past 20 s, and
    # an "infinite deviation moment" for a law that variance refuses
    ({"kind": "constant", "dist": {"kind": "geometric", "mean": 1e-300}},
     {"series": "fractional_variance", "delta": 0.5, "horizon": 5}, 2,
     "geometric, mean=1e-300): its deviation moment of order 1.5 is nan"),
    ({"kind": "constant", "dist": {"kind": "poisson", "lam": 5e-324}},
     {"series": "fractional_variance", "delta": 0.5, "horizon": 5}, 2,
     "poisson, lam=5e-324): its deviation moment of order 1.5 is nan"),
    ({"kind": "constant", "dist": {"kind": "poisson", "lam": 5e-324}},
     {"series": "psi", "horizon": 5}, 2,
     "poisson, lam=5e-324): its deviation moment of order 2 is nan"),
    ({"kind": "constant",
      "dist": {"kind": "finite_pmf", "pmf": [1.0, 1e-300]}},
     {"series": "fractional_variance", "delta": 0.5, "horizon": 5}, 2,
     "finite_pmf, pmf=[1.0, 1e-300]): its deviation moment of order 1.5 "
     "is inf"),
    # light laws whose certified head passes 2^22 terms; the uncertified sum
    # gave 0 for the first and an unchecked number for the second
    ({"kind": "constant", "dist": {"kind": "poisson", "lam": 1e9}},
     {"series": "fractional_variance", "delta": 0.5, "horizon": 5}, 4,
     "poisson, lam=1000000000.0) has mean 1e+09"),
    ({"kind": "constant", "dist": {"kind": "geometric", "mean": 1e6}},
     {"series": "fractional_variance", "delta": 0.5, "horizon": 5}, 4,
     "geometric, mean=1000000.0): a moment's error bound"),
    # 1 + alpha rounds to 1: refused as zeta(1.0, 1.0), naming no field
    ({"kind": "constant",
      "dist": {"kind": "power_law_tail", "alpha": 1e-300, "p0": 0.2}},
     {"series": "variance", "horizon": 5}, 2,
     "tail exponent alpha 1e-300 is too small"),
    # zeta(2 + alpha) summed ceil(11 + alpha) terms and never returned; the
    # law is P(X=1) = 0.8, P(X=0) = 0.2, and its series runs to a verdict
    ({"kind": "constant",
      "dist": {"kind": "power_law_tail", "alpha": 1e300, "p0": 0.2}},
     {"series": "variance", "horizon": 5}, 0, ""),
    # the moment remainder's Euler-Maclaurin factor overflowed from alpha
    # 3e6, and at 1e300 its tail quadrature warned: "resource error", exit 3
    ({"kind": "constant",
      "dist": {"kind": "power_law_tail", "alpha": 3e6, "p0": 0.2}},
     {"series": "fractional_variance", "delta": 0.25, "horizon": 20}, 0, ""),
    # with tol * 1e-3 = 0 no rest is negligible, and that factor overflowed
    # at the first head: "resource error", exit 3
    ({"kind": "constant",
      "dist": {"kind": "power_law_tail", "alpha": 3e6, "p0": 0.2}},
     {"series": "fractional_variance", "delta": 0.25, "horizon": 20,
      "tol": 5e-324}, 0, ""),
    ({"kind": "constant",
      "dist": {"kind": "power_law_tail", "alpha": 1e300, "p0": 0.2}},
     {"series": "psi", "phi": {"power": 0.5, "log_power": 1}, "horizon": 20},
     0, ""),
    # the pure-log psi tail's powers of x / 2 overflowed in numpy: a warning,
    # and an inconclusive verdict only without -W error
    ({"kind": "constant", "dist": {"kind": "geometric", "mean": 1.0001}},
     {"series": "psi", "phi": {"log_power": 100}, "horizon": 8}, 0, ""),
    ({"kind": "constant", "dist": {"kind": "geometric", "mean": 1.01}},
     {"series": "psi", "phi": {"log_power": 150}, "horizon": 8}, 0, ""),
    # the tail quadrature's integrand overflowed: a NaN error bound, which
    # grew the head to 2^22 terms before the refusal
    ({"preset": "heavy_tail_supercritical"},
     {"series": "psi", "phi": {"power": 0.001, "log_power": 200},
      "horizon": 8}, 4,
     "power_law_tail, alpha=0.5, p0=0.2): a moment's remainder inf"),
    # every term fits a float, but the pure-log tail's log-moment of power
    # 401 or 201 does not: that refusal leaves no tail bound, so the verdict
    # is inconclusive; they were exit 2 ("moment of order 1 is inf") and 4
    ({"kind": "constant", "dist": {"kind": "geometric", "mean": 50}},
     {"series": "psi", "phi": {"log_power": 200}, "horizon": 8}, 0, ""),
    ({"preset": "heavy_tail_supercritical"},
     {"series": "psi", "phi": {"log_power": 100}, "horizon": 8}, 0, ""),
])
def test_extreme_laws_end_in_documented_exit_codes(tmp_path, capsys,
                                                   environment, params, code,
                                                   message):
    cfg = write_config(tmp_path, {"experiment": "conditions",
                                  "environment": environment,
                                  "params": params})
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code
    assert time.perf_counter() - start < 10.0
    assert [str(w.message) for w in caught] == []
    assert message in capsys.readouterr().err
    assert (tmp_path / "o" / "results.json").exists() == (code == 0)


@pytest.mark.parametrize("params", [
    pytest.param({"series": "variance"}, id="variance"),
    pytest.param({"series": "psi"}, id="psi"),
    # u * damping overflowed in the moment's log(1 + u * damping), and the
    # moment came out "nan": exit 2
    pytest.param({"series": "psi", "phi": {"log_power": 1}},
                 id="psi_log_power"),
])
def test_vanishing_mean_series_are_divergent(tmp_path, params):
    # S_g - S_1 falls by 23 per generation, so the damping of the first
    # omitted psi term overflowed: "math range error", exit 3
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"kind": "constant",
                        "dist": {"kind": "geometric", "mean": 1e-10}},
        "params": {**params, "horizon": 100}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == []
    text = (tmp_path / "o" / "results.json").read_text()
    assert "nan" not in text
    assert json.loads(text)["report"]["verdict"] == "divergent"


@pytest.mark.parametrize("experiment,params", [
    ("conditions", {"series": "psi", "phi": {"log_power": 1}, "horizon": 150}),
    ("conditions", {"series": "psi", "phi": {"power": 0.5}, "horizon": 150}),
    ("conditions", {"series": "psi", "phi": {"power": 0.5, "log_power": 1},
                    "horizon": 150}),
    ("tightness", {"series": "psi", "phi": {"log_power": 1},
                   "l_grid": [1, 150], "env_replicas": 2}),
], ids=["psi_log", "psi_power", "psi_power_log", "tightness_psi_log"])
def test_psi_with_underflowing_damping_is_finite(tmp_path, experiment,
                                                 params):
    # the mean is 1000, so the damping exp(-(S_g - S_1)) underflows to 0 at
    # generation 110: psi exited 2 with "scale must be positive", and the
    # pure log-power tail, split at log(1/damping) = inf, certified 0.0
    cfg = write_config(tmp_path, {
        "experiment": experiment,
        "environment": {"kind": "constant",
                        "dist": {"kind": "finite_pmf",
                                 "pmf": [0.5] + [0.0] * 1999 + [0.5]}},
        "params": params})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == []
    res = json.loads((tmp_path / "o" / "results.json").read_text())
    if experiment == "tightness":
        assert all(math.isfinite(q) for row in res["tightness"]["quantiles"]
                   for q in row)
    else:
        assert res["report"]["verdict"] == "finite"
        assert res["report"]["tail_bound"] > 0


@pytest.mark.parametrize("phi", [{"power": 0.5},
                                 {"power": 0.5, "log_power": 1}],
                         ids=["power", "power_log"])
def test_psi_infinite_moment_under_underflowed_damping_is_divergent(
        tmp_path, phi):
    # generation 121 has E U^1.5 = inf, but its damping has underflowed to
    # 0: the power-log term read 0 there and the verdict was "finite"
    light = {"kind": "finite_pmf", "pmf": [0.5] + [0.0] * 1999 + [0.5]}
    heavy = {"kind": "power_law_tail", "alpha": 0.5, "p0": 0.2}
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"kind": "explicit_sequence",
                        "dists": [light] * 120 + [heavy] + [light] * 101},
        "params": {"series": "psi", "phi": phi, "horizon": 220}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    res = json.loads((tmp_path / "o" / "results.json").read_text())
    assert res["report"]["verdict"] == "divergent"


def test_fractional_variance_at_delta_one_is_the_variance_series(tmp_path):
    # the light-tail moment stopped at its first block, and this law's
    # fractional_variance was "finite" with a partial sum of 1.3e-41
    reports = []
    for params in ({"series": "fractional_variance", "delta": 1},
                   {"series": "variance"}):
        out = tmp_path / params["series"]
        cfg = write_config(tmp_path, {
            "experiment": "conditions",
            "environment": {"kind": "constant",
                            "dist": {"kind": "poisson", "lam": 5000}},
            "params": {**params, "horizon": 50}})
        assert main(["run", cfg, "--out", str(out)]) == 0
        reports.append(json.loads((out / "results.json").read_text())["report"])
    assert [r["verdict"] for r in reports] == ["finite", "finite"]
    assert reports[0]["partial_sum"] == pytest.approx(
        reports[1]["partial_sum"], rel=1e-9)


@pytest.mark.parametrize("environment", [
    {"preset": "critical_two_point"},
    {"kind": "iid_random", "mixer": {"kind": "gaussian_logmean_geometric",
                                     "mu": 0.0, "sigma": 0.5}},
    {"kind": "cooling", "mixer": PRESET_CONFIGS["critical_two_point"]["mixer"]},
], ids=["finite", "gaussian", "cooling"])
def test_annealed_runs_do_not_depend_on_threads(tmp_path, environment):
    # two blocks of replicas, each drawing environments for its live rows
    cfg = write_config(tmp_path, {
        "experiment": "critical", "environment": environment,
        "params": {"n_list": [8, 24], "replicas": 40000,
                   "min_survivors": 50}})
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["run", cfg, "--threads", str(threads),
                     "--out", str(out)]) == 0
        outputs.append((out / "results.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_population_overflow_exit_code(tmp_path, monkeypatch):
    from bpve import estimators
    from bpve.distributions import PopulationOverflowError

    def overflow(*args, **kwargs):
        raise PopulationOverflowError(50.0)
    monkeypatch.setattr(estimators, "mc_survival", overflow)
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 10, "replicas": 100},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("module,name,exc,message", [
    (cli, "quench", MemoryError(), "quenching 10 generations"),
    (estimators, "mc_survival", MemoryError(), "running survival"),
    (estimators, "mc_survival", MemoryError("Unable to allocate 8.00 GiB"),
     "running survival: Unable to allocate 8.00 GiB")])
def test_out_of_memory_names_the_step(tmp_path, capsys, monkeypatch, module,
                                      name, exc, message):
    # a MemoryError raised while allocating has no text, or only a size
    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(module, name, exhausted)
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": {"n": 10, "replicas": 100},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        f"resource error: out of memory {message}\n"


@pytest.mark.parametrize("replicas,code,message", [
    (0, 2, "error: need at least one replica\n"),
    (10**9, 3, "resource error: 1000000000 replicas exceed the in-memory "
               "budget (100000000)\n")], ids=["none", "past_budget"])
def test_replica_count_is_refused_before_the_quench(
        tmp_path, capsys, monkeypatch, replicas, code, message):
    # the refusal came after quenching 5x10^6 generations (2.5 s, 278 MB)
    def quench(*args, **kwargs):
        raise AssertionError("quenched before the replica count was checked")
    monkeypatch.setattr(cli, "quench", quench)
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "supercritical_mu0.2"},
        "params": {"n": 5 * 10**6, "replicas": replicas}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("top,params,field", [
    ({}, {"n": "abc"}, "params(survival): n: expected integer"),
    ({"master_seed": "x"}, {"n": 10, "replicas": 100},
     "config: master_seed: expected integer"),
])
def test_ill_typed_value_is_schema_error(tmp_path, capsys, top, params, field):
    cfg = write_config(tmp_path, {
        "experiment": "survival",
        "environment": {"preset": "critical_two_point"},
        "params": params, **top,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("experiment,environment,params", [
    # the mean's square underflows, so the variance cannot be normalized
    ("conditions", {"kind": "constant",
                    "dist": {"kind": "geometric", "mean": 1e-200}},
     {"horizon": 5}),
    ("halving", {"preset": "supercritical_mu0.2"},
     {"k": 0, "horizon": 5, "replicas": 100}),
    ("l2", {"preset": "supercritical_mu0.2"}, {"k": 0, "replicas": 100}),
    # no checkpoint to run to
    ("critical", {"preset": "critical_two_point"},
     {"n_list": [], "replicas": 200}),
    # a generation before the start has no recorded value
    ("critical", {"preset": "critical_two_point"},
     {"n_list": [-3, 8], "replicas": 200}),
    # non-finite mixer and phi values used to run to a meaningless exit 0
    ("conditions", {"kind": "iid_random", "mixer": {
        "kind": "finite", "weights": [math.nan, 1.0], "dists": [
            {"kind": "geometric", "mean": 2.0},
            {"kind": "geometric", "mean": 0.5}]}}, {"horizon": 20}),
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "finite", "weights": [math.nan, 1.0], "dists": [
            {"kind": "geometric", "mean": 2.0},
            {"kind": "geometric", "mean": 0.5}]}},
     {"n_list": [8], "replicas": 200}),
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": math.nan, "sigma": 0.5}},
     {"n_list": [8], "replicas": 200}),
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": 0.0, "sigma": math.nan}},
     {"n_list": [8], "replicas": 200}),
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": 0.0, "sigma": math.inf}},
     {"n_list": [8], "replicas": 200}),
    ("conditions", {"preset": "heavy_tail_supercritical"},
     {"series": "psi", "phi": {"power": math.nan}, "horizon": 4}),
    ("conditions", {"preset": "heavy_tail_supercritical"},
     {"series": "psi", "phi": {"power": math.inf}, "horizon": 4}),
    ("conditions", {"preset": "heavy_tail_supercritical"},
     {"series": "psi", "phi": {"log_power": math.nan}, "horizon": 4}),
] + [
    # these schedules ended in an IndexError or TypeError traceback
    (experiment, {"kind": "cooling", "schedule": schedule,
                  "mixer": PRESET_CONFIGS["critical_two_point"]["mixer"]},
     params)
    for experiment, params in [("conditions", {"horizon": 5}),
                               ("critical", {"n_list": [8], "replicas": 200})]
    for schedule in ([], [math.nan], [2.5])
] + [
    # a Gaussian log-mean whose exponential overflows gives a geometric law
    # of infinite mean, refused on the annealed and the quenched path alike
    ("critical", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": 800, "sigma": 0}},
     {"n_list": [8], "replicas": 200}),
    ("survival", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": 800, "sigma": 0}},
     {"n": 8, "replicas": 200}),
    ("tightness", {"kind": "iid_random", "mixer": {
        "kind": "gaussian_logmean_geometric", "mu": 0, "sigma": 1e300}},
     {"l_grid": [1, 5], "env_replicas": 4}),
] + [
    # an ancestor count beyond int64 ended in a resource error (exit 3)
    (experiment, {"preset": preset}, {**params, key: 10**30})
    for experiment, preset, key, params in [
        ("survival", "critical_two_point", "z0", {"n": 8, "replicas": 200}),
        ("critical", "critical_two_point", "z0",
         {"n_list": [8], "replicas": 200}),
        ("halving", "supercritical_mu0.2", "k", {"replicas": 100}),
        ("l2", "supercritical_mu0.2", "k", {"replicas": 100})]
] + [
    # equal truncations never grow by blowup_factor, so a repeated entry
    # turned this blow-up flag off, with exit 0
    ("tightness", {"preset": "subcritical_mu0.2"},
     {"l_grid": [1, 50, 50, 100], "env_replicas": 200}),
])
def test_refused_values_are_schema_errors(tmp_path, experiment, environment,
                                          params):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "environment": environment,
                                  "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("series", ["jagers", "moment_ratio"])
def test_whole_range_series_refuse_start(tmp_path, capsys, series):
    # these sum from generation 1; a start of 50 was recorded but ignored
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"series": series, "start": 50, "horizon": 5}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "params(conditions): start" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


def test_unknown_conditions_series_is_schema_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"series": "nope", "horizon": 5}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "params(conditions): series must be one of" \
        in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


def test_flt_without_survivors_writes_nan_quantiles(tmp_path):
    # every replica of this subcritical law dies within 16 generations
    cfg = write_config(tmp_path, {
        "experiment": "flt",
        "environment": {"kind": "constant",
                        "dist": {"kind": "finite_pmf", "pmf": [0.9, 0.1]}},
        "params": {"n_list": [16, 64], "replicas": 1000}})
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    spread = json.loads((out / "results.json").read_text())["path_spread"]
    assert spread == [{"n": n, "survivors": 0, "median": "nan", "q90": "nan"}
                      for n in (16, 64)]
    rows = (out / "series.csv").read_text().splitlines()[1:]
    assert rows == ["n,survivors,median,q90", "16,0,nan,nan", "64,0,nan,nan"]


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_conditions_tol_must_be_positive_finite(tmp_path, capsys, tol):
    # such a tol can never be met: the moment head grew to its maximum, and
    # a NaN was written to resolved_config.json as "nan", which re-running
    # refused
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"series": "psi", "phi": {"log_power": 1}, "horizon": 8,
                   "tol": tol}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "params(conditions): tol" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


@pytest.mark.parametrize("params,field", [
    ({"n_list": []}, "n_list"),
    ({"grid_size": 0}, "grid_size"),
    ({"grid_size": -2}, "grid_size"),
    ({"n_list": [-3, 8]}, "n_list"),
    ({"n_list": [0]}, "n_list"),
])
def test_flt_refusals_name_the_field(tmp_path, capsys, params, field):
    cfg = write_config(tmp_path, {
        "experiment": "flt", "environment": {"preset": "critical_two_point"},
        "params": {"replicas": 100, **params}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"params(flt): {field}" in capsys.readouterr().err


@pytest.mark.parametrize("params,message", [
    # the same values the conditions experiment refuses
    ({"series": "fractional_variance", "delta": 0.0},
     "delta must lie in (0, 1]"),
    ({"series": "fractional_variance", "delta": -1.0},
     "delta must lie in (0, 1]"),
    ({"series": "fractional_variance", "delta": float("nan")},
     "delta must lie in (0, 1]"),
    ({"blowup_factor": float("nan")}, "blowup_factor"),
    ({"blowup_factor": 0.0}, "blowup_factor"),
    ({"blowup_factor": float("inf")}, "blowup_factor"),
])
def test_tightness_refusals(tmp_path, capsys, params, message):
    cfg = write_config(tmp_path, {
        "experiment": "tightness",
        "environment": {"preset": "supercritical_mu0.2"},
        "params": {"l_grid": [1, 5], "env_replicas": 4, **params}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


@pytest.mark.parametrize("params,generation", [
    ({"series": "variance"}, 1),
    ({"series": "fractional_variance", "delta": 0.75}, 1),
    ({"series": "psi", "phi": {"power": 1}}, 2),
])
def test_tightness_on_infinite_terms_is_not_applicable(tmp_path, capsys,
                                                       params, generation):
    # the matching checkers call these series divergent; their partial sums
    # have no quantiles
    cfg = write_config(tmp_path, {
        "experiment": "tightness",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"l_grid": [1, 5], "env_replicas": 4, **params}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 4
    assert f"environment 0 has a {params['series']} term of inf at " \
        f"generation {generation}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


@pytest.mark.parametrize("eps_grid", [
    [0.001, 0.01, float("inf")],
    [float("nan"), 0.01, 0.1],
    [0.0, 0.01, 0.1],
    [],
])
def test_w_positivity_refuses_thresholds_that_are_not_positive_finite(
        tmp_path, capsys, eps_grid):
    cfg = write_config(tmp_path, {
        "experiment": "w_positivity",
        "environment": {"preset": "supercritical_mu0.2"},
        "params": {"n": 5, "replicas": 100, "eps_grid": eps_grid}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "eps_grid" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


def test_l2_refuses_one_replica_without_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "l2", "environment": {"preset": "supercritical_mu0.2"},
        "params": {"replicas": 1}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    assert "replicas must be >= 2" in capsys.readouterr().err


def test_vanishing_mean_refusal_emits_no_warning(tmp_path):
    # S_g - S_1 of a geometric law with mean 1e-200 is about -460 per
    # generation, so its damping exp(-(S_g - S_1)) overflows to inf
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"kind": "constant",
                        "dist": {"kind": "geometric", "mean": 1e-200}},
        "params": {"horizon": 5}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []


def test_moment_ratio_with_vanishing_denominator_is_not_applicable(tmp_path):
    # E(X; X>=2) rounds to zero for this law
    dist = {"kind": "linear_fractional", "p0": 0.775932156001901,
            "q": 1.1361101846983157e-119}
    cfg = write_config(tmp_path, {
        "experiment": "conditions",
        "environment": {"kind": "constant", "dist": dist},
        "params": {"series": "moment_ratio", "horizon": 5},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["report"]["detail"]["not_applicable"]


HEAVY_LAW = {"kind": "power_law_tail", "alpha": 0.5, "p0": 0.2}


@pytest.mark.parametrize("experiment,environment,params,code,message", [
    # generation 1's infinite variance is found first; the law of
    # generation 2 is never evaluated, so its refusal does not decide
    ("l2", {"kind": "explicit_sequence",
            "dists": [HEAVY_LAW, {"kind": "geometric", "mean": 1e-200}]},
     {"m": 2, "replicas": 100}, 4, "generation 1 has infinite variance"),
    # generation 1 has no defined ratio and generation 2 an infinite one;
    # generation 3 is never counted
    ("conditions", {"kind": "periodic",
                    "dists": [{"kind": "finite_pmf", "pmf": [0, 1]},
                              HEAVY_LAW,
                              {"kind": "finite_pmf",
                               "pmf": [0.25, 0.25, 0.5]}]},
     {"series": "moment_ratio", "horizon": 3}, 0,
     "infinite moment ratio at generation 2"),
])
def test_first_failing_generation_decides(tmp_path, capsys, experiment,
                                          environment, params, code, message):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "environment": environment,
                                  "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code
    if code:
        assert message in capsys.readouterr().err
        return
    detail = json.loads((tmp_path / "o" / "results.json").read_text()
                        )["report"]["detail"]
    assert detail == {"defined_terms": 1, "reason": message}


def test_flt_grid_memory_does_not_grow_with_grid_size(tmp_path):
    # a grid of 10^9 points over 3 generations used to allocate 7.45 GiB;
    # the run is a subprocess under a 1 GiB address-space limit, so a
    # regression fails this test alone
    cfg = write_config(tmp_path, {
        "experiment": "flt", "environment": {"preset": "supercritical_mu0.2"},
        "params": {"n_list": [4], "replicas": 200, "grid_size": 10**9}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bpve.cli", "run", cfg, "--threads", "1",
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2**30, 2**30)))
    assert proc.returncode == 0, proc.stderr
    spread = json.loads((tmp_path / "o" / "results.json").read_text()
                        )["path_spread"]
    assert [row["n"] for row in spread] == [4]
