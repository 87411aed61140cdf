import json
import warnings

import pytest

from bpve.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "critical_two_point" in out
    assert "heavy_tail_supercritical" in out


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
])
def test_huge_populations_end_in_documented_exit_codes(tmp_path, experiment,
                                                       environment, params,
                                                       code):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "environment": environment,
                                  "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code


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
])
def test_refused_values_are_schema_errors(tmp_path, experiment, environment,
                                          params):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "environment": environment,
                                  "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


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
