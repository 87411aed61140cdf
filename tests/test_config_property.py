"""Property over the config space: every config the schema accepts ends in
a documented exit code, and an ill-typed value is a schema error (exit 2).

Configs are bounded (short horizons, few replicas) so each run is quick;
they cover every experiment and every environment kind, with parameter
values that reach the library's own range checks.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpve.cli import EXPERIMENTS, main
from bpve.environment import PRESET_CONFIGS

EXIT_CODES = {0, 2, 3, 4}

unit = st.floats(0.0, 1.0)
small = st.integers(0, 12)
positive = st.integers(1, 12)
# values every positive range check must refuse
off_range = st.sampled_from([0.0, math.nan, math.inf])


@st.composite
def probability_vector(draw, length):
    raw = draw(st.lists(st.integers(0, 4), min_size=length, max_size=length)
               .filter(any))
    return [x / sum(raw) for x in raw]


@st.composite
def offspring(draw):
    kind = draw(st.sampled_from(["finite_pmf", "geometric", "poisson",
                                 "linear_fractional", "power_law_tail"]))
    if kind == "finite_pmf":
        pmf = draw(probability_vector(draw(st.integers(1, 4))))
        return {"kind": kind, "pmf": pmf}
    if kind == "geometric":
        return {"kind": kind, "mean": draw(st.floats(0.0, 4.0))}
    if kind == "poisson":
        return {"kind": kind, "lam": draw(st.floats(0.0, 4.0))}
    if kind == "linear_fractional":
        return {"kind": kind, "p0": draw(unit), "q": draw(unit)}
    # log-uniform over [1e-15, 1e300]: every power law evaluates its zeta
    # values and totals head when it is built
    return {"kind": kind, "alpha": 10.0 ** draw(st.floats(-15.0, 300.0)),
            "p0": draw(unit)}


@st.composite
def mixer(draw):
    if draw(st.booleans()):
        dists = draw(st.lists(offspring(), min_size=1, max_size=3))
        weights = draw(probability_vector(len(dists)))
        if draw(st.booleans()):
            weights[draw(st.integers(0, len(dists) - 1))] = draw(off_range)
        return {"kind": "finite", "dists": dists, "weights": weights}
    return {"kind": "gaussian_logmean_geometric",
            "mu": draw(st.one_of(st.floats(-1.0, 1.0), off_range)),
            "sigma": draw(st.one_of(st.floats(0.0, 1.0), off_range))}


@st.composite
def environment(draw):
    kind = draw(st.sampled_from(["preset", "constant", "explicit_sequence",
                                 "periodic", "iid_random", "cooling"]))
    if kind == "preset":
        return {"preset": draw(st.sampled_from(sorted(PRESET_CONFIGS)))}
    if kind == "constant":
        return {"kind": kind, "dist": draw(offspring())}
    if kind in ("explicit_sequence", "periodic"):
        return {"kind": kind,
                "dists": draw(st.lists(offspring(), min_size=1, max_size=30))}
    env = {"kind": kind, "mixer": draw(mixer())}
    if kind == "cooling" and draw(st.booleans()):
        env["schedule"] = draw(st.one_of(
            st.just("doubling"), st.lists(positive, min_size=1, max_size=4),
            st.sampled_from([[], [2.5], [math.nan]])))
    return env


phi = st.one_of(st.just("zero"),
                st.fixed_dictionaries({}, optional={
                    "power": st.one_of(st.floats(0.0, 2.0), off_range),
                    "log_power": st.one_of(st.floats(0.0, 2.0), off_range)}))
n_list = st.lists(st.integers(-3, 12), max_size=3)

PARAMS = {
    "conditions": {
        "series": st.sampled_from(["variance", "fractional_variance", "psi",
                                   "jagers", "moment_ratio"]),
        "start": positive, "horizon": st.integers(1, 40),
        "tol": st.sampled_from([1e-9, 1e-6]), "delta": st.floats(0.05, 2.0),
        "phi": phi},
    "survival": {"z0": positive, "n": small, "replicas": st.integers(0, 200)},
    "w_positivity": {"z0": positive, "n": small,
                     "replicas": st.integers(0, 200),
                     "eps_grid": st.lists(st.one_of(st.floats(1e-3, 1.0),
                                                    off_range), max_size=3)},
    "l2": {"k": small, "m": small, "replicas": st.integers(0, 200)},
    "halving": {"k": small, "start": small, "horizon": small,
                "replicas": st.integers(0, 200)},
    "flt": {"n_list": n_list, "replicas": st.integers(0, 200),
            "grid_size": small},
    "tightness": {"l_grid": n_list, "env_replicas": st.integers(0, 4),
                  "series": st.sampled_from(["variance", "fractional_variance",
                                             "psi"]),
                  "delta": st.one_of(st.floats(0.05, 2.0), off_range),
                  "phi": phi, "blowup_factor": st.floats(1.0, 5.0)},
    "critical": {"n_list": n_list, "replicas": st.integers(0, 300),
                 "z0": positive, "min_survivors": small},
}


# keys that set the cost of a run; always drawn, so every run stays small
SIZES = {"horizon", "n", "replicas", "n_list", "l_grid", "env_replicas"}


def test_params_strategies_cover_every_experiment():
    assert set(PARAMS) == set(EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        assert set(PARAMS[name]) == set(exp.params)


@st.composite
def config(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    cfg = {"experiment": experiment, "environment": draw(environment()),
           "params": draw(st.fixed_dictionaries(
               {k: v for k, v in PARAMS[experiment].items() if k in SIZES},
               optional={k: v for k, v in PARAMS[experiment].items()
                         if k not in SIZES}))}
    for key in ("env_seed", "master_seed"):
        if draw(st.booleans()):
            cfg[key] = draw(st.integers(-2**64, 2**64))
    return cfg


def ill_typed(default):
    """Values whose JSON type differs from ``default``'s."""
    if isinstance(default, float):
        return st.sampled_from(["x", True, None, [1.0], {}])
    if isinstance(default, int):
        return st.sampled_from(["x", 1.5, True, None, [1], {}])
    if isinstance(default, str):
        return st.sampled_from([1, 0.5, None, ["x"], {}])
    if isinstance(default, list):
        return st.sampled_from(["x", 3, {}, None, [None], ["x"]])
    return st.sampled_from([1, [], None, {"power": "x"}, {"power": [1]}])


def run(cfg) -> int:
    """Exit code of ``bpve run`` on ``cfg`` (an object, or raw JSON text)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["run", str(path), "--threads", "1",
                         "--out", str(Path(tmp) / "out")])


def examples(n):
    return settings(derandomize=True, deadline=None, max_examples=n,
                    suppress_health_check=[HealthCheck.too_slow])


@examples(300)
@given(config())
def test_valid_config_ends_in_documented_exit_code(cfg):
    assert run(cfg) in EXIT_CODES


@examples(150)
@given(config(), st.data())
def test_ill_typed_value_is_schema_error(cfg, data):
    defaults = {"env_seed": 1, "master_seed": 12345, "output_dir": "",
                "params": {}}
    defaults.update({f"params.{k}": v
                     for k, v in EXPERIMENTS[cfg["experiment"]].params.items()})
    field = data.draw(st.sampled_from(sorted(defaults)))
    bad = data.draw(ill_typed(defaults[field]))
    if field.startswith("params."):
        cfg["params"][field[len("params."):]] = bad
    else:
        cfg[field] = bad
    assert run(cfg) == 2


@examples(100)
@given(config(), st.data())
def test_truncated_json_is_schema_error(cfg, data):
    text = json.dumps(cfg)
    assert run(text[:data.draw(st.integers(0, len(text) - 1))]) == 2
