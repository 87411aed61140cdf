import json
import math

import numpy as np
import pytest

from bpve import conditions, estimators
from bpve.cli import EXPERIMENTS, jsonable
from bpve.conditions import (fractional_variance_series,
                             increment_variance_series, jagers_sum,
                             moment_ratio_sup, psi_series,
                             tightness_diagnostic, variance_series)
from bpve.distributions import (NotApplicableError, OffspringDistribution,
                                PhiFunction)
from bpve.environment import (EnvironmentSpec, Mixer, QuenchedEnvironment,
                              quench)
from bpve.streams import substream


def test_variance_series_closed_form(gw_env):
    # [DERIVED] geometric series: 0.44 * sum 0.8^j = 0.44 / 0.2 = 2.2
    for start in (1, 5, 40):
        rep = variance_series(gw_env, start=start, horizon=300)
        assert rep.verdict == "finite"
        assert rep.certified_value == pytest.approx(2.2, abs=1e-9)
        assert rep.partial_sum <= rep.certified_value


def test_variance_series_shift_consistency(gw_env):
    # a constant environment is shift invariant, so certified values agree
    # to full precision across starting points
    a = variance_series(gw_env, start=1, horizon=400).certified_value
    b = variance_series(gw_env, start=100, horizon=400).certified_value
    assert a == pytest.approx(b, abs=1e-12)


def test_variance_series_recursion_index():
    # one-step peel: the series at start l equals the undamped term at l
    # plus the series at l+1 damped by the growth of generation l+1
    laws = [OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5]),
            OffspringDistribution("geometric", mean=1.6),
            OffspringDistribution("poisson", lam=1.4)]
    env = quench(EnvironmentSpec("periodic", dists=tuple(laws)), 0, 700)
    for l in (1, 2, 3):
        a_l = variance_series(env, start=l, horizon=600).certified_value
        a_next = variance_series(env, start=l + 1, horizon=598).certified_value
        zeta_l = env.dists[l - 1].normalized_variance
        xi_next = env.xi[l]  # log-mean of generation l + 1
        assert a_l == pytest.approx(zeta_l + math.exp(-xi_next) * a_next,
                                    abs=1e-9)


def test_variance_series_divergent_subcritical():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "subcritical_mu0.2"}), 6, 400)
    rep = variance_series(env, start=1)
    assert rep.verdict in ("divergent", "inconclusive")
    assert rep.partial_sum > 1e9 or rep.verdict == "inconclusive"


def test_variance_series_heavy_tail_divergent():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 50)
    rep = variance_series(env, start=1)
    assert rep.verdict == "divergent"
    assert math.isinf(rep.partial_sum)


def test_fractional_matches_variance_at_delta_one(gw_env):
    a = variance_series(gw_env, start=1, horizon=300)
    f = fractional_variance_series(gw_env, start=1, delta=1.0, horizon=300)
    assert f.verdict == "finite"
    assert f.certified_value == pytest.approx(a.certified_value, abs=1e-8)


def test_fractional_heavy_tail_finite():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 300)
    rep = fractional_variance_series(env, start=1, delta=0.25)
    assert rep.verdict == "finite"
    assert rep.certified_value > 0
    # larger delta crosses the divergence boundary for alpha = 0.5
    bad = fractional_variance_series(env, start=1, delta=0.75)
    assert bad.verdict == "divergent"


def test_fractional_delta_validation(gw_env):
    with pytest.raises(ValueError):
        fractional_variance_series(gw_env, delta=0.0)
    with pytest.raises(ValueError):
        fractional_variance_series(gw_env, delta=1.5)


def test_psi_series_power_one_closed_form(gw_env):
    # [DERIVED] term j is 0.44 * 0.8^(j-1), summing to 2.2
    rep = psi_series(gw_env, start=1, phi=PhiFunction(power=1.0), horizon=300)
    assert rep.verdict == "finite"
    assert rep.certified_value == pytest.approx(2.2, abs=1e-6)


def test_psi_series_pure_log(gw_env):
    rep = psi_series(gw_env, start=1, phi=PhiFunction(power=0.0, log_power=1.0),
                     horizon=400)
    assert rep.verdict == "finite"
    assert rep.tail_bound is not None and rep.tail_bound >= 0
    assert rep.certified_value >= rep.partial_sum > 0


def test_psi_series_zero_phi(gw_env):
    rep = psi_series(gw_env, phi=PhiFunction(zero=True))
    assert rep.verdict == "finite"
    assert rep.certified_value == 0.0


def test_psi_series_heavy_tail_log():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 300)
    rep = psi_series(env, start=1, phi=PhiFunction(power=0.0, log_power=1.0),
                     horizon=120)
    assert rep.verdict == "finite"
    # while a plain power weight of order >= alpha diverges termwise
    bad = psi_series(env, start=1, phi=PhiFunction(power=0.5), horizon=50)
    assert bad.verdict == "divergent"


def test_psi_power_series_agrees_with_fractional_series():
    # phi(x) = x^delta turns psi_series into fractional_variance_series (one
    # index apart), so both must certify the same value
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 1, 210)
    frac = fractional_variance_series(env, start=1, delta=0.25, horizon=200)
    psi = psi_series(env, start=1, phi=PhiFunction(power=0.25), horizon=8)
    assert frac.verdict == psi.verdict == "finite"
    assert abs(psi.certified_value - frac.certified_value) <= 1e-12
    # 3.1e-10 below the earlier bound, whose tail missed one damping step
    assert frac.certified_value == pytest.approx(12.543117321774664, abs=1e-9)


def test_psi_power_tail_needs_no_damping_below_one():
    # S_g falls for 90 generations and then climbs, so the first omitted
    # damping exceeds 1; the pure-power term is exactly w^d E U^(1+d), and
    # psi certifies its tail as the fractional series does
    spec = EnvironmentSpec("explicit_sequence", dists=(
        (OffspringDistribution("geometric", mean=0.5),) * 90
        + (OffspringDistribution("geometric", mean=1.2),) * 200))
    env = quench(spec, 0, 290)
    frac = fractional_variance_series(env, start=2, delta=0.5, horizon=199)
    psi = psi_series(env, start=1, phi=PhiFunction(power=0.5), horizon=200)
    assert frac.verdict == psi.verdict == "finite"
    assert psi.certified_value >= psi.partial_sum > 0


def test_psi_power_rows_take_one_moment_per_law(monkeypatch):
    # tightness asks a pure-power phi for E U^(1+d) once per distinct law of
    # each environment, at damping 1, where it asked at every generation
    phi = PhiFunction(power=0.5)
    spec = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    calls = []
    psi_moment = OffspringDistribution.psi_moment

    def counted(dist, phi, scale, tol=1e-9):
        calls.append(scale)
        return psi_moment(dist, phi, scale, tol)
    monkeypatch.setattr(OffspringDistribution, "psi_moment", counted)
    tightness_diagnostic(spec, [1, 50, 100], 20, seed=88, series="psi",
                         phi=phi)
    assert calls == [1.0] * 2 * 20
    monkeypatch.undo()
    # and the terms are the per-generation moments within 4 ulp
    shift, exponent, moment, term = conditions._series("psi", phi=phi)
    env = quench(spec, 88, 101)
    damp = np.exp(-(env.s[1:101] - env.s[1]))
    want = [d.psi_moment(phi, float(w)) for d, w in zip(env.dists[1:], damp)]
    np.testing.assert_array_max_ulp(
        conditions.damped_series(env, 1, shift, 100, exponent, moment, term),
        np.array(want), maxulp=4)


def test_increment_variance_series_closed_form(gw_env):
    # [DERIVED] sum 0.44 * 0.8^(j-1) = 2.2; this is the halving budget
    rep = increment_variance_series(gw_env, start=0, horizon=300)
    assert rep.verdict == "finite"
    assert rep.certified_value == pytest.approx(2.2, abs=1e-9)
    shifted = increment_variance_series(gw_env, start=50, horizon=300)
    assert shifted.certified_value == pytest.approx(2.2, abs=1e-9)


def test_growing_terms_past_the_threshold_are_divergent():
    # mean 1/2: each term doubles the last, with no positive drift to
    # certify a tail
    env = quench(EnvironmentSpec("constant", dists=(
        OffspringDistribution("geometric", mean=0.5),)), 0, 101)
    rep = variance_series(env, 1, 100)
    assert rep.verdict == "divergent" and rep.tail_bound is None
    assert rep.detail["reason"] == \
        "partial sums exceed threshold with nondecreasing terms"
    assert rep.partial_sum == pytest.approx(7.6e30, rel=1e-3)


def test_jagers_divergent(gw_env):
    rep = jagers_sum(gw_env)
    assert rep.verdict == "divergent"
    # every term is 1 - 1/4 = 3/4
    assert rep.partial_sum == pytest.approx(0.75 * gw_env.horizon, rel=1e-12)


def test_jagers_finite_geometric_decay():
    # explicit sequence whose one-child probability tends to 1 fast:
    # term i is 2^-i, a certified geometric tail
    laws = []
    for i in range(1, 90):
        eps = 2.0 ** -i
        laws.append(OffspringDistribution("finite_pmf",
                                          pmf=[eps / 2, 1.0 - eps, eps / 2]))
    env = quench(EnvironmentSpec("explicit_sequence", dists=tuple(laws)),
                 0, len(laws))
    rep = jagers_sum(env)
    assert rep.verdict == "finite"
    # [DERIVED] sum of 2^-i for i >= 1 is 1
    assert rep.certified_value == pytest.approx(1.0, abs=1e-3)
    assert rep.partial_sum <= 1.0


def test_jagers_not_applicable():
    # a certain-death generation has no log-mean, so the environment is
    # assembled by hand rather than through quench
    sure = OffspringDistribution("finite_pmf", pmf=[0.0, 1.0])
    dead = OffspringDistribution("finite_pmf", pmf=[1.0])
    env = QuenchedEnvironment((sure, dead), np.array([0, 1, 0]), np.zeros(4),
                              np.zeros(3))
    rep = jagers_sum(env)
    assert rep.verdict == "inconclusive"
    assert rep.detail.get("not_applicable")


def test_jagers_sparse_second_half_is_inconclusive():
    # terms of 3/4, but only 10 of the second half's 200: neither the
    # density rule nor a decaying tail decides
    geo, sure = (OffspringDistribution("geometric", mean=1.0),
                 OffspringDistribution("finite_pmf", pmf=[0.0, 1.0]))
    env = quench(EnvironmentSpec("explicit_sequence", dists=(
        (geo,) * 200 + (sure,) * 190 + (geo,) * 10)), 0, 400)
    rep = jagers_sum(env)
    assert rep.verdict == "inconclusive" and rep.tail_bound is None
    assert rep.detail == {"density_first_half": 1.0,
                          "density_second_half": 0.05}
    assert rep.partial_sum == pytest.approx(157.5, rel=1e-12)


def test_jagers_all_one_child():
    sure = OffspringDistribution("finite_pmf", pmf=[0.0, 1.0])
    env = quench(EnvironmentSpec("constant", dists=(sure,)), 0, 80)
    rep = jagers_sum(env)
    assert rep.verdict == "finite"
    assert rep.partial_sum == 0.0


def test_moment_ratio_sup(gw_env):
    rep = moment_ratio_sup(gw_env, horizon=50)
    assert rep.verdict == "inconclusive"
    assert rep.partial_sum == pytest.approx(1.2, abs=1e-12)


def test_moment_ratio_sup_heavy():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 10)
    rep = moment_ratio_sup(env)
    assert rep.verdict == "divergent"


def test_report_json_round_trip(gw_env):
    rep = variance_series(gw_env, horizon=100)
    payload = json.loads(json.dumps(jsonable(rep)))
    assert payload["verdict"] == "finite"
    assert payload["series_id"] == "variance_series"
    heavy = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 10)
    payload2 = json.loads(json.dumps(jsonable(variance_series(heavy))))
    assert payload2["partial_sum"] == "inf"


def test_series_range_validation(gw_env):
    with pytest.raises(ValueError):
        variance_series(gw_env, start=0)
    with pytest.raises(ValueError):
        variance_series(gw_env, start=1, horizon=10**6)


def test_monotone_truncation(gw_env):
    partials = [variance_series(gw_env, horizon=h).partial_sum
                for h in (10, 50, 200)]
    assert partials[0] < partials[1] < partials[2] <= 2.2


def test_tightness_flag_off_supercritical():
    table = tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"}),
        [1, 50, 100], 60, seed=5)
    assert not table.blowup_flag
    assert table.rows.shape == (3, 3)
    # quantiles stabilize between the two largest truncations
    assert np.all(table.rows[2] < 3.0 * table.rows[1])


def test_tightness_flag_on_subcritical():
    table = tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "subcritical_mu0.2"}),
        [1, 50, 100], 60, seed=5)
    assert table.blowup_flag
    assert np.all(np.diff(table.rows, axis=0) > 0)


def test_tightness_fractional_series():
    table = tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"}),
        [1, 30, 60], 30, seed=2,
                                 series="fractional_variance", delta=0.5)
    assert not table.blowup_flag


def test_tightness_to_csv():
    table = tightness_diagnostic(
        EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"}),
        [1, 20], 10, seed=1)
    lines = EXPERIMENTS["tightness"].csv(table).splitlines()
    assert lines[0] == "l,q10,q50,q90,flag"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "20"]


def test_tightness_validation():
    spec = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [], 10, seed=0)
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [0, 5], 10, seed=0)
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [1, 5], 0, seed=0)
    with pytest.raises(ValueError, match="unknown series"):
        tightness_diagnostic(spec, [1, 5], 5, seed=0, series="jagers")


@pytest.mark.parametrize("series,kwargs,checker", [
    ("variance", {}, lambda env, l: variance_series(env, 1, l - 1)),
    ("fractional_variance", {"delta": 0.5},
     lambda env, l: fractional_variance_series(env, 1, 0.5, l - 1)),
    ("psi", {"phi": PhiFunction(power=1.0)},
     lambda env, l: psi_series(env, 1, PhiFunction(power=1.0), l)),
    ("psi", {"phi": PhiFunction(power=0.0, log_power=1.0)},
     lambda env, l: psi_series(env, 1, PhiFunction(power=0.0, log_power=1.0),
                               l)),
])
def test_tightness_partial_sums_are_checker_partial_sums(series, kwargs,
                                                         checker):
    # one environment replica: every quantile is that environment's value
    spec = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    l_grid = [1, 10, 50]
    table = tightness_diagnostic(spec, l_grid, 1, seed=5, series=series,
                                 **kwargs)
    env_seed = int(substream(5, 0).integers(0, 2**63 - 1))
    env = quench(spec, env_seed, 51)
    for l, row in zip(l_grid, table.rows):
        expected = checker(env, l).partial_sum
        assert np.allclose(row, expected, rtol=1e-12, atol=0.0), (l, row)


def tightness_oracle(spec, l_grid, env_replicas, seed, shift, exponent,
                     moment, term):
    """Quantile rows of tightness_diagnostic, quenching one environment at
    a time."""
    hmax = max(l_grid)
    values = np.zeros((env_replicas, len(l_grid)))
    for r in range(env_replicas):
        env_seed = int(substream(seed, r).integers(0, 2**63 - 1))
        env = quench(spec, env_seed, shift + hmax)
        terms = conditions.damped_series(env, 1, shift, hmax, exponent,
                                         moment, term)
        values[r] = np.cumsum(terms)[np.array(l_grid) - 1]
    return np.quantile(values, (0.1, 0.5, 0.9), axis=0).T


@pytest.mark.parametrize("preset", ["supercritical_mu0.2",
                                    "subcritical_mu0.2"])
@pytest.mark.parametrize("series,kwargs", [
    ("variance", {}),
    ("fractional_variance", {"delta": 0.25}),
    ("psi", {"phi": PhiFunction(power=0.5)}),
], ids=["variance", "fractional", "psi"])
def test_tightness_rows_match_per_environment_oracle(
        monkeypatch, preset, series, kwargs):
    spec = EnvironmentSpec.from_config({"preset": preset})
    l_grid = [1, 50, 100]
    want = tightness_oracle(spec, l_grid, 30, 88,
                            *conditions._series(series, **kwargs))
    # all environments in one bulk quench, then 2 and 1 per quench
    for chunk in (conditions.TIGHTNESS_CHUNK, 250, 1):
        monkeypatch.setattr(conditions, "TIGHTNESS_CHUNK", chunk)
        table = tightness_diagnostic(spec, l_grid, 30, seed=88,
                                     series=series, **kwargs)
        assert np.array_equal(table.rows, want), chunk


PER_LAW_ENVS = pytest.mark.parametrize("env", [
    quench(EnvironmentSpec.from_config(
        {"preset": "supercritical_mu0.2"}), 3, 200),
    quench(EnvironmentSpec.from_config(
        {"preset": "cooling_doubling_blocks"}), 3, 200),
    # the power tail's variance and its moment of order 1.5 are infinite,
    # and they stay so where the damping underflows to 0
    quench(EnvironmentSpec("periodic", dists=(
        OffspringDistribution("finite_pmf", pmf=[0.5] + [0.0] * 1999 + [0.5]),
        OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2))), 1, 400),
    # S_g falls by about 11 per generation: the damping overflows to inf
    quench(EnvironmentSpec("periodic", dists=(
        OffspringDistribution("geometric", mean=1e-10),
        OffspringDistribution("geometric", mean=2.0))), 1, 200),
], ids=["iid", "cooling", "infinite_moment", "overflowing_damping"])


@PER_LAW_ENVS
@pytest.mark.parametrize("series", ["variance", "fractional_variance"])
@pytest.mark.parametrize("start,shift", [(1, 0), (3, 1)])
def test_per_law_moments_match_per_generation_terms(env, series, start,
                                                    shift):
    _, exponent, moment, term = conditions._series(series, delta=0.5)
    assert term is None
    count = env.horizon - start - shift + 1
    dists = env.dists[start + shift - 1:]
    with np.errstate(over="ignore"):
        damp = np.exp(-exponent * (env.s[start:start + count] - env.s[start]))
    want = []
    for dist, w in zip(dists, damp):
        m = moment(dist)
        want.append(m if math.isinf(m) else m * float(w))
    want = np.array(want)
    calls = []

    def counted(dist):
        calls.append(dist)
        return moment(dist)

    got = conditions.damped_series(env, start, shift, count, exponent,
                                   counted)
    assert got.tobytes() == want.tobytes()
    # one call per distinct law object, in order of first occurrence
    assert [id(d) for d in calls] == list(dict.fromkeys(map(id, dists)))
    assert len(calls) == 2


@PER_LAW_ENVS
@pytest.mark.parametrize("check,method", [
    (jagers_sum, "pmf"),
    (moment_ratio_sup, "truncated_moment_ratio"),
    (lambda env: estimators._check_span(env, 1, 0, env.horizon, 2),
     "normalized_variance"),
], ids=["jagers", "moment_ratio", "check_span"])
def test_per_law_checks_match_per_generation_loops(monkeypatch, env, check,
                                                   method):
    # the same environment with a law slot per generation: map_laws then
    # calls once per generation, in order
    per_generation = QuenchedEnvironment(tuple(env.dists),
                                         np.arange(env.horizon), env.s, env.xi)
    calls = []
    real = getattr(OffspringDistribution, method)
    if isinstance(real, property):
        monkeypatch.setattr(OffspringDistribution, method, property(
            lambda d: calls.append((id(d),)) or real.fget(d)))
    else:
        monkeypatch.setattr(OffspringDistribution, method, lambda d, *args: (
            calls.append((id(d), *args)) or real(d, *args)))

    def outcome(e):
        calls.clear()
        try:
            result = repr(check(e))
        except NotApplicableError as err:
            result = str(err)
        return result, list(calls)
    got, got_calls = outcome(env)
    want, want_calls = outcome(per_generation)
    assert got == want
    # one call per distinct law, in order of first occurrence, and none for
    # a law first seen after the generation a check stopped at
    assert got_calls == list(dict.fromkeys(want_calls))


GAUSSIAN_MIXER = Mixer("gaussian_logmean_geometric", mu=0.1, sigma=0.3)


@pytest.mark.parametrize("env", [
    # one law per generation, or per block: a window holds few of the table's
    quench(EnvironmentSpec("iid_random", mixer=GAUSSIAN_MIXER), 5, 400),
    quench(EnvironmentSpec("cooling", mixer=GAUSSIAN_MIXER), 5, 400),
    quench(EnvironmentSpec.from_config(
        {"preset": "supercritical_mu0.2"}), 3, 400),
], ids=["iid_gaussian", "cooling_gaussian", "iid_finite"])
@pytest.mark.parametrize("lo,hi", [(0, None), (0, 1), (37, 38), (37, 120),
                                   (150, None), (399, None), (5, 5)])
def test_windowed_map_laws_match_per_generation_calls(env, lo, hi):
    laws = env.dists[lo:hi]
    want = np.array([d.normalized_variance for d in laws], dtype=float)
    threshold = float(np.median(want)) if len(want) else 0.0
    end = next((j + 1 for j, v in enumerate(want) if v > threshold),
               len(want))
    for stop, stop_at in ((None, len(want)), (lambda v: v > threshold, end)):
        calls = []
        got = env.map_laws(lambda d: calls.append(d) or d.normalized_variance,
                           lo, hi, stop)
        assert got.tobytes() == want[:stop_at].tobytes()
        # one call per law, in order of first generation in the window
        assert calls == list(dict.fromkeys(laws[:stop_at]))
