import json
import math

import numpy as np
import pytest

from bpve import conditions
from bpve.conditions import (fractional_variance_series,
                             increment_variance_series, jagers_sum,
                             moment_ratio_sup, psi_series,
                             tightness_diagnostic, variance_series)
from bpve.distributions import OffspringDistribution, PhiFunction
from bpve.environment import (EnvironmentSpec, PRESETS, QuenchedEnvironment,
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
    laws = [OffspringDistribution.finite_pmf([0.25, 0.25, 0.5]),
            OffspringDistribution.geometric(mean=1.6),
            OffspringDistribution.poisson(lam=1.4)]
    env = quench(EnvironmentSpec.periodic(laws), 0, 700)
    for l in (1, 2, 3):
        a_l = variance_series(env, start=l, horizon=600).certified_value
        a_next = variance_series(env, start=l + 1, horizon=598).certified_value
        zeta_l = env.dists[l - 1].normalized_variance
        xi_next = env.xi[l]  # log-mean of generation l + 1
        assert a_l == pytest.approx(zeta_l + math.exp(-xi_next) * a_next,
                                    abs=1e-9)


def test_variance_series_divergent_subcritical():
    env = quench(PRESETS["subcritical_mu0.2"](), 6, 400)
    rep = variance_series(env, start=1)
    assert rep.verdict in ("divergent", "inconclusive")
    assert rep.partial_sum > 1e9 or rep.verdict == "inconclusive"


def test_variance_series_heavy_tail_divergent():
    env = quench(PRESETS["heavy_tail_supercritical"](), 0, 50)
    rep = variance_series(env, start=1)
    assert rep.verdict == "divergent"
    assert math.isinf(rep.partial_sum)


def test_fractional_matches_variance_at_delta_one(gw_env):
    a = variance_series(gw_env, start=1, horizon=300)
    f = fractional_variance_series(gw_env, start=1, delta=1.0, horizon=300)
    assert f.verdict == "finite"
    assert f.certified_value == pytest.approx(a.certified_value, abs=1e-8)


def test_fractional_heavy_tail_finite():
    env = quench(PRESETS["heavy_tail_supercritical"](), 0, 300)
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
    env = quench(PRESETS["heavy_tail_supercritical"](), 0, 300)
    rep = psi_series(env, start=1, phi=PhiFunction(power=0.0, log_power=1.0),
                     horizon=120)
    assert rep.verdict == "finite"
    # while a plain power weight of order >= alpha diverges termwise
    bad = psi_series(env, start=1, phi=PhiFunction(power=0.5), horizon=50)
    assert bad.verdict == "divergent"


def test_psi_power_series_agrees_with_fractional_series():
    # phi(x) = x^delta turns psi_series into fractional_variance_series (one
    # index apart), so both must certify the same value
    env = quench(PRESETS["heavy_tail_supercritical"](), 1, 210)
    frac = fractional_variance_series(env, start=1, delta=0.25, horizon=200)
    psi = psi_series(env, start=1, phi=PhiFunction(power=0.25), horizon=8)
    assert frac.verdict == psi.verdict == "finite"
    assert abs(psi.certified_value - frac.certified_value) <= 1e-12
    # 3.1e-10 below the earlier bound, whose tail missed one damping step
    assert frac.certified_value == pytest.approx(12.543117321774664, abs=1e-9)


def test_increment_variance_series_closed_form(gw_env):
    # [DERIVED] sum 0.44 * 0.8^(j-1) = 2.2; this is the halving budget
    rep = increment_variance_series(gw_env, start=0, horizon=300)
    assert rep.verdict == "finite"
    assert rep.certified_value == pytest.approx(2.2, abs=1e-9)
    shifted = increment_variance_series(gw_env, start=50, horizon=300)
    assert shifted.certified_value == pytest.approx(2.2, abs=1e-9)


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
        laws.append(OffspringDistribution.finite_pmf(
            [eps / 2, 1.0 - eps, eps / 2]))
    env = quench(EnvironmentSpec.explicit(laws), 0, len(laws))
    rep = jagers_sum(env)
    assert rep.verdict == "finite"
    # [DERIVED] sum of 2^-i for i >= 1 is 1
    assert rep.certified_value == pytest.approx(1.0, abs=1e-3)
    assert rep.partial_sum <= 1.0


def test_jagers_not_applicable():
    # a certain-death generation has no log-mean, so the environment is
    # assembled by hand rather than through quench
    sure = OffspringDistribution.finite_pmf([0.0, 1.0])
    dead = OffspringDistribution.finite_pmf([1.0])
    env = QuenchedEnvironment([sure, dead, sure], np.zeros(4))
    rep = jagers_sum(env)
    assert rep.verdict == "inconclusive"
    assert rep.detail.get("not_applicable")


def test_jagers_all_one_child():
    sure = OffspringDistribution.finite_pmf([0.0, 1.0])
    env = quench(EnvironmentSpec.constant(sure), 0, 80)
    rep = jagers_sum(env)
    assert rep.verdict == "finite"
    assert rep.partial_sum == 0.0


def test_moment_ratio_sup(gw_env):
    rep = moment_ratio_sup(gw_env, horizon=50)
    assert rep.verdict == "inconclusive"
    assert rep.partial_sum == pytest.approx(1.2, abs=1e-12)


def test_moment_ratio_sup_heavy():
    env = quench(PRESETS["heavy_tail_supercritical"](), 0, 10)
    rep = moment_ratio_sup(env)
    assert rep.verdict == "divergent"


def test_report_json_round_trip(gw_env):
    rep = variance_series(gw_env, horizon=100)
    payload = json.loads(rep.to_json())
    assert payload["verdict"] == "finite"
    assert payload["series_id"] == "variance_series"
    heavy = quench(PRESETS["heavy_tail_supercritical"](), 0, 10)
    payload2 = json.loads(variance_series(heavy).to_json())
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
    table = tightness_diagnostic(PRESETS["supercritical_mu0.2"](),
                                 [1, 50, 100], 60, seed=5)
    assert not table.blowup_flag
    assert table.rows.shape == (3, 3)
    # quantiles stabilize between the two largest truncations
    assert np.all(table.rows[2] < 3.0 * table.rows[1])


def test_tightness_flag_on_subcritical():
    table = tightness_diagnostic(PRESETS["subcritical_mu0.2"](),
                                 [1, 50, 100], 60, seed=5)
    assert table.blowup_flag
    assert np.all(np.diff(table.rows, axis=0) > 0)


def test_tightness_fractional_series():
    table = tightness_diagnostic(PRESETS["supercritical_mu0.2"](),
                                 [1, 30, 60], 30, seed=2,
                                 series="fractional_variance", delta=0.5)
    assert not table.blowup_flag


def test_tightness_to_csv(tmp_path):
    table = tightness_diagnostic(PRESETS["supercritical_mu0.2"](),
                                 [1, 20], 10, seed=1)
    out = tmp_path / "t.csv"
    text = table.to_csv(out)
    assert out.read_text() == text
    assert text.splitlines()[0] == "l,q10,q50,q90,flag"


def test_tightness_validation():
    spec = PRESETS["supercritical_mu0.2"]()
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [], 10, seed=0)
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [0, 5], 10, seed=0)
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [1, 5], 0, seed=0)
    with pytest.raises(ValueError):
        tightness_diagnostic(spec, [1, 5], 5, seed=0, series="psi")


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
    spec = PRESETS["supercritical_mu0.2"]()
    l_grid = [1, 10, 50]
    table = tightness_diagnostic(spec, l_grid, 1, seed=5, series=series,
                                 **kwargs)
    env_seed = int(substream(5, 0).integers(0, 2**63 - 1))
    env = quench(spec, env_seed, 51)
    for l, row in zip(l_grid, table.rows):
        expected = checker(env, l).partial_sum
        assert np.allclose(row, expected, rtol=1e-12, atol=0.0), (l, row)


def tightness_oracle(spec, l_grid, env_replicas, seed, first, offset,
                     exponent, term):
    """Quantile rows of tightness_diagnostic, quenching one environment at
    a time."""
    hmax = max(l_grid)
    values = np.zeros((env_replicas, len(l_grid)))
    for r in range(env_replicas):
        env_seed = int(substream(seed, r).integers(0, 2**63 - 1))
        env = quench(spec, env_seed, first + hmax - 1)
        terms = conditions.damped_series(env, first, hmax, offset, exponent,
                                         term)
        values[r] = np.cumsum(terms)[np.array(l_grid) - 1]
    return np.quantile(values, (0.1, 0.5, 0.9), axis=0).T


@pytest.mark.parametrize("preset", ["supercritical_mu0.2",
                                    "subcritical_mu0.2"])
@pytest.mark.parametrize("series,kwargs,first,offset,exponent,term", [
    ("variance", {}, 1, 0, 1.0, conditions._variance_term),
    ("fractional_variance", {"delta": 0.25}, 1, 0, 0.25,
     conditions._fractional_term(0.25, 1e-9)),
    ("psi", {"phi": PhiFunction(power=0.5)}, 2, -1, 1.0,
     conditions._psi_term(PhiFunction(power=0.5), 1e-9)),
], ids=["variance", "fractional", "psi"])
def test_tightness_rows_match_per_environment_oracle(
        monkeypatch, preset, series, kwargs, first, offset, exponent, term):
    spec = PRESETS[preset]()
    l_grid = [1, 50, 100]
    want = tightness_oracle(spec, l_grid, 30, 88, first, offset, exponent,
                            term)
    # all environments in one bulk quench, then 2 and 1 per quench
    for chunk in (conditions.TIGHTNESS_CHUNK, 250, 1):
        monkeypatch.setattr(conditions, "TIGHTNESS_CHUNK", chunk)
        table = tightness_diagnostic(spec, l_grid, 30, seed=88,
                                     series=series, **kwargs)
        assert np.array_equal(table.rows, want), chunk
