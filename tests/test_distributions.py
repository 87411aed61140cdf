import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from bpve import distributions
from bpve.distributions import (NotApplicableError, OffspringDistribution,
                                PhiFunction, PopulationOverflowError)
from bpve.streams import substream
from oracles import sample, sample_generation_total


# ---------------------------------------------------------------- pmf / moments

def test_finite_pmf_moments(gw_dist):
    assert gw_dist.mean == pytest.approx(1.25, abs=1e-15)
    assert gw_dist.variance == pytest.approx(0.6875, abs=1e-15)
    assert gw_dist.normalized_variance == pytest.approx(0.44, abs=1e-14)
    assert gw_dist.log_mean == pytest.approx(math.log(1.25), abs=1e-15)


def test_geometric_moments():
    d = OffspringDistribution.geometric(mean=2.0)
    assert d.mean == pytest.approx(2.0, abs=1e-14)
    # Var = q/(1-q)^2 = m(1+m)
    assert d.variance == pytest.approx(6.0, abs=1e-12)
    ks = np.arange(200)
    p = d.pmf_vector(ks)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(p @ ks) == pytest.approx(2.0, abs=1e-12)


def test_poisson_and_linear_fractional_moments():
    p = OffspringDistribution.poisson(lam=1.7)
    assert p.mean == pytest.approx(1.7)
    assert p.variance == pytest.approx(1.7)
    lf = OffspringDistribution.linear_fractional(p0=0.3, q=0.4)
    assert lf.mean == pytest.approx(0.7 / 0.6, abs=1e-14)
    ks = np.arange(300)
    pv = lf.pmf_vector(ks)
    assert pv.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(pv @ ks) == pytest.approx(lf.mean, abs=1e-12)
    assert float(pv @ ks**2) - lf.mean**2 == pytest.approx(lf.variance, abs=1e-10)


def test_power_law_pmf_against_brute_sum():
    # [DERIVED] oracle: normalization and mean by direct 1e7-term summation
    alpha, p0 = 0.5, 0.2
    d = OffspringDistribution.power_law_tail(alpha=alpha, p0=p0)
    ks = np.arange(1, 10**7, dtype=float)
    c = (1 - p0) / ks.__pow__(-(2 + alpha)).sum() if False else None
    w = ks ** -(2 + alpha)
    # include the zeta tail of the brute sum so the oracle is itself tight
    norm = w.sum() + float(special.zeta(2 + alpha, 10**7))
    c_brute = (1 - p0) / norm
    assert d.pmf(3) == pytest.approx(c_brute * 3.0 ** -(2 + alpha), rel=1e-9)
    mean_brute = c_brute * ((w * ks).sum()
                            + float(special.zeta(1 + alpha, 10**7)))
    assert d.mean == pytest.approx(mean_brute, rel=1e-7)
    assert math.isinf(d.variance)
    assert math.isinf(d.normalized_variance)


def test_power_law_finite_variance_branch():
    d = OffspringDistribution.power_law_tail(alpha=1.5, p0=0.1)
    assert math.isfinite(d.variance)
    ks = np.arange(0, 10**6)
    pv = d.pmf_vector(ks)
    assert pv.sum() == pytest.approx(1.0, abs=1e-4)


# ------------------------------------------------------------------- sampling

def test_sample_chi_square_gof(gw_dist):
    rng = substream(77, 0)
    n = 10**6
    draws = sample(gw_dist, rng, size=n)
    obs = np.bincount(draws, minlength=3)
    exp = np.array([0.25, 0.25, 0.5]) * n
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    # 2 dof; significance 1e-3
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=2)


def test_geometric_total_closure_matches_naive():
    d = OffspringDistribution.geometric(mean=1.3)
    rng = substream(5, 1)
    parents = 40
    reps = 20000
    closed = np.array([sample_generation_total(d, parents, rng)
                       for _ in range(reps)])
    naive = np.array([int(sample(d, rng, size=parents).sum())
                      for _ in range(reps)])
    _, p = stats.ks_2samp(closed, naive)
    assert p > 1e-3


def test_finite_pmf_total_closure_matches_naive(gw_dist):
    rng = substream(6, 2)
    reps = 20000
    closed = np.array([sample_generation_total(gw_dist, 25, rng)
                       for _ in range(reps)])
    naive = np.array([int(sample(gw_dist, rng, size=25).sum())
                      for _ in range(reps)])
    _, p = stats.ks_2samp(closed, naive)
    assert p > 1e-3


def test_power_law_total_closure_matches_naive():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    rng = substream(7, 3)
    reps = 5000
    closed = np.array([sample_generation_total(d, 10, rng)
                       for _ in range(reps)])
    naive = np.array([int(sample(d, rng, size=10).sum()) for _ in range(reps)])
    # heavy tails: compare on a truncated range where mass is appreciable
    _, p = stats.ks_2samp(np.minimum(closed, 100), np.minimum(naive, 100))
    assert p > 1e-3


def test_totals_vectorized_consistency(gw_dist):
    rng = substream(8, 4)
    parents = np.array([0, 1, 5, 1000, 0], dtype=np.int64)
    totals = gw_dist.sample_generation_totals(parents, rng)
    assert totals[0] == 0 and totals[4] == 0
    assert totals[3] <= 2 * 1000


def test_overflow_guard():
    d = OffspringDistribution.geometric(mean=4.0)
    rng = substream(9, 0)
    with pytest.raises(PopulationOverflowError) as ei:
        d.sample_generation_totals(np.array([2**61], dtype=np.int64), rng)
    assert ei.value.log_estimate > 40.0


def test_power_law_total_exact_at_large_parent_count():
    # finite variance: the exact total of 2e7 offspring counts sits within
    # 6 standard deviations of its mean, and costs O(head) not O(parents)
    d = OffspringDistribution.power_law_tail(alpha=1.5, p0=0.1)
    rng = substream(10, 0)
    n = 2 * 10**7
    start = time.perf_counter()
    total = sample_generation_total(d, n, rng)
    assert time.perf_counter() - start < 0.5
    assert isinstance(total, int)
    assert abs(total - n * d.mean) < 6 * math.sqrt(n * d.variance)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_power_law_composition_matches_naive_sums(alpha):
    # oracle: per-offspring zipf draws through sample()
    d = OffspringDistribution.power_law_tail(alpha=alpha, p0=0.2)
    rng = substream(11, int(alpha * 10))
    reps = 4000
    for parents in (1, 10, 64, 300):
        closed = d.sample_generation_totals(np.full(reps, parents), rng)
        naive = np.array([int(sample(d, rng, size=parents).sum())
                          for _ in range(reps)])
        _, p = stats.ks_2samp(np.minimum(closed, 500), np.minimum(naive, 500))
        assert p > 1e-3, (parents, p)


def test_power_law_composition_tail_count_binomial(monkeypatch):
    # the number of offspring drawn beyond the multinomial head is
    # Binomial(parents, P(X > head))
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    head = distributions._TOTALS_HEAD
    sizes = []
    draw = d._tail_draws
    monkeypatch.setattr(d, "_tail_draws",
                        lambda size, rng: sizes.append(size) or draw(size, rng))
    parents = np.full(2000, 1000)
    d.sample_generation_totals(parents, substream(12, 0))
    p_tail = d._c * float(special.zeta(2.5, head + 1))
    res = stats.binomtest(sum(sizes), int(parents.sum()), p_tail)
    assert res.pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.5])
def test_power_law_tail_draws_chi_square(alpha):
    # rejection draws beyond the head against P(k | X > head) ~ k^-(2+alpha)
    d = OffspringDistribution.power_law_tail(alpha=alpha, p0=0.2)
    head = distributions._TOTALS_HEAD
    size = 400000
    draws = d._tail_draws(size, substream(13, int(alpha * 10)))
    assert draws.min() == head + 1
    bins = 100
    ks = np.arange(head + 1, head + 1 + bins)
    probs = ks ** -(2.0 + alpha) / float(special.zeta(2.0 + alpha, head + 1))
    obs = np.bincount(draws - head - 1, minlength=bins)[:bins]
    obs = np.append(obs, size - obs.sum())
    exp = np.append(probs, 1.0 - probs.sum()) * size
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=bins)


def test_power_law_tail_chunks_add_up(monkeypatch):
    # fixed tail values make the totals a deterministic function of the
    # multinomial, which must not depend on how tail draws are batched
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    monkeypatch.setattr(d, "_tail_draws",
                        lambda size, rng: np.full(size, 1000, dtype=np.int64))
    parents = np.array([0, 5, 0, 3000, 1, 0, 20000, 200], dtype=np.int64)
    whole = d.sample_generation_totals(parents, substream(14, 0))
    monkeypatch.setattr(distributions, "_TAIL_CHUNK", 3)
    chunked = d.sample_generation_totals(parents, substream(14, 0))
    np.testing.assert_array_equal(whole, chunked)
    assert whole[0] == whole[2] == whole[5] == 0
    assert whole[6] > 1000


def test_power_law_totals_overflow_is_caught(monkeypatch):
    # an int64 sum that would wrap raises instead
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    monkeypatch.setattr(d, "_tail_draws",
                        lambda size, rng: np.full(size, 2**61, dtype=np.int64))
    with pytest.raises(PopulationOverflowError):
        d.sample_generation_totals(np.array([10**6]), substream(15, 0))


# ------------------------------------------------------------ deviation moments

def test_delta_moment_one_equals_normalized_variance(gw_dist):
    assert gw_dist.delta_moment(1.0) == pytest.approx(0.44, abs=1e-12)
    g = OffspringDistribution.geometric(mean=2.0)
    assert g.delta_moment(1.0) == pytest.approx(g.normalized_variance, rel=1e-8)


def test_delta_moment_zero_brute(gw_dist):
    # E|X/m - 1| with m = 5/4: |0-1|*1/4 + |4/5-1|*1/4 + |8/5-1|*1/2 = 0.6
    assert gw_dist.delta_moment(0.0) == pytest.approx(0.6, abs=1e-12)


def test_delta_moment_power_law_divergence_boundary():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    assert math.isinf(d.delta_moment(0.5))   # 1+delta-1 == alpha: divergent
    assert math.isinf(d.delta_moment(0.75))
    assert math.isfinite(d.delta_moment(0.25))


def test_delta_moment_power_law_against_brute():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    m = d.mean
    ks = np.arange(1, 10**7, dtype=float)
    p = d.pmf_vector(np.arange(1, 10**7))
    u = np.abs(ks / m - 1.0)
    brute = d.pmf(0) * 1.0 + float(p @ u**1.25)
    # the brute sum truncates at 1e7; bound its own remainder analytically:
    # pmf(k) u^1.25 <= c m^-1.25 k^-1.25 for k beyond the cut
    c = d.pmf(1)
    tail_upper = c * m ** -1.25 * float(special.zeta(1.25, 10**7))
    val = d.delta_moment(0.25)
    assert brute <= val <= brute + tail_upper * 1.001
    assert val == pytest.approx(brute + tail_upper, rel=0.02)


def _brute_power_tail_moments(d, cases, cut=1 << 23, block=1 << 20):
    """``E[U^upow scale^(upow-1) log(1+U scale)^logpow]`` per case: exact
    sum over ``k <= cut``, then the integral remainder from ``cut + 1/2``."""
    m, sigma = d.mean, 2.0 + d._alpha
    sums = dict.fromkeys(cases, 0.0)
    for start in range(0, cut + 1, block):
        ks = np.arange(start, min(start + block, cut + 1))
        p = d.pmf_vector(ks)
        u = np.abs(ks / m - 1.0)
        for upow, logpow, scale in cases:
            val = p * u**upow * scale ** (upow - 1.0)
            if logpow:
                val = val * np.log1p(u * scale) ** logpow
            sums[upow, logpow, scale] += float(val.sum())
    k0 = cut + 0.5

    def h(x, upow, logpow, scale):
        u = x / m - 1.0
        return (d._c * x**-sigma * u**upow * scale ** (upow - 1.0)
                * math.log1p(u * scale) ** logpow)

    for case in cases:
        tail, _ = integrate.quad(lambda t: h(k0 / t, *case) * k0 / (t * t),
                                 0.0, 1.0, limit=200)
        sums[case] += tail
    return sums


@pytest.fixture(scope="module")
def power_tail_oracle():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    cases = [(1.0 + power, logpow, scale)
             for power, logpow in ((0.25, 0.0), (0.0, 1.0), (0.0, 3.0))
             for scale in (1.0, 0.3, 0.05)]
    return _brute_power_tail_moments(d, cases)


@pytest.mark.parametrize("power,logpow", [(0.25, 0.0), (0.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("scale", [1.0, 0.3, 0.05])
def test_power_tail_psi_moment_against_brute_oracle(power_tail_oracle, power,
                                                    logpow, scale):
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    phi = PhiFunction(power=power, log_power=logpow)
    oracle = power_tail_oracle[1.0 + power, logpow, scale]
    assert d.psi_moment(phi, scale, tol=1e-12) == pytest.approx(oracle,
                                                                rel=1e-12)


@pytest.mark.parametrize("upow,logpow,scale",
                         [(1.25, 0.0, 1.0), (1.0, 1.0, 0.3), (1.0, 3.0, 0.05),
                          (1.0, 3.0, 1.0)])
def test_power_tail_remainder_bound_holds_at_short_heads(monkeypatch, upow,
                                                         logpow, scale):
    # the certified remainder bound must cover the actual error even at
    # heads short enough for it to be visible
    ref = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2) \
        ._u_weighted_moment(upow, logpow, scale, 1e-12)
    bounds = []
    bound = distributions._remainder_bound
    monkeypatch.setattr(distributions, "_remainder_bound",
                        lambda *a: bounds.append(bound(*a)) or bounds[-1])
    for head in (16, 64):
        monkeypatch.setattr(distributions, "_MOMENT_HEAD", head)
        monkeypatch.setattr(distributions, "_MOMENT_HEAD_MAX", head)
        d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
        val = d._u_weighted_moment(upow, logpow, scale, 1e-12)
        assert abs(val - ref) <= bounds[-1] + 1e-12 * max(1.0, ref)
        assert bounds[-1] > 1e-12  # not trivially small at this head


def test_power_tail_moment_head_grows_to_meet_tolerance(monkeypatch):
    phi = PhiFunction(log_power=3.0)
    ref = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2) \
        .psi_moment(phi, 0.3, tol=1e-12)
    cuts = []
    bound = distributions._remainder_bound
    monkeypatch.setattr(distributions, "_remainder_bound",
                        lambda a, *rest: cuts.append(a) or bound(a, *rest))
    monkeypatch.setattr(distributions, "_MOMENT_HEAD", 64)
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    assert d.psi_moment(phi, 0.3, tol=1e-12) == pytest.approx(ref, rel=1e-12)
    assert len(cuts) > 1 and cuts[0] == 64.5


def test_psi_moment_power_one_is_scaled_variance(gw_dist):
    phi = PhiFunction(power=1.0)
    assert gw_dist.psi_moment(phi, 1.0) == pytest.approx(0.44, abs=1e-12)
    assert gw_dist.psi_moment(phi, 0.25) == pytest.approx(0.11, abs=1e-12)


def test_psi_moment_log_brute(gw_dist):
    phi = PhiFunction(power=0.0, log_power=1.0)
    m = 1.25
    u = np.abs(np.array([0, 1, 2]) / m - 1.0)
    brute = float(np.array([0.25, 0.25, 0.5]) @ (u * np.log1p(u * 0.5)))
    assert gw_dist.psi_moment(phi, 0.5) == pytest.approx(brute, abs=1e-12)


def test_psi_moment_zero_phi(gw_dist):
    assert gw_dist.psi_moment(PhiFunction(zero=True), 1.0) == 0.0


def test_psi_moment_geometric_log_converges():
    d = OffspringDistribution.geometric(mean=2.0)
    phi = PhiFunction(power=0.0, log_power=1.0)
    v = d.psi_moment(phi, 0.1)
    ks = np.arange(0, 4000)
    p = d.pmf_vector(ks)
    u = np.abs(ks / d.mean - 1.0)
    brute = float(p @ (u * np.log1p(u * 0.1)))
    assert v == pytest.approx(brute, rel=1e-6)


def test_psi_moment_power_law_log_envelope():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    phi = PhiFunction(power=0.0, log_power=1.0)
    v = d.psi_moment(phi, 0.01)
    assert math.isfinite(v) and v > 0
    ks = np.arange(1, 10**7)
    p = d.pmf_vector(ks)
    u = np.abs(ks.astype(float) / d.mean - 1.0)
    brute = d.pmf(0) * np.log1p(0.01) + float(p @ (u * np.log1p(u * 0.01)))
    assert v >= brute * (1 - 1e-9)
    assert v == pytest.approx(brute, rel=0.05)


# -------------------------------------------------------------- moment ratio

def test_truncated_moment_ratio_exact_rational(gw_dist):
    # [DERIVED] exact rationals: EX^2 = 9/4, num = 2, E(X|X>=1) = 5/3,
    # E(X; X>=2) = 1, so the ratio is 6/5
    oracle = Fraction(2, 1) / (Fraction(5, 3) * Fraction(1, 1))
    assert oracle == Fraction(6, 5)
    assert gw_dist.truncated_moment_ratio() == pytest.approx(float(oracle),
                                                             abs=1e-12)


def test_truncated_moment_ratio_heavy_tail_infinite():
    d = OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)
    assert math.isinf(d.truncated_moment_ratio())


def test_truncated_moment_ratio_not_applicable():
    d = OffspringDistribution.finite_pmf([0.5, 0.5])
    with pytest.raises(NotApplicableError):
        d.truncated_moment_ratio()


# ------------------------------------------------------------- config round trip

def test_config_round_trip(gw_dist):
    for d in (gw_dist,
              OffspringDistribution.geometric(mean=1.5),
              OffspringDistribution.poisson(lam=2.0),
              OffspringDistribution.linear_fractional(p0=0.2, q=0.5),
              OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2)):
        d2 = OffspringDistribution.from_config(d.to_config())
        assert d2 == d


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"kind": "geometric", "mean": 1.0,
                                           "extra": 1})
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"mean": 1.0})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        OffspringDistribution.finite_pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        OffspringDistribution.geometric(mean=0.0)
    with pytest.raises(ValueError):
        OffspringDistribution.power_law_tail(alpha=-1.0, p0=0.2)
    with pytest.raises(ValueError):
        PhiFunction(power=-1.0)


# ---------------------------------------------------------------- property tests

@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2,
                max_size=8))
@settings(max_examples=50, deadline=None)
def test_finite_pmf_properties(weights):
    pmf = np.array(weights) / np.sum(weights)
    d = OffspringDistribution.finite_pmf(list(pmf))
    ks = np.arange(len(pmf))
    assert d.mean == pytest.approx(float(pmf @ ks), abs=1e-10)
    assert d.variance >= 0
    if d.mean > 0:
        assert d.delta_moment(1.0) == pytest.approx(d.normalized_variance,
                                                    rel=1e-9, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_geometric_closure_mean(mean):
    d = OffspringDistribution.geometric(mean=mean)
    rng = substream(123, 7)
    total = sample_generation_total(d, 50000, rng)
    se = math.sqrt(50000 * d.variance)
    assert abs(total - 50000 * mean) < 6 * se


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_delta_moment_finite_for_light_tails(delta):
    d = OffspringDistribution.poisson(lam=1.3)
    v = d.delta_moment(delta)
    assert math.isfinite(v) and v >= 0
