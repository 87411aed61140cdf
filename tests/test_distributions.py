import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from bpve import distributions
from bpve.distributions import (NotApplicableError, OffspringDistribution,
                                PhiFunction, PopulationOverflowError)
from bpve.numerics import zeta
from bpve.simulate import log_switch_threshold
from bpve.streams import substream
from oracles import sample, sample_generation_total


# ---------------------------------------------------------------- pmf / moments

def test_finite_pmf_moments(gw_dist):
    assert gw_dist.mean == pytest.approx(1.25, abs=1e-15)
    assert gw_dist.variance == pytest.approx(0.6875, abs=1e-15)
    assert gw_dist.normalized_variance == pytest.approx(0.44, abs=1e-14)
    assert gw_dist.log_mean == pytest.approx(math.log(1.25), abs=1e-15)


def test_geometric_moments():
    d = OffspringDistribution("geometric", mean=2.0)
    assert d.mean == pytest.approx(2.0, abs=1e-14)
    # Var = q/(1-q)^2 = m(1+m)
    assert d.variance == pytest.approx(6.0, abs=1e-12)
    ks = np.arange(200)
    p = d.pmf_vector(ks)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(p @ ks) == pytest.approx(2.0, abs=1e-12)


def test_poisson_and_linear_fractional_moments():
    p = OffspringDistribution("poisson", lam=1.7)
    assert p.mean == pytest.approx(1.7)
    assert p.variance == pytest.approx(1.7)
    lf = OffspringDistribution("linear_fractional", p0=0.3, q=0.4)
    assert lf.mean == pytest.approx(0.7 / 0.6, abs=1e-14)
    ks = np.arange(300)
    pv = lf.pmf_vector(ks)
    assert pv.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(pv @ ks) == pytest.approx(lf.mean, abs=1e-12)
    assert float(pv @ ks**2) - lf.mean**2 == pytest.approx(lf.variance, abs=1e-10)


def test_power_law_pmf_against_brute_sum():
    # [DERIVED] oracle: normalization and mean by direct 1e7-term summation
    alpha, p0 = 0.5, 0.2
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=p0)
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
    d = OffspringDistribution("power_law_tail", alpha=1.5, p0=0.1)
    assert math.isfinite(d.variance)
    ks = np.arange(0, 10**6)
    pv = d.pmf_vector(ks)
    assert pv.sum() == pytest.approx(1.0, abs=1e-4)


CLOSED_FORM_LAWS = [
    pytest.param({"kind": "finite_pmf", "pmf": [0.1, 0.2, 0.3, 0.4]},
                 id="finite_pmf"),
    pytest.param({"kind": "geometric", "mean": 1.3}, id="geometric"),
    pytest.param({"kind": "poisson", "lam": 1.7}, id="poisson"),
    pytest.param({"kind": "linear_fractional", "p0": 0.3, "q": 0.45},
                 id="linear_fractional"),
    pytest.param({"kind": "power_law_tail", "alpha": 0.5, "p0": 0.2},
                 id="power_law_tail_0.5"),
    pytest.param({"kind": "power_law_tail", "alpha": 1.5, "p0": 0.1},
                 id="power_law_tail_1.5"),
]


def closed_forms(cfg):
    """Mean and variance by each family's closed form, in the operations
    and order the law's moments have always used."""
    kind = cfg["kind"]
    if kind == "finite_pmf":
        pmf = np.asarray(cfg["pmf"], dtype=float)
        pmf, ks = pmf / pmf.sum(), np.arange(len(pmf), dtype=np.int64)
        m = float(np.dot(pmf, ks))
        return m, float(np.dot(pmf, (ks - m) ** 2))
    if kind == "geometric":
        q = cfg["mean"] / (1.0 + cfg["mean"])
        return q / (1.0 - q), q / (1.0 - q) ** 2
    if kind == "poisson":
        return cfg["lam"], cfg["lam"]
    p0 = cfg["p0"]
    if kind == "linear_fractional":
        q = cfg["q"]
        m = (1.0 - p0) / (1.0 - q)
        return m, (1.0 - p0) * (1.0 + q) / (1.0 - q) ** 2 - m * m
    alpha = cfg["alpha"]
    c = (1.0 - p0) / zeta(2.0 + alpha)
    m = c * zeta(1.0 + alpha)
    return m, math.inf if alpha <= 1.0 else c * zeta(alpha) - m * m


@pytest.mark.parametrize("cfg", CLOSED_FORM_LAWS)
def test_closed_forms_are_fixed_at_construction(cfg):
    d = OffspringDistribution.from_config(cfg)
    assert {"mean", "variance"} <= set(vars(d))
    assert (d.mean, d.variance) == closed_forms(cfg)  # bitwise


@pytest.mark.parametrize("cfg", CLOSED_FORM_LAWS)
def test_kernel_reads_leave_the_moment_cache_empty(cfg):
    d = OffspringDistribution.from_config(cfg)
    parents = np.array([0, 1, 5, 300], dtype=np.int64)
    assert d.overflow_rows(parents) is None
    d.sample_generation_totals(parents, np.random.default_rng(3))
    log_switch_threshold(d)
    d.log_mean, d.normalized_variance
    assert d._cache == {}


@pytest.mark.parametrize("alpha", [1e6, 3e6, 1e7, 1e300])
def test_huge_alpha_moments_equal_the_two_point_law(alpha):
    # P(X >= 2) rounds to 0, so the law is P(X=0) = 0.2, P(X=1) = 0.8; from
    # alpha 3e6 the remainder's Euler-Maclaurin factor overflowed, and at
    # 1e300 the tail quadrature warned
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=0.2)
    two_point = OffspringDistribution("finite_pmf", pmf=[0.2, 0.8])
    phi = PhiFunction(power=0.5, log_power=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.delta_moment(0.25, tol=1e-12) \
            == two_point.delta_moment(0.25, tol=1e-12)
        assert d.psi_moment(phi, 0.3, tol=1e-12) \
            == two_point.psi_moment(phi, 0.3, tol=1e-12)


@pytest.mark.parametrize("alpha", [3.0, 5.0, 8.0, 1e3])
def test_negligible_power_tail_rest_keeps_the_refined_sum(monkeypatch, alpha):
    # where the crude bound on the rest is below half an ulp of the head,
    # the rest is 0; the refined estimate gives the same bits (from about
    # alpha 5 the shortcut serves some of these moments, from 8 all)
    moments = [lambda d, x=delta: d.delta_moment(x, tol=1e-12)
               for delta in (0.25, 0.5, 1.0)] + [
        lambda d, f=phi, x=s: d.psi_moment(f, x, tol=1e-12) for phi, s in [
            (PhiFunction(power=0.5, log_power=1.0), 1.0),
            (PhiFunction(log_power=2.0), 0.3),
            (PhiFunction(power=1.0, log_power=0.5), 7.0)]]
    laws = [OffspringDistribution("power_law_tail", alpha=alpha, p0=p0)
            for p0 in (0.0, 0.7)]
    integrals = []
    integral = distributions._power_tail_integral
    monkeypatch.setattr(distributions, "_power_tail_integral",
                        lambda *a: integrals.append(a) or integral(*a))
    values = [f(d) for d in laws for f in moments]
    quick = len(integrals)
    remainder = OffspringDistribution._remainder
    monkeypatch.setattr(OffspringDistribution, "_remainder",
                        lambda *a: remainder(*a[:-1], 0.0))
    laws = [OffspringDistribution("power_law_tail", alpha=alpha, p0=p0)
            for p0 in (0.0, 0.7)]
    assert [f(d) for d in laws for f in moments] == values
    assert len(integrals) - quick == len(values)
    assert (quick < len(values)) == (alpha >= 5.0)


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
    d = OffspringDistribution("geometric", mean=1.3)
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
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
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


TOTALS_LAWS = {
    "finite_pmf": OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5]),
    "geometric": OffspringDistribution("geometric", mean=1.5),
    "poisson": OffspringDistribution("poisson", lam=2.0),
    "linear_fractional": OffspringDistribution("linear_fractional",
                                               p0=0.3, q=0.6),
    "power_law_tail": OffspringDistribution("power_law_tail",
                                            alpha=0.5, p0=0.2),
}


@pytest.mark.parametrize("kind", [*TOTALS_LAWS, "geometric_rows"])
def test_zero_parent_rows_match_positive_rows_alone(kind):
    # parent counts without a zero are drawn unmasked; with zeros mixed in,
    # those rows total 0, and the others get the totals, and leave the
    # stream where, drawing them alone would
    parents = np.array([0, 3, 0, 17, 1, 0, 250, 4000, 2, 0], dtype=np.int64)
    pos = parents > 0
    mean = np.linspace(0.25, 2.5, len(parents))

    def law(rows):
        if kind == "geometric_rows":
            return distributions.GeometricRows(mean[rows])
        return TOTALS_LAWS[kind]

    mixed_rng, alone_rng = substream(31, 0), substream(31, 0)
    mixed = law(slice(None)).sample_generation_totals(parents, mixed_rng)
    alone = law(pos).sample_generation_totals(parents[pos], alone_rng)
    assert mixed.dtype == alone.dtype == np.int64
    assert (mixed[~pos] == 0).all() and (alone > 0).any()
    assert mixed[pos].tolist() == alone.tolist()
    assert mixed_rng.random(4).tolist() == alone_rng.random(4).tolist()


def test_geometric_rows_totals_in_row_chunks_are_one_negative_binomial(
        monkeypatch):
    # 7-row passes (a quarter of the row chunk): 40 rows take five full
    # passes and a part
    monkeypatch.setattr(distributions, "ROW_CHUNK", 28)
    parents = np.arange(1, 41, dtype=np.int64) ** 2
    rows = distributions.GeometricRows(np.linspace(0.25, 2.5, len(parents)))
    got_rng, want_rng = substream(33, 0), substream(33, 0)
    got = rows.sample_generation_totals(parents, got_rng)
    want = want_rng.negative_binomial(parents, 1.0 - rows.q)
    assert got.tolist() == want.tolist()
    assert got_rng.random(4).tolist() == want_rng.random(4).tolist()


def test_geometric_rows_totals_written_over_their_parents(monkeypatch):
    # the kernel draws a Gaussian group's totals over its own counts: each
    # 7-row pass reads its parents before writing its totals, and no pass
    # reads a row an earlier pass wrote; zero rows take no draw
    monkeypatch.setattr(distributions, "ROW_CHUNK", 28)
    parents = np.arange(1, 41, dtype=np.int64) ** 2
    parents[[0, 9, 10, 33]] = 0
    rows = distributions.GeometricRows(np.linspace(0.25, 2.5, len(parents)))
    got_rng, want_rng = substream(34, 0), substream(34, 0)
    want = rows.sample_generation_totals(parents.copy(), want_rng)
    got = rows.sample_generation_totals(parents, got_rng, out=parents)
    assert got is parents
    assert got.tolist() == want.tolist()
    assert got_rng.random(4).tolist() == want_rng.random(4).tolist()


def test_overflow_guard():
    d = OffspringDistribution("geometric", mean=4.0)
    rng = substream(9, 0)
    with pytest.raises(PopulationOverflowError) as ei:
        d.sample_generation_totals(np.array([2**61], dtype=np.int64), rng)
    assert ei.value.log_estimate > 40.0


def test_overflow_guard_on_a_mean_zero_law():
    # the estimate read log_mean, which refuses a mean of 0, so this raised
    # UnsupportedDistributionError instead
    d = OffspringDistribution("finite_pmf", pmf=[1.0])
    with pytest.raises(PopulationOverflowError) as ei:
        d.sample_generation_totals(np.array([2**62 + 2**20]), substream(9, 0))
    assert ei.value.log_estimate == math.log(2**62 + 2**20)


def test_power_law_total_exact_at_large_parent_count():
    # finite variance: the exact total of 2e7 offspring counts sits within
    # 6 standard deviations of its mean, and costs O(head) not O(parents)
    d = OffspringDistribution("power_law_tail", alpha=1.5, p0=0.1)
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
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=0.2)
    rng = substream(11, int(alpha * 10))
    reps = 4000
    for parents in (1, 10, 64, 300):
        closed = d.sample_generation_totals(np.full(reps, parents), rng)
        naive = np.array([int(sample(d, rng, size=parents).sum())
                          for _ in range(reps)])
        _, p = stats.ks_2samp(np.minimum(closed, 500), np.minimum(naive, 500))
        assert p > 1e-3, (parents, p)


@pytest.mark.parametrize("alpha,reps", [(0.5, 10**6), (1.5, 2 * 10**6)])
def test_power_law_totals_exact_across_head_boundary(alpha, reps):
    # small totals against the exact convolution of the pmf: bins 0..cap
    # cover every sum of three head counts, and at alpha 1.5 it takes
    # 2e6 rows to see a tail that starts one count late
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=0.2)
    cap = 3 * distributions._TOTALS_HEAD
    pmf = d.pmf_vector(np.arange(cap + 1))
    law = np.array([1.0])
    for parents in (1, 2, 3):
        law = np.convolve(law, pmf)[:cap + 1]
        totals = d.sample_generation_totals(np.full(reps, parents),
                                            substream(16, parents))
        obs = np.bincount(np.minimum(totals, cap + 1), minlength=cap + 2)
        exp = np.append(law, 1.0 - law.sum()) * reps
        _, p = stats.chisquare(obs, exp)
        assert p > 1e-3, (parents, p)


def test_power_law_composition_tail_count_binomial(monkeypatch):
    # the number of offspring drawn beyond the multinomial head is
    # Binomial(parents, P(X > head))
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
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
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=0.2)
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
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
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
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    monkeypatch.setattr(d, "_tail_draws",
                        lambda size, rng: np.full(size, 2**61, dtype=np.int64))
    with pytest.raises(PopulationOverflowError):
        d.sample_generation_totals(np.array([10**6]), substream(15, 0))


# ------------------------------------------------------------ deviation moments

def test_geometric_laws_share_one_int64_rule():
    # a geometric law and the per-row geometric laws of a Gaussian
    # environment flag the same parent counts, and numpy's negative binomial
    # samples every row that passes
    means = [0.5, 1.0, 2.0, 1e3, 1e6, 4.6e6, 1e9, 1e12, 9e15]
    parents = [1, 2, 10, 500, 512, 513, 1000, 10**6, 4 * 10**6, 10**9,
               10**12]
    laws = [OffspringDistribution("geometric", mean=m) for m in means]
    pairs = [(law, n) for law in laws for n in parents]
    rows = distributions.GeometricRows(
        np.array([law.params["mean"] for law, _ in pairs]))
    q = np.array([law._q for law, _ in pairs])
    assert rows.q.tobytes() == q.tobytes()
    n = np.array([n for _, n in pairs], dtype=np.int64)
    got = rows.overflow_rows(n)
    want = [law.overflow_rows(np.array([k], dtype=np.int64)) is not None
            for law, k in pairs]
    assert got.tolist() == want
    assert 0 < got.sum() < len(pairs)
    np.random.default_rng(0).negative_binomial(n[~got], 1.0 - q[~got])


def test_geometric_rows_read_as_the_laws_of_their_means():
    # rows[k] is OffspringDistribution("geometric", mean=mean[k]): equal
    # params, so equal repr and hash, the same q bits, and the same kernel
    # draws
    mean = np.exp(np.random.default_rng(1).normal(0.1, 0.3, 64))
    rows = distributions.GeometricRows(mean)
    assert len(rows) == len(mean)
    parents = np.arange(1, 65, dtype=np.int64) ** 2
    got = rows.sample_generation_totals(parents, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    for k, m in enumerate(mean.tolist()):
        law = OffspringDistribution("geometric", mean=m)
        assert rows[k] == law and repr(rows[k]) == repr(law)
        assert hash(rows[k]) == hash(law)
        assert np.float64(rows[k]._q).tobytes() == rows.q[k].tobytes() \
            == np.float64(law._q).tobytes()
        assert law.sample_generation_totals(parents[k:k + 1], rng) == got[k]


def test_delta_moment_one_equals_normalized_variance(gw_dist):
    assert gw_dist.delta_moment(1.0) == pytest.approx(0.44, abs=1e-12)
    g = OffspringDistribution("geometric", mean=2.0)
    assert g.delta_moment(1.0) == pytest.approx(g.normalized_variance, rel=1e-8)
    # the light-tail sum stopped at its first block once lam passed about
    # 4,000: Poisson(5000) gave 1.3e-41 for a normalized variance of 2e-4
    for law in [OffspringDistribution("poisson", lam=lam)
                for lam in (1.7, 5000.0, 1e5)] + [
            OffspringDistribution("geometric", mean=mean)
            for mean in (0.5, 1e5)] + [
            OffspringDistribution("linear_fractional", p0=0.3, q=0.6)]:
        assert law.delta_moment(1.0) == pytest.approx(
            law.normalized_variance, rel=1e-9), law


def test_delta_moment_zero_brute(gw_dist):
    # E|X/m - 1| with m = 5/4: |0-1|*1/4 + |4/5-1|*1/4 + |8/5-1|*1/2 = 0.6
    assert gw_dist.delta_moment(0.0) == pytest.approx(0.6, abs=1e-12)


def test_delta_moment_power_law_divergence_boundary():
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    assert math.isinf(d.delta_moment(0.5))   # 1+delta-1 == alpha: divergent
    assert math.isinf(d.delta_moment(0.75))
    assert math.isfinite(d.delta_moment(0.25))


def test_delta_moment_power_law_against_brute():
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
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
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    cases = [(1.0 + power, logpow, scale)
             for power, logpow in ((0.25, 0.0), (0.0, 1.0), (0.0, 3.0))
             for scale in (1.0, 0.3, 0.05)]
    return _brute_power_tail_moments(d, cases)


@pytest.mark.parametrize("power,logpow", [(0.25, 0.0), (0.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("scale", [1.0, 0.3, 0.05])
def test_power_tail_psi_moment_against_brute_oracle(power_tail_oracle, power,
                                                    logpow, scale):
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    phi = PhiFunction(power=power, log_power=logpow)
    oracle = power_tail_oracle[1.0 + power, logpow, scale]
    assert d.psi_moment(phi, scale, tol=1e-12) == pytest.approx(oracle,
                                                                rel=1e-12)


HEAVY_LAW = {"kind": "power_law_tail", "alpha": 0.5, "p0": 0.2}


@pytest.mark.parametrize("law,upow,logpow,scale", [
    *(pytest.param(HEAVY_LAW, *case, id="-".join(map(str, case)))
      for case in [(1.25, 0.0, 1.0), (1.0, 1.0, 0.3), (1.0, 3.0, 0.05),
                   (1.0, 3.0, 1.0)]),
    pytest.param({"kind": "geometric", "mean": 0.5}, 1.25, 0.0, 1.0,
                 id="geometric"),
    pytest.param({"kind": "poisson", "lam": 1.7}, 1.0, 3.0, 0.3, id="poisson"),
])
def test_power_tail_remainder_bound_holds_at_short_heads(monkeypatch, law,
                                                         upow, logpow, scale):
    # the certified remainder bound (Euler-Maclaurin for the power tail, the
    # ratio test for a light one) must cover the actual error even at heads
    # short enough for it to be visible; a tol of 1e-3 is met there, so the
    # capped head returns a certified value
    ref = OffspringDistribution.from_config(law) \
        ._u_weighted_moment(upow, logpow, scale, 1e-12)
    bounds = []
    if law is HEAVY_LAW:
        bound = distributions._remainder_bound
        monkeypatch.setattr(distributions, "_remainder_bound",
                            lambda *a: bounds.append(bound(*a)) or bounds[-1])
    else:
        remainder = OffspringDistribution._remainder

        def record(*args):
            rest, err = remainder(*args)
            bounds.append(err)
            return rest, err
        monkeypatch.setattr(OffspringDistribution, "_remainder", record)
    for head in (16, 64):
        monkeypatch.setattr(distributions, "_MOMENT_HEAD", head)
        monkeypatch.setattr(distributions, "_MOMENT_HEAD_MAX", head)
        d = OffspringDistribution.from_config(law)
        val = d._u_weighted_moment(upow, logpow, scale, 1e-3)
        assert abs(val - ref) <= bounds[-1] + 1e-12 * max(1.0, ref)
        if law is HEAVY_LAW or head == 16:  # a light tail is gone by 64
            assert bounds[-1] > 1e-12  # not trivially small at this head


def test_power_tail_moment_head_grows_to_meet_tolerance(monkeypatch):
    phi = PhiFunction(log_power=3.0)
    ref = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2) \
        .psi_moment(phi, 0.3, tol=1e-12)
    cuts = []
    bound = distributions._remainder_bound
    monkeypatch.setattr(distributions, "_remainder_bound",
                        lambda a, *rest: cuts.append(a) or bound(a, *rest))
    monkeypatch.setattr(distributions, "_MOMENT_HEAD", 64)
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    assert d.psi_moment(phi, 0.3, tol=1e-12) == pytest.approx(ref, rel=1e-12)
    assert len(cuts) > 1 and cuts[0] == 64.5


LIGHT_LAWS = [{"kind": "geometric", "mean": m} for m in (0.5, 1.1, 3.0, 10.0)] \
    + [{"kind": "poisson", "lam": lam} for lam in (0.5, 1.7, 12.0)] \
    + [{"kind": "linear_fractional", "p0": p0, "q": q}
       for p0, q in ((0.3, 0.6), (0.1, 0.9))]
# delta_moment(delta) and psi_moment(phi, scale), as (power, log_power, scale)
# of E[U^(1+power) scale^power log(1 + U scale)^log_power]
LIGHT_MOMENTS = [(0.0, 0.0, 1.0), (0.25, 0.0, 1.0), (1.0, 0.0, 1.0),
                 (0.5, 0.0, 0.3), (0.0, 1.0, 0.3), (0.25, 2.0, 2.0)]


def _light_pmf_mp(d, k: int):
    """The law's pmf at ``k`` in mpmath, from its float parameters."""
    import mpmath
    if d.kind == "geometric":
        q = mpmath.mpf(d._q)
        return (1 - q) * q**k
    if d.kind == "poisson":
        lam = mpmath.mpf(d._lam)
        return mpmath.exp(-lam) * lam**k / mpmath.factorial(k)
    p0, q = mpmath.mpf(d._p0), mpmath.mpf(d._q)
    return p0 if k == 0 else (1 - p0) * (1 - q) * q**(k - 1)


def _light_moment_mp(d, power: float, logpow: float, scale: float) -> float:
    """The moment summed in 30 digits until a term past ``2m`` is below
    1e-35 of the sum; the terms then fall geometrically, so the rest is
    far below a float's resolution."""
    import mpmath
    with mpmath.workdps(30):
        m, s, total, k = mpmath.mpf(d.mean), mpmath.mpf(scale), 0, 0
        while True:
            u = abs(k / m - 1)
            term = _light_pmf_mp(d, k) * u ** (1 + power) * s**power \
                * mpmath.log1p(u * s) ** logpow
            total += term
            if k > 2 * d.mean and term < mpmath.mpf(10) ** -35 * total:
                return float(total)
            k += 1


@pytest.mark.parametrize("law", LIGHT_LAWS,
                         ids=lambda c: "-".join(map(str, c.values())))
@pytest.mark.parametrize("power,logpow,scale", LIGHT_MOMENTS)
def test_light_tail_moments_within_their_certified_error(monkeypatch, law,
                                                         power, logpow,
                                                         scale):
    # a light tail's head starts at 16 terms and stops growing once the
    # ratio test certifies the rest: the value is within that certificate
    # of a 2^12-term direct head and of a 30-digit sum
    bounds = []
    remainder = OffspringDistribution._remainder

    def record(*args):
        rest, err = remainder(*args)
        bounds.append(err)
        return rest, err
    monkeypatch.setattr(OffspringDistribution, "_remainder", record)
    d = OffspringDistribution.from_config(law)
    phi = PhiFunction(power=power, log_power=logpow)
    got = (d.delta_moment(power) if scale == 1.0 and not logpow
           else d.psi_moment(phi, scale))
    # a pure power's moment is scale^power times the unscaled one
    bound = bounds[-1] * (scale**power if not logpow else 1.0)
    assert bound <= 1e-9 * max(1.0, got)
    ks = np.arange((1 << 12) + 1)
    u = np.abs(ks / d.mean - 1.0)
    head = float(d.pmf_vector(ks) @ (u ** (1.0 + power) * scale**power
                                     * np.log1p(u * scale) ** logpow))
    for ref in (head, _light_moment_mp(d, power, logpow, scale)):
        assert abs(got - ref) <= bound + 1e-14 * max(1.0, ref)


@pytest.mark.parametrize("law,cuts", [
    ({"kind": "poisson", "lam": 0.5}, [16]),
    ({"kind": "geometric", "mean": 1.1}, [16, 64]),
    # 2m = 20 > 16: the head starts at 64, then grows fourfold
    ({"kind": "geometric", "mean": 10.0}, [64, 256, 1024]),
], ids=["poisson-0.5", "geometric-1.1", "geometric-10"])
def test_light_tail_heads_start_at_16_terms(monkeypatch, law, cuts):
    seen = []
    remainder = OffspringDistribution._remainder
    monkeypatch.setattr(OffspringDistribution, "_remainder",
                        lambda self, cut, *a: seen.append(cut)
                        or remainder(self, cut, *a))
    OffspringDistribution.from_config(law).delta_moment(0.25)
    assert seen == cuts


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


def test_psi_moment_at_zero_scale_is_phi_of_zero():
    # phi(U * 0) = phi(0) for every U: 0 when phi(0) = 0, even for a law
    # whose E U^(1+d) is infinite (0.0 * inf was NaN), and E U when phi = 1
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    for phi in (PhiFunction(power=0.5), PhiFunction(log_power=1.0),
                PhiFunction(power=0.5, log_power=1.0)):
        assert d.psi_moment(phi, 0.0) == 0.0
    assert math.isinf(d.psi_moment(PhiFunction(power=0.5), 1e-300))
    assert d.psi_moment(PhiFunction(), 0.0) == d.delta_moment(0.0)


def test_psi_moment_geometric_log_converges():
    d = OffspringDistribution("geometric", mean=2.0)
    phi = PhiFunction(power=0.0, log_power=1.0)
    v = d.psi_moment(phi, 0.1)
    ks = np.arange(0, 4000)
    p = d.pmf_vector(ks)
    u = np.abs(ks / d.mean - 1.0)
    brute = float(p @ (u * np.log1p(u * 0.1)))
    assert v == pytest.approx(brute, rel=1e-6)


def test_log_psi_moment_where_u_times_scale_overflows():
    # u * scale passes 1.8e308 for every k >= 1, where the pmf is positive
    d = OffspringDistribution("geometric", mean=1e-10)
    phi = PhiFunction(power=0.0, log_power=1.0)
    brute = 0.0
    for k in range(40):
        u = abs(k / d.mean - 1.0)
        brute += d.pmf(k) * u * (math.log(u) + math.log(1e300) if k
                                 else math.log1p(u * 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.psi_moment(phi, 1e300) == pytest.approx(brute, rel=1e-12)
        # an infinite damping: log(1 + u * scale) is inf wherever u > 0
        assert d.psi_moment(phi, math.inf) == math.inf
        assert OffspringDistribution("finite_pmf", pmf=[0.0, 1.0]).psi_moment(
            phi, math.inf) == 0.0


def test_psi_moment_power_law_log_envelope():
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
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
    d = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    assert math.isinf(d.truncated_moment_ratio())


def test_truncated_moment_ratio_not_applicable():
    d = OffspringDistribution("finite_pmf", pmf=[0.5, 0.5])
    with pytest.raises(NotApplicableError):
        d.truncated_moment_ratio()


# ------------------------------------------------------------- config round trip

def test_config_round_trip(gw_dist):
    for cfg, d in (
            ({"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}, gw_dist),
            ({"kind": "geometric", "mean": 1.5},
             OffspringDistribution("geometric", mean=1.5)),
            ({"kind": "poisson", "lam": 2.0},
             OffspringDistribution("poisson", lam=2.0)),
            ({"kind": "linear_fractional", "p0": 0.2, "q": 0.5},
             OffspringDistribution("linear_fractional", p0=0.2, q=0.5)),
            ({"kind": "power_law_tail", "alpha": 0.5, "p0": 0.2},
             OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2))):
        assert OffspringDistribution.from_config(cfg) == d


@pytest.mark.parametrize("kind,params,field", [
    ("finite_pmf", {"pmf": [math.nan, 1.0]}, "pmf"),
    ("geometric", {"mean": math.nan}, "mean"),
    ("poisson", {"lam": math.nan}, "lam"),
    ("poisson", {"lam": math.inf}, "lam"),
    ("power_law_tail", {"alpha": math.nan, "p0": 0.2}, "alpha"),
    ("power_law_tail", {"alpha": math.inf, "p0": 0.2}, "alpha"),
])
def test_non_finite_parameters_are_refused_by_name(kind, params, field):
    # NaN used to pass the range check and fail later, in another's words
    with pytest.raises(ValueError, match=f"{field} (values )?must be"):
        OffspringDistribution(kind, **params)



def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"kind": "geometric", "mean": 1.0,
                                           "extra": 1})
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        OffspringDistribution.from_config({"mean": 1.0})


@pytest.mark.parametrize("kind,params,key", [
    ("geometric", {"mean": 2.0, "extra": 1}, "extra"),
    ("power_law_tail", {"alpha": 0.5, "p0": 0.2, "q": 0.5}, "q"),
    ("geometric", {}, "mean"),
    ("linear_fractional", {"p0": 0.2}, "q"),
    ("finite_pmf", {"weights": [1.0]}, "weights"),
])
def test_family_keys_are_checked_by_the_constructor(kind, params, key):
    # a stray key used to be accepted, and a missing one raised KeyError
    with pytest.raises(ValueError, match=f"keys: .*'{key}'"):
        OffspringDistribution(kind, **params)
    with pytest.raises(ValueError, match=f"keys: .*'{key}'"):
        OffspringDistribution.from_config({"kind": kind, **params})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        OffspringDistribution("finite_pmf", pmf=[0.5, 0.6])
    with pytest.raises(ValueError):
        OffspringDistribution("geometric", mean=0.0)
    with pytest.raises(ValueError):
        OffspringDistribution("power_law_tail", alpha=-1.0, p0=0.2)
    for power, log_power in [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                             (0.0, math.nan), (0.0, math.inf)]:
        with pytest.raises(ValueError, match="phi"):
            PhiFunction(power=power, log_power=log_power)


# ---------------------------------------------------------------- property tests

@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2,
                max_size=8))
@settings(max_examples=50, deadline=None)
def test_finite_pmf_properties(weights):
    pmf = np.array(weights) / np.sum(weights)
    d = OffspringDistribution("finite_pmf", pmf=list(pmf))
    ks = np.arange(len(pmf))
    assert d.mean == pytest.approx(float(pmf @ ks), abs=1e-10)
    assert d.variance >= 0
    if d.mean > 0:
        assert d.delta_moment(1.0) == pytest.approx(d.normalized_variance,
                                                    rel=1e-9, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_geometric_closure_mean(mean):
    d = OffspringDistribution("geometric", mean=mean)
    rng = substream(123, 7)
    total = sample_generation_total(d, 50000, rng)
    se = math.sqrt(50000 * d.variance)
    assert abs(total - 50000 * mean) < 6 * se


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_delta_moment_finite_for_light_tails(delta):
    d = OffspringDistribution("poisson", lam=1.3)
    v = d.delta_moment(delta)
    assert math.isfinite(v) and v >= 0
