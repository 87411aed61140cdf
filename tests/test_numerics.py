"""The in-house special functions and tail quadrature against scipy and
mpmath, on grids that cover the arguments bpve passes them, and the sample
median and quantiles against numpy's."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from bpve import distributions
from bpve.distributions import OffspringDistribution
from bpve import numerics
from bpve.numerics import (clopper_pearson_upper, median_and_quantiles,
                           poisson_pmf, zeta)


def ulps(value: float, ref) -> float:
    ref = float(ref)
    return abs(value - ref) / math.ulp(abs(ref))


@pytest.mark.parametrize("a", [1.0, 10.0, 65.0, 1e7])
def test_zeta_against_mpmath(a):
    grid = [1.0001, 1.01, 1.05, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5,
            4.75, 6.125, 8.0, 12.0, 16.2, 23.0, 31.5, 40.0]
    for s in grid:
        # mpmath's Hurwitz zeta cancels about s log10(a) digits against the
        # Riemann zeta, so it works with that many more than 30
        with mpmath.workdps(30 + int(s * math.log10(a))):
            assert ulps(zeta(s, a), mpmath.zeta(s, a)) <= 2.0, s


@pytest.mark.parametrize("a", [1.0, 17.0])
@pytest.mark.parametrize("s", [50.0, 1e3, 1e6, 1e300])
def test_zeta_at_large_s_against_mpmath(s, a):
    # past s = a + 54 the terms are summed directly: Euler-Maclaurin took
    # ceil(10 + s - a) of them, 0.17 s at s = 1e6, and never ended at 1e300
    start = time.perf_counter()
    got = zeta(s, a)
    assert time.perf_counter() - start < 0.01
    with mpmath.workdps(30):
        assert ulps(got, mpmath.zeta(s, a)) <= 2.0


@pytest.mark.parametrize("s,a", [(1.0, 1.0), (0.5, 1.0), (-3.0, 1.0),
                                 (2.0, 0.0), (2.0, -1.5), (math.nan, 1.0)])
def test_zeta_refuses_arguments_outside_its_domain(s, a):
    with pytest.raises(ValueError):
        zeta(s, a)


@pytest.mark.parametrize("trials", [1, 2, 10, 1000, 10**5, 10**6])
def test_clopper_pearson_against_scipy(trials):
    for hits in sorted({0, 1, trials // 2, trials - 1} & set(range(trials))):
        ref = special.betaincinv(hits + 1, trials - hits, 0.99)
        assert ulps(clopper_pearson_upper(hits, trials, 0.99), ref) <= 4.0
    assert clopper_pearson_upper(trials, trials, 0.99) == 1.0


@pytest.mark.parametrize("order", [16, 32])
def test_gauss_legendre_against_mpmath(order):
    nodes, weights = numerics._gauss_legendre(order)
    assert len(set(nodes)) == order
    with mpmath.workdps(40):
        for x, w in zip(nodes, weights):
            t = 2 * mpmath.mpf(x) - 1
            slope = order * (t * mpmath.legendre(order, t)
                             - mpmath.legendre(order - 1, t)) / (t * t - 1)
            # a root of the Legendre polynomial to an ulp of 1 on [-1, 1] ...
            assert abs(mpmath.legendre(order, t) / slope) <= 2.0**-52
            # ... and its weight
            exact = float(1 / ((1 - t * t) * slope**2))
            assert abs(w - exact) <= numerics._WEIGHT_ERR * exact


def _tail_case(alpha, upow, logpow, scale):
    d = OffspringDistribution("power_law_tail", alpha=alpha, p0=0.2)
    m, sigma = d.mean, 2.0 + alpha
    a = (1 << 16) + 0.5
    log_c = math.log(d._c) + (upow - 1.0) * math.log(scale)
    tail, err, af = distributions._power_tail_integral(
        a, m, log_c, sigma, upow, logpow, scale)
    with mpmath.workdps(30):
        big_a, big_m, big_s = mpmath.mpf(a), mpmath.mpf(m), mpmath.mpf(scale)
        c = mpmath.exp(mpmath.mpf(log_c))

        def xf(v):
            x = big_a * mpmath.exp(v)
            u = x / big_m - 1
            return (c * x ** (1 - sigma) * u**upow
                    * mpmath.log1p(u * big_s) ** logpow)

        # breakpoints at multiples of the decay length and around the
        # bend of log(1 + u scale)
        decay = 1.0 / (sigma - 1.0 - upow)
        pts = {0.0} | {decay * k for k in (0.5, 1, 2, 4, 8, 16, 32, 64)}
        bend = math.log(m / (a * scale))
        if logpow and bend > 0:
            pts |= {bend + k for k in (-6, -2, 0, 2, 6) if bend + k > 0}
        ref = float(mpmath.quad(xf, sorted(pts) + [mpmath.inf]))
    return tail, err, af, float(xf(0)), ref


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("edge", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("logpow", [0.0, 0.5, 1.0, 7.0])
@pytest.mark.parametrize("scale", [1e-12, 1e-4, 1.0, 1e6])
def test_power_tail_integral_against_mpmath(alpha, edge, logpow, scale):
    # upow from 1 up to 0.95 of the divergence edge 1 + alpha
    upow = 0.95 * (1.0 + alpha) if edge == 0.95 else 1.0 + edge * alpha
    tail, err, af, ref_af, ref = _tail_case(alpha, upow, logpow, scale)
    assert abs(tail - ref) <= err
    assert err <= 5e-13 * ref
    assert af == pytest.approx(ref_af, rel=1e-13)


def test_poisson_pmf_against_scipy():
    ks = np.arange(0, 8192)
    for lam in (0.3, 1.0, 2.5, 17.0, 300.0):
        got = OffspringDistribution("poisson", lam=lam).pmf_vector(ks)
        ref = stats.poisson.pmf(ks, lam)
        # both are exp of k log(lam) - lam - log k!, whose rounding grows
        # with the size of those terms
        size = ks * abs(math.log(lam)) + lam + special.gammaln(ks + 1.0)
        assert np.all(np.abs(got - ref) <= 8 * 2.0**-53 * (size + 1.0) * ref
                      + 1e-300)


@pytest.mark.parametrize("lam", [0.5, 3.0, 17.0, 300.0, 1e4, 1e6])
def test_poisson_pmf_against_mpmath(lam):
    # Loader's form stays within 1e-13 across 8 standard deviations; the
    # lgamma form, exp(k log(lam) - lam - log k!), was off by up to 3.6e-9
    # at lam 1e6.  Further out, bd0 = k log(k/lam) + lam - k cancels, and
    # the error grows to about 1e-16 (bd0 + |k - lam|)
    sd = math.sqrt(lam)
    ks = np.unique(np.linspace(max(lam - 8 * sd, 0), lam + 8 * sd + 8,
                               400).astype(np.int64))
    got = poisson_pmf(ks, lam)
    with mpmath.workdps(40):
        big = mpmath.mpf(lam)
        ref = [float(mpmath.exp(k * mpmath.log(big) - big
                                - mpmath.loggamma(k + 1))) for k in ks.tolist()]
    assert np.all(np.abs(got - ref) <= 1e-13 * np.array(ref))


def test_loader_kernels_keep_their_float_bits_on_arrays():
    # the Poisson pmf runs them on arrays; clopper_pearson_upper on floats,
    # whose bits must not move: an array entry below 10, or in bd0's
    # series, takes the float's operations
    z = np.arange(1.0, 40.0)
    assert numerics._stirling_error(z).tolist() == [
        numerics._stirling_error(v) for v in z.tolist()]
    k = np.arange(1.0, 3000.0)
    mean = 1000.0 + 0.25 * np.arange(len(k))
    got = numerics._bd0(k, mean)
    near = np.abs(k - mean) < 0.1 * (k + mean)
    assert near.sum() > 100
    assert got[near].tolist() == [numerics._bd0(a, b) for a, b in
                                  zip(k[near].tolist(), mean[near].tolist())]
    assert np.allclose(got, [numerics._bd0(a, b) for a, b in
                             zip(k.tolist(), mean.tolist())], rtol=1e-13)


def quantile_samples():
    """Samples of every length from 1 to 300: distinct values, ties, values
    with +-inf among them, and magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(30)
    for n in range(1, 301):
        yield rng.normal(size=n)
        yield rng.integers(0, 4, size=n).astype(float)
        yield rng.choice([-np.inf, -1.0, 0.0, 2.5, np.inf], size=n)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)


@pytest.mark.parametrize("levels", [(0.1,), (0.9,), (0.1, 0.5, 0.9),
                                    (0.0, 0.25, 1 / 3, 0.5, 1.0)])
def test_median_and_quantiles_match_numpy(levels):
    # the estimators pass one level, tightness the three QUANTILE_LEVELS
    for x in quantile_samples():
        median, quantiles = median_and_quantiles(x, levels)
        with np.errstate(invalid="ignore"):
            want = np.median(x), np.quantile(x, levels)
            one = [np.quantile(x, q) for q in levels]
        assert np.array_equal(median, want[0], equal_nan=True), x
        assert np.array_equal(quantiles, want[1], equal_nan=True), x
        assert np.array_equal(quantiles, one, equal_nan=True), x


@pytest.mark.parametrize("rows", [1, 2, 3, 200, 201])
def test_median_and_quantiles_match_numpy_along_the_first_axis(rows):
    # tightness's (environments, truncations) table of partial sums
    rng = np.random.default_rng(rows)
    x = rng.lognormal(0.0, 3.0, size=(rows, 4)).cumsum(axis=1)
    x[:, 0] = np.round(x[:, 0])  # ties in one column
    levels = (0.1, 0.5, 0.9)
    median, quantiles = median_and_quantiles(x, levels)
    assert np.array_equal(median, np.median(x, axis=0))
    assert np.array_equal(quantiles, np.quantile(x, levels, axis=0))


def test_median_and_quantiles_of_no_values_or_a_nan_are_nan():
    median, quantiles = median_and_quantiles(np.array([]), (0.1, 0.9))
    assert np.isnan(median) and np.isnan(quantiles).all()
    x = np.array([[1.0, np.nan], [2.0, 3.0], [np.nan, 4.0]])
    median, quantiles = median_and_quantiles(x, (0.1,))
    assert np.isnan(median).all() and np.isnan(quantiles).all()
