"""The in-house special functions and tail quadrature against scipy and
mpmath, on grids that cover the arguments bpve passes them."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from bpve import distributions
from bpve.distributions import OffspringDistribution
from bpve import numerics
from bpve.numerics import clopper_pearson_upper, zeta


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
    d = OffspringDistribution.power_law_tail(alpha=alpha, p0=0.2)
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
        got = OffspringDistribution.poisson(lam).pmf_vector(ks)
        ref = stats.poisson.pmf(ks, lam)
        # both are exp of k log(lam) - lam - log k!, whose rounding grows
        # with the size of those terms
        size = ks * abs(math.log(lam)) + lam + special.gammaln(ks + 1.0)
        assert np.all(np.abs(got - ref) <= 8 * 2.0**-53 * (size + 1.0) * ref
                      + 1e-300)
