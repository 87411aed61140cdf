"""Special functions and a tail quadrature on numpy alone: the Riemann and
Hurwitz zeta (F. Johansson, "Rigorous high-precision computation of the
Hurwitz zeta function and its derivatives", Numer. Algorithms 69, 2015), the
one-sided Clopper-Pearson limit through binomial tails in Loader's
saddle-point form (C. Loader, "Fast and accurate computation of binomial
probabilities", 2000), and Gauss-Legendre quadrature on graded panels."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["zeta", "clopper_pearson_upper", "graded_quad"]

_EPS = 2.0**-53
# Bernoulli numbers B_2, B_4, ..., B_30.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
              8615841276005 / 14322)
# Euler-Maclaurin coefficients B_2j / (2j)!.
_EM = tuple(b / math.factorial(2 * j + 2) for j, b in enumerate(_BERNOULLI))
# Orders of the two Gauss-Legendre rules, and a relative error bound of
# their weights.
_ORDERS = (16, 32)
_WEIGHT_ERR = 2.0**-46


def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta ``sum_{k>=0} (k + a)^-s`` for ``s > 1``, ``a > 0``; at
    ``a = 1`` the Riemann zeta.

    Euler-Maclaurin: the terms ``k < N``, with ``x = a + N >= 10 + s``, then
    ``x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! s(s+1)..(s+2j-2)
    x^(1-s-2j)``.  Every derivative of ``x^-s`` keeps one sign, so the
    remainder is below the first omitted term, which is below ``2^-55`` of
    the sum.
    """
    if not (s > 1.0 and a > 0.0):
        raise ValueError(f"zeta({s!r}, {a!r}) is outside the implemented domain")
    n = max(0, math.ceil(10.0 + s - a))
    x = a + n
    terms = [(a + k) ** -s for k in range(n)]
    terms += [x ** (1.0 - s) / (s - 1.0), 0.5 * x**-s]
    total = math.fsum(terms)
    rising = s * x ** (-s - 1.0)  # s(s+1)..(s+2j-2) x^(1-s-2j) at j = 1
    for j, c in enumerate(_EM):
        if abs(c * rising) <= 0.25 * _EPS * abs(total):
            return math.fsum(terms)
        terms.append(c * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    raise ArithmeticError(f"zeta({s!r}, {a!r}) did not converge")


def _stirling_error(z: float) -> float:
    """``log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2`` for ``z >= 1``:
    Stirling's series from ``z = 10`` on, shifted down by ``delta(z) =
    delta(z+1) + (z + 1/2) log1p(1/z) - 1``."""
    shift = 0.0
    while z < 10.0:
        shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    w = 1.0 / (z * z)
    return shift + sum(b / ((2 * j + 2) * (2 * j + 1)) * w**j
                       for j, b in enumerate(_BERNOULLI[:9])) / z


def _bd0(k: float, mean: float) -> float:
    """``k log(k/mean) + mean - k`` without cancellation (Loader)."""
    if abs(k - mean) >= 0.1 * (k + mean):
        return k * math.log(k / mean) + mean - k
    v = (k - mean) / (k + mean)
    s, ej = (k - mean) * v, 2.0 * k * v
    for j in range(3, 2001, 2):
        ej *= v * v
        if s + ej / j == s:
            break
        s += ej / j
    return s


def _log_binom_pmf(k: int, n: int, x: float) -> float:
    """``log P(Bin(n, x) = k)``, to a few ulp of the pmf for any ``n``."""
    if k == 0:
        return n * math.log1p(-x)
    if k == n:
        return n * math.log(x)
    return (0.5 * math.log(n / (2.0 * math.pi * k * (n - k)))
            + _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
            - _bd0(k, n * x) - _bd0(n - k, n * (1.0 - x)))


def _log_binom_cdf(h: int, n: int, x: float) -> float:
    """``log P(Bin(n, x) <= h)`` for ``h < n``.

    The shorter tail is summed outward from ``h`` as the pmf there times
    cumulative products of pmf ratios.  The pmf is log-concave, so beyond
    the mode its terms fall faster than a Gaussian's, and 12 standard
    deviations plus 64 terms leave out less than ``e^-70`` of the tail.
    """
    span = int(12.0 * math.sqrt(n * x * (1.0 - x))) + 64
    lower = h < (n + 1) * x  # the terms fall from h down, else from h + 1 up
    if lower:
        k = np.arange(h, max(h - span, 0), -1)
        ratios = k * (1.0 - x) / ((n - k + 1) * x)
    else:
        k = np.arange(h + 1, min(h + 1 + span, n))
        ratios = (n - k) * x / ((k + 1) * (1.0 - x))
    terms = 1.0 + math.fsum(np.exp(np.cumsum(np.log(ratios))))
    if lower:
        return _log_binom_pmf(h, n, x) + math.log(terms)
    return math.log1p(-math.exp(_log_binom_pmf(h + 1, n, x)) * terms)


def clopper_pearson_upper(hits: int, trials: int, level: float) -> float:
    """One-sided upper ``level`` confidence limit of a binomial proportion:
    the ``x`` with ``I_x(hits+1, trials-hits) = level``, that is
    ``P(Bin(trials, x) <= hits) = 1 - level``, found by bisection to the
    last bit; 1 when every trial hit."""
    if hits >= trials:
        return 1.0
    target = math.log1p(-level)
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _log_binom_cdf(hits, trials, mid) > target \
            else (lo, mid)
    return hi


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Nodes and weights of the ``order``-point rule on [0, 1]: the
    eigenvalues of the Jacobi matrix (Golub-Welsch) polished by Newton's
    method on the Legendre recurrence; unlike ``numpy.polynomial`` this
    costs no import.  At orders 16 and 32 the weights are within
    ``_WEIGHT_ERR`` of mpmath's."""
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    step = np.inf
    for _ in range(100):
        prev, poly = np.ones_like(x), x
        for k in range(2, order + 1):
            prev, poly = poly, ((2 * k - 1) * x * poly - (k - 1) * prev) / k
        slope = order * (x * poly - prev) / (x * x - 1.0)
        if np.max(np.abs(step)) < 1e-15:
            break  # the weights take the slope at the converged nodes
        step = poly / slope
        x = x - step
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)


def _panels(g, lo, width):
    """Per panel: the higher order's integral, the two orders' difference,
    and the higher order's rounding error, integrand's and weights'."""
    sums = []
    for x, w in map(_gauss_legendre, _ORDERS):
        vals, rel = g(lo[:, None] + width[:, None] * x)
        w = w * width[:, None]
        sums.append(((vals * w).sum(axis=1),
                     (np.abs(vals) * (rel + _WEIGHT_ERR) * w).sum(axis=1)))
    (low, _), (high, rounding) = sums
    return np.stack([high, np.abs(high - low), rounding])


def graded_quad(g, beyond):
    """``int_0^inf g(v) dv`` and an error estimate.

    ``g(v)`` maps a numpy array to the integrand's values and bounds on
    their relative rounding errors; ``beyond(V)`` bounds ``int_V^inf |g|``.
    The panels ``[(1.5^k - 1), (1.5^(k+1) - 1)]``, ``k < 100``, reach ``V
    ~ 4e17``.  Up to 10 times, every panel whose two orders differ by more
    than twice its rounding error plus ``2^-53`` of the integral is halved.
    The value takes the higher order; the error adds the orders'
    differences, the rounding errors and ``beyond(V)``.
    """
    edges = 1.5 ** np.arange(101) - 1.0
    lo, width = edges[:-1], np.diff(edges)
    parts = _panels(g, lo, width)
    for _ in range(10):
        bad = parts[1] > 2.0 * parts[2] + _EPS * abs(parts[0].sum())
        if not bad.any():
            break
        half = 0.5 * width[bad]
        lo = np.concatenate([lo[~bad], lo[bad], lo[bad] + half])
        width = np.concatenate([width[~bad], half, half])
        new = slice(len(lo) - 2 * len(half), None)
        parts = np.hstack([parts[:, ~bad], _panels(g, lo[new], width[new])])
    return (float(parts[0].sum()),
            float(parts[1:].sum()) + beyond(float(edges[-1])))
