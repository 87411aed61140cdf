"""Special functions and a tail quadrature on numpy alone: the Riemann and
Hurwitz zeta (F. Johansson, "Rigorous high-precision computation of the
Hurwitz zeta function and its derivatives", Numer. Algorithms 69, 2015), the
one-sided Clopper-Pearson limit through binomial tails in Loader's
saddle-point form (C. Loader, "Fast and accurate computation of binomial
probabilities", 2000), Gauss-Legendre quadrature on graded panels, an
``exp`` that overflows to ``inf``, and sample medians and quantiles."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["zeta", "clopper_pearson_upper", "poisson_pmf", "graded_quad",
           "exp_or_inf", "median_and_quantiles"]

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
# zeta sums its terms directly where Euler-Maclaurin would take more than
# this many.
_DIRECT_TERMS = 64
# exp(-x) is 0 in double precision from this x on.
_EXP_ZERO = 746.0


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or ``inf`` where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def median_and_quantiles(x: np.ndarray, levels):
    """``(np.median(x, axis=0), np.quantile(x, levels, axis=0))``, bit for
    bit, for a sequence of ``levels`` in [0, 1], from one sort of ``x``
    along its first axis; NaN where ``x`` is empty or holds a NaN.  numpy's
    own functions import ``numpy.ma`` (about 1.8 MB) on their first call.

    The quantile is numpy's "linear" rule, type 7 of Hyndman & Fan (1996,
    *Am. Stat.* 50:361), in numpy's arithmetic: the virtual index ``v = (n
    - 1) q`` lies between the sorted values ``a`` at ``floor(v)`` and ``b``
    above it, both the last value (index ``-1``) once ``v >= n - 1``;
    ``gamma = v - index(a)``, and the value is ``a + (b - a) gamma``, or
    ``b - (b - a)(1 - gamma)`` where ``gamma >= 0.5``.  The median is the
    mean of the middle one or two values."""
    s = np.sort(x, axis=0)
    n = len(s)
    levels = np.asarray(levels, dtype=float)
    if n == 0:
        return (np.full(s.shape[1:], np.nan),
                np.full(levels.shape + s.shape[1:], np.nan))
    v = (n - 1) * levels
    top = v >= n - 1
    lo = np.where(top, -1, np.floor(v)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    gamma = (v - lo).reshape(levels.shape + (1,) * (s.ndim - 1))
    a, b = s[lo], s[hi]
    # inf - inf is NaN and a sum of two values may overflow, as in numpy
    with np.errstate(invalid="ignore", over="ignore"):
        diff = b - a
        q = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
        mid = s[(n - 1) // 2:n // 2 + 1]
        median = mid[0] + mid[1] if len(mid) == 2 else mid[0]
        median = median / len(mid)
    nan = np.isnan(s[-1])  # a NaN sorts last
    return np.where(nan, np.nan, median), np.where(nan, np.nan, q)


def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta ``sum_{k>=0} (k + a)^-s`` for ``s > 1``, ``a > 0``; at
    ``a = 1`` the Riemann zeta.

    Euler-Maclaurin: the terms ``k < N``, with ``x = a + N >= 10 + s``, then
    ``x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! s(s+1)..(s+2j-2)
    x^(1-s-2j)``.  Every derivative of ``x^-s`` keeps one sign, so the
    remainder is below the first omitted term, which is below ``2^-55`` of
    the sum.

    Where that takes more than ``_DIRECT_TERMS`` terms, ``s > a + 54`` and
    the terms fall at least geometrically, so the series is summed
    directly.  The terms decrease, so the rest after ``x = a + N`` is below
    ``x^-s + x^(1-s)/(s-1)``, the next term plus the integral beyond it;
    summing stops once that bound is below ``2^-55`` of the first term.
    """
    if not (s > 1.0 and a > 0.0):
        raise ValueError(f"zeta({s!r}, {a!r}) is outside the implemented domain")
    n = max(0, math.ceil(10.0 + s - a))
    if n > _DIRECT_TERMS:
        terms = [a**-s]
        while True:
            x = a + len(terms)
            if x**-s + x**(1.0 - s) / (s - 1.0) <= 0.25 * _EPS * terms[0]:
                return math.fsum(terms)
            terms.append(x**-s)
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


def _stirling_error(z):
    """``log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2`` for ``z >= 1``,
    a float or each entry of an array: Stirling's series from ``z = 10`` on,
    shifted down by ``delta(z) = delta(z+1) + (z + 1/2) log1p(1/z) - 1``.
    An entry below 10 goes through the float path, so its bits do not
    depend on numpy."""
    if isinstance(z, np.ndarray):
        out = np.empty(z.shape)
        low = z < 10.0
        out[low] = [_stirling_error(v) for v in z[low].tolist()]
        out[~low] = _stirling_series(z[~low])
        return out
    shift = 0.0
    while z < 10.0:
        shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    return shift + _stirling_series(z)


def _stirling_series(z):
    w = 1.0 / (z * z)
    return sum(b / ((2 * j + 2) * (2 * j + 1)) * w**j
               for j, b in enumerate(_BERNOULLI[:9])) / z


def _bd0(k, mean):
    """``k log(k/mean) + mean - k`` without cancellation (Loader), for
    floats or arrays; ``k >= 1``.  An array takes ``numpy.log`` where a float
    takes ``math.log``, and the same series elsewhere."""
    if isinstance(k, np.ndarray):
        k, mean = np.broadcast_arrays(k, mean)
        with np.errstate(over="ignore", divide="ignore"):
            out = k * np.log(k / mean) + mean - k
        near = np.abs(k - mean) < 0.1 * (k + mean)
        if near.any():
            out[near] = _bd0_series(k[near], mean[near])
        return out
    if abs(k - mean) >= 0.1 * (k + mean):
        return k * math.log(k / mean) + mean - k
    return _bd0_series(k, mean)


def _bd0_series(k, mean):
    """Loader's series of ``bd0`` for ``|k - mean| < 0.1 (k + mean)``.  An
    array goes on until its last entry has converged; each term then is
    smaller than one that no longer moved its entry, so the entries keep
    the bits of their float path."""
    v = (k - mean) / (k + mean)
    s, ej = (k - mean) * v, 2.0 * k * v
    for j in range(3, 2001, 2):
        ej = ej * (v * v)
        if np.all(s + ej / j == s):
            break
        s = s + ej / j
    return s


def poisson_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    """``P(Poisson(lam) = k)`` for each integer ``k >= 0`` of ``ks``, in
    Loader's saddle-point form ``exp(-delta(k) - bd0(k, lam)) /
    sqrt(2 pi k)``.  No term grows with ``k`` or ``lam``: the relative
    error is a few ulp in the bulk and grows like ``bd0`` ulp in the tails,
    where ``k log(k/lam) + lam - k`` cancels.  Where ``bd0`` alone
    underflows the ``exp``, the pmf is 0 without the rest of the work."""
    k = np.asarray(ks, dtype=float)
    out = np.zeros(k.shape)
    out[k == 0] = math.exp(-lam)
    pos = np.flatnonzero(k > 0)
    d = _bd0(k[pos], lam)
    keep = d < _EXP_ZERO
    pos, d, kp = pos[keep], d[keep], k[pos[keep]]
    out[pos] = np.exp(-_stirling_error(kp) - d) / np.sqrt(2.0 * math.pi * kp)
    return out


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
