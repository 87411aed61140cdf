"""Single-generation offspring laws.

Each :class:`OffspringDistribution` represents the reproduction law of one
generation: exact sampling of whole-generation totals, and the moment
functionals the convergence checkers consume -- log-mean, normalized
variance, fractional deviation moments and weighted deviation moments.

Families
--------
``finite_pmf``
    explicit pmf ``p_0..p_K``; generation totals via a multinomial (exact
    for any parent count).
``geometric``
    ``P(X=k) = (1-q) q^k`` on ``{0,1,...}``; totals are negative binomial.
``poisson``
    totals are Poisson by additivity.
``linear_fractional``
    atom at 0 plus a geometric tail on ``{1,2,...}``; totals decompose as
    binomial + negative binomial.
``power_law_tail``
    atom at 0 plus ``P(X=k) = c k^{-(2+alpha)}`` for ``k >= 1``.  For
    ``alpha <= 1`` the variance is infinite; infinite moments are returned
    as ``math.inf``, never raised as errors, because the heavy-tail regime
    is a first-class object of study here.  Totals come from a composition
    sampler (a multinomial over the small counts, rejection draws for the
    rare large ones).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import graded_quad, zeta

__all__ = [
    "OffspringDistribution",
    "GeometricRows",
    "PhiFunction",
    "UnsupportedDistributionError",
    "NotApplicableError",
    "PopulationOverflowError",
]

_INT64_SAFE = 2**62
# numpy's negative_binomial refuses a row whose Poisson stage could pass this
# rate (its POISSON_LAM_MAX).
_NB_LAM_MAX = float(np.iinfo(np.int64).max) - math.sqrt(np.iinfo(np.int64).max) * 10

# Power-law totals: offspring counts up to _TOTALS_HEAD come from one
# multinomial per row, larger ones (a share ~ _TOTALS_HEAD^-(1+alpha) of the
# offspring) from rejection draws, at most _TAIL_CHUNK at a time.
_TOTALS_HEAD = 64
_TAIL_CHUNK = 1 << 16

# Power-tail moments: terms up to _MOMENT_HEAD are summed exactly, the rest
# is an integral with a certified remainder; the head grows fourfold, up to
# _MOMENT_HEAD_MAX, only if that remainder bound misses the tolerance.
_MOMENT_HEAD = 1 << 16
_MOMENT_HEAD_MAX = 1 << 22

# Unsigned Stirling numbers of the first kind c(n, r), n <= 4.
_STIRLING1 = ((1,), (0, 1), (0, 1, 1), (0, 2, 3, 1), (0, 6, 11, 6, 1))


class UnsupportedDistributionError(ValueError):
    """The requested functional is undefined for this law (e.g. mean zero)."""


class NotApplicableError(ValueError):
    """A conditional term is undefined (zero-probability conditioning set)."""


class PopulationOverflowError(OverflowError):
    """A generation total exceeds the widest supported integer.

    Carries ``log_estimate``, the natural log of the (approximate) total,
    so callers can continue in log scale.
    """

    def __init__(self, log_estimate: float):
        super().__init__(f"generation total overflows int64 (log ~ {log_estimate:.3f})")
        self.log_estimate = log_estimate


def check_keys(cfg: dict, allowed: set, what: str, optional=frozenset()):
    """Reject a config with keys outside ``allowed`` or missing a required
    (not ``optional``) one."""
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(allowed) - set(optional) - set(cfg)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


@dataclass(frozen=True)
class PhiFunction:
    """A weight function ``phi(x) = x^power * log(1+x)^log_power``.

    Only this catalog is accepted by the weighted-moment checkers: its tail
    growth is known analytically, which is what makes certified truncation
    bounds possible.  ``power=log_power=0`` with ``zero=True`` is the
    identically-zero function.
    """

    power: float = 0.0
    log_power: float = 0.0
    zero: bool = False

    def __post_init__(self):
        if self.power < 0 or self.log_power < 0:
            raise ValueError("phi catalog requires nonnegative exponents")

    @property
    def identifier(self) -> str:
        if self.zero:
            return "zero"
        return f"pow{self.power:g}_log{self.log_power:g}"

    @classmethod
    def from_config(cls, cfg) -> "PhiFunction":
        if cfg == "zero":
            return cls(zero=True)
        if isinstance(cfg, dict):
            check_keys(cfg, {"power", "log_power"}, "phi",
                       optional={"power", "log_power"})
            return cls(power=float(cfg.get("power", 0.0)),
                       log_power=float(cfg.get("log_power", 0.0)))
        raise ValueError(f"cannot parse phi spec {cfg!r}")


def _negative_binomial_refuses(parents, p):
    """Rows on which numpy's ``negative_binomial(parents, p)`` raises:
    ``p`` outside ``(0, 1]`` or the Poisson rate ``(1-p)/p (n + 10 sqrt n)``
    above :data:`_NB_LAM_MAX` (numpy's own test)."""
    n, p = np.asarray(parents, dtype=float), np.asarray(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~(p > 0) | ((1.0 - p) / p * (n + 10.0 * np.sqrt(n)) > _NB_LAM_MAX)


class GeometricRows:
    """Geometric laws ``P(X=k) = (1-q) q^k``, one ``q`` per parent row (the
    per-replica laws of a Gaussian log-mean environment), with the
    :meth:`OffspringDistribution.overflow_rows` and
    :meth:`OffspringDistribution.sample_generation_totals` interface."""

    def __init__(self, q: np.ndarray):
        self.q = q

    def overflow_rows(self, parents: np.ndarray) -> Optional[np.ndarray]:
        bad = _negative_binomial_refuses(parents, 1.0 - self.q)
        return bad if bad.any() else None

    def sample_generation_totals(self, parents: np.ndarray,
                                 rng: np.random.Generator) -> np.ndarray:
        return rng.negative_binomial(parents, 1.0 - self.q)


def _remainder_bound(a: float, integral: float, sigma: float, upow: float,
                     logpow: float, m: float) -> float:
    """Certified bound on ``|sum_{k>=a+1/2} f(k) - I - f'(a)/24|`` with
    ``I = int_a^inf f`` and ``f(x) = C x^-sigma u^upow log(1 + u s)^logpow``,
    ``u = x/m - 1``, any ``s > 0``, ``a >= 2m``.

    Euler-Maclaurin for the midpoint rule (Abramowitz & Stegun 23.1.30 with
    Taylor remainders per unit cell ``|x-k| <= 1/2``): the error is at most
    ``(1/576 + 1/1920) sum_k max_cell |f''''|``.  On ``x >= a`` each factor
    ``F`` obeys ``|F^(i)| <= r_i F x^-i``: ``x^-sigma`` with rising
    factorials of ``sigma``; ``u^upow`` with falling factorials of ``upow``
    times ``rho^i``, ``rho = a/(a-m) >= x/(x-m)``; ``L^logpow``, ``L = log(1
    + u s)``, by Faa di Bruno with ``|L^(i)| <= (i-1)! L (rho/x)^i``.
    Leibniz gives ``|f''''| <= b4 f x^-4``.  Across one cell ``f`` changes by
    at most ``lam = (1 + 1/a)^max(sigma, rho (upow + logpow))``, so the cell
    maximum is at most ``lam`` times the cell integral, and the sum is at
    most ``b4 lam a^-4 I``.
    """
    rho = a / (a - m)

    def falling(x, i):
        return abs(math.prod(x - r for r in range(i)))

    r_pow = [math.prod(sigma + r for r in range(i)) for i in range(5)]
    r_dev = [falling(upow, i) * rho**i for i in range(5)]
    r_log = [sum(c * falling(logpow, r) for r, c in enumerate(_STIRLING1[i]))
             * rho**i for i in range(5)]
    b4 = sum(math.factorial(4) // (math.factorial(i) * math.factorial(j)
                                   * math.factorial(4 - i - j))
             * r_pow[i] * r_dev[j] * r_log[4 - i - j]
             for i in range(5) for j in range(5 - i))
    lam = (1.0 + 1.0 / a) ** max(sigma, rho * (upow + logpow))
    return (1.0 / 576.0 + 1.0 / 1920.0) * b4 * lam * integral / a**4


def _power_tail_integral(a: float, m: float, log_c: float, sigma: float,
                         upow: float, logpow: float, scale: float):
    """``int_a^inf f``, an error estimate and ``a f(a)``, for ``f(x) =
    e^log_c x^-sigma u^upow log(1 + u scale)^logpow``, ``u = x/m - 1``,
    ``a >= 2m`` and ``kappa = sigma - 1 - upow > 0``.

    The substitution ``x = a e^v`` turns the power decay into an exponential
    one, ``x f(x) ~ e^(-kappa v)``, for :func:`numerics.graded_quad`.  Its
    bound beyond ``V``: with ``X = x/m`` at ``V``, ``R = X / (X - 1)`` and
    ``L = log(1 + u scale)`` there, ``x f(x)`` at ``V + w`` is at most
    ``R^upow e^(-kappa w) (1 + (log R + w)/L)^logpow`` times its value at
    ``V``, so the rest of the integral is at most that value times
    ``R^upow e^(logpow log R / L) / (kappa - logpow / L)`` once
    ``kappa > logpow / L``.
    """
    log_a, log_m, log_s = math.log(a), math.log(m), math.log(scale)
    kappa = sigma - 1.0 - upow
    # x f(x) = exp(k0 - kappa v + upow log(1 - m/x) + logpow log L)
    k0 = log_c + (1.0 - sigma) * log_a + upow * (log_a - log_m)
    k0_size = abs(log_c) + (sigma - 1.0 + upow) * log_a + upow * abs(log_m)

    def xf(v):
        """``x f(x)`` at ``x = a e^v``, in logs so no factor overflows, and
        a bound on its relative rounding error: a few ulp per unit of the
        exponent's terms."""
        log1m = np.log1p(-np.exp(log_m - log_a - v))
        expo = k0 - kappa * v + upow * log1m
        size = k0_size + kappa * v
        if logpow:
            # L = log(1 + e^ly), ly = log(u scale); d log L / d ly <= 1/ly
            ly = log_a + v - log_m + log1m + log_s
            log_ell = np.log(np.logaddexp(0.0, ly))
            expo = expo + logpow * log_ell
            size = size + logpow * (
                2.0 * (log_a + v + abs(log_m) + abs(log_s)) / np.maximum(ly, 1.0)
                + np.abs(log_ell) + 1.0)
        return np.exp(expo), 2.0**-53 * (3.0 * size + 2.0)

    def beyond(v: float) -> float:
        log_r = -math.log1p(-math.exp(log_m - log_a - v))
        rate, spread = kappa, upow * log_r
        if logpow:
            ell = float(np.logaddexp(0.0, log_a + v - log_m - log_r + log_s))
            rate -= logpow / ell
            spread += logpow * log_r / ell
        if rate <= 0.0:
            return math.inf
        return float(xf(v)[0]) * math.exp(spread) / rate

    tail, err = graded_quad(xf, beyond)
    return tail, err, float(xf(0.0)[0])


class OffspringDistribution:
    """One generation's offspring law.  Immutable after construction.

    Cached moment values are built under a once-only lock, so instances are
    safe to share across concurrent workers.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = dict(params)
        self._cache: dict = {}
        # reentrant: computing one cached moment may consult another
        self._lock = threading.RLock()

        if kind == "finite_pmf":
            pmf = np.asarray(params["pmf"], dtype=float)
            if pmf.ndim != 1 or len(pmf) == 0:
                raise ValueError("finite_pmf needs a nonempty 1-d pmf vector")
            if np.any(pmf < 0):
                raise ValueError("pmf values must be nonnegative")
            if abs(pmf.sum() - 1.0) > 1e-12:
                raise ValueError(f"pmf must sum to 1 within 1e-12, got {pmf.sum()!r}")
            self._pmf = pmf / pmf.sum()
            self._ks = np.arange(len(pmf), dtype=np.int64)
        elif kind == "geometric":
            mean = float(params["mean"])
            if mean <= 0:
                raise ValueError("geometric mean must be positive")
            self._q = mean / (1.0 + mean)
            if not self._q < 1.0:
                raise ValueError(f"geometric mean {mean!r} too large: "
                                 "q = mean/(1+mean) rounds to 1")
        elif kind == "poisson":
            lam = float(params["lam"])
            if lam <= 0:
                raise ValueError("poisson rate must be positive")
            self._lam = lam
        elif kind == "linear_fractional":
            p0, q = float(params["p0"]), float(params["q"])
            if not (0 <= p0 < 1) or not (0 <= q < 1):
                raise ValueError("linear_fractional needs p0 in [0,1), q in [0,1)")
            self._p0, self._q = p0, q
        elif kind == "power_law_tail":
            alpha, p0 = float(params["alpha"]), float(params["p0"])
            if alpha <= 0:
                raise ValueError("tail exponent alpha must be positive")
            if not (0 <= p0 < 1):
                raise ValueError("head mass p0 must be in [0,1)")
            self._alpha, self._p0 = alpha, p0
            # Normalization of the k^{-(2+alpha)} tail: zeta(2 + alpha),
            # within 2 ulp by Euler-Maclaurin summation.
            self._zeta_norm = zeta(2.0 + alpha)
            self._c = (1.0 - p0) / self._zeta_norm
        else:
            raise ValueError(f"unknown offspring family {kind!r}")

    # -- identity / serialization ------------------------------------------

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"OffspringDistribution({self.kind}, {inner})"

    def __eq__(self, other):
        if not isinstance(other, OffspringDistribution):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "finite_pmf":
            return np.array_equal(self._pmf, other._pmf)
        return self.params == other.params

    def __hash__(self):
        if self.kind == "finite_pmf":
            return hash((self.kind, self._pmf.tobytes()))
        return hash((self.kind, tuple(sorted(self.params.items()))))

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.kind == "finite_pmf":
            cfg["pmf"] = [float(p) for p in self._pmf]
        else:
            cfg.update({k: float(v) for k, v in self.params.items()})
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "OffspringDistribution":
        cfg = dict(cfg)
        kind = cfg.pop("kind", None)
        if kind is None:
            raise ValueError("distribution config needs a 'kind' field")
        known = {
            "finite_pmf": {"pmf"},
            "geometric": {"mean"},
            "poisson": {"lam"},
            "linear_fractional": {"p0", "q"},
            "power_law_tail": {"alpha", "p0"},
        }
        if kind not in known:
            raise ValueError(f"unknown offspring family {kind!r}")
        check_keys(cfg, known[kind], kind)
        return cls(kind, **cfg)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def finite_pmf(cls, pmf) -> "OffspringDistribution":
        return cls("finite_pmf", pmf=list(pmf))

    @classmethod
    def geometric(cls, mean: float) -> "OffspringDistribution":
        return cls("geometric", mean=mean)

    @classmethod
    def poisson(cls, lam: float) -> "OffspringDistribution":
        return cls("poisson", lam=lam)

    @classmethod
    def linear_fractional(cls, p0: float, q: float) -> "OffspringDistribution":
        return cls("linear_fractional", p0=p0, q=q)

    @classmethod
    def power_law_tail(cls, alpha: float, p0: float) -> "OffspringDistribution":
        return cls("power_law_tail", alpha=alpha, p0=p0)

    # -- basic moments ------------------------------------------------------

    def _cached(self, key, compute):
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._cache:
                self._cache[key] = compute()
            return self._cache[key]

    @property
    def mean(self) -> float:
        def compute():
            if self.kind == "finite_pmf":
                return float(np.dot(self._pmf, self._ks))
            if self.kind == "geometric":
                return self._q / (1.0 - self._q)
            if self.kind == "poisson":
                return self._lam
            if self.kind == "linear_fractional":
                return (1.0 - self._p0) / (1.0 - self._q)
            # power_law_tail: c * sum k^{-(1+alpha)}
            return self._c * zeta(1.0 + self._alpha)
        return self._cached("mean", compute)

    @property
    def variance(self) -> float:
        def compute():
            m = self.mean
            if self.kind == "finite_pmf":
                return float(np.dot(self._pmf, (self._ks - m) ** 2))
            if self.kind == "geometric":
                return self._q / (1.0 - self._q) ** 2
            if self.kind == "poisson":
                return self._lam
            if self.kind == "linear_fractional":
                ex2 = (1.0 - self._p0) * (1.0 + self._q) / (1.0 - self._q) ** 2
                return ex2 - m * m
            if self._alpha <= 1.0:
                return math.inf
            ex2 = self._c * zeta(self._alpha)
            return ex2 - m * m
        return self._cached("variance", compute)

    @property
    def log_mean(self) -> float:
        """Log of the mean offspring count; the growth exponent of the generation."""
        m = self.mean
        if not (0.0 < m < math.inf):
            raise UnsupportedDistributionError(
                f"mean offspring count must be in (0, inf), got {m}")
        return math.log(m)

    @property
    def normalized_variance(self) -> float:
        """Variance rescaled by the squared mean; +inf for heavy tails."""
        v = self.variance
        if math.isinf(v):
            return math.inf
        m = self.mean
        if m * m == 0.0:
            raise UnsupportedDistributionError(
                f"mean offspring count {m} is too small to normalize the "
                "variance by")
        return v / (m * m)

    # -- pmf ----------------------------------------------------------------

    def pmf(self, k: int) -> float:
        if k < 0:
            raise ValueError("offspring counts are nonnegative")
        return float(self.pmf_vector(np.array([k]))[0])

    def pmf_vector(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        if self.kind == "finite_pmf":
            out = np.zeros(len(ks))
            mask = ks < len(self._pmf)
            out[mask] = self._pmf[ks[mask]]
            return out
        if self.kind == "geometric":
            return (1.0 - self._q) * self._q ** ks.astype(float)
        if self.kind == "poisson":
            log_factorial = np.array([math.lgamma(k + 1.0) for k in ks.tolist()])
            return np.exp(ks * math.log(self._lam) - self._lam - log_factorial)
        if self.kind == "linear_fractional":
            out = np.where(ks == 0, self._p0,
                           (1.0 - self._p0) * (1.0 - self._q)
                           * self._q ** np.maximum(ks - 1, 0).astype(float))
            return out
        out = np.where(ks == 0, self._p0,
                       self._c * np.maximum(ks, 1).astype(float) ** -(2.0 + self._alpha))
        return out

    # -- generation totals --------------------------------------------------

    def sample_generation_totals(self, parents: np.ndarray,
                                 rng: np.random.Generator) -> np.ndarray:
        """Totals of ``parents[i]`` i.i.d. offspring counts, vectorized.

        Exact for every family and any parent count.  Raises
        :class:`PopulationOverflowError` when a total could leave int64.
        """
        parents = np.asarray(parents, dtype=np.int64)
        if self.overflow_rows(parents) is not None:
            worst = int(parents.max())
            raise PopulationOverflowError(math.log(worst) + max(self.log_mean, 0.0))
        totals = np.zeros(parents.shape, dtype=np.int64)
        pos = parents > 0
        if not pos.any():
            return totals
        n = parents[pos]
        if self.kind == "finite_pmf":
            counts = rng.multinomial(n, self._pmf)
            totals[pos] = counts @ self._ks
        elif self.kind == "geometric":
            totals[pos] = rng.negative_binomial(n, 1.0 - self._q)
        elif self.kind == "poisson":
            totals[pos] = rng.poisson(self._lam * n)
        elif self.kind == "linear_fractional":
            b = rng.binomial(n, 1.0 - self._p0)
            nb = np.zeros_like(b)
            bp = b > 0
            if bp.any():
                nb[bp] = rng.negative_binomial(b[bp], 1.0 - self._q)
            totals[pos] = b + nb
        else:
            totals[pos] = self._power_law_totals(n, rng)
        return totals

    def overflow_rows(self, parents: np.ndarray) -> Optional[np.ndarray]:
        """Rows :meth:`sample_generation_totals` refuses because a total
        could leave int64; None when every row is safe.  (A geometric mean
        small enough for ``q < 1`` trips this before numpy's
        negative-binomial range.)"""
        m = max(self.mean, 1.0)
        return parents * m > _INT64_SAFE \
            if len(parents) and parents.max() * m > _INT64_SAFE else None

    def _power_law_totals(self, n: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
        """Composition sampler (L. Devroye, *Non-Uniform Random Variate
        Generation*, 1986): one multinomial per row over the offspring
        counts ``0.._TOTALS_HEAD`` and the event ``X > _TOTALS_HEAD``, then
        the counts of that event one by one.  A float shadow of every total
        catches an int64 sum that would wrap."""
        pvals = self._cached("totals_head", lambda: np.append(
            self.pmf_vector(np.arange(_TOTALS_HEAD + 1)),
            self._c * zeta(2.0 + self._alpha, _TOTALS_HEAD + 1.0)))
        counts = rng.multinomial(n, pvals)
        ks = np.arange(_TOTALS_HEAD + 1, dtype=np.int64)
        head = counts[:, :-1]
        totals = head @ ks
        shadow = head @ ks.astype(float)
        tails = counts[:, -1]
        ends = np.cumsum(tails)
        starts = ends - tails
        drawn = int(ends[-1])
        for lo in range(0, drawn, _TAIL_CHUNK):
            draws = self._tail_draws(min(_TAIL_CHUNK, drawn - lo), rng)
            rows = np.flatnonzero((tails > 0) & (starts < lo + len(draws))
                                  & (ends > lo))
            seg = np.maximum(starts[rows], lo) - lo
            totals[rows] += np.add.reduceat(draws, seg)
            shadow[rows] += np.add.reduceat(draws.astype(float), seg)
        if shadow.max() > _INT64_SAFE:
            raise PopulationOverflowError(math.log(shadow.max()))
        return totals

    def _tail_draws(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` exact draws of ``X`` given ``X > K = _TOTALS_HEAD``.

        Rejection from a discretized Pareto envelope: ``Y`` with
        ``P(Y > y) = ((K + 1/2) / y)^a``, ``a = 1 + alpha``, rounded to the
        nearest integer ``k``, has mass ``((k-1/2)^-a - (k+1/2)^-a)`` up to a
        constant.  By convexity of ``x^-(1+a)`` that is at least
        ``a k^-(1+a)``, so accepting ``k`` with probability
        ``a k^-(1+a) / ((k-1/2)^-a - (k+1/2)^-a)
        = 2 a h (1+h)^a / expm1(2 a atanh h)``, ``h = 1/(2k)``, leaves
        exactly ``P(k) ~ k^-(2+alpha)``.  The acceptance rate is above 0.999.
        """
        a = 1.0 + self._alpha
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            need = size - filled
            y = (_TOTALS_HEAD + 0.5) * (1.0 - rng.random(need)) ** (-1.0 / a)
            k = np.floor(y + 0.5)
            h = 0.5 / k
            accept = 2.0 * a * h * (1.0 + h) ** a / np.expm1(2.0 * a * np.arctanh(h))
            k = k[rng.random(need) < accept]
            out[filled:filled + len(k)] = k
            filled += len(k)
        return out

    # -- deviation moments --------------------------------------------------

    def _deviation(self, ks: np.ndarray) -> np.ndarray:
        """|k/m - 1| for support points k."""
        return np.abs(ks.astype(float) / self.mean - 1.0)

    def delta_moment(self, delta: float, tol: float = 1e-9) -> float:
        """``E |X/m - 1|^(1+delta)`` for ``delta`` in [0, 1]; +inf when divergent.

        At ``delta=1`` this equals :attr:`normalized_variance`; at
        ``delta=0`` it is the mean absolute deviation of ``X/m``.
        """
        if not (0.0 <= delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")
        return self._u_weighted_moment(1.0 + delta, 0.0, 1.0, tol)

    def psi_moment(self, phi: PhiFunction, scale: float, tol: float = 1e-9) -> float:
        """``E[ U * phi(U * scale) ]`` with ``U = |X/m - 1|``; +inf when divergent.

        ``scale`` is the environment-supplied damping factor (a ratio of
        accumulated generation means).  ``phi`` must come from the
        :class:`PhiFunction` catalog.  A pure power ``phi(x) = x^d`` factors
        as ``scale^d E[U^(1+d)]``, so every scale shares one moment.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if not isinstance(phi, PhiFunction):
            raise UnsupportedDistributionError(
                "only catalog weight functions are supported")
        if phi.zero:
            return 0.0
        if not phi.log_power:
            return scale**phi.power * self._u_weighted_moment(
                1.0 + phi.power, 0.0, 1.0, tol)
        return self._u_weighted_moment(1.0 + phi.power, phi.log_power,
                                       scale, tol)

    def _u_weighted_moment(self, upow: float, logpow: float, scale: float,
                           tol: float) -> float:
        """``E[ U^upow * scale^(upow-1) * log(1 + U*scale)^logpow ]``, cached.

        This is ``E[U * phi(U*scale)]`` for the power-log catalog with
        ``phi(x) = x^(upow-1) * log(1+x)^logpow``; with ``scale=1, logpow=0``
        it reduces to the plain fractional deviation moment ``E U^upow``.
        """
        sfac = scale ** (upow - 1.0)

        def integrand(ks: np.ndarray) -> np.ndarray:
            u = self._deviation(ks)
            val = np.power(u, upow) * sfac
            if logpow:
                val = val * np.power(np.log1p(u * scale), logpow)
            return val

        def compute():
            if self.kind == "finite_pmf":
                return float(np.dot(self._pmf, integrand(self._ks)))
            if self.kind == "power_law_tail":
                return self._power_tail_moment(integrand, upow, logpow, scale,
                                               tol)
            return self._light_tail_moment(integrand, tol)
        return self._cached(("u_moment", upow, logpow, scale, tol), compute)

    def _light_tail_moment(self, integrand, tol: float) -> float:
        """Adaptive series for exponentially light tails (geometric,
        Poisson, linear-fractional): polynomial-log integrand growth never
        beats the tail decay."""
        total, start, block = 0.0, 0, 4096
        while True:
            ks = np.arange(start, start + block, dtype=np.int64)
            p = self.pmf_vector(ks)
            contrib = float(np.dot(p, integrand(ks)))
            total += contrib
            tail_mass = float(p[-256:].sum())
            if contrib < tol * 1e-3 and tail_mass < 1e-16:
                return total
            start += block
            if start > 10**8:  # unreachable for these families in practice
                return total

    def _power_tail_moment(self, integrand, upow: float, logpow: float,
                           scale: float, tol: float) -> float:
        """Exact sum of the terms ``k <= K``, plus ``int_{K+1/2}^inf f``
        (:func:`_power_tail_integral`) and the Euler-Maclaurin correction
        ``f'(K+1/2)/24``.

        :func:`_remainder_bound` certifies the error of the last two; with
        the quadrature's error estimate it must stay within ``tol``
        (relative once the moment exceeds 1), else the exact head grows
        fourfold.  At ``K = 2^16`` the certified bound is below 2e-18 times
        the tail integral for log powers up to 7, so the quadrature's
        estimate dominates.
        """
        alpha = self._alpha
        sigma = 2.0 + alpha
        # Term exponent k^{-(2+alpha)} * k^upow: divergent iff upow-1 >= alpha
        # (at equality the log factors only worsen it).
        if upow - 1.0 >= alpha:
            return math.inf
        m = self.mean
        log_c = math.log(self._c) + (upow - 1.0) * math.log(scale)

        def head(lo: int, hi: int) -> float:
            total = 0.0
            for start in range(lo, hi, _MOMENT_HEAD):
                ks = np.arange(start, min(start + _MOMENT_HEAD, hi))
                total += float(np.dot(self.pmf_vector(ks), integrand(ks)))
            return total

        cut = _MOMENT_HEAD
        while cut < 2.0 * m:  # the remainder bound needs the cut past 2m
            cut *= 4
        total = head(0, cut + 1)
        while True:
            a = cut + 0.5
            tail, q_err, af = _power_tail_integral(a, m, log_c, sigma, upow,
                                                   logpow, scale)
            u = a / m - 1.0
            slope = -sigma / a + upow / (m * u)  # f'(a) / f(a)
            if logpow:
                slope += logpow * scale / (m * (1.0 + u * scale)
                                           * math.log1p(u * scale))
            value = total + tail + af / a * slope / 24.0
            err = q_err + _remainder_bound(a, tail, sigma, upow, logpow, m)
            if err <= tol * max(1.0, value) or cut >= _MOMENT_HEAD_MAX:
                return value
            total += head(cut + 1, 4 * cut + 1)
            cut *= 4

    # -- truncated moment ratio (for the comparison condition) --------------

    def truncated_moment_ratio(self) -> float:
        """``E(X^2; X>=2) / (E(X | X>=1) * E(X; X>=2))``.

        The per-generation term of the uniform moment-ratio condition that
        the series checkers replace; +inf when the second moment diverges.
        """
        p0, p1 = self.pmf(0), self.pmf(1)
        p_ge1 = 1.0 - p0
        p_ge2 = 1.0 - p0 - p1
        if p_ge1 <= 0 or p_ge2 <= 0:
            raise NotApplicableError(
                "moment ratio undefined: conditioning event has zero mass")
        m = self.mean
        v = self.variance
        if math.isinf(v):
            return math.inf
        ex2 = v + m * m
        num = ex2 - p1          # E(X^2; X>=2)
        cond = m / p_ge1        # E(X | X>=1); E(X; X>=1) = E X
        trunc = m - p1          # E(X; X>=2)
        if cond * trunc == 0.0:
            raise NotApplicableError(
                "moment ratio undefined: E(X; X>=2) rounds to zero")
        return num / (cond * trunc)
