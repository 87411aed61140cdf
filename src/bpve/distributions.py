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

from .numerics import graded_quad, poisson_pmf, zeta

__all__ = [
    "OffspringDistribution",
    "GeometricRows",
    "PhiFunction",
    "UnsupportedDistributionError",
    "NotApplicableError",
    "PopulationOverflowError",
]

_INT64_SAFE = 2**62

# Power-law totals: offspring counts up to _TOTALS_HEAD come from one
# multinomial per row, larger ones (a share below (_TOTALS_HEAD + 1)^-(1+alpha)
# of the offspring) from rejection draws, at most _TAIL_CHUNK at a time.  The
# multinomial pays about one binomial per category and row, a tail draw more
# per offspring, so a narrow head wins until tail draws dominate.  Best of 5
# passes of 20 calls of 2,000 rows, p0 0.2, parents log-uniform in [1, 4000],
# 2 vCPU, numpy 2.4, in ms for heads 64 / 32 / 24 / 16 / 12 / 8:
#   alpha 0.1: 123 / 82 / 79 / 70 / 77 / 98    1.5: 72 / 44 / 42 / 40 / 40 / 38
#   alpha 0.5: 117 / 72 / 59 / 61 / 57 / 60    2.5: 56 / 28 / 28 / 27 / 26 / 26
#   alpha 1.0:  78 / 49 / 47 / 44 / 42 / 40    5.0: 46 / 18 / 16 / 15 / 15 / 16
# A head of 16 is within about 10% of the best width at every alpha.
_TOTALS_HEAD = 16
_TAIL_CHUNK = 1 << 16

# Rows per sampler pass, for the two samplers whose temporaries set a run's
# peak memory: GeometricRows.step, the geometric totals of a Gaussian
# draw's laws (float copies of both arguments), and Mixer.draw, a quenched
# draw's uniforms (keys per pass).  Their temporaries then scale with a
# pass, not with a block of replicas (up to 2^15 rows) or a quench's
# generations.  Both read it at call time.
ROW_CHUNK = 1 << 14

# Moments of an infinite-support law: terms up to a head are summed exactly
# (a power tail's starts at _MOMENT_HEAD terms, a light tail's at 16), the
# rest is estimated with a certified error bound (an integral for a power
# tail, a ratio test for a light one); the head grows fourfold, up to
# _MOMENT_HEAD_MAX, only while that bound misses the tolerance.
_MOMENT_HEAD = 1 << 12
_MOMENT_HEAD_MAX = 1 << 22

# Unsigned Stirling numbers of the first kind c(n, r), n <= 4.
_STIRLING1 = ((1,), (0, 1), (0, 1, 1), (0, 2, 3, 1), (0, 6, 11, 6, 1))

_FAMILY_KEYS = {
    "finite_pmf": {"pmf"},
    "geometric": {"mean"},
    "poisson": {"lam"},
    "linear_fractional": {"p0", "q"},
    "power_law_tail": {"alpha", "p0"},
}


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
    if cfg.keys() == allowed:  # every law constructor passes here
        return
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
        if not (0.0 <= self.power < math.inf and 0.0 <= self.log_power < math.inf):
            raise ValueError("phi power and log_power must be nonnegative and "
                             f"finite, got {self.power!r}, {self.log_power!r}")

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


def _overflow_rows(parents: np.ndarray, mean) -> Optional[np.ndarray]:
    """The one int64 rule: rows whose total of ``parents`` draws with mean
    ``mean`` (a float, or an array of one per row) could pass ``2**62``;
    None when every row is safe.  A float checks the largest count first."""
    if isinstance(mean, np.ndarray):
        bad = parents * np.maximum(mean, 1.0) > _INT64_SAFE
        return bad if bad.any() else None
    m = max(mean, 1.0)
    return parents * m > _INT64_SAFE \
        if len(parents) and parents.max() * m > _INT64_SAFE else None


def _positive_rows(parents: np.ndarray, draw) -> np.ndarray:
    """Totals of ``parents``: ``draw(rows)`` on the rows with a positive
    count, 0 on the others.  Without a zero, ``rows`` is every row."""
    if len(parents) and parents.min() > 0:
        return draw(slice(None))
    totals = np.zeros(parents.shape, dtype=np.int64)
    pos = parents > 0
    if pos.any():
        totals[pos] = draw(pos)
    return totals


def _sample_totals(law, parents: np.ndarray, out: Optional[np.ndarray],
                   step: int, draw) -> np.ndarray:
    """Every law's totals: :class:`PopulationOverflowError`, nothing drawn,
    where the law's exact ``overflow_rows`` finds a total past int64; else
    passes of ``step`` rows in order into ``out`` (new when None; it may be
    ``parents``: a pass reads its parents first), ``draw(n, c, rows)`` the
    totals of the positive counts ``n``, rows ``rows`` of pass ``c``, and 0
    those of a row without parents."""
    parents = np.asarray(parents, dtype=np.int64)
    bad = law.overflow_rows(parents)
    if bad is not None:
        # the largest count and the largest mean of the refused rows
        mean = np.broadcast_to(law.mean, parents.shape)[bad].max()
        raise PopulationOverflowError(math.log(int(parents[bad].max()))
                                      + math.log(max(mean, 1.0)))
    if out is None:
        out = np.empty(len(parents), dtype=np.int64)
    for lo in range(0, len(parents), step):
        c = slice(lo, lo + step)
        n = parents[c]
        out[c] = _positive_rows(n, lambda rows: draw(n[rows], c, rows))
    return out


class GeometricRows:
    """Geometric laws ``P(X=k) = (1-q) q^k``, one ``mean`` per row (a
    Gaussian draw's laws, per parent row or per stream key), with the
    :meth:`OffspringDistribution.overflow_rows` and
    :meth:`OffspringDistribution.sample_generation_totals` interface and
    contract (:func:`_sample_totals`); ``rows[k]`` is row ``k``'s law,
    built when read.  A mean whose ``q = mean / (1 + mean)`` is not in
    ``(0, 1)`` is refused as the geometric :class:`OffspringDistribution`
    refuses it.  Only the means are held: ``q`` is computed a pass of
    :meth:`step` rows at a time, for that refusal and for the totals, and
    the int64 check reads it whole only when the largest mean fails it."""

    def __init__(self, mean: np.ndarray):
        self.mean = mean
        # q is computed when needed, a few rows at a time; the largest row
        # mean (as q / (1 - q), the geometric law's) bounds every row's
        # int64 check
        self.top = 0.0
        step = self.step()
        for lo in range(0, len(mean), step):
            q = self._q(slice(lo, lo + step))
            bad = ~((q > 0.0) & (q < 1.0))
            if bad.any():
                OffspringDistribution("geometric",
                                      mean=float(mean[lo + bad.argmax()]))
            self.top = max(self.top, float((q / (1.0 - q)).max()))

    @staticmethod
    def step() -> int:
        """Rows per pass: a quarter of ``ROW_CHUNK``, as numpy's negative
        binomial of per-row ``n`` and ``p`` holds four float arrays of its
        rows beside ``p``, so a pass holds about one row chunk of floats."""
        return max(ROW_CHUNK // 4, 1)

    def _q(self, rows) -> np.ndarray:
        """``q = mean / (1 + mean)`` of the rows ``rows``, in a new array."""
        mean = self.mean[rows]
        q = 1.0 + mean
        with np.errstate(invalid="ignore"):  # an infinite mean gives NaN
            return np.divide(mean, q, out=q)

    @property
    def q(self) -> np.ndarray:
        return self._q(slice(None))

    def __len__(self):
        return len(self.mean)

    def __getitem__(self, k) -> "OffspringDistribution":
        return OffspringDistribution("geometric", mean=float(self.mean[k]))

    def overflow_rows(self, parents: np.ndarray) -> Optional[np.ndarray]:
        # exact: a row's parents * max(mean, 1) is at most the largest one's
        if _overflow_rows(parents, self.top) is None:
            return None
        q = self.q
        return _overflow_rows(parents, q / (1.0 - q))

    def sample_generation_totals(self, parents: np.ndarray,
                                 rng: np.random.Generator,
                                 out: Optional[np.ndarray] = None
                                 ) -> np.ndarray:
        """Totals of ``parents`` by :func:`_sample_totals`, in passes of
        :meth:`step` rows: numpy draws an array argument's rows in order, so
        the passes give the stream and values of one negative binomial."""

        def draw(n, c, rows):
            p = self._q(c)[rows]
            return rng.negative_binomial(n, np.subtract(1.0, p, out=p))
        return _sample_totals(self, parents, out, self.step(), draw)


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
    most ``b4 lam a^-4 I``; ``inf`` where ``b4 lam a^-4`` overflows a float.
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
    # lam a^-4 in logs: lam alone overflows from sigma ~ 3e6 at a = 4096
    try:
        scale = math.exp(max(sigma, rho * (upow + logpow))
                         * math.log1p(1.0 / a) - 4.0 * math.log(a))
    except OverflowError:
        return math.inf  # no float bound here: the caller grows the head
    bound = (1.0 / 576.0 + 1.0 / 1920.0) * b4 * scale
    return bound * integral if bound < math.inf else math.inf  # 0 * inf is NaN


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

    # an integrand past the float range gives NaN; _series_moment refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        tail, err = graded_quad(xf, beyond)
        return tail, err, float(xf(0.0)[0])


class OffspringDistribution:
    """One generation's offspring law.  Immutable after construction.

    The constructor fixes the closed forms: ``mean``, ``variance`` (``inf``
    for a power tail with ``alpha <= 1``) and a power tail's totals head.
    Only certified moments (:meth:`delta_moment`, :meth:`psi_moment`) are
    cached, under a once-only lock, so instances are safe to share across
    concurrent workers.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = dict(params)
        self._cache: dict = {}
        # reentrant, so computing one cached moment may read another
        self._lock = threading.RLock()
        if kind not in _FAMILY_KEYS:
            raise ValueError(f"unknown offspring family {kind!r}")
        check_keys(params, _FAMILY_KEYS[kind], kind)

        # each range check is written so that NaN fails it
        if kind == "finite_pmf":
            pmf = np.asarray(params["pmf"], dtype=float)
            if pmf.ndim != 1 or len(pmf) == 0:
                raise ValueError("finite_pmf needs a nonempty 1-d pmf vector")
            if not np.all(pmf >= 0):
                raise ValueError("pmf values must be nonnegative numbers")
            if abs(pmf.sum() - 1.0) > 1e-12:
                raise ValueError(f"pmf must sum to 1 within 1e-12, got {pmf.sum()!r}")
            self._pmf = pmf / pmf.sum()
            self._ks = np.arange(len(pmf), dtype=np.int64)
            self.mean = float(np.dot(self._pmf, self._ks))
            self.variance = float(np.dot(self._pmf, (self._ks - self.mean) ** 2))
        elif kind == "geometric":
            mean = float(params["mean"])
            if not mean > 0:
                raise ValueError(f"geometric mean must be positive, got {mean!r}")
            self._q = mean / (1.0 + mean)
            if not self._q < 1.0:
                raise ValueError(f"geometric mean {mean!r} too large: "
                                 "q = mean/(1+mean) rounds to 1")
            self.mean = self._q / (1.0 - self._q)
            self.variance = self._q / (1.0 - self._q) ** 2
        elif kind == "poisson":
            lam = float(params["lam"])
            if not 0 < lam < math.inf:
                raise ValueError("poisson rate lam must be positive and finite, "
                                 f"got {lam!r}")
            self._lam = self.mean = self.variance = lam
        elif kind == "linear_fractional":
            p0, q = float(params["p0"]), float(params["q"])
            if not (0 <= p0 < 1) or not (0 <= q < 1):
                raise ValueError("linear_fractional needs p0 in [0,1), q in [0,1)")
            self._p0, self._q = p0, q
            m = self.mean = (1.0 - p0) / (1.0 - q)
            self.variance = (1.0 - p0) * (1.0 + q) / (1.0 - q) ** 2 - m * m
        elif kind == "power_law_tail":
            alpha, p0 = float(params["alpha"]), float(params["p0"])
            if not 0 < alpha < math.inf:
                raise ValueError("tail exponent alpha must be positive and "
                                 f"finite, got {alpha!r}")
            if 1.0 + alpha == 1.0:
                raise ValueError(f"tail exponent alpha {alpha!r} is too small: "
                                 "1 + alpha rounds to 1, so the mean is "
                                 "infinite")
            if not (0 <= p0 < 1):
                raise ValueError("head mass p0 must be in [0,1)")
            self._alpha, self._p0 = alpha, p0
            # c normalizes the k^{-(2+alpha)} tail by zeta(2 + alpha), within
            # 2 ulp by Euler-Maclaurin summation; E X = c zeta(1 + alpha)
            self._c = (1.0 - p0) / zeta(2.0 + alpha)
            m = self.mean = self._c * zeta(1.0 + alpha)
            self.variance = (math.inf if alpha <= 1.0 else
                             self._c * zeta(alpha) - m * m)
            # P(X = k) for k <= _TOTALS_HEAD, then P(X > _TOTALS_HEAD)
            self._head_pvals = np.append(
                self.pmf_vector(np.arange(_TOTALS_HEAD + 1)),
                self._c * zeta(2.0 + alpha, _TOTALS_HEAD + 1.0))

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

    @classmethod
    def from_config(cls, cfg: dict) -> "OffspringDistribution":
        cfg = dict(cfg)
        kind = cfg.pop("kind", None)
        if kind is None:
            raise ValueError("distribution config needs a 'kind' field")
        return cls(kind, **cfg)

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
            return poisson_pmf(ks, self._lam)
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
                                 rng: np.random.Generator,
                                 out: Optional[np.ndarray] = None
                                 ) -> np.ndarray:
        """Totals of ``parents[i]`` i.i.d. offspring counts, exact for every
        family and any parent count, by :func:`_sample_totals` (a
        :class:`PopulationOverflowError` past int64; ``out`` may be
        ``parents``) in one pass: linear-fractional and power-tail totals
        draw every row's first stage before the second."""
        return _sample_totals(self, parents, out, max(len(parents), 1),
                              lambda n, c, rows: self._positive_totals(n, rng))

    def _positive_totals(self, n: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Totals of ``n[i] > 0`` offspring counts."""
        if self.kind == "finite_pmf":
            return rng.multinomial(n, self._pmf) @ self._ks
        if self.kind == "geometric":
            return rng.negative_binomial(n, 1.0 - self._q)
        if self.kind == "poisson":
            return rng.poisson(self._lam * n)
        if self.kind == "linear_fractional":
            b = rng.binomial(n, 1.0 - self._p0)
            return b + _positive_rows(b, lambda rows: rng.negative_binomial(
                b[rows], 1.0 - self._q))
        return self._power_law_totals(n, rng)

    def overflow_rows(self, parents: np.ndarray) -> Optional[np.ndarray]:
        """Rows :meth:`sample_generation_totals` refuses because a total
        could leave int64; None when every row is safe.  (Any geometric mean
        with ``q < 1`` trips this before numpy's negative-binomial range.)"""
        return _overflow_rows(parents, self.mean)

    def _power_law_totals(self, n: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
        """Composition sampler (L. Devroye, *Non-Uniform Random Variate
        Generation*, 1986): one multinomial per row over the offspring
        counts ``0.._TOTALS_HEAD`` and the event ``X > _TOTALS_HEAD``, whose
        probabilities the constructor fixed, then the counts of that event
        one by one.  A float shadow of every total catches an int64 sum that
        would wrap."""
        counts = rng.multinomial(n, self._head_pvals)
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
        exactly ``P(k) ~ k^-(2+alpha)``.  The acceptance rate is
        ``a zeta(1+a, K+1) (K+1/2)^a``: at ``K = 16`` about 0.9996 at
        ``alpha`` 0.1, 0.9987 at 1.5 and 0.994 at 5, falling to 0.69 at 50;
        but ``P(X > K) <= (K+1)^-(1+alpha)``, so at large ``alpha`` tail
        draws are vanishingly rare.
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

        ``scale >= 0`` is the environment-supplied damping factor (a ratio
        of accumulated generation means, which may underflow to 0).  ``phi``
        must come from the :class:`PhiFunction` catalog.  A pure power
        ``phi(x) = x^d`` factors as ``scale^d E[U^(1+d)]``, so every scale
        shares one moment; a weight with ``phi(0) = 0`` gives 0 at
        ``scale = 0``, whatever the law.
        """
        if not scale >= 0:
            raise ValueError("scale must be nonnegative")
        if not isinstance(phi, PhiFunction):
            raise UnsupportedDistributionError(
                "only catalog weight functions are supported")
        if phi.zero or scale == 0.0 and (phi.power or phi.log_power):
            return 0.0
        if not phi.log_power:
            return scale**phi.power * self._u_weighted_moment(
                1.0 + phi.power, 0.0, 1.0, tol)
        if math.isinf(scale):  # log(1 + U * scale) is inf wherever U > 0
            return math.inf if self.variance > 0 else 0.0
        return self._u_weighted_moment(1.0 + phi.power, phi.log_power,
                                       scale, tol)

    def _u_weighted_moment(self, upow: float, logpow: float, scale: float,
                           tol: float) -> float:
        """``E[ U^upow * scale^(upow-1) * log(1 + U*scale)^logpow ]``, cached.

        This is ``E[U * phi(U*scale)]`` for the power-log catalog with
        ``phi(x) = x^(upow-1) * log(1+x)^logpow``; with ``scale=1, logpow=0``
        it reduces to the plain fractional deviation moment ``E U^upow``.
        Summed exactly on a finite pmf, by :meth:`_series_moment` otherwise.
        A power tail's divergent moment is +inf; any other moment that is not
        a finite float raises :class:`UnsupportedDistributionError`.
        """
        sfac = scale ** (upow - 1.0)

        def integrand(ks: np.ndarray) -> np.ndarray:
            u = self._deviation(ks)
            val = np.power(u, upow) * sfac
            if logpow:
                lg = np.log1p(u * scale)
                big = np.isinf(lg)  # u * scale overflows: add the logs
                lg[big] = np.logaddexp(0.0, np.log(u[big]) + math.log(scale))
                val = val * np.power(lg, logpow)
            return val

        def term_sum(ks: np.ndarray) -> float:
            # an overflowing integrand is refused below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.dot(self.pmf_vector(ks), integrand(ks)))

        def compute():
            if self.kind == "power_law_tail" and upow - 1.0 >= self._alpha:
                # term exponent k^{-(2+alpha)} * k^upow: divergent iff
                # upow-1 >= alpha (at equality the log factors only worsen it)
                return math.inf
            value = (term_sum(self._ks) if self.kind == "finite_pmf" else
                     self._series_moment(term_sum, upow, logpow, scale, tol))
            if not math.isfinite(value):
                raise UnsupportedDistributionError(
                    f"{self!r}: its deviation moment of order {upow:g} is "
                    f"{value} in floating point")
            return value
        return self._cached(("u_moment", upow, logpow, scale, tol), compute)

    def _series_moment(self, term_sum, upow: float, logpow: float,
                       scale: float, tol: float) -> float:
        """``sum_k f(k)`` over an infinite support, ``term_sum(ks)`` being
        ``sum f(ks)``: the exact head ``k <= K`` plus :meth:`_remainder`'s
        estimate of the rest.

        ``K`` starts at ``_MOMENT_HEAD`` for a power tail and at 16 for a
        light one, times 4 until ``K >= 2m`` (where the remainder bounds
        hold), and grows fourfold while the certified error misses ``tol``
        (relative once the moment exceeds 1).  A head past
        ``_MOMENT_HEAD_MAX``, needed first or to meet ``tol``, raises
        :class:`NotApplicableError`: no value is returned uncertified.  A
        head that is not a finite float is returned for the caller to refuse.
        """
        m = self.mean

        def head(lo: int, hi: int) -> float:
            return sum(term_sum(np.arange(start, min(start + _MOMENT_HEAD, hi)))
                       for start in range(lo, hi, _MOMENT_HEAD))

        cut = _MOMENT_HEAD if self.kind == "power_law_tail" else 16
        while cut < 2.0 * m:
            cut *= 4
        if cut > _MOMENT_HEAD_MAX:
            raise NotApplicableError(
                f"{self!r} has mean {m:.3g}: its moments need an exact head "
                f"of more than {_MOMENT_HEAD_MAX} terms")
        total = head(0, cut + 1)
        while math.isfinite(total):
            rest, err = self._remainder(
                cut, term_sum, upow, logpow, scale,
                min(math.ulp(total) / 2, tol * max(1.0, total)))
            value = total + rest
            if math.isnan(value) or math.isnan(err):
                raise NotApplicableError(f"{self!r}: a moment's remainder "
                                         f"{rest:.3g}, error bound {err:.3g}")
            if err <= tol * max(1.0, value):
                return value
            if cut >= _MOMENT_HEAD_MAX:
                raise NotApplicableError(
                    f"{self!r}: a moment's error bound {err:.3g} misses tol "
                    f"{tol:.3g} at the largest exact head ({_MOMENT_HEAD_MAX} "
                    "terms)")
            total += head(cut + 1, 4 * cut + 1)
            cut *= 4
        return total

    def _remainder(self, cut: int, term_sum, upow: float, logpow: float,
                   scale: float, negligible: float):
        """An estimate of ``sum_{k > cut} f(k)`` and a certified bound on its
        error, for ``cut >= 2m``.

        Power tail: 0 when a crude bound on the rest is below ``negligible``
        (half an ulp of the head sum, so adding the rest could not move it,
        and within the tolerance).  As ``u <= k/m`` and ``log(1 + x) <= x``,
        each term is at most ``e^log_c s^logpow m^-(upow + logpow) k^-beta``,
        ``beta = sigma - upow - logpow``, so for ``beta > 1`` the rest is at
        most that constant times ``K^(1 - beta) / (beta - 1)``, taken in logs.
        Otherwise ``int_{K+1/2}^inf f`` (:func:`_power_tail_integral`)
        plus the Euler-Maclaurin correction ``f'(K+1/2)/24``, with the
        quadrature's error estimate plus :func:`_remainder_bound`.

        Light tails: 0, with a ratio-test bound.  From ``k = K`` on each term
        is at most ``rho`` times the one before, ``rho = r ((K + 1 - m) / (K
        - m))^(upow + logpow)``, ``r = q`` (geometric, linear-fractional) or
        ``lam / (K + 1)`` (Poisson), as ``log(1 + x') / log(1 + x) <= x'/x``
        for ``x' >= x > 0``.  The rest is at most ``f(K) rho / (1 - rho)``.
        """
        m = self.mean
        if self.kind != "power_law_tail":
            r = self._lam / (cut + 1.0) if self.kind == "poisson" else self._q
            rho = r * ((cut + 1.0 - m) / (cut - m)) ** (upow + logpow)
            return 0.0, (term_sum(np.array([cut])) * rho / (1.0 - rho)
                         if rho < 1.0 else math.inf)
        sigma, a = 2.0 + self._alpha, cut + 0.5
        log_c = math.log(self._c) + (upow - 1.0) * math.log(scale)
        beta = sigma - upow - logpow
        if beta > 1.0 and negligible > 0.0:
            log_bound = (log_c + logpow * math.log(scale)
                         - (upow + logpow) * math.log(m)
                         + (1.0 - beta) * math.log(cut) - math.log(beta - 1.0))
            if log_bound < math.log(negligible):
                return 0.0, math.exp(log_bound)
        tail, q_err, af = _power_tail_integral(a, m, log_c, sigma, upow,
                                               logpow, scale)
        u = a / m - 1.0
        slope = -sigma / a + upow / (m * u)  # f'(a) / f(a)
        if logpow:
            slope += logpow * scale / (m * (1.0 + u * scale)
                                       * math.log1p(u * scale))
        return (tail + af / a * slope / 24.0,
                q_err + _remainder_bound(a, tail, sigma, upow, logpow, m))

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
