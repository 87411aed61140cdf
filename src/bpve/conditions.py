"""Numerical evaluation of the convergence conditions on an environment.

Each checker sums a weighted series of per-generation moment functionals
over a quenched environment and reports a :class:`ConditionReport`: the
truncated partial sum, a certified tail bound when the trailing drift of
the log-means dominates geometrically, and a verdict.

Verdicts are conservative:

* ``finite`` requires a tail bound, so partial + tail brackets the series;
* ``divergent`` requires an infinite term, or partial sums beyond a
  configured threshold together with a nondecreasing-terms certificate;
* everything else is ``inconclusive``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import NotApplicableError, OffspringDistribution, PhiFunction
from .environment import EnvironmentSpec, QuenchedEnvironment, quench
from .streams import substream

__all__ = [
    "ConditionReport",
    "variance_series",
    "fractional_variance_series",
    "psi_series",
    "increment_variance_series",
    "jagers_sum",
    "moment_ratio_sup",
    "tightness_diagnostic",
    "TightnessTable",
]

DEFAULT_WINDOW = 64
DEFAULT_DIVERGENCE_THRESHOLD = 1e9


@dataclass
class ConditionReport:
    series_id: str
    start: int
    partial_sum: float
    horizon: int
    tail_bound: Optional[float]
    verdict: str  # finite | divergent | inconclusive
    detail: dict = field(default_factory=dict)

    @property
    def certified_value(self) -> float:
        """Upper end of the bracket (partial + tail) when finite."""
        if self.tail_bound is None:
            return self.partial_sum
        return self.partial_sum + self.tail_bound

    def to_json(self) -> str:
        payload = {
            "series_id": self.series_id,
            "start": self.start,
            "partial_sum": _jsonable(self.partial_sum),
            "horizon": self.horizon,
            "tail_bound": _jsonable(self.tail_bound),
            "verdict": self.verdict,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
        }
        return json.dumps(payload, sort_keys=True)


def _jsonable(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    if isinstance(v, np.generic):
        return v.item()
    return v


def _check_range(env: QuenchedEnvironment, start: int, horizon: Optional[int],
                 need_prev: bool = False) -> int:
    if start < 1:
        raise ValueError("series start index is 1-based")
    if horizon is None:
        horizon = env.horizon - start
    if start + horizon > env.horizon:
        raise ValueError(
            f"start {start} + horizon {horizon} exceeds environment "
            f"horizon {env.horizon}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return horizon


def _trailing_drift(xi: np.ndarray, window: int) -> Tuple[float, int]:
    """Smallest sliding-window average of the log-means over the trailing
    half of the evaluated range; returns (drift, window_used)."""
    n = len(xi)
    w = min(window, n)
    tail = xi[n // 2:] if n >= 2 * w else xi
    if len(tail) < w:
        w = len(tail)
    if w == 0:
        return -math.inf, 0
    csum = np.concatenate(([0.0], np.cumsum(tail)))
    avgs = (csum[w:] - csum[:-w]) / w
    return float(avgs.min()), w


def _nondecreasing_tail(terms: np.ndarray, window: int) -> bool:
    w = min(window, len(terms))
    if w < 2:
        return False
    tail = terms[-w:]
    return bool(np.all(np.diff(tail) >= -1e-15))


def variance_series(env: QuenchedEnvironment, start: int = 1,
                    horizon: Optional[int] = None, tol: float = 1e-9,
                    window: int = DEFAULT_WINDOW,
                    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
                    ) -> ConditionReport:
    """Weighted series of normalized variances from generation ``start``:
    term ``i`` is the normalized variance of generation ``start + i`` damped
    by the growth accumulated since ``start``."""
    horizon = _check_range(env, start, horizon)
    zetas = np.empty(horizon + 1)
    for i in range(horizon + 1):
        z = env.dists[start - 1 + i].normalized_variance
        if math.isinf(z):
            return ConditionReport(
                "variance_series", start, math.inf, horizon, None, "divergent",
                {"reason": f"infinite normalized variance at generation {start + i}"})
        zetas[i] = z
    weights = np.exp(-(env.s[start:start + horizon + 1] - env.s[start]))
    terms = zetas * weights
    partial = float(terms.sum())
    return _finish_series("variance_series", env, start, horizon, terms,
                          partial, zetas, drift_scale=1.0, tol=tol,
                          window=window,
                          divergence_threshold=divergence_threshold)


def fractional_variance_series(env: QuenchedEnvironment, start: int = 1,
                               delta: float = 1.0,
                               horizon: Optional[int] = None,
                               tol: float = 1e-9,
                               window: int = DEFAULT_WINDOW,
                               divergence_threshold: float =
                               DEFAULT_DIVERGENCE_THRESHOLD) -> ConditionReport:
    """Like :func:`variance_series` but with the fractional deviation moment
    of order ``1 + delta`` and damping exponent scaled by ``delta``; usable
    when variances are infinite."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    horizon = _check_range(env, start, horizon)
    zetas = np.empty(horizon + 1)
    for i in range(horizon + 1):
        z = env.dists[start - 1 + i].delta_moment(delta, tol=tol * 1e-3)
        if math.isinf(z):
            return ConditionReport(
                "fractional_variance_series", start, math.inf, horizon, None,
                "divergent",
                {"delta": delta,
                 "reason": f"infinite deviation moment at generation {start + i}"})
        zetas[i] = z
    weights = np.exp(-delta * (env.s[start:start + horizon + 1] - env.s[start]))
    terms = zetas * weights
    partial = float(terms.sum())
    rep = _finish_series("fractional_variance_series", env, start, horizon,
                         terms, partial, zetas, drift_scale=delta, tol=tol,
                         window=window,
                         divergence_threshold=divergence_threshold)
    rep.detail["delta"] = delta
    return rep


def _finish_series(series_id, env, start, horizon, terms, partial, zetas,
                   drift_scale, tol, window, divergence_threshold):
    xi = env.xi[start:start + horizon]
    mu_w, w_used = _trailing_drift(xi, window)
    detail = {"trailing_drift": mu_w, "drift_window": w_used}
    if mu_w > 0:
        zbar = float(zetas[-max(1, min(window, len(zetas))):].max())
        damp = drift_scale * (env.s[start + horizon] - env.s[start])
        # omitted terms r = 1, 2, ... past the last one are damped by at
        # least r drift steps more, as in psi_series' tail bound
        tail = zbar * math.exp(-damp) / math.expm1(drift_scale * mu_w)
        return ConditionReport(series_id, start, partial, horizon, tail,
                               "finite", detail)
    if partial > divergence_threshold and _nondecreasing_tail(terms, window):
        detail["reason"] = "partial sums exceed threshold with nondecreasing terms"
        return ConditionReport(series_id, start, partial, horizon, None,
                               "divergent", detail)
    return ConditionReport(series_id, start, partial, horizon, None,
                           "inconclusive", detail)


def psi_series(env: QuenchedEnvironment, start: int = 1,
               phi: PhiFunction = PhiFunction(power=1.0),
               horizon: Optional[int] = None, tol: float = 1e-9,
               window: int = DEFAULT_WINDOW,
               divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
               ) -> ConditionReport:
    """Weighted deviation-moment series: term ``j >= 1`` is
    ``E[U phi(U * damping_j)]`` for generation ``start + j``, with damping
    accumulated from ``start`` through ``start + j - 1``.

    Certified tails exist only for the catalog weight functions: a pure
    power (or power-log) rides the geometric damping directly; a pure
    log-power uses a threshold split against a higher log-moment.
    """
    if not isinstance(phi, PhiFunction):
        raise NotApplicableError("phi must come from the catalog")
    horizon = _check_range(env, start, horizon)
    if phi.zero:
        return ConditionReport("psi_series", start, 0.0, horizon, 0.0,
                               "finite", {"phi": "zero"})
    # one accuracy for the terms and for the moments in the tail bound
    term_tol = tol * 1e-3
    terms = np.zeros(horizon + 1)
    for j in range(1, horizon + 1):
        scale = math.exp(-(env.s[start + j - 1] - env.s[start]))
        t = env.dists[start - 1 + j].psi_moment(phi, scale, tol=term_tol)
        if math.isinf(t):
            return ConditionReport(
                "psi_series", start, math.inf, horizon, None, "divergent",
                {"phi": phi.identifier,
                 "reason": f"infinite term at generation {start + j}"})
        terms[j] = t
    partial = float(terms[1:].sum())
    xi = env.xi[start:start + horizon]
    mu_w, w_used = _trailing_drift(xi, window)
    detail = {"phi": phi.identifier, "trailing_drift": mu_w,
              "drift_window": w_used}
    if mu_w <= 0:
        if partial > divergence_threshold and _nondecreasing_tail(terms[1:], window):
            detail["reason"] = ("partial sums exceed threshold with "
                                "nondecreasing terms")
            return ConditionReport("psi_series", start, partial, horizon,
                                   None, "divergent", detail)
        return ConditionReport("psi_series", start, partial, horizon, None,
                               "inconclusive", detail)

    wlen = max(1, min(window, horizon))
    trailing = env.dists[start + horizon - wlen:start + horizon]
    next_scale = math.exp(-(env.s[start + horizon] - env.s[start]))
    tail = _psi_tail_bound(phi, trailing, next_scale, mu_w, term_tol)
    if tail is None or math.isinf(tail):
        return ConditionReport("psi_series", start, partial, horizon, None,
                               "inconclusive", detail)
    return ConditionReport("psi_series", start, partial, horizon, tail,
                           "finite", detail)


def _psi_tail_bound(phi: PhiFunction, trailing: List[OffspringDistribution],
                    next_scale: float, mu_w: float,
                    tol: float) -> Optional[float]:
    d, g = phi.power, phi.log_power
    if d > 0:
        if next_scale > 1.0:
            return None
        # term <= scale^d * E[U^{1+d} log^g(1+U)] once damping <= 1
        m1 = max(dd.psi_moment(phi, 1.0, tol=tol) for dd in set(trailing))
        if math.isinf(m1):
            return None
        return m1 * next_scale**d / (1.0 - math.exp(-d * mu_w))
    # pure log-power: split at U = damping^{-1/2}
    if next_scale >= 1.0:
        return None
    u_mean = max(dd.delta_moment(0.0, tol=tol) for dd in set(trailing))
    high = PhiFunction(power=0.0, log_power=1.0 + 2.0 * g)
    m2 = max(dd.psi_moment(high, 1.0, tol=tol) for dd in set(trailing))
    if math.isinf(m2):
        return None
    # below threshold: U*phi <= U * log^g(1 + sqrt(scale)) <= U * scale^{g/2}
    piece1 = u_mean * next_scale ** (g / 2.0) \
        / (1.0 - math.exp(-g * mu_w / 2.0))
    # above threshold: Markov against the higher log-moment; log(1/sqrt(s_j))
    # grows at least linearly with certified slope mu_w / 2
    c0 = -math.log(next_scale) / 2.0
    if c0 <= 0:
        return None
    gam = 1.0 + g
    piece2 = m2 * (c0 ** -gam + (c0 ** -(gam - 1.0)) / ((gam - 1.0) * (mu_w / 2.0)))
    return piece1 + piece2


def increment_variance_series(env: QuenchedEnvironment, start: int = 0,
                              horizon: Optional[int] = None,
                              tol: float = 1e-9,
                              window: int = DEFAULT_WINDOW) -> ConditionReport:
    """Sum of one-step conditional second moments of the normalized process
    after ``start``, per unit ancestor: term ``j >= 1`` is the normalized
    variance of generation ``start + j`` damped by the growth accumulated
    over generations ``start+1 .. start+j-1``.

    This is the exact variance budget behind the halving-probability bound.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    if horizon is None:
        horizon = env.horizon - start - 1
    if start + horizon + 1 > env.horizon:
        raise ValueError("start + horizon exceeds environment horizon")
    zetas = np.empty(horizon + 1)
    for j in range(1, horizon + 2):
        z = env.dists[start + j - 1].normalized_variance
        if math.isinf(z):
            return ConditionReport(
                "increment_variance_series", start, math.inf, horizon, None,
                "divergent",
                {"reason": f"infinite normalized variance at generation {start + j}"})
        zetas[j - 1] = z
    damp = np.exp(-(env.s[start:start + horizon + 1] - env.s[start]))
    terms = zetas * damp
    partial = float(terms.sum())
    xi = env.xi[start:start + horizon + 1]
    mu_w, w_used = _trailing_drift(xi, window)
    detail = {"trailing_drift": mu_w, "drift_window": w_used}
    if mu_w > 0:
        zbar = float(zetas[-max(1, min(window, len(zetas))):].max())
        tail = zbar * math.exp(-(env.s[start + horizon + 1] - env.s[start])) \
            / (1.0 - math.exp(-mu_w))
        return ConditionReport("increment_variance_series", start, partial,
                               horizon, tail, "finite", detail)
    return ConditionReport("increment_variance_series", start, partial,
                           horizon, None, "inconclusive", detail)


def jagers_sum(env: QuenchedEnvironment, horizon: Optional[int] = None,
               eps: float = 1e-6, density: float = 0.2,
               window: int = DEFAULT_WINDOW) -> ConditionReport:
    """Sum of ``1 - P(one child)`` across generations.

    Divergence of this sum is the classical certificate that the process
    either dies out or explodes.  Verdict ``divergent`` needs terms bounded
    below by ``eps`` at stable frequency in both halves of the range;
    ``finite`` needs a certified geometrically decaying tail.
    """
    if horizon is None:
        horizon = env.horizon
    if horizon > env.horizon or horizon < 1:
        raise ValueError("horizon out of range")
    p0s = np.array([env.dists[i].pmf(0) for i in range(horizon)])
    if np.any(p0s >= 1.0):
        idx = int(np.argmax(p0s >= 1.0)) + 1
        return ConditionReport(
            "jagers_sum", 1, math.nan, horizon, None, "inconclusive",
            {"not_applicable": True,
             "reason": f"generation {idx} dies out with certainty"})
    terms = np.array([1.0 - env.dists[i].pmf(1) for i in range(horizon)])
    partial = float(terms.sum())
    half = horizon // 2
    dens1 = float(np.mean(terms[:half] >= eps)) if half else 0.0
    dens2 = float(np.mean(terms[half:] >= eps))
    detail = {"density_first_half": dens1, "density_second_half": dens2}
    if half and dens1 >= density and dens2 >= density:
        detail["reason"] = "terms bounded below at stable frequency"
        return ConditionReport("jagers_sum", 1, partial, horizon, None,
                               "divergent", detail)
    w = min(window, horizon)
    tail = terms[-w:]
    pos = tail[tail > 0]
    if len(pos) == 0:
        return ConditionReport("jagers_sum", 1, partial, horizon, 0.0,
                               "finite", detail)
    ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
    r = float(ratios.max())
    if r < 1.0 and float(tail.max()) < eps * 10:
        bound = float(tail[-1]) * r / (1.0 - r)
        return ConditionReport("jagers_sum", 1, partial, horizon, bound,
                               "finite", detail)
    return ConditionReport("jagers_sum", 1, partial, horizon, None,
                           "inconclusive", detail)


def moment_ratio_sup(env: QuenchedEnvironment,
                     horizon: Optional[int] = None) -> ConditionReport:
    """Running maximum of the per-generation truncated moment ratio.

    A finite-horizon maximum can never certify a uniform bound, so the
    verdict is ``inconclusive`` unless some term is infinite; reported for
    comparison against the series checkers.
    """
    if horizon is None:
        horizon = env.horizon
    if horizon > env.horizon or horizon < 1:
        raise ValueError("horizon out of range")
    best = -math.inf
    defined = 0
    for i in range(horizon):
        try:
            term = env.dists[i].truncated_moment_ratio()
        except NotApplicableError:
            continue
        defined += 1
        best = max(best, term)
        if math.isinf(term):
            return ConditionReport(
                "moment_ratio_sup", 1, math.inf, horizon, None, "divergent",
                {"reason": f"infinite moment ratio at generation {i + 1}",
                 "defined_terms": defined})
    if defined == 0:
        return ConditionReport(
            "moment_ratio_sup", 1, math.nan, horizon, None, "inconclusive",
            {"not_applicable": True, "reason": "no generation has a defined ratio"})
    return ConditionReport("moment_ratio_sup", 1, best, horizon, None,
                           "inconclusive", {"defined_terms": defined})


# -- distributional diagnostic over sampled environments --------------------

@dataclass
class TightnessTable:
    series: str
    truncations: List[int]
    quantile_levels: Tuple[float, ...]
    rows: np.ndarray  # shape (len(truncations), len(quantile_levels))
    blowup_flag: bool
    env_replicas: int

    def to_csv(self, path):
        header = "l," + ",".join(f"q{int(100 * q)}" for q in self.quantile_levels) \
            + ",flag"
        lines = [header]
        for l, row in zip(self.truncations, self.rows):
            vals = ",".join(f"{v:.10g}" for v in row)
            lines.append(f"{l},{vals},{int(self.blowup_flag)}")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return text


def tightness_diagnostic(spec: EnvironmentSpec, l_grid: Sequence[int],
                         env_replicas: int, seed: int,
                         series: str = "variance",
                         delta: Optional[float] = None,
                         phi: Optional[PhiFunction] = None,
                         blowup_factor: float = 3.0,
                         quantile_levels: Tuple[float, ...] = (0.1, 0.5, 0.9),
                         ) -> TightnessTable:
    """Empirical dichotomy check for i.i.d./cooling environments.

    For each truncation length ``l`` in ``l_grid``, draws ``env_replicas``
    independent environments and records quantiles of the series partial
    sum truncated at ``l`` terms.  For an i.i.d. environment the series
    either converges almost surely (quantiles stabilize along the grid) or
    its partial sums drift to infinity (all quantiles keep growing): the
    flag fires when every tracked quantile grows by more than
    ``blowup_factor`` between every pair of consecutive truncations.
    """
    l_grid = sorted(int(l) for l in l_grid)
    if not l_grid or l_grid[0] < 1:
        raise ValueError("l_grid must contain positive truncation lengths")
    if env_replicas < 1:
        raise ValueError("need at least one environment replica")
    hmax = l_grid[-1]
    values = np.zeros((env_replicas, len(l_grid)))
    for r in range(env_replicas):
        env_seed = int(substream(seed, r).integers(0, 2**63 - 1))
        env = quench(spec, env_seed, hmax)
        terms = _series_terms(env, series, delta, phi)
        csum = np.cumsum(terms)
        values[r] = csum[np.array(l_grid) - 1]
    rows = np.quantile(values, quantile_levels, axis=0).T
    flag = True
    for a, b in zip(rows[:-1], rows[1:]):
        if not np.all(b > blowup_factor * np.maximum(a, 1e-300)):
            flag = False
            break
    if len(l_grid) < 2:
        flag = False
    return TightnessTable(series, l_grid, quantile_levels, rows, flag,
                          env_replicas)


def _series_terms(env: QuenchedEnvironment, series: str,
                  delta: Optional[float], phi: Optional[PhiFunction]
                  ) -> np.ndarray:
    h = env.horizon
    if series == "variance":
        zetas = np.array([d.normalized_variance for d in env.dists])
        return zetas * np.exp(-(env.s[1:] - env.s[1]))
    if series == "fractional_variance":
        if delta is None:
            raise ValueError("fractional_variance series needs delta")
        zetas = np.array([d.delta_moment(delta) for d in env.dists])
        return zetas * np.exp(-delta * (env.s[1:] - env.s[1]))
    if series == "psi":
        if phi is None:
            raise ValueError("psi series needs a catalog phi")
        out = np.zeros(h)
        for j in range(1, h + 1):
            scale = math.exp(-(env.s[j - 1] - env.s[0]))
            out[j - 1] = env.dists[j - 1].psi_moment(phi, scale)
        return out
    raise ValueError(f"unknown series {series!r}")
