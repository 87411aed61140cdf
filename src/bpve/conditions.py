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

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import NotApplicableError, OffspringDistribution, PhiFunction
# ``quench`` is not called here but stays bound, like ``substream``: the
# benchmark's tracer (bench/spans.py) wraps both names in this module
from .environment import (EnvironmentSpec, QuenchedEnvironment, quench,
                          quench_many)
from .streams import substream

__all__ = [
    "ConditionReport",
    "damped_series",
    "variance_series",
    "fractional_variance_series",
    "psi_series",
    "increment_variance_series",
    "jagers_sum",
    "moment_ratio_sup",
    "tightness_diagnostic",
    "TightnessTable",
]

# generations the trailing drift and the tail bounds look back over
WINDOW = 64
# partial sum past which nondecreasing terms make a series divergent
DIVERGENCE_THRESHOLD = 1e9
# jagers_sum: a term counts as bounded below from JAGERS_EPS; divergence needs
# that in at least a JAGERS_DENSITY share of each half of the range
JAGERS_EPS = 1e-6
JAGERS_DENSITY = 0.2
# quantiles tightness_diagnostic reports
QUANTILE_LEVELS = (0.1, 0.5, 0.9)
# generations tightness_diagnostic quenches at once, so its memory stays
# bounded whatever ``env_replicas * max(l_grid)`` is
TIGHTNESS_CHUNK = 2**16


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

    def to_dict(self) -> dict:
        return asdict(self)


def csv_text(header: str, rows) -> str:
    """CSV text; floats as ``%.10g``, integers and booleans as integers."""
    def cell(v):
        return f"{v:.10g}" if isinstance(v, float) else str(int(v))
    return "\n".join([header] + [",".join(map(cell, row))
                                 for row in rows]) + "\n"


def jsonable(obj):
    """``obj`` ready for strict JSON, recursively: non-finite floats become
    ``"inf"``, ``"-inf"`` or ``"nan"`` and numpy scalars Python values."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    return obj


def _check_range(env: QuenchedEnvironment, start: int,
                 horizon: Optional[int]) -> int:
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


def _whole_range(env: QuenchedEnvironment, horizon: Optional[int]) -> int:
    horizon = env.horizon if horizon is None else horizon
    if horizon > env.horizon or horizon < 1:
        raise ValueError("horizon out of range")
    return horizon


def _trailing_drift(xi: np.ndarray) -> Tuple[float, int]:
    """Smallest sliding-window average of the log-means over the trailing
    half of the evaluated range; returns (drift, window_used)."""
    n = len(xi)
    w = min(WINDOW, n)
    tail = xi[n // 2:] if n >= 2 * w else xi
    if w == 0:
        return -math.inf, 0
    csum = np.concatenate(([0.0], np.cumsum(tail)))
    avgs = (csum[w:] - csum[:-w]) / w
    return float(avgs.min()), w


def _nondecreasing_tail(terms: np.ndarray) -> bool:
    w = min(WINDOW, len(terms))
    if w < 2:
        return False
    tail = terms[-w:]
    return bool(np.all(np.diff(tail) >= -1e-15))


def damped_series(env: QuenchedEnvironment, first: int, count: int,
                  offset: int, exponent: float, term) -> np.ndarray:
    """The ``count`` terms ``term(dist_g, w_g)`` of generations
    ``g = first, first+1, ...`` with damping
    ``w_g = exp(-exponent (S_{g+offset} - S_{first+offset}))``, so the first
    term is undamped.  Infinite terms stay ``inf``."""
    base = first + offset
    with np.errstate(over="ignore"):  # an infinite damping is a verdict
        damp = np.exp(-exponent * (env.s[base:base + count] - env.s[base]))
    return np.array([term(env.dists[first - 1 + k], float(w))
                     for k, w in enumerate(damp)])


def _geometric_tail(bound: float, next_damping: float, rate: float) -> float:
    """The one tail certificate: terms below ``bound`` times a damping that
    starts at ``next_damping`` and falls by at least ``exp(-rate)`` per
    generation sum to at most this."""
    return bound * next_damping / -math.expm1(-rate)


def _certify(series_id: str, start: int, horizon: int, first: int,
             terms: np.ndarray, xi: np.ndarray, tail, detail: dict,
             divergence_threshold: float = DIVERGENCE_THRESHOLD,
             what: str = "term") -> ConditionReport:
    """Verdict of a damped series with terms from generation ``first``: an
    infinite term is ``divergent``; a positive trailing drift ``mu`` of the
    log-means ``xi`` with a finite ``tail(mu)`` is ``finite``; otherwise
    partial sums past the threshold with nondecreasing terms are
    ``divergent``, and anything else ``inconclusive``."""
    bad = np.flatnonzero(np.isinf(terms))
    if len(bad):
        detail["reason"] = f"infinite {what} at generation {first + bad[0]}"
        return ConditionReport(series_id, start, math.inf, horizon, None,
                               "divergent", detail)
    partial = float(terms.sum())
    mu_w, w_used = _trailing_drift(xi)
    detail.update(trailing_drift=mu_w, drift_window=w_used)
    bound = tail(mu_w) if mu_w > 0 else None
    if bound is not None and math.isfinite(bound):
        return ConditionReport(series_id, start, partial, horizon, bound,
                               "finite", detail)
    if mu_w <= 0 and partial > divergence_threshold \
            and _nondecreasing_tail(terms):
        detail["reason"] = "partial sums exceed threshold with nondecreasing terms"
        return ConditionReport(series_id, start, partial, horizon, None,
                               "divergent", detail)
    return ConditionReport(series_id, start, partial, horizon, None,
                           "inconclusive", detail)


# The checkers' term functions ``term(dist, damping)``; tightness_diagnostic
# sums the same ones.  Moments are evaluated to ``tol * 1e-3``.

def _times(moment: float, damping: float) -> float:
    return moment if math.isinf(moment) else moment * damping


def _variance_term(dist: OffspringDistribution, damping: float) -> float:
    return _times(dist.normalized_variance, damping)


def _fractional_term(delta: float, tol: float):
    """Refuses ``delta`` outside ``(0, 1]`` and a bad ``tol``, for the
    checker and :func:`tightness_diagnostic` alike."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    check_tol(tol)
    return lambda dist, damping: _times(
        dist.delta_moment(delta, tol=tol * 1e-3), damping)


def _psi_term(phi: PhiFunction, tol: float):
    return lambda dist, damping: dist.psi_moment(phi, damping, tol=tol * 1e-3)


def _moment_series(series_id, env, start, horizon, shift, exponent, term,
                   detail, divergence_threshold=DIVERGENCE_THRESHOLD,
                   what="normalized variance") -> ConditionReport:
    """Terms ``term(dist_g, 1) * w_g`` for the ``horizon + 1`` generations
    from ``g = start + shift``, damped by ``S_{g-shift} - S_start``.  The
    tail bound takes the largest moment of the trailing window; the first
    omitted term's damping is exact when ``shift = 1`` and one drift step
    beyond the last included term's when ``shift = 0``."""
    first, last = start + shift, start + shift + horizon
    terms = damped_series(env, first, horizon + 1, -shift, exponent, term)

    def tail(mu):
        zbar = max(term(d, 1.0) for d in
                   env.dists[last - min(WINDOW, horizon + 1):last])
        damp = math.exp(-exponent * (env.s[last] - env.s[start]
                                     + (1 - shift) * mu))
        return _geometric_tail(zbar, damp, exponent * mu)
    return _certify(series_id, start, horizon, first, terms,
                    env.xi[start:last], tail, detail, divergence_threshold,
                    what)


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a positive finite number: the moment
    functionals could never meet it and would grow their exact heads to the
    maximum."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def variance_series(env: QuenchedEnvironment, start: int = 1,
                    horizon: Optional[int] = None) -> ConditionReport:
    """Weighted series of normalized variances from generation ``start``.

    Index convention: generations ``g = start .. start + horizon``
    (``horizon + 1`` terms); term ``g`` is the normalized variance of
    generation ``g`` times ``exp(-(S_g - S_start))``.
    """
    horizon = _check_range(env, start, horizon)
    return _moment_series("variance_series", env, start, horizon, 0, 1.0,
                          _variance_term, {})


def fractional_variance_series(env: QuenchedEnvironment, start: int = 1,
                               delta: float = 1.0,
                               horizon: Optional[int] = None,
                               tol: float = 1e-9) -> ConditionReport:
    """Like :func:`variance_series` but with the fractional deviation moment
    of order ``1 + delta`` and damping ``exp(-delta (S_g - S_start))``;
    usable when variances are infinite.  Same index convention."""
    term = _fractional_term(delta, tol)
    horizon = _check_range(env, start, horizon)
    return _moment_series("fractional_variance_series", env, start, horizon,
                          0, delta, term, {"delta": delta},
                          what="deviation moment")


def psi_series(env: QuenchedEnvironment, start: int = 1,
               phi: PhiFunction = PhiFunction(power=1.0),
               horizon: Optional[int] = None, tol: float = 1e-9,
               ) -> ConditionReport:
    """Weighted deviation-moment series.

    Index convention: generations ``g = start + 1 .. start + horizon``
    (``horizon`` terms); term ``g`` is ``E[U phi(U * damping_g)]`` for
    generation ``g`` with ``damping_g = exp(-(S_{g-1} - S_start))``.

    Certified tails exist only for the catalog weight functions: a pure
    power (or power-log) rides the geometric damping directly; a pure
    log-power uses a threshold split against a higher log-moment.
    """
    if not isinstance(phi, PhiFunction):
        raise NotApplicableError("phi must come from the catalog")
    check_tol(tol)
    horizon = _check_range(env, start, horizon)
    if phi.zero:
        return ConditionReport("psi_series", start, 0.0, horizon, 0.0,
                               "finite", {"phi": "zero"})
    terms = damped_series(env, start + 1, horizon, -1, 1.0, _psi_term(phi, tol))
    wlen = max(1, min(WINDOW, horizon))
    trailing = set(env.dists[start + horizon - wlen:start + horizon])
    next_scale = math.exp(-(env.s[start + horizon] - env.s[start]))
    return _certify(
        "psi_series", start, horizon, start + 1, terms,
        env.xi[start:start + horizon],
        lambda mu: _psi_tail_bound(phi, trailing, next_scale, mu, tol * 1e-3),
        {"phi": phi.identifier})


def _psi_tail_bound(phi: PhiFunction, trailing, next_scale: float,
                    mu_w: float, tol: float) -> Optional[float]:
    d, g = phi.power, phi.log_power
    if d > 0:
        if next_scale > 1.0:
            return None
        # term <= scale^d * E[U^{1+d} log^g(1+U)] once damping <= 1
        m1 = max(dd.psi_moment(phi, 1.0, tol=tol) for dd in trailing)
        return _geometric_tail(m1, next_scale**d, d * mu_w)
    # pure log-power: split at U = damping^{-1/2}; phi = 1 has no damping
    if next_scale >= 1.0 or g <= 0:
        return None
    u_mean = max(dd.delta_moment(0.0, tol=tol) for dd in trailing)
    high = PhiFunction(power=0.0, log_power=1.0 + 2.0 * g)
    m2 = max(dd.psi_moment(high, 1.0, tol=tol) for dd in trailing)
    # below threshold: U*phi <= U * log^g(1 + sqrt(scale)) <= U * scale^{g/2}
    piece1 = _geometric_tail(u_mean, next_scale ** (g / 2.0), g * mu_w / 2.0)
    # above threshold: Markov against the higher log-moment; log(1/sqrt(s_j))
    # grows at least linearly with certified slope mu_w / 2
    c0 = -math.log(next_scale) / 2.0
    piece2 = m2 * (c0 ** -(1.0 + g) + c0 ** -g / (g * mu_w / 2.0))
    return piece1 + piece2


def increment_variance_series(env: QuenchedEnvironment, start: int = 0,
                              horizon: Optional[int] = None) -> ConditionReport:
    """Sum of one-step conditional second moments of the normalized process
    after ``start``, per unit ancestor: the exact variance budget behind the
    halving-probability bound.

    Index convention: generations ``g = start + 1 .. start + horizon + 1``
    (``horizon + 1`` terms); term ``g`` is the normalized variance of
    generation ``g`` times ``exp(-(S_{g-1} - S_start))``.  Only an infinite
    term makes it divergent.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    horizon = _check_range(env, start + 1, horizon)
    return _moment_series("increment_variance_series", env, start, horizon,
                          1, 1.0, _variance_term, {}, math.inf)


def jagers_sum(env: QuenchedEnvironment,
               horizon: Optional[int] = None) -> ConditionReport:
    """Sum of ``1 - P(one child)`` across generations.

    Divergence of this sum is the classical certificate that the process
    either dies out or explodes.  Verdict ``divergent`` needs terms of at
    least ``JAGERS_EPS`` in a ``JAGERS_DENSITY`` share of both halves of the
    range; ``finite`` needs a certified geometrically decaying tail.
    """
    horizon = _whole_range(env, horizon)
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
    dens1 = float(np.mean(terms[:half] >= JAGERS_EPS)) if half else 0.0
    dens2 = float(np.mean(terms[half:] >= JAGERS_EPS))
    detail = {"density_first_half": dens1, "density_second_half": dens2}
    if half and dens1 >= JAGERS_DENSITY and dens2 >= JAGERS_DENSITY:
        detail["reason"] = "terms bounded below at stable frequency"
        return ConditionReport("jagers_sum", 1, partial, horizon, None,
                               "divergent", detail)
    tail = terms[-min(WINDOW, horizon):]
    if not tail.any():
        return ConditionReport("jagers_sum", 1, partial, horizon, 0.0,
                               "finite", detail)
    ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
    r = float(ratios.max())
    if r < 1.0 and float(tail.max()) < JAGERS_EPS * 10:
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
    horizon = _whole_range(env, horizon)
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
    rows: np.ndarray  # shape (len(truncations), len(QUANTILE_LEVELS))
    blowup_flag: bool
    env_replicas: int

    def to_dict(self) -> dict:
        return {"series": self.series, "truncations": self.truncations,
                "quantiles": [[float(v) for v in row] for row in self.rows],
                "blowup_flag": self.blowup_flag}

    def to_csv(self) -> str:
        """CSV rows ``l, q.., flag``."""
        header = ",".join(["l"] + [f"q{int(100 * q)}"
                                   for q in QUANTILE_LEVELS] + ["flag"])
        return csv_text(header, [(l, *map(float, row), self.blowup_flag)
                                 for l, row in zip(self.truncations, self.rows)])


def tightness_diagnostic(spec: EnvironmentSpec, l_grid: Sequence[int],
                         env_replicas: int, seed: int,
                         series: str = "variance",
                         delta: Optional[float] = None,
                         phi: Optional[PhiFunction] = None,
                         blowup_factor: float = 3.0) -> TightnessTable:
    """Empirical dichotomy check for i.i.d./cooling environments.

    For each truncation length ``l`` in ``l_grid``, draws ``env_replicas``
    independent environments and records the ``QUANTILE_LEVELS`` quantiles
    of the series partial sum truncated at ``l`` terms: the partial sum of
    the matching checker from ``start = 1`` (``variance_series`` and
    ``fractional_variance_series`` with ``horizon = l - 1``, ``psi_series``
    with ``horizon = l``), at the checkers' default accuracy and with their
    checks of ``delta``.  A term that is not finite leaves no quantiles: it
    raises :class:`NotApplicableError` naming the environment and the
    generation.
    For an i.i.d. environment the series either converges almost surely
    (quantiles stabilize along the grid) or its partial sums drift to
    infinity (all quantiles keep growing): the flag fires when every
    tracked quantile grows by more than ``blowup_factor``, a positive finite
    number, between every pair of consecutive truncations.

    Environment ``r`` has the seed ``substream(seed, r).integers(0, 2**63 -
    1)``.  The environments are quenched in bulk through
    :func:`~bpve.environment.quench_many`, at most ``TIGHTNESS_CHUNK``
    generations at a time, with values identical to quenching each alone.
    """
    l_grid = sorted(int(l) for l in l_grid)
    if not l_grid or l_grid[0] < 1:
        raise ValueError("l_grid must contain positive truncation lengths")
    if env_replicas < 1:
        raise ValueError("need at least one environment replica")
    if not 0.0 < blowup_factor < math.inf:
        raise ValueError("blowup_factor must be a positive finite number, "
                         f"got {blowup_factor!r}")
    tol = 1e-9
    if series == "variance":
        first, offset, exponent, term = 1, 0, 1.0, _variance_term
    elif series == "fractional_variance":
        if delta is None:
            raise ValueError("fractional_variance series needs delta")
        first, offset, exponent, term = 1, 0, delta, _fractional_term(delta, tol)
    elif series == "psi":
        if phi is None:
            raise ValueError("psi series needs a catalog phi")
        first, offset, exponent, term = 2, -1, 1.0, _psi_term(phi, tol)
    else:
        raise ValueError(f"unknown series {series!r}")
    hmax = l_grid[-1]
    horizon = first + hmax - 1
    seeds = [int(substream(seed, r).integers(0, 2**63 - 1))
             for r in range(env_replicas)]
    group = max(1, TIGHTNESS_CHUNK // horizon)
    values = np.zeros((env_replicas, len(l_grid)))
    for lo in range(0, env_replicas, group):
        envs = quench_many(spec, seeds[lo:lo + group], horizon)
        for r, env in enumerate(envs, lo):
            terms = damped_series(env, first, hmax, offset, exponent, term)
            bad = np.flatnonzero(~np.isfinite(terms))
            if len(bad):
                raise NotApplicableError(
                    f"environment {r} has a {series} term of "
                    f"{terms[bad[0]]} at generation {first + bad[0]}; its "
                    "partial sums have no quantiles")
            values[r] = np.cumsum(terms)[np.array(l_grid) - 1]
    rows = np.quantile(values, QUANTILE_LEVELS, axis=0).T
    flag = len(l_grid) >= 2 and all(
        np.all(b > blowup_factor * np.maximum(a, 1e-300))
        for a, b in zip(rows[:-1], rows[1:]))
    return TightnessTable(series, l_grid, rows, flag, env_replicas)
