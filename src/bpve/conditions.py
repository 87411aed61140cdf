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

Reports and tables are plain dataclasses; :mod:`bpve.cli` writes them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import NotApplicableError, PhiFunction
from .numerics import exp_or_inf
# ``quench`` is not called here but stays bound, like ``substream``: the
# benchmark's tracer (bench/spans.py) wraps both names in this module
from .environment import (MAX_REPLICAS, EnvironmentSpec,
                          QuenchedEnvironment, ResourceWarningError, quench,
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
# generation cells (about 24 bytes each) tightness_diagnostic quenches at
# once, so its memory stays bounded whatever ``env_replicas * max(l_grid)`` is
TIGHTNESS_CHUNK = 2**20


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


def damped_series(env: QuenchedEnvironment, start: int, shift: int,
                  count: int, exponent: float, moment, term=None
                  ) -> np.ndarray:
    """The ``count`` terms of generations ``g = start + shift, ...``, with
    ``x_g = S_{g-shift} - S_start`` (0 for the first): ``moment(dist_g) *
    exp(-exponent x_g)``, or, if given, ``term(dist_g, exp(-x_g))`` on the
    raw damping.  The moment is taken once per law (``env.map_laws``), and
    a term whose law has an infinite moment is ``inf`` on both paths, even
    where its damping underflows to 0."""
    x = env.s[start:start + count] - env.s[start]
    lo = start + shift - 1
    m = env.map_laws(moment, lo, lo + count)
    # an infinite damping is a verdict; inf * 0 is replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = m * np.exp(-exponent * x) if term is None else np.array(
            [term(env.laws[k], float(w)) for k, w in
             zip(env.index[lo:lo + count].tolist(), np.exp(-x))])
        return np.where(np.isinf(m), m, terms)


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


def _series(series: str, delta: float = 1.0,
            phi: PhiFunction = PhiFunction(power=1.0), tol: float = 1e-9):
    """The row ``(shift, exponent, moment, term)`` of :func:`damped_series`
    that a checker and :func:`tightness_diagnostic` both sum; moments to
    ``tol * 1e-3``.  A psi row's moment is ``E[U phi(U)]``, which a pure
    power ``phi = x^d`` scales by the damping to the ``d``; only a log
    weight needs its ``term`` at each damping.  Refuses ``delta`` outside
    ``(0, 1]``, a ``phi`` outside the catalog and a bad ``tol``."""
    if series == "variance":
        row = 0, 1.0, lambda d: d.normalized_variance, None
    elif series == "fractional_variance":
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        row = 0, delta, lambda d: d.delta_moment(delta, tol=tol * 1e-3), None
    elif series == "psi":
        if not isinstance(phi, PhiFunction):
            raise NotApplicableError("phi must come from the catalog")
        row = (1, phi.power, lambda d: d.psi_moment(phi, 1.0, tol=tol * 1e-3),
               (lambda d, w: d.psi_moment(phi, w, tol=tol * 1e-3))
               if phi.log_power else None)
    else:
        raise ValueError(f"unknown series {series!r}")
    check_tol(tol)
    return row


def _report(series_id, env, start, horizon, count, row, detail,
            divergence_threshold=DIVERGENCE_THRESHOLD, what="term",
            split=None) -> ConditionReport:
    """Sum the ``count`` terms of ``row`` from ``g = start + shift`` and
    certify the rest.  With ``exponent`` ``d > 0`` every omitted term is at
    most the largest moment of the trailing window times its damping
    ``exp(-d x)``; a log factor needs that damping at most 1.  The first
    omitted damping is exact when ``shift = 1`` and one drift step beyond
    the last term's when ``shift = 0``.  A ``d = 0`` row has a tail only
    through ``split(peak, x, mu)``, ``peak(f)`` the window's largest ``f``."""
    shift, exponent, moment, term = row
    first = start + shift
    last = first + count - 1
    terms = damped_series(env, start, shift, count, exponent, moment, term)

    def peak(f):
        return max(env.map_laws(
            f, last - max(1, min(WINDOW, count)), last).tolist())

    def tail(mu):
        x = env.s[last] - env.s[start] + (1 - shift) * mu
        if exponent > 0 and (term is None or x >= 0):
            return _geometric_tail(peak(moment), exp_or_inf(-exponent * x),
                                   exponent * mu)
        return split(peak, x, mu) if split and x > 0 else None
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
    return _report("variance_series", env, start, horizon, horizon + 1,
                   _series("variance"), {}, what="normalized variance")


def fractional_variance_series(env: QuenchedEnvironment, start: int = 1,
                               delta: float = 1.0,
                               horizon: Optional[int] = None,
                               tol: float = 1e-9) -> ConditionReport:
    """Like :func:`variance_series` but with the fractional deviation moment
    of order ``1 + delta`` and damping ``exp(-delta (S_g - S_start))``;
    usable when variances are infinite.  Same index convention."""
    row = _series("fractional_variance", delta=delta, tol=tol)
    horizon = _check_range(env, start, horizon)
    return _report("fractional_variance_series", env, start, horizon,
                   horizon + 1, row, {"delta": delta}, what="deviation moment")


def psi_series(env: QuenchedEnvironment, start: int = 1,
               phi: PhiFunction = PhiFunction(power=1.0),
               horizon: Optional[int] = None, tol: float = 1e-9,
               ) -> ConditionReport:
    """Weighted deviation-moment series.

    Index convention: generations ``g = start + 1 .. start + horizon``
    (``horizon`` terms); term ``g`` is ``E[U phi(U * damping_g)]`` for
    generation ``g`` with ``damping_g = exp(-(S_{g-1} - S_start))``.

    Certified tails exist only for the catalog weight functions: a power
    (or power-log) rides the geometric damping directly; a pure log-power
    uses a threshold split against a higher log-moment.
    """
    row = _series("psi", phi=phi, tol=tol)
    horizon = _check_range(env, start, horizon)
    if phi.zero:
        return ConditionReport("psi_series", start, 0.0, horizon, 0.0,
                               "finite", {"phi": "zero"})
    split = None if phi.power or not phi.log_power else \
        lambda peak, x, mu: _log_split_tail(phi.log_power, peak, x, mu,
                                            tol * 1e-3)
    return _report("psi_series", env, start, horizon, horizon, row,
                   {"phi": phi.identifier}, split=split)


def _log_split_tail(g: float, peak, x: float, mu: float,
                    tol: float) -> float:
    """Tail of ``phi(u) = log^g(1 + u)`` past a first omitted damping
    ``exp(-x)``, ``x > 0``: split each term at ``U = damping^{-1/2}``."""
    u_mean = peak(lambda d: d.delta_moment(0.0, tol=tol))
    high = PhiFunction(power=0.0, log_power=1.0 + 2.0 * g)
    m2 = peak(lambda d: d.psi_moment(high, 1.0, tol=tol))
    # below threshold: U*phi <= U * log^g(1 + sqrt(w)) <= U * w^{g/2}
    piece1 = _geometric_tail(u_mean, math.exp(-g * x / 2.0), g * mu / 2.0)
    # above threshold: Markov against the higher log-moment; log(1/sqrt(w_j))
    # grows at least linearly with certified slope mu / 2
    c0 = x / 2.0
    return piece1 + m2 * (c0 ** -(1.0 + g) + c0 ** -g / (g * mu / 2.0))


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
    return _report("increment_variance_series", env, start, horizon,
                   horizon + 1, (1, *_series("variance")[1:]), {}, math.inf,
                   "normalized variance")


def jagers_sum(env: QuenchedEnvironment,
               horizon: Optional[int] = None) -> ConditionReport:
    """Sum of ``1 - P(one child)`` across generations.

    Divergence of this sum is the classical certificate that the process
    either dies out or explodes.  Verdict ``divergent`` needs terms of at
    least ``JAGERS_EPS`` in a ``JAGERS_DENSITY`` share of both halves of the
    range; ``finite`` needs a certified geometrically decaying tail.
    """
    horizon = _whole_range(env, horizon)
    dead = np.flatnonzero(env.map_laws(lambda d: d.pmf(0), 0, horizon) >= 1)
    if len(dead):
        return ConditionReport(
            "jagers_sum", 1, math.nan, horizon, None, "inconclusive",
            {"not_applicable": True,
             "reason": f"generation {dead[0] + 1} dies out with certainty"})
    terms = 1.0 - env.map_laws(lambda d: d.pmf(1), 0, horizon)
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

    def ratio(dist):
        try:
            return dist.truncated_moment_ratio()
        except NotApplicableError:
            return math.nan
    terms = env.map_laws(ratio, 0, horizon, stop=math.isinf)
    detail = {"defined_terms": int(np.count_nonzero(~np.isnan(terms)))}
    if math.isinf(terms[-1]):
        detail["reason"] = f"infinite moment ratio at generation {len(terms)}"
        return ConditionReport("moment_ratio_sup", 1, math.inf, horizon, None,
                               "divergent", detail)
    if not detail["defined_terms"]:
        return ConditionReport(
            "moment_ratio_sup", 1, math.nan, horizon, None, "inconclusive",
            {"not_applicable": True, "reason": "no generation has a defined ratio"})
    return ConditionReport("moment_ratio_sup", 1, float(np.nanmax(terms)),
                           horizon, None, "inconclusive", detail)


# -- distributional diagnostic over sampled environments --------------------

@dataclass
class TightnessTable:
    series: str
    truncations: List[int]
    # shape (len(truncations), len(QUANTILE_LEVELS))
    rows: np.ndarray = field(metadata={"key": "quantiles"})
    blowup_flag: bool
    # not written out; read by the benchmark's tracer (bench/spans.py) to
    # count terms
    env_replicas: int = field(metadata={"key": None})


def tightness_diagnostic(spec: EnvironmentSpec, l_grid: Sequence[int],
                         env_replicas: int, seed: int,
                         series: str = "variance", delta: float = 1.0,
                         phi: PhiFunction = PhiFunction(power=1.0),
                         blowup_factor: float = 3.0) -> TightnessTable:
    """Empirical dichotomy check for i.i.d./cooling environments.

    For each truncation length ``l`` in ``l_grid``, draws ``env_replicas``
    independent environments and records the ``QUANTILE_LEVELS`` quantiles
    of the series partial sum truncated at ``l`` terms: the partial sum of
    the matching checker from ``start = 1`` (``variance_series`` and
    ``fractional_variance_series`` with ``horizon = l - 1``, ``psi_series``
    with ``horizon = l``).  The terms come from the checker's row
    ``_series(series, delta, phi)``, with its defaults, accuracy and
    refusals.  A term that is not finite leaves no quantiles: it raises
    :class:`NotApplicableError` naming the environment and the
    generation.
    For an i.i.d. environment the series either converges almost surely
    (quantiles stabilize along the grid) or its partial sums drift to
    infinity (all quantiles keep growing): the flag fires when every
    tracked quantile grows by more than ``blowup_factor``, a positive finite
    number, between every pair of consecutive truncations.

    Environment ``r`` has the seed ``substream(seed, r).integers(0, 2**63 -
    1)``.  The environments are quenched in bulk through
    :func:`~bpve.environment.quench_many`, at most ``TIGHTNESS_CHUNK``
    generation cells at a time, with values identical to quenching each alone.
    """
    l_grid = sorted(int(l) for l in l_grid)
    if not l_grid or l_grid[0] < 1 or len(set(l_grid)) < len(l_grid):
        raise ValueError("l_grid must hold distinct positive truncation "
                         "lengths")
    if env_replicas < 1:
        raise ValueError("need at least one environment replica")
    if env_replicas > MAX_REPLICAS:
        raise ResourceWarningError(f"{env_replicas} environment replicas "
                                   "exceed the in-memory budget "
                                   f"({MAX_REPLICAS})")
    if not 0.0 < blowup_factor < math.inf:
        raise ValueError("blowup_factor must be a positive finite number, "
                         f"got {blowup_factor!r}")
    shift, exponent, moment, term = _series(series, delta, phi)
    hmax = l_grid[-1]
    horizon = shift + hmax
    seeds = [int(substream(seed, r).integers(0, 2**63 - 1))
             for r in range(env_replicas)]
    group = max(1, TIGHTNESS_CHUNK // horizon)
    values = np.zeros((env_replicas, len(l_grid)))
    for lo in range(0, env_replicas, group):
        envs = quench_many(spec, seeds[lo:lo + group], horizon)
        for r, env in enumerate(envs, lo):
            terms = damped_series(env, 1, shift, hmax, exponent, moment, term)
            bad = np.flatnonzero(~np.isfinite(terms))
            if len(bad):
                raise NotApplicableError(
                    f"environment {r} has a {series} term of "
                    f"{terms[bad[0]]} at generation {1 + shift + bad[0]}; its "
                    "partial sums have no quantiles")
            values[r] = np.cumsum(terms)[np.array(l_grid) - 1]
    rows = np.quantile(values, QUANTILE_LEVELS, axis=0).T
    flag = len(l_grid) >= 2 and all(
        np.all(b > blowup_factor * np.maximum(a, 1e-300))
        for a, b in zip(rows[:-1], rows[1:]))
    return TightnessTable(series, l_grid, rows, flag, env_replicas)
