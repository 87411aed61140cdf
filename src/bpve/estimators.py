"""Monte Carlo verification of the convergence conclusions.

Every estimator runs through one block runner, :func:`_reduce_blocks`:
block ``b`` draws from the stream keyed by ``(master_seed, b)``, steps
through :func:`bpve.simulate.simulate_block` and is reduced at once to
what the estimator's statistic needs.  ``R`` replicas are split into
``nb = min(R, 2 * ceil(R / (2 * DEFAULT_BLOCK)))`` blocks, block ``b``
holding ``R*(b+1)//nb - R*b//nb`` of them: an even number of blocks (one
when ``R`` is 1) whose sizes differ by at most one, so two workers get
equal shares.  The reductions merge in block order, so results depend on
``(master_seed, replicas)`` and never on the worker count.

Survival, positivity and halving reduce each block to integer counts,
summed, and every mean estimate (the L2 span and the increment
covariance) reduces each block to ``(count, mean, M2)``, merged pairwise
(:func:`_w_moments`); those runs hold the blocks in flight alone.  The
quantile estimators, :func:`mc_flt_discrepancy` and
:func:`mc_conditioned_critical`, read only the replicas alive at their
horizon: each block reduces to its survivors' values, joined in block
order, so such a run holds those plus the blocks in flight.  A replica
is alive when ``log W > -inf`` (``Z_n > 0``), decided before any
``exp``: the ``W`` of a live replica can underflow to 0.

Quenched estimators take a materialized environment (one fixed sequence of
laws); annealed estimators take a random-environment spec and draw a fresh
environment per replica, with environment randomness keyed separately from
reproduction randomness.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conditions import increment_variance_series
from .distributions import NotApplicableError
from .environment import (MAX_QUENCH_HORIZON, MAX_REPLICAS, EnvironmentSpec,
                          QuenchedEnvironment, check_budget)
from .numerics import clopper_pearson_upper
from .simulate import (AnnealedLaws, QuenchedLaws, check_ancestors,
                       simulate_block, stretched_indices)
from .streams import substream

__all__ = [
    "McEstimate",
    "EqualityCheck",
    "HalvingResult",
    "PathSpreadSummary",
    "ConditionedSummary",
    "mc_survival",
    "mc_w_positivity",
    "mc_l2_increment",
    "mc_increment_covariance",
    "mc_l2_span",
    "mc_halving_bound",
    "mc_flt_discrepancy",
    "mc_conditioned_critical",
]

DEFAULT_BLOCK = 32768


@dataclass
class McEstimate:
    value: float
    std_error: float
    replicas: int
    master_seed: int

    @classmethod
    def proportion(cls, count: int, replicas: int,
                   seed: int) -> "McEstimate":
        """Share of ``replicas`` that ``count`` flags, bit for bit the
        mean of their flags."""
        p = int(count) / replicas
        return cls(p, math.sqrt(p * (1.0 - p) / replicas), replicas, seed)

    @classmethod
    def from_moments(cls, moments: Tuple[int, float, float],
                     seed: int) -> "McEstimate":
        """Mean and standard error of a sample of ``(count, mean, M2)``."""
        n, m, m2 = moments
        return cls(float(m), math.sqrt(m2 / (n - 1)) / math.sqrt(n), n, seed)


def _moments(x: np.ndarray) -> Tuple[int, float, float]:
    """``(count, mean, M2)`` of ``x``, ``M2`` the sum of squared
    deviations from the mean.  Overwrites ``x``: the deviations are squared
    in place rather than in a copy."""
    m = x.mean()
    x -= m
    x *= x
    return len(x), float(m), float(x.sum())


def _merge_moments(a: Tuple[int, float, float],
                   b: Tuple[int, float, float]) -> Tuple[int, float, float]:
    """``(count, mean, M2)`` of two samples joined, by the pairwise update
    of Chan, Golub & LeVeque (1979)."""
    (na, ma, qa), (nb, mb, qb) = a, b
    n, d = na + nb, mb - ma
    return n, ma + d * (nb / n), qa + qb + d * d * (na * nb / n)


@dataclass
class EqualityCheck:
    p_survive: McEstimate
    p_w_above: Dict[float, McEstimate]
    plateau_window: Optional[Tuple[float, float]]
    plateau_value: Optional[float]
    gap: Optional[float]


@dataclass
class HalvingResult:
    estimate: McEstimate
    bound: float
    upper_confidence: float = field(metadata={"key": "upper_confidence_99"})


@dataclass
class PathSpreadSummary:
    n: int
    survivors: int
    median: float
    q90: float


@dataclass
class ConditionedSummary:
    n: int
    survivors: int
    median_w: float
    q10_w: float
    inconclusive: bool = False


# -- block engine -----------------------------------------------------------

def _block_count(replicas: int, block: int) -> int:
    return min(replicas, 2 * -(-replicas // (2 * block)))


def check_replicas(replicas: int):
    """Refuse a replica count below one or beyond :data:`MAX_REPLICAS`."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    check_budget(replicas, MAX_REPLICAS, "replicas")


def _map_blocks(replicas: int, block: int, fn, threads: Optional[int]):
    """Apply ``fn(block_index, block_size)`` to every block; merge in index
    order.  The blocks are an even number (one for a single replica) of at
    most ``block`` replicas each, with sizes that differ by at most one;
    the split depends on ``replicas`` alone, so results do not depend on
    the worker count."""
    check_replicas(replicas)
    nb = _block_count(replicas, block)
    sizes = [(b, replicas * (b + 1) // nb - replicas * b // nb)
             for b in range(nb)]
    if threads is None or threads <= 1 or len(sizes) == 1:
        return [fn(b, sz) for b, sz in sizes]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*sizes)))


def _reduce_blocks(make_laws, z0: int, n: int, record: Sequence[int],
                   replicas: int, seed: int, threads: Optional[int], reduce,
                   extremes: Optional[Sequence[int]] = None) -> list:
    """``reduce(b, block)`` of every block ``b`` of ``replicas`` replicas
    run for ``n`` generations, in block order; block ``b`` takes its laws
    from ``make_laws(b, size)`` and its reproduction stream from
    ``substream(seed, b)``, and tracks the extremes of ``log W`` over the
    generations ``extremes`` when given.  Each block is dropped once
    reduced, so a run holds the reductions and the blocks in flight."""
    def run(b, sz):
        return reduce(b, simulate_block(make_laws(b, sz), z0, n, sz,
                                        substream(seed, b), record, extremes))

    return _map_blocks(replicas, DEFAULT_BLOCK, run, threads)


def _quenched(env: QuenchedEnvironment, n: int):
    """``make_laws`` of a run on ``env`` to generation ``n``."""
    if n > env.horizon:
        raise ValueError("requested index beyond environment horizon")
    return lambda b, sz: QuenchedLaws(env)


# -- quenched estimators ----------------------------------------------------

def mc_survival(env: QuenchedEnvironment, z0: int, n: int, replicas: int,
                seed: int, threads: Optional[int] = None) -> McEstimate:
    """Fraction of replicas still alive at generation ``n``."""
    alive = sum(_reduce_blocks(
        _quenched(env, n), z0, n, [n], replicas, seed, threads,
        lambda b, block: np.count_nonzero(block.log_w[:, 0] > -np.inf)))
    return McEstimate.proportion(alive, replicas, seed)


def check_eps_grid(eps_grid: Sequence[float]) -> List[float]:
    """The thresholds of :func:`mc_w_positivity`, sorted; refused unless
    there is one at least and every one is positive and finite."""
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid or not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError("eps_grid must hold positive finite thresholds, "
                         f"got {eps_grid}")
    return eps_grid


def mc_w_positivity(env: QuenchedEnvironment, z0: int, n: int,
                    eps_grid: Sequence[float], replicas: int, seed: int,
                    threads: Optional[int] = None) -> EqualityCheck:
    """Survival fraction versus the fraction with normalized value above
    each threshold, plus the widest decade-wide flat window of the latter.

    The survival/positivity equality is read off at finite horizon as: the
    exceedance curve plateaus at the survival level over (at least) one
    decade of thresholds.
    """
    eps_grid = check_eps_grid(eps_grid)

    def counts(b, block):
        """Replicas alive, then replicas with ``W`` above each threshold."""
        log_w = block.log_w[:, 0]
        alive = np.count_nonzero(log_w > -np.inf)
        w = np.exp(log_w, out=log_w)
        return np.array([alive] + [np.count_nonzero(w > eps)
                                   for eps in eps_grid])

    alive, *over = sum(_reduce_blocks(_quenched(env, n), z0, n, [n],
                                      replicas, seed, threads, counts))
    surv = McEstimate.proportion(alive, replicas, seed)
    above = {eps: McEstimate.proportion(c, replicas, seed)
             for eps, c in zip(eps_grid, over)}
    window, value = _find_plateau(eps_grid, above)
    gap = None if value is None else surv.value - value
    return EqualityCheck(surv, above, window, value, gap)


def _find_plateau(eps_grid: List[float], above: Dict[float, McEstimate]):
    """Widest window spanning at least one decade over which the exceedance
    curve is flat within combined 3-sigma noise."""
    def flat(lo, hi):
        a, b = above[lo], above[hi]
        tol = 3.0 * math.sqrt(a.std_error**2 + b.std_error**2)
        return a.value - b.value <= tol

    windows = [(hi / lo, lo, hi) for i, lo in enumerate(eps_grid)
               for hi in eps_grid[i + 1:]
               if hi / lo >= 10.0 * (1.0 - 1e-9) and flat(lo, hi)]
    if not windows:
        return None, None
    _, lo, hi = max(windows, key=lambda window: window[0])
    vals = [above[e].value for e in eps_grid if lo <= e <= hi]
    return (lo, hi), float(np.mean(vals))


def check_span(k: int, n: int, m: int, replicas: int) -> None:
    """Refuse a span from ``k`` ancestors that the second-moment
    estimators cannot use, whatever the environment."""
    check_ancestors(k, "k")
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if replicas < 2:
        raise ValueError("replicas must be >= 2 for a sample-mean standard "
                         f"error, got {replicas}")


def _check_span(env: QuenchedEnvironment, k: int, n: int, m: int,
                replicas: int):
    """Refuse a span the second-moment estimators cannot use on ``env``."""
    check_span(k, n, m, replicas)
    v = env.map_laws(lambda d: d.normalized_variance, 0, n + m, stop=math.isinf)
    if math.isinf(v[-1]):
        raise NotApplicableError(
            f"generation {len(v)} has infinite variance; second-moment "
            "estimators do not apply")


def mc_l2_increment(env: QuenchedEnvironment, k: int, m: int, replicas: int,
                    seed: int, threads: Optional[int] = None) -> McEstimate:
    """Mean squared one-step increment of the normalized process at step
    ``m`` from ``k`` ancestors; compare with ``k * zeta_m * exp(-S_{m-1})``."""
    return mc_l2_span(env, k, m - 1, 1, replicas, seed, threads)


def _w_moments(env: QuenchedEnvironment, k: int, record: Sequence[int],
               replicas: int, seed: int, threads: Optional[int], f) -> list:
    """``(count, mean, M2)`` of each column ``f(W)`` returns, ``W`` the
    normalized population from ``k`` ancestors at the sorted generations
    ``record``; each block reduces its part, merged in block order."""
    parts = _reduce_blocks(
        _quenched(env, record[-1]), k, record[-1], record, replicas, seed,
        threads, lambda b, block: [_moments(x) for x in f(
            np.exp(block.log_w, out=block.log_w))])
    return [functools.reduce(_merge_moments, x) for x in zip(*parts)]


def mc_increment_covariance(env: QuenchedEnvironment, k: int, n: int, m: int,
                            replicas: int, seed: int,
                            threads: Optional[int] = None) -> McEstimate:
    """Covariance of a later one-step increment with the earlier span
    increment; zero in expectation by the martingale property.  A first
    pass gives the increments' means, a second over the same blocks the
    mean of the product of their deviations."""
    _check_span(env, k, n, m, replicas)
    span = [n, n + m - 1, n + m]
    (_, x_bar, _), (_, y_bar, _) = _w_moments(
        env, k, span, replicas, seed, threads,
        lambda w: (w[:, 2] - w[:, 1], w[:, 1] - w[:, 0]))
    (moments,) = _w_moments(
        env, k, span, replicas, seed, threads,
        lambda w: [(w[:, 2] - w[:, 1] - x_bar) * (w[:, 1] - w[:, 0] - y_bar)])
    return McEstimate.from_moments(moments, seed)


def mc_l2_span(env: QuenchedEnvironment, k: int, n: int, m: int,
               replicas: int, seed: int,
               threads: Optional[int] = None) -> McEstimate:
    """Mean squared increment of the normalized process between generations
    ``n`` and ``n + m``."""
    _check_span(env, k, n, m, replicas)
    (moments,) = _w_moments(env, k, [n, n + m], replicas, seed, threads,
                            lambda w: [np.square(w[:, 1] - w[:, 0])])
    return McEstimate.from_moments(moments, seed)


def mc_halving_bound(env: QuenchedEnvironment, k: int, start: int,
                     horizon: int, replicas: int, seed: int,
                     threads: Optional[int] = None) -> HalvingResult:
    """Probability that the renormalized population ever halves relative to
    its value at ``start``, against the Chebyshev-type analytic bound
    ``4 * (variance budget) / k``; refused when the variance budget after
    ``start`` cannot be certified finite."""
    check_ancestors(k, "k")
    budget = increment_variance_series(env, start, horizon=horizon)
    if budget.verdict != "finite":
        raise NotApplicableError(
            "variance budget after start is not certified finite "
            f"(verdict: {budget.verdict}); the halving bound does not apply")
    bound = 4.0 * budget.certified_value / k
    # Restarting from k individuals at `start` has the conditional law of
    # the original process given Z_start = k, on the shifted environment.
    env_sim = env if start == 0 else env.shifted(start)
    # S_0 = 0, so the renormalized population halves when log W < log(k/2)
    ref = math.log(k / 2.0)

    halved = sum(_reduce_blocks(
        _quenched(env_sim, horizon), k, horizon, (), replicas, seed, threads,
        lambda b, block: np.count_nonzero(block.lo < ref),
        extremes=range(1, horizon + 1)))
    # one-sided 99% exact (Clopper-Pearson) upper confidence limit
    ucl = clopper_pearson_upper(halved, replicas, 0.99)
    return HalvingResult(McEstimate.proportion(halved, replicas, seed), bound,
                         ucl)


def check_path_grid(n_list: Sequence[int], grid_size: int) -> None:
    """Refuse the path-spread inputs :func:`mc_flt_discrepancy` cannot
    use: an empty ``n_list``, an entry below 1, or ``grid_size`` below 1."""
    if not n_list:
        raise ValueError("n_list must name at least one horizon")
    if min(n_list) < 1:
        raise ValueError(f"n_list entries must be >= 1, got {min(n_list)}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")


def mc_flt_discrepancy(env: QuenchedEnvironment, n_list: Sequence[int],
                       replicas: int, seed: int, grid_size: int = 33,
                       threads: Optional[int] = None) -> List[PathSpreadSummary]:
    """Spread of the normalized path over stretched time, conditioned on
    being alive at the endpoint.

    For each ``n``, evaluates the normalized value at ``grid_size`` stretched
    time points starting at generation ``floor(sqrt(n))`` and summarizes
    ``sup_t |Y(t) - Y(1)|`` over surviving replicas.  Convergence of the
    normalized process makes these summaries shrink as ``n`` grows.
    """
    check_path_grid(n_list, grid_size)
    out = []
    for li, n in enumerate(sorted(int(x) for x in n_list)):
        # from n - r + 2 points on, the grid reads every generation r..n
        grid = np.linspace(0.0, 1.0, min(grid_size, n - math.isqrt(n) + 2))
        idx = np.unique(stretched_indices(n, grid)).tolist()
        spread = np.concatenate(_reduce_blocks(
            _quenched(env, n), 1, n, [n], replicas, seed + li, threads,
            lambda b, block: _path_spread(block), extremes=idx))
        out.append(PathSpreadSummary(n, len(spread),
                                     *_median_and_quantile(spread, 0.9)))
    return out


def _path_spread(block) -> np.ndarray:
    """``sup_t |Y(t) - Y(1)|`` of each of the block's replicas alive at
    ``n``, in row order, from the extremes of ``log W`` over the grid and
    ``W_n``.  ``exp`` is monotone, so the furthest grid point is the
    path's largest or smallest ``W``."""
    alive = block.log_w[:, 0] > -np.inf
    w_n = np.exp(block.log_w[alive, 0])
    hi = np.exp(block.hi[alive])
    hi -= w_n
    lo = np.exp(block.lo[alive])
    np.subtract(w_n, lo, out=lo)
    return np.maximum(hi, lo, out=hi)


def _median_and_quantile(x: np.ndarray, q: float) -> Tuple[float, float]:
    """Median and ``q``-quantile of ``x``; both NaN when ``x`` is empty."""
    if not len(x):
        return math.nan, math.nan
    return float(np.median(x)), float(np.quantile(x, q))


# -- annealed estimators ----------------------------------------------------

def mc_conditioned_critical(spec: EnvironmentSpec, n_list: Sequence[int],
                            replicas: int, seed: int,
                            env_seed: Optional[int] = None, z0: int = 1,
                            min_survivors: int = 500,
                            threads: Optional[int] = None
                            ) -> List[ConditionedSummary]:
    """Annealed run of a random-environment spec; among replicas alive at
    each checkpoint, summarizes the normalized population value.

    The qualitative check is stabilization: the conditional median should
    not drift to zero along the checkpoints.  Marked inconclusive when the
    largest checkpoint retains fewer than ``min_survivors`` replicas.
    """
    if env_seed is None:
        env_seed = seed ^ 0x9E3779B97F4A7C15
    n_list = sorted(int(x) for x in n_list)
    if not n_list:
        raise ValueError("n_list must name at least one checkpoint")
    n = n_list[-1]
    check_budget(n, MAX_QUENCH_HORIZON, "generations in n_list")
    # extinction is absorbing: the survivors of every checkpoint are among
    # those of the first
    log_w = np.concatenate(_reduce_blocks(
        lambda b, sz: AnnealedLaws(spec, substream(env_seed, b), sz), z0, n,
        n_list, replicas, seed, threads,
        lambda b, block: block.log_w[block.log_w[:, 0] > -np.inf]))
    out = []
    for j, nj in enumerate(n_list):
        vals = np.exp(log_w[log_w[:, j] > -np.inf, j])
        cnt = len(vals)
        out.append(ConditionedSummary(
            nj, cnt, *_median_and_quantile(vals, 0.1),
            inconclusive=cnt == 0 or (nj == n and cnt < min_survivors)))
    return out
