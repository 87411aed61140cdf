"""Monte Carlo verification of the convergence conclusions.

All estimators run replicas in fixed-size blocks.  Block ``b`` draws its
randomness from the counter-based stream keyed by ``(master_seed, b)`` and
blocks are merged in index order, so results are bitwise identical for any
worker count.  Within a block the replicas step together through
:func:`bpve.simulate.simulate_block`.

Quenched estimators take a materialized environment (one fixed sequence of
laws); annealed estimators take a random-environment spec and draw a fresh
environment per replica, with environment randomness keyed separately from
reproduction randomness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conditions import increment_variance_series
from .distributions import NotApplicableError
from .environment import EnvironmentSpec, QuenchedEnvironment
from .numerics import clopper_pearson_upper
from .simulate import (AnnealedLaws, QuenchedLaws, simulate_block,
                       stretched_indices)
from .streams import substream

__all__ = [
    "McEstimate",
    "EqualityCheck",
    "HalvingResult",
    "PathSpreadSummary",
    "ConditionedSummary",
    "collect_w",
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


class _Fields:
    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class McEstimate(_Fields):
    value: float
    std_error: float
    replicas: int
    master_seed: int
    config_digest: str = ""

    @classmethod
    def proportion(cls, p: float, replicas: int, seed: int) -> "McEstimate":
        return cls(p, math.sqrt(p * (1.0 - p) / replicas), replicas, seed)

    @classmethod
    def sample_mean(cls, x: np.ndarray, seed: int) -> "McEstimate":
        return cls(float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x))),
                   len(x), seed)


@dataclass
class EqualityCheck:
    p_survive: McEstimate
    p_w_above: Dict[float, McEstimate]
    plateau_window: Optional[Tuple[float, float]]
    plateau_value: Optional[float]
    gap: Optional[float]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["p_w_above"] = {repr(eps): est for eps, est
                            in sorted(out["p_w_above"].items())}
        return out


@dataclass
class HalvingResult:
    estimate: McEstimate
    bound: float
    upper_confidence: float

    def to_dict(self) -> dict:
        return {"estimate": self.estimate.to_dict(), "bound": self.bound,
                "upper_confidence_99": self.upper_confidence}


@dataclass
class PathSpreadSummary(_Fields):
    n: int
    survivors: int
    median: float
    q90: float


@dataclass
class ConditionedSummary(_Fields):
    n: int
    survivors: int
    median_w: float
    q10_w: float
    inconclusive: bool = False


# -- block engine -----------------------------------------------------------

def _map_blocks(replicas: int, block: int, fn, threads: Optional[int]):
    """Apply ``fn(block_index, block_size)`` to every block; merge in index
    order (results therefore do not depend on the worker count)."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    sizes = [(b, min(block, replicas - b * block))
             for b in range((replicas + block - 1) // block)]
    if threads is None or threads <= 1 or len(sizes) == 1:
        return [fn(b, sz) for b, sz in sizes]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, b, sz) for b, sz in sizes]
        return [f.result() for f in futures]


def collect_w(env: QuenchedEnvironment, z0: int, indices: Sequence[int],
              replicas: int, seed: int,
              threads: Optional[int] = None) -> np.ndarray:
    """Normalized population values at ``indices`` for every replica;
    shape ``(replicas, len(indices))``, zeros after extinction."""
    indices = sorted(set(int(i) for i in indices))
    n = max(indices)
    if n > env.horizon:
        raise ValueError("requested index beyond environment horizon")

    def run(b, sz):
        return simulate_block(QuenchedLaws(env), z0, n, sz, substream(seed, b),
                              indices).log_w

    parts = _map_blocks(replicas, DEFAULT_BLOCK, run, threads)
    return np.exp(np.concatenate(parts, axis=0))


# -- quenched estimators ----------------------------------------------------

def mc_survival(env: QuenchedEnvironment, z0: int, n: int, replicas: int,
                seed: int, threads: Optional[int] = None) -> McEstimate:
    """Fraction of replicas still alive at generation ``n``."""
    w = collect_w(env, z0, [n], replicas, seed, threads)[:, 0]
    return McEstimate.proportion(float(np.mean(w > 0)), replicas, seed)


def mc_w_positivity(env: QuenchedEnvironment, z0: int, n: int,
                    eps_grid: Sequence[float], replicas: int, seed: int,
                    threads: Optional[int] = None) -> EqualityCheck:
    """Survival fraction versus the fraction with normalized value above
    each threshold, plus the widest decade-wide flat window of the latter.

    The survival/positivity equality is read off at finite horizon as: the
    exceedance curve plateaus at the survival level over (at least) one
    decade of thresholds.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid or not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError("eps_grid must hold positive finite thresholds, "
                         f"got {eps_grid}")
    w = collect_w(env, z0, [n], replicas, seed, threads)[:, 0]
    surv = McEstimate.proportion(float(np.mean(w > 0)), replicas, seed)
    above = {eps: McEstimate.proportion(float(np.mean(w > eps)), replicas, seed)
             for eps in eps_grid}
    window, value = _find_plateau(eps_grid, above)
    gap = None if value is None else surv.value - value
    return EqualityCheck(surv, above, window, value, gap)


def _find_plateau(eps_grid: List[float], above: Dict[float, McEstimate]):
    """Widest window spanning at least one decade over which the exceedance
    curve is flat within combined 3-sigma noise."""
    best = None
    m = len(eps_grid)
    for i in range(m):
        for j in range(m - 1, i, -1):
            lo, hi = eps_grid[i], eps_grid[j]
            if hi / lo < 10.0 * (1.0 - 1e-9):
                continue
            pi, pj = above[lo], above[hi]
            tol = 3.0 * math.sqrt(pi.std_error**2 + pj.std_error**2)
            if pi.value - pj.value <= tol:
                width = hi / lo
                if best is None or width > best[0]:
                    best = (width, lo, hi)
    if best is None:
        return None, None
    _, lo, hi = best
    vals = [above[e].value for e in eps_grid if lo <= e <= hi]
    return (lo, hi), float(np.mean(vals))


def _check_sample_mean_replicas(replicas: int):
    if replicas < 2:
        raise ValueError("replicas must be >= 2 for a sample-mean standard "
                         f"error, got {replicas}")


def _check_finite_variance(env: QuenchedEnvironment, upto: int):
    for i in range(upto):
        if math.isinf(env.dists[i].normalized_variance):
            raise NotApplicableError(
                f"generation {i + 1} has infinite variance; second-moment "
                "estimators do not apply")


def mc_l2_increment(env: QuenchedEnvironment, k: int, m: int, replicas: int,
                    seed: int, threads: Optional[int] = None) -> McEstimate:
    """Mean squared one-step increment of the normalized process at step
    ``m`` from ``k`` ancestors; compare with ``k * zeta_m * exp(-S_{m-1})``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_sample_mean_replicas(replicas)
    _check_finite_variance(env, m)
    w = collect_w(env, k, [m - 1, m], replicas, seed, threads)
    return McEstimate.sample_mean((w[:, 1] - w[:, 0]) ** 2, seed)


def mc_increment_covariance(env: QuenchedEnvironment, k: int, n: int, m: int,
                            replicas: int, seed: int,
                            threads: Optional[int] = None) -> McEstimate:
    """Covariance of a later one-step increment with the earlier span
    increment; zero in expectation by the martingale property."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    _check_sample_mean_replicas(replicas)
    _check_finite_variance(env, n + m)
    # collect_w deduplicates and sorts its index list, so look positions up
    idx = sorted({n, n + m - 1, n + m})
    pos = {v: j for j, v in enumerate(idx)}
    w = collect_w(env, k, idx, replicas, seed, threads)
    x = w[:, pos[n + m]] - w[:, pos[n + m - 1]]
    y = w[:, pos[n + m - 1]] - w[:, pos[n]]
    return McEstimate.sample_mean((x - x.mean()) * (y - y.mean()), seed)


def mc_l2_span(env: QuenchedEnvironment, k: int, n: int, m: int,
               replicas: int, seed: int,
               threads: Optional[int] = None) -> McEstimate:
    """Mean squared increment of the normalized process between generations
    ``n`` and ``n + m``."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    _check_sample_mean_replicas(replicas)
    _check_finite_variance(env, n + m)
    w = collect_w(env, k, [n, n + m], replicas, seed, threads)
    return McEstimate.sample_mean((w[:, 1] - w[:, 0]) ** 2, seed)


def mc_halving_bound(env: QuenchedEnvironment, k: int, start: int,
                     horizon: int, replicas: int, seed: int,
                     threads: Optional[int] = None) -> HalvingResult:
    """Probability that the renormalized population ever halves relative to
    its value at ``start``, against the Chebyshev-type analytic bound
    ``4 * (variance budget) / k``.

    Refuses when the variance budget after ``start`` cannot be certified
    finite.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    budget = increment_variance_series(env, start,
                                       horizon=min(horizon,
                                                   env.horizon - start - 1))
    if budget.verdict != "finite":
        raise NotApplicableError(
            "variance budget after start is not certified finite "
            f"(verdict: {budget.verdict}); the halving bound does not apply")
    bound = 4.0 * budget.certified_value / k
    # Restarting from k individuals at `start` has the conditional law of
    # the original process given Z_start = k, on the shifted environment.
    env_sim = env if start == 0 else env.shifted(start)
    steps = min(horizon, env_sim.horizon)
    # S_0 = 0, so the renormalized population halves when log W < log(k/2)
    ref = math.log(k / 2.0)

    def run(b, sz):
        low = simulate_block(QuenchedLaws(env_sim), k, steps, sz,
                             substream(seed, b), low=True).low
        return int(np.count_nonzero(low < ref))

    hits = sum(_map_blocks(replicas, DEFAULT_BLOCK, run, threads))
    est = McEstimate.proportion(hits / replicas, replicas, seed)
    # one-sided 99% exact (Clopper-Pearson) upper confidence limit
    ucl = clopper_pearson_upper(hits, replicas, 0.99)
    return HalvingResult(est, bound, ucl)


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

    For each ``n``, evaluates the normalized value on a grid of 33 stretched
    time points starting at generation ``floor(sqrt(n))`` and summarizes
    ``sup_t |Y(t) - Y(1)|`` over surviving replicas.  Convergence of the
    normalized process makes these summaries shrink as ``n`` grows.
    """
    check_path_grid(n_list, grid_size)
    out = []
    grid = np.linspace(0.0, 1.0, grid_size)
    for li, n in enumerate(sorted(int(x) for x in n_list)):
        idx = np.unique(stretched_indices(n, grid))
        w = collect_w(env, 1, list(idx), replicas, seed + li, threads)
        endpoint = w[:, -1]
        alive = endpoint > 0
        spread = np.abs(w[alive] - endpoint[alive, None]).max(axis=1)
        if alive.sum() == 0:
            out.append(PathSpreadSummary(n, 0, math.nan, math.nan))
            continue
        out.append(PathSpreadSummary(n, int(alive.sum()),
                                     float(np.median(spread)),
                                     float(np.quantile(spread, 0.9))))
    return out


# -- annealed estimators ----------------------------------------------------

def mc_conditioned_critical(spec: EnvironmentSpec, n_list: Sequence[int],
                            replicas: int, seed: int,
                            env_seed: Optional[int] = None,
                            z0: int = 1,
                            min_survivors: int = 500,
                            threads: Optional[int] = None,
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

    def run(b, sz):
        laws = AnnealedLaws(spec, substream(env_seed, b), sz)
        return simulate_block(laws, z0, n, sz, substream(seed, b),
                              n_list).log_w

    parts = _map_blocks(replicas, DEFAULT_BLOCK, run, threads)
    logw = np.concatenate(parts, axis=0)
    w = np.exp(logw)
    out = []
    for j, nj in enumerate(n_list):
        alive = w[:, j] > 0
        cnt = int(alive.sum())
        if cnt == 0:
            out.append(ConditionedSummary(nj, 0, math.nan, math.nan, True))
            continue
        vals = w[alive, j]
        out.append(ConditionedSummary(
            nj, cnt, float(np.median(vals)), float(np.quantile(vals, 0.1)),
            inconclusive=(nj == n and cnt < min_survivors)))
    return out
