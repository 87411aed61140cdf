"""Monte Carlo verification of the convergence conclusions.

All estimators run replicas in fixed-size blocks.  Block ``b`` draws its
randomness from the counter-based stream keyed by ``(master_seed, b)`` and
blocks are merged in index order, so results are bitwise identical for any
worker count.  Within a block the population recursion is vectorized across
replicas.

Quenched estimators take a materialized environment (one fixed sequence of
laws); annealed estimators take a random-environment spec and draw a fresh
environment per replica, with environment randomness keyed separately from
reproduction randomness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .conditions import increment_variance_series
from .distributions import NotApplicableError, OffspringDistribution
from .environment import EnvironmentSpec, QuenchedEnvironment
from .simulate import log_switch_threshold, HEAVY_TAIL_LOG_SWITCH
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


@dataclass
class McEstimate:
    value: float
    std_error: float
    replicas: int
    master_seed: int
    config_digest: str = ""

    def to_dict(self) -> dict:
        return {"value": self.value, "std_error": self.std_error,
                "replicas": self.replicas, "master_seed": self.master_seed,
                "config_digest": self.config_digest}


@dataclass
class EqualityCheck:
    p_survive: McEstimate
    p_w_above: Dict[float, McEstimate]
    plateau_window: Optional[Tuple[float, float]]
    plateau_value: Optional[float]
    gap: Optional[float]

    def to_dict(self) -> dict:
        return {
            "p_survive": self.p_survive.to_dict(),
            "p_w_above": {repr(eps): est.to_dict()
                          for eps, est in sorted(self.p_w_above.items())},
            "plateau_window": list(self.plateau_window)
            if self.plateau_window else None,
            "plateau_value": self.plateau_value,
            "gap": self.gap,
        }


@dataclass
class HalvingResult:
    estimate: McEstimate
    bound: float
    upper_confidence: float

    def to_dict(self) -> dict:
        return {"estimate": self.estimate.to_dict(), "bound": self.bound,
                "upper_confidence_99": self.upper_confidence}


@dataclass
class PathSpreadSummary:
    n: int
    survivors: int
    median: float
    q90: float

    def to_dict(self) -> dict:
        return {"n": self.n, "survivors": self.survivors,
                "median": self.median, "q90": self.q90}


@dataclass
class ConditionedSummary:
    n: int
    survivors: int
    median_w: float
    q10_w: float
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {"n": self.n, "survivors": self.survivors,
                "median_w": self.median_w, "q10_w": self.q10_w,
                "inconclusive": self.inconclusive}


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


def _quenched_block(env: QuenchedEnvironment, z0: int, n: int,
                    rng: np.random.Generator, size: int,
                    record: Sequence[int],
                    heavy_switch: int = HEAVY_TAIL_LOG_SWITCH,
                    halving_start: Optional[int] = None):
    """Vectorized simulation of ``size`` replicas; returns log-normalized
    values at the requested generation indices (and halving flags if
    tracking is on)."""
    record = list(record)
    pos = {idx: j for j, idx in enumerate(record)}
    z = np.full(size, z0, dtype=np.int64)
    logz = np.full(size, math.log(z0))
    frozen = np.zeros(size, dtype=bool)
    out = np.empty((size, len(record)))
    if 0 in pos:
        out[:, pos[0]] = math.log(z0) - env.s[0]
    halv = np.zeros(size, dtype=bool) if halving_start is not None else None
    ref = math.log(z0 / 2.0) if halving_start is not None else 0.0
    for i in range(1, n + 1):
        dist = env.dists[i - 1]
        xi_i = float(env.xi[i - 1])
        logz[frozen] += xi_i
        act = (~frozen) & (z > 0)
        if act.any():
            z[act] = dist.sample_generation_totals(z[act], rng)
        switch = log_switch_threshold(dist, heavy_switch)
        newly = act & (z > switch)
        if newly.any():
            frozen[newly] = True
            logz[newly] = np.log(z[newly].astype(float))
        need_log = (i in pos) or (halving_start is not None
                                  and i > halving_start)
        if need_log:
            with np.errstate(divide="ignore"):
                cur = np.where(frozen, logz,
                               np.where(z > 0, np.log(np.maximum(z, 1)),
                                        -np.inf))
            if i in pos:
                out[:, pos[i]] = cur - env.s[i]
            if halving_start is not None and i > halving_start:
                rel = cur - (env.s[i] - env.s[halving_start])
                halv |= rel < ref
    return (out, halv) if halving_start is not None else out


def collect_w(env: QuenchedEnvironment, z0: int, indices: Sequence[int],
              replicas: int, seed: int, threads: Optional[int] = None,
              block: int = DEFAULT_BLOCK,
              heavy_switch: int = HEAVY_TAIL_LOG_SWITCH) -> np.ndarray:
    """Normalized population values at ``indices`` for every replica;
    shape ``(replicas, len(indices))``, zeros after extinction."""
    indices = sorted(set(int(i) for i in indices))
    n = max(indices)
    if n > env.horizon:
        raise ValueError("requested index beyond environment horizon")

    def run(b, sz):
        rng = substream(seed, b)
        return _quenched_block(env, z0, n, rng, sz, indices,
                               heavy_switch=heavy_switch)

    parts = _map_blocks(replicas, block, run, threads)
    logw = np.concatenate(parts, axis=0)
    return np.exp(logw)


# -- quenched estimators ----------------------------------------------------

def mc_survival(env: QuenchedEnvironment, z0: int, n: int, replicas: int,
                seed: int, threads: Optional[int] = None,
                block: int = DEFAULT_BLOCK) -> McEstimate:
    """Fraction of replicas still alive at generation ``n``."""
    w = collect_w(env, z0, [n], replicas, seed, threads, block)[:, 0]
    p = float(np.mean(w > 0))
    se = math.sqrt(p * (1.0 - p) / replicas)
    return McEstimate(p, se, replicas, seed)


def mc_w_positivity(env: QuenchedEnvironment, z0: int, n: int,
                    eps_grid: Sequence[float], replicas: int, seed: int,
                    threads: Optional[int] = None,
                    block: int = DEFAULT_BLOCK,
                    heavy_switch: int = HEAVY_TAIL_LOG_SWITCH) -> EqualityCheck:
    """Survival fraction versus the fraction with normalized value above
    each threshold, plus the widest decade-wide flat window of the latter.

    The survival/positivity equality is read off at finite horizon as: the
    exceedance curve plateaus at the survival level over (at least) one
    decade of thresholds.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid or eps_grid[0] <= 0:
        raise ValueError("thresholds must be positive")
    w = collect_w(env, z0, [n], replicas, seed, threads, block,
                  heavy_switch=heavy_switch)[:, 0]
    p_surv = float(np.mean(w > 0))
    surv = McEstimate(p_surv, math.sqrt(p_surv * (1 - p_surv) / replicas),
                      replicas, seed)
    above = {}
    for eps in eps_grid:
        p = float(np.mean(w > eps))
        above[eps] = McEstimate(p, math.sqrt(p * (1 - p) / replicas),
                                replicas, seed)
    window, value = _find_plateau(eps_grid, above)
    gap = None if value is None else p_surv - value
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


def _check_finite_variance(env: QuenchedEnvironment, upto: int):
    for i in range(upto):
        if math.isinf(env.dists[i].normalized_variance):
            raise NotApplicableError(
                f"generation {i + 1} has infinite variance; second-moment "
                "estimators do not apply")


def mc_l2_increment(env: QuenchedEnvironment, k: int, m: int, replicas: int,
                    seed: int, threads: Optional[int] = None,
                    block: int = DEFAULT_BLOCK) -> McEstimate:
    """Mean squared one-step increment of the normalized process at step
    ``m`` from ``k`` ancestors; compare with ``k * zeta_m * exp(-S_{m-1})``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_finite_variance(env, m)
    w = collect_w(env, k, [m - 1, m], replicas, seed, threads, block)
    sq = (w[:, 1] - w[:, 0]) ** 2
    return McEstimate(float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(replicas)),
                      replicas, seed)


def mc_increment_covariance(env: QuenchedEnvironment, k: int, n: int, m: int,
                            replicas: int, seed: int,
                            threads: Optional[int] = None,
                            block: int = DEFAULT_BLOCK) -> McEstimate:
    """Covariance of a later one-step increment with the earlier span
    increment; zero in expectation by the martingale property."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    _check_finite_variance(env, n + m)
    # collect_w deduplicates and sorts its index list, so look positions up
    idx = sorted({n, n + m - 1, n + m})
    pos = {v: j for j, v in enumerate(idx)}
    w = collect_w(env, k, idx, replicas, seed, threads, block)
    x = w[:, pos[n + m]] - w[:, pos[n + m - 1]]
    y = w[:, pos[n + m - 1]] - w[:, pos[n]]
    prod = (x - x.mean()) * (y - y.mean())
    return McEstimate(float(prod.mean()),
                      float(prod.std(ddof=1) / math.sqrt(replicas)),
                      replicas, seed)


def mc_l2_span(env: QuenchedEnvironment, k: int, n: int, m: int,
               replicas: int, seed: int, threads: Optional[int] = None,
               block: int = DEFAULT_BLOCK) -> McEstimate:
    """Mean squared increment of the normalized process between generations
    ``n`` and ``n + m``."""
    _check_finite_variance(env, n + m)
    w = collect_w(env, k, [n, n + m], replicas, seed, threads, block)
    sq = (w[:, 1] - w[:, 0]) ** 2
    return McEstimate(float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(replicas)),
                      replicas, seed)


def mc_halving_bound(env: QuenchedEnvironment, k: int, start: int,
                     horizon: int, replicas: int, seed: int,
                     threads: Optional[int] = None,
                     block: int = DEFAULT_BLOCK) -> HalvingResult:
    """Probability that the renormalized population ever halves relative to
    its value at ``start``, against the Chebyshev-type analytic bound
    ``4 * (variance budget) / k``.

    Refuses when the variance budget after ``start`` cannot be certified
    finite.
    """
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

    def run(b, sz):
        rng = substream(seed, b)
        _, halv = _quenched_block(env_sim, k, steps, rng, sz, [],
                                  halving_start=0)
        return int(halv.sum())

    hits = sum(_map_blocks(replicas, block, run, threads))
    p = hits / replicas
    se = math.sqrt(p * (1 - p) / replicas)
    est = McEstimate(p, se, replicas, seed)
    # one-sided 99% exact (Clopper-Pearson) upper confidence limit
    if hits == replicas:
        ucl = 1.0
    else:
        ucl = float(stats.beta.ppf(0.99, hits + 1, replicas - hits))
    return HalvingResult(est, bound, ucl)


def mc_flt_discrepancy(env: QuenchedEnvironment, n_list: Sequence[int],
                       replicas: int, seed: int, grid_size: int = 33,
                       threads: Optional[int] = None,
                       block: int = DEFAULT_BLOCK) -> List[PathSpreadSummary]:
    """Spread of the normalized path over stretched time, conditioned on
    being alive at the endpoint.

    For each ``n``, evaluates the normalized value on a grid of 33 stretched
    time points starting at generation ``floor(sqrt(n))`` and summarizes
    ``sup_t |Y(t) - Y(1)|`` over surviving replicas.  Convergence of the
    normalized process makes these summaries shrink as ``n`` grows.
    """
    out = []
    grid = np.linspace(0.0, 1.0, grid_size)
    for li, n in enumerate(sorted(int(x) for x in n_list)):
        r = math.isqrt(n)
        idx = np.unique(np.floor(r + (n - r) * grid).astype(int))
        w = collect_w(env, 1, list(idx), replicas, seed + li, threads, block)
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

def _annealed_block(spec: EnvironmentSpec, z0: int, n: int,
                    env_rng: np.random.Generator,
                    rep_rng: np.random.Generator, size: int,
                    record: Sequence[int],
                    heavy_switch: int = HEAVY_TAIL_LOG_SWITCH) -> np.ndarray:
    """Fresh random environment per replica, vectorized.

    Supports i.i.d. and cooling specs; a finite mixer is stepped per
    component group, a Gaussian log-mean mixer via elementwise negative
    binomial draws.
    """
    if not spec.is_random:
        raise ValueError("annealed simulation needs a random environment spec")
    mixer = spec.mixer
    record = list(record)
    pos = {idx: j for j, idx in enumerate(record)}
    z = np.full(size, z0, dtype=np.int64)
    logz = np.full(size, math.log(z0))
    frozen = np.zeros(size, dtype=bool)
    svec = np.zeros(size)
    out = np.empty((size, len(record)))
    if 0 in pos:
        out[:, pos[0]] = math.log(z0)
    comp = None
    qvec = None
    if mixer.kind == "finite":
        comp_dists = mixer.dists
        comp_xi = np.array([d.log_mean for d in comp_dists])
    prev_block = -1
    for i in range(1, n + 1):
        redraw = True
        if spec.kind == "cooling":
            cur_block = spec._cooling_block_index(i)
            redraw = cur_block != prev_block
            prev_block = cur_block
        if mixer.kind == "finite":
            if redraw or comp is None:
                comp = env_rng.choice(len(comp_dists), size=size,
                                      p=mixer.weights)
            xi_vec = comp_xi[comp]
        else:
            if redraw or qvec is None:
                xi_draw = mixer.mu + mixer.sigma * env_rng.standard_normal(size)
                mvec = np.exp(xi_draw)
                qvec = mvec / (1.0 + mvec)
                xi_cur = xi_draw
            xi_vec = xi_cur
        svec += xi_vec
        logz[frozen] += xi_vec[frozen]
        act = (~frozen) & (z > 0)
        if act.any():
            if mixer.kind == "finite":
                for c, dist in enumerate(comp_dists):
                    sel = act & (comp == c)
                    if sel.any():
                        z[sel] = dist.sample_generation_totals(z[sel],
                                                               rep_rng)
                    switch = log_switch_threshold(dist, heavy_switch)
                    newly = sel & (z > switch)
                    if newly.any():
                        frozen[newly] = True
                        logz[newly] = np.log(z[newly].astype(float))
            else:
                zi = z[act]
                totals = rep_rng.negative_binomial(zi, 1.0 - qvec[act])
                z[act] = totals
                newly = act & (z > 10**12)
                if newly.any():
                    frozen[newly] = True
                    logz[newly] = np.log(z[newly].astype(float))
        if i in pos:
            with np.errstate(divide="ignore"):
                cur = np.where(frozen, logz,
                               np.where(z > 0, np.log(np.maximum(z, 1)),
                                        -np.inf))
            out[:, pos[i]] = cur - svec
    return out


def mc_conditioned_critical(spec: EnvironmentSpec, n_list: Sequence[int],
                            replicas: int, seed: int,
                            env_seed: Optional[int] = None,
                            z0: int = 1,
                            min_survivors: int = 500,
                            threads: Optional[int] = None,
                            block: int = DEFAULT_BLOCK,
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
    n = n_list[-1]

    def run(b, sz):
        return _annealed_block(spec, z0, n, substream(env_seed, b),
                               substream(seed, b), sz, n_list)

    parts = _map_blocks(replicas, block, run, threads)
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
