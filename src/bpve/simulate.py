"""Forward simulation of the population process on a quenched environment.

The process starts from ``z0`` individuals; generation ``n+1`` is the sum of
the offspring of all generation-``n`` individuals, drawn from the
environment's ``n+1``-st law.  Alongside the raw counts we track the
log-scale normalized value ``log W_n = log Z_n - S_n`` (``-inf`` after
extinction), which is the quantity all estimators consume.

Counts are exact integers until they cross a per-family switch point; from
there the trajectory continues deterministically in log scale (the
normalized value is already concentrated at that size) and records where
the approximation began.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .distributions import OffspringDistribution
from .environment import QuenchedEnvironment

__all__ = [
    "Trajectory",
    "simulate_trajectory",
    "path_functional",
    "halving_first_passage",
    "log_switch_threshold",
    "trajectory_csv",
]

# Beyond these population sizes the trajectory continues in log scale.
# Finite-variance families: relative fluctuation of the normalized value is
# ~ Z^{-1/2} ~ 1e-6 at the switch.  Infinite-variance families switch much
# lower; the residual relative fluctuation ~ Z^{-alpha/(1+alpha)} is still far
# below estimator tolerances.  Their exact totals cost O(1) per parent row
# plus one draw per rare large offspring count (see
# OffspringDistribution._power_law_totals), so the switch is no cost limit;
# it stays because moving it changes what the estimators compute.
FINITE_VAR_LOG_SWITCH = 10**12
HEAVY_TAIL_LOG_SWITCH = 4000


def log_switch_threshold(dist: OffspringDistribution,
                         heavy_switch: int = HEAVY_TAIL_LOG_SWITCH) -> int:
    if math.isinf(dist.variance):
        return heavy_switch
    return FINITE_VAR_LOG_SWITCH


@dataclass
class Trajectory:
    """One simulated path.

    ``z[n]`` is exact for ``n < approx_from`` (and everywhere when
    ``approx_from`` is None); afterwards it is ``round(exp(log_z[n]))``
    saturated at ``2**63 - 1``.  ``log_w[n] = log_z[n] - s[n]`` always,
    with ``-inf`` after extinction.
    """

    z: List[int]
    s: np.ndarray
    log_z: np.ndarray
    log_w: np.ndarray
    extinction_time: Optional[int]
    approx_from: Optional[int]

    @property
    def horizon(self) -> int:
        return len(self.z) - 1

    def w(self, n: int) -> float:
        return float(np.exp(self.log_w[n]))


def simulate_trajectory(env: QuenchedEnvironment, z0: int, n: int,
                        rng: np.random.Generator,
                        heavy_switch: int = HEAVY_TAIL_LOG_SWITCH) -> Trajectory:
    """Simulate ``n`` generations from ``z0`` ancestors on ``env``.

    Stops early at extinction (the remaining entries are exact zeros).
    """
    if z0 < 1:
        raise ValueError("initial population must be >= 1")
    if n > env.horizon:
        raise ValueError(f"n={n} exceeds environment horizon {env.horizon}")
    z = [0] * (n + 1)
    log_z = np.full(n + 1, -np.inf)
    z[0] = z0
    log_z[0] = math.log(z0)
    extinction_time = None
    approx_from = None
    cur = z0
    cur_log = math.log(z0)
    for i in range(1, n + 1):
        dist = env.dists[i - 1]
        if extinction_time is not None:
            break
        if approx_from is None:
            switch = log_switch_threshold(dist, heavy_switch)
            cur = dist.sample_generation_total(cur, rng)
            if cur == 0:
                extinction_time = i
                continue
            cur_log = math.log(cur)
            z[i] = cur
            log_z[i] = cur_log
            if cur > switch:
                approx_from = i
        else:
            cur_log += float(env.xi[i - 1])
            log_z[i] = cur_log
            z[i] = min(int(round(math.exp(min(cur_log, 62 * math.log(2))))),
                       2**63 - 1)
    s = env.s[:n + 1]
    log_w = log_z - s
    return Trajectory(z=z, s=s, log_z=log_z, log_w=log_w,
                      extinction_time=extinction_time, approx_from=approx_from)


def path_functional(traj: Trajectory, r_n: Optional[int] = None,
                    grid: Sequence[float] = ()) -> np.ndarray:
    """Normalized-path values sampled along a stretched time grid.

    Evaluates the normalized population at index ``floor(r + (n - r) t)``
    for each ``t`` in ``grid``; ``r`` defaults to ``floor(sqrt(n))``.
    ``t=0`` reads the value at ``r``, ``t=1`` the value at ``n``.
    """
    n = traj.horizon
    if r_n is None:
        r_n = math.isqrt(n)
    if not (0 <= r_n <= n):
        raise ValueError("r_n must lie in [0, n]")
    grid = np.asarray(grid, dtype=float)
    if np.any((grid < 0.0) | (grid > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    idx = np.floor(r_n + (n - r_n) * grid).astype(int)
    return np.exp(traj.log_w[idx])


def halving_first_passage(traj: Trajectory, start: int = 0) -> Optional[int]:
    """First generation after ``start`` where the population, renormalized by
    the growth accumulated since ``start``, falls below half its value at
    ``start``; None if it never does within the horizon."""
    n = traj.horizon
    if not (0 <= start <= n):
        raise ValueError("start out of range")
    if traj.log_z[start] == -np.inf:
        raise ValueError("population already extinct at start")
    ref = traj.log_z[start] + math.log(0.5)
    rel = traj.log_z[start + 1:] - (traj.s[start + 1:] - traj.s[start])
    below = np.nonzero(rel < ref)[0]
    if len(below) == 0:
        return None
    return int(start + 1 + below[0])


def trajectory_csv(traj: Trajectory, replica: int = 0) -> str:
    """CSV rows ``replica, n, log_z, s, log_w`` for one trajectory."""
    lines = ["replica,n,log_z,s,log_w"]
    for i in range(traj.horizon + 1):
        lines.append(f"{replica},{i},{traj.log_z[i]:.12g},"
                     f"{traj.s[i]:.12g},{traj.log_w[i]:.12g}")
    return "\n".join(lines) + "\n"
