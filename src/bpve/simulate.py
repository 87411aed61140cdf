"""Forward simulation of the population process.

The process starts from ``z0`` individuals; generation ``n+1`` is the sum of
the offspring of all generation-``n`` individuals.  Alongside the counts we
track the log-scale normalized value ``log W_n = log Z_n - S_n`` (``-inf``
after extinction), which is the quantity all estimators consume.

:func:`simulate_block` is the one population recursion: estimators run it on
blocks of replicas, :func:`simulate_trajectory` at size 1.  The laws come
from :class:`QuenchedLaws` (one fixed environment) or :class:`AnnealedLaws`
(a fresh random environment per replica).

Counts are exact integers until they cross a per-family switch point; from
there a replica continues deterministically in log scale (the normalized
value is already concentrated at that size), so its ``log W`` stays
constant.  A replica also switches, one generation early, before a draw its
law cannot sample exactly.  Extinct and switched replicas leave the working
arrays.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import GeometricRows, OffspringDistribution
from .environment import EnvironmentSpec, QuenchedEnvironment

__all__ = [
    "Trajectory",
    "QuenchedLaws",
    "AnnealedLaws",
    "simulate_block",
    "simulate_trajectory",
    "stretched_indices",
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


# -- law providers ----------------------------------------------------------
# ``advance(i)`` enters generation ``i`` (drawing environment randomness at
# full block size); then ``s`` and ``xi`` hold ``S_i`` and the log-mean, as
# scalars or per-replica arrays, and ``groups(rows)`` splits the live
# replicas ``rows`` into ``(law, switch, selector)`` triples.

class QuenchedLaws:
    """Every replica follows the same fixed environment."""

    def __init__(self, env: QuenchedEnvironment,
                 heavy_switch: int = HEAVY_TAIL_LOG_SWITCH):
        self.env = env
        self.heavy_switch = heavy_switch

    def advance(self, i: int):
        self.dist = self.env.dists[i - 1]
        self.s, self.xi = self.env.s[i], self.env.xi[i - 1]

    def groups(self, rows: np.ndarray):
        return [(self.dist, log_switch_threshold(self.dist, self.heavy_switch),
                 slice(None))]


class AnnealedLaws:
    """Each replica draws its own environment from a random spec: the mixer
    is drawn for every replica, alive or not, once per generation (i.i.d.)
    or per block of generations (cooling)."""

    def __init__(self, spec: EnvironmentSpec, env_rng: np.random.Generator,
                 size: int):
        if not spec.is_random:
            raise ValueError("annealed simulation needs a random environment spec")
        self.spec, self.mixer = spec, spec.mixer
        self.env_rng, self.size = env_rng, size
        self.s = np.zeros(size)
        self.draw_key = None
        if self.mixer.kind == "finite":
            self.comp_xi = np.array([d.log_mean for d in self.mixer.dists])

    def advance(self, i: int):
        key = (self.spec._cooling_block_index(i)
               if self.spec.kind == "cooling" else i)
        if key != self.draw_key:
            self.draw_key = key
            mixer = self.mixer
            if mixer.kind == "finite":
                self.comp = mixer.components(self.env_rng, self.size)
                self.xi = self.comp_xi[self.comp]
            else:
                self.xi = mixer.mu + mixer.sigma * self.env_rng.standard_normal(
                    self.size)
                m = np.exp(self.xi)
                self.q = m / (1.0 + m)
        self.s += self.xi

    def groups(self, rows: np.ndarray):
        if self.mixer.kind == "finite":
            comp = self.comp[rows]
            return [(d, log_switch_threshold(d), comp == c)
                    for c, d in enumerate(self.mixer.dists)]
        return [(GeometricRows(self.q[rows]), FINITE_VAR_LOG_SWITCH,
                 slice(None))]


# -- the kernel -------------------------------------------------------------

class Block(NamedTuple):
    log_w: np.ndarray
    counts: Optional[np.ndarray]
    low: Optional[np.ndarray]
    frozen_at: np.ndarray


def _take(v, rows):
    return v if np.ndim(v) == 0 else v[rows]


def simulate_block(laws, z0: int, n: int, size: int,
                   rng: np.random.Generator, record: Sequence[int] = (),
                   counts: bool = False, low: bool = False) -> Block:
    """Simulate ``size`` replicas for ``n`` generations from ``z0``
    ancestors each; totals are drawn on the live replicas in index order,
    one call per law group and generation.

    Returns ``log_w[r, j]``, the ``log W`` of replica ``r`` at generation
    ``record[j]`` (sorted, in ``[0, n]``); with ``counts``, the exact counts
    there (meaningless once a replica switched); with ``low``, the minimum
    of ``log W`` over generations ``1..n``; and ``frozen_at``, the last
    generation with an exact count of each switched replica, else -1.
    """
    if z0 < 1:
        raise ValueError(f"need at least one ancestor, got z0 = {z0}")
    record = list(record)
    cols = {i: slice(bisect.bisect_left(record, i),
                     bisect.bisect_right(record, i)) for i in record}
    # generation-0 columns keep this; a replica overwrites every later one
    log_w = np.full((size, len(record)), math.log(z0))
    cnt = np.zeros((size, len(record)), dtype=np.int64) if counts else None
    if counts and 0 in cols:
        cnt[:, cols[0]] = z0
    low_w = np.full(size, np.inf) if low else None
    frozen_at = np.full(size, -1, dtype=np.int64)
    rows = np.arange(size)
    z = np.full(size, z0, dtype=np.int64)

    def retire(gone, val, first_col):
        """Replicas ``gone`` keep ``log W = val`` from ``first_col`` on."""
        nonlocal rows, z
        out = rows[gone]
        log_w[out, first_col:] = val[:, None]
        if low:
            low_w[out] = np.minimum(low_w[out], val)
        rows, z = rows[~gone], z[~gone]

    with np.errstate(divide="ignore"):
        for i in range(1, n + 1):
            if not len(rows):
                break
            laws.advance(i)
            # a total the law cannot sample exactly: switch one generation
            # early and carry on with this generation's log-mean
            unsafe = np.zeros(len(z), dtype=bool)
            for law, _, sel in laws.groups(rows):
                bad = law.overflow_rows(z[sel])
                if bad is not None:
                    unsafe[sel] = bad
            if unsafe.any():
                out = rows[unsafe]
                frozen_at[out] = i - 1
                retire(unsafe, np.log(z[unsafe]) + _take(laws.xi, out)
                       - _take(laws.s, out), bisect.bisect_left(record, i))
            gone = np.zeros(len(z), dtype=bool)
            for law, switch, sel in laws.groups(rows):
                part = z[sel]
                if len(part):
                    z[sel] = part = law.sample_generation_totals(part, rng)
                    gone[sel] = (part == 0) | (part > switch)
            s = _take(laws.s, rows)
            if i in cols or low:
                cur = np.log(z) - s
                if i in cols:
                    log_w[rows, cols[i]] = cur[:, None]
                    if counts:
                        cnt[rows, cols[i]] = z[:, None]
                if low:
                    low_w[rows] = np.minimum(low_w[rows], cur)
            if gone.any():
                frozen_at[rows[gone & (z > 0)]] = i
                if i < n:  # the last generation is fully written already
                    retire(gone, np.log(z[gone]) - _take(s, gone),
                           bisect.bisect_right(record, i))
    return Block(log_w, cnt, low_w, frozen_at)


# -- single trajectories ----------------------------------------------------

@dataclass
class Trajectory:
    """One simulated path.

    ``z[n]`` is exact for ``n <= approx_from`` (and everywhere when
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
    """Simulate ``n`` generations from ``z0`` ancestors on ``env``: the
    kernel at block size 1.  After extinction the entries are exact zeros."""
    if z0 < 1:
        raise ValueError("initial population must be >= 1")
    if n > env.horizon:
        raise ValueError(f"n={n} exceeds environment horizon {env.horizon}")
    block = simulate_block(QuenchedLaws(env, heavy_switch), z0, n, 1, rng,
                           record=range(n + 1), counts=True)
    s, log_w = env.s[:n + 1], block.log_w[0]
    log_z = log_w + s
    z = [int(c) for c in block.counts[0]]
    approx_from = int(block.frozen_at[0]) if block.frozen_at[0] >= 0 else None
    for i in range(n + 1 if approx_from is None else approx_from + 1, n + 1):
        z[i] = min(int(round(math.exp(min(log_z[i], 62 * math.log(2))))),
                   2**63 - 1)
    dead = np.flatnonzero(np.isneginf(log_w))
    return Trajectory(z=z, s=s, log_z=log_z, log_w=log_w,
                      extinction_time=int(dead[0]) if len(dead) else None,
                      approx_from=approx_from)


def stretched_indices(n: int, grid: Sequence[float],
                      r_n: Optional[int] = None) -> np.ndarray:
    """Generation indices ``floor(r + (n - r) t)`` for each ``t`` in
    ``grid``; ``r`` defaults to ``floor(sqrt(n))``.  ``t=0`` reads
    generation ``r``, ``t=1`` generation ``n``."""
    if r_n is None:
        r_n = math.isqrt(n)
    if not (0 <= r_n <= n):
        raise ValueError("r_n must lie in [0, n]")
    grid = np.asarray(grid, dtype=float)
    if np.any((grid < 0.0) | (grid > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return np.floor(r_n + (n - r_n) * grid).astype(int)


def path_functional(traj: Trajectory, r_n: Optional[int] = None,
                    grid: Sequence[float] = ()) -> np.ndarray:
    """Normalized-path values sampled along a stretched time grid (see
    :func:`stretched_indices`)."""
    return np.exp(traj.log_w[stretched_indices(traj.horizon, grid, r_n)])


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
    below = np.flatnonzero(rel < ref)
    return int(start + 1 + below[0]) if len(below) else None


def trajectory_csv(traj: Trajectory, replica: int = 0) -> str:
    """CSV rows ``replica, n, log_z, s, log_w`` for one trajectory."""
    return "".join(["replica,n,log_z,s,log_w\n"] + [
        f"{replica},{i},{traj.log_z[i]:.12g},{traj.s[i]:.12g},"
        f"{traj.log_w[i]:.12g}\n" for i in range(traj.horizon + 1)])
