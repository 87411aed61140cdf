"""Forward simulation of the population process.

The process starts from ``z0`` individuals; generation ``n+1`` is the sum of
the offspring of all generation-``n`` individuals.  The kernel reports the
log-scale normalized value ``log W_n = log Z_n - S_n`` (``-inf`` after
extinction), which is the quantity all estimators consume.

:func:`simulate_block` is the one population recursion; the estimators run
it on blocks of replicas.  The laws come from :class:`QuenchedLaws` (one
fixed environment) or :class:`AnnealedLaws` (a fresh random environment per
replica).

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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .distributions import GeometricRows, OffspringDistribution
from .environment import EnvironmentSpec, QuenchedEnvironment

__all__ = [
    "QuenchedLaws",
    "AnnealedLaws",
    "simulate_block",
    "stretched_indices",
    "log_switch_threshold",
]

# Beyond these population sizes a replica continues in log scale.
# Finite-variance families: relative fluctuation of the normalized value is
# ~ Z^{-1/2} ~ 1e-6 at the switch.  Infinite-variance families switch much
# lower; the residual relative fluctuation ~ Z^{-alpha/(1+alpha)} is still far
# below estimator tolerances.  Their exact totals cost O(1) per parent row
# plus one draw per rare large offspring count (see
# OffspringDistribution._power_law_totals), so the switch is no cost limit;
# it stays because moving it changes what the estimators compute.
FINITE_VAR_LOG_SWITCH = 10**12
HEAVY_TAIL_LOG_SWITCH = 4000


def log_switch_threshold(dist: OffspringDistribution) -> int:
    if math.isinf(dist.variance):
        return HEAVY_TAIL_LOG_SWITCH
    return FINITE_VAR_LOG_SWITCH


# -- law providers ----------------------------------------------------------
# ``advance(i)`` enters generation ``i`` (drawing environment randomness at
# full block size); then ``s`` and ``xi`` hold ``S_i`` and the log-mean, as
# scalars or per-replica arrays, and ``groups(rows)`` splits the live
# replicas ``rows`` into ``(law, switch, selector)`` triples.

class QuenchedLaws:
    """Every replica follows the same fixed environment."""

    def __init__(self, env: QuenchedEnvironment):
        self.env = env

    def advance(self, i: int):
        self.dist = self.env.dists[i - 1]
        self.s, self.xi = self.env.s[i], self.env.xi[i - 1]

    def groups(self, rows: np.ndarray):
        return [(self.dist, log_switch_threshold(self.dist), slice(None))]


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
        key = self.spec.stream_index(i)
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
    low: Optional[np.ndarray]
    frozen_at: np.ndarray


def _take(v, rows):
    return v if np.ndim(v) == 0 else v[rows]


def simulate_block(laws, z0: int, n: int, size: int,
                   rng: np.random.Generator, record: Sequence[int] = (),
                   low: bool = False) -> Block:
    """Simulate ``size`` replicas for ``n`` generations from ``z0``
    ancestors each; totals are drawn on the live replicas in index order,
    one call per law group and generation.

    Returns ``log_w[r, j]``, the ``log W`` of replica ``r`` at generation
    ``record[j]`` (sorted, in ``[0, n]``, else ValueError); with ``low``,
    the minimum of ``log W`` over generations ``1..n``; and ``frozen_at``,
    the last generation with an exact count of each switched replica, else
    -1.
    """
    if z0 < 1:
        raise ValueError(f"need at least one ancestor, got z0 = {z0}")
    record = list(record)
    if record and not 0 <= min(record) <= max(record) <= n:
        raise ValueError(f"recorded generations must lie in [0, {n}], got "
                         f"{min(record)} to {max(record)}")
    cols = {i: slice(bisect.bisect_left(record, i),
                     bisect.bisect_right(record, i)) for i in record}
    # generation-0 columns keep this; a replica overwrites every later one
    log_w = np.full((size, len(record)), math.log(z0))
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
                if low:
                    low_w[rows] = np.minimum(low_w[rows], cur)
            if gone.any():
                frozen_at[rows[gone & (z > 0)]] = i
                if i < n:  # the last generation is fully written already
                    retire(gone, np.log(z[gone]) - _take(s, gone),
                           bisect.bisect_right(record, i))
    return Block(log_w, low_w, frozen_at)


def stretched_indices(n: int, grid: Sequence[float]) -> np.ndarray:
    """Generation indices ``floor(r + (n - r) t)`` for each ``t`` in
    ``grid``, with ``r = floor(sqrt(n))``.  ``t=0`` reads generation ``r``,
    ``t=1`` generation ``n``."""
    r = math.isqrt(n)
    grid = np.asarray(grid, dtype=float)
    if np.any((grid < 0.0) | (grid > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return np.floor(r + (n - r) * grid).astype(int)
