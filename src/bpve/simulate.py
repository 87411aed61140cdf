"""Forward simulation of the population process.

The process starts from ``z0`` individuals; generation ``n+1`` is the sum of
the offspring of all generation-``n`` individuals.  The kernel reports the
log-scale normalized value ``log W_n = log Z_n - S_n`` (``-inf`` after
extinction), which is the quantity all estimators consume.

:func:`simulate_block` is the one population recursion; the estimators run
it on blocks of replicas.  The laws come from :class:`QuenchedLaws` (one
fixed environment) or :class:`AnnealedLaws` (a fresh random environment per
replica).  A provider's per-replica state stays aligned with the live
replicas through ``advance``, ``groups`` and ``keep``.

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
# Each provider keeps its per-replica state aligned with the live replicas,
# in index order.  ``advance(i)`` enters generation ``i`` (only the live
# replicas draw environment randomness); then ``s`` and ``xi`` hold ``S_i``
# and the log-mean, as scalars or per-live-replica arrays, and ``groups()``
# splits the live replicas into ``(law, switch, selector)`` triples, a
# selector being ``slice(None)`` or the positions of the group's replicas.
# ``keep(live)`` keeps the replicas at the positions ``live``.

class QuenchedLaws:
    """Every replica follows the same fixed environment."""

    def __init__(self, env: QuenchedEnvironment):
        self.env = env

    def advance(self, i: int):
        self.dist = self.env.laws[self.env.index[i - 1]]
        self.s, self.xi = self.env.s[i], self.env.xi[i - 1]

    def keep(self, live: np.ndarray):
        pass

    def groups(self):
        return [(self.dist, log_switch_threshold(self.dist), slice(None))]


class AnnealedLaws:
    """Each replica draws its own environment from a random spec: at each
    new stream key of the spec, so every generation (i.i.d.) or block of
    generations (cooling), the live replicas alone take their uniforms from
    ``env_rng`` in index order, for :meth:`~bpve.environment.Mixer.sample`
    to turn into laws.  A Gaussian draw's laws are the
    :class:`~bpve.distributions.GeometricRows` of its sampled means."""

    def __init__(self, spec: EnvironmentSpec, env_rng: np.random.Generator,
                 size: int):
        if not spec.is_random:
            raise ValueError("annealed simulation needs a random environment spec")
        self.spec, self.mixer, self.env_rng = spec, spec.mixer, env_rng
        # per live replica, from its latest draw: log-mean, S_i, and the
        # law's mixer component (finite) or geometric mean (Gaussian)
        self.xi, self.s, self.law = (np.zeros(size) for _ in range(3))
        self.draw_key = None

    def advance(self, i: int):
        key = self.spec.stream_index(i)
        if key != self.draw_key:
            self.draw_key = key
            self.xi, self.law = self.mixer.sample(
                self.env_rng.random((len(self.s), self.mixer.width)))
        self.s += self.xi

    def keep(self, live: np.ndarray):
        self.xi, self.s, self.law = self.xi[live], self.s[live], self.law[live]

    def groups(self):
        if self.mixer.kind == "finite":
            return [(d, log_switch_threshold(d),
                     np.flatnonzero(self.law == c))
                    for c, d in enumerate(self.mixer.dists)]
        return [(GeometricRows(self.law), FINITE_VAR_LOG_SWITCH, slice(None))]


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
    if not 1 <= z0 <= 2**63 - 1:  # the counts are int64
        raise ValueError(f"z0 must lie in [1, 2**63 - 1], got z0 = {z0}")
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

    def retire(gone, first_col, switched, shift=0.0):
        """Replicas ``gone`` keep ``log W = log Z + shift - S`` from
        ``first_col`` on; those not extinct switched at ``switched``."""
        nonlocal rows, z
        at = np.flatnonzero(gone)
        out, left = rows[at], z[at]
        val = np.log(left) + _take(shift, at) - _take(laws.s, at)
        frozen_at[out[left > 0]] = switched
        log_w[out, first_col:] = val[:, None]
        if low:
            low_w[out] = np.minimum(low_w[out], val)
        live = np.flatnonzero(~gone)
        rows, z = rows[live], z[live]
        laws.keep(live)

    with np.errstate(divide="ignore"):
        for i in range(1, n + 1):
            if not len(rows):
                break
            laws.advance(i)
            groups = laws.groups()
            # a total the law cannot sample exactly: switch one generation
            # early and carry on with this generation's log-mean
            unsafe = None
            for law, _, sel in groups:
                bad = law.overflow_rows(z)
                if bad is not None:
                    if unsafe is None:
                        unsafe = np.zeros(len(z), dtype=bool)
                    unsafe[sel] |= bad[sel]
            if unsafe is not None and unsafe.any():
                retire(unsafe, bisect.bisect_left(record, i), i - 1, laws.xi)
                groups = laws.groups()
            gone = np.zeros(len(z), dtype=bool)
            for law, switch, sel in groups:
                part = z[sel]
                if len(part):
                    z[sel] = part = law.sample_generation_totals(part, rng)
                    gone[sel] = (part == 0) | (part > switch)
            if i in cols or low:
                cur = np.log(z) - laws.s
                if i in cols:
                    log_w[rows, cols[i]] = cur[:, None]
                if low:
                    low_w[rows] = np.minimum(low_w[rows], cur)
            if gone.any():
                retire(gone, bisect.bisect_right(record, i), i)
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
