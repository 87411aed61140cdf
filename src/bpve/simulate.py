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
# selector being ``slice(None)`` or a boolean mask of the group's replicas.
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
    :class:`~bpve.distributions.GeometricRows` of its sampled means.

    A draw takes its uniforms in one ``random((live, width))`` call, and
    ``Mixer.sample`` writes its log-means and laws into the per-replica
    arrays; ``keep`` selects the live replicas' rows."""

    def __init__(self, spec: EnvironmentSpec, env_rng: np.random.Generator,
                 size: int):
        if not spec.is_random:
            raise ValueError("annealed simulation needs a random environment spec")
        self.spec, self.mixer, self.env_rng = spec, spec.mixer, env_rng
        # per live replica, from its latest draw: log-mean, S_i, and the
        # law's mixer component (finite, in the smallest unsigned type that
        # holds it) or geometric mean (Gaussian)
        self.xi, self.s = np.empty(size), np.zeros(size)
        finite = self.mixer.kind == "finite"
        self.law = np.empty(size, dtype=np.min_scalar_type(
            len(self.mixer.dists) - 1) if finite else float)
        self.draw_key = None

    def advance(self, i: int):
        key = self.spec.stream_index(i)
        if key != self.draw_key:
            self.draw_key = key
            u = self.env_rng.random((len(self.s), self.mixer.width))
            self.mixer.sample(u, out=(self.xi, self.law))
        self.s += self.xi

    def keep(self, live: np.ndarray):
        self.xi, self.s, self.law = self.xi[live], self.s[live], self.law[live]

    def groups(self):
        if self.mixer.kind == "finite":
            return [(d, log_switch_threshold(d), self.law == c)
                    for c, d in enumerate(self.mixer.dists)]
        return [(GeometricRows(self.law), FINITE_VAR_LOG_SWITCH, slice(None))]


# -- the kernel -------------------------------------------------------------

class Block(NamedTuple):
    log_w: np.ndarray
    lo: Optional[np.ndarray]
    hi: Optional[np.ndarray]
    frozen_at: np.ndarray


def _take(v, rows):
    return v if np.ndim(v) == 0 else v[rows]


def _draw_totals(groups, z: np.ndarray, rng: np.random.Generator):
    """Replace the counts ``z`` by their offspring totals, one call per law
    group, and return where a count is now 0 or past its group's switch."""
    gone = np.zeros(len(z), dtype=bool)
    for law, switch, sel in groups:
        if not isinstance(sel, slice):
            # one group's positions at a time: numpy gathers and scatters
            # by index several times faster than by mask
            sel = np.flatnonzero(sel)
        part = z[sel]
        if len(part):
            # a slice group's part is z itself, drawn in place
            z[sel] = law.sample_generation_totals(part, rng, out=part)
            gone[sel] = (part == 0) | (part > switch)
    return gone


def check_ancestors(count: int, name: str = "z0") -> None:
    """Refuse an ancestor count the int64 counts cannot start from."""
    if not 1 <= count <= 2**63 - 1:
        raise ValueError(f"{name} must lie in [1, 2**63 - 1], got "
                         f"{name} = {count}")


def simulate_block(laws, z0: int, n: int, size: int,
                   rng: np.random.Generator, record: Sequence[int] = (),
                   extremes: Optional[Sequence[int]] = None) -> Block:
    """Simulate ``size`` replicas for ``n`` generations from ``z0``
    ancestors each; totals are drawn on the live replicas in index order,
    one call per law group and generation.

    Returns ``log_w[r, j]``, the ``log W`` of replica ``r`` at generation
    ``record[j]`` (sorted); ``lo`` and ``hi``, the running minimum and
    maximum of each replica's ``log W`` over the generations ``extremes``
    (``+inf`` and ``-inf`` over none), allocated only when ``extremes`` is
    given; and ``frozen_at``, the last generation with an exact count of
    each switched replica, else -1.  Generations outside ``[0, n]`` are a
    ValueError.
    """
    check_ancestors(z0)
    record = list(record)
    track = set() if extremes is None else set(extremes)
    for what, gens in (("recorded", record), ("tracked", track)):
        if gens and not 0 <= min(gens) <= max(gens) <= n:
            raise ValueError(f"{what} generations must lie in [0, {n}], got "
                             f"{min(gens)} to {max(gens)}")
    cols = {i: slice(bisect.bisect_left(record, i),
                     bisect.bisect_right(record, i)) for i in record}
    # generation-0 columns keep this; a replica overwrites every later one
    log_w = np.full((size, len(record)), math.log(z0))
    lo = hi = None
    if extremes is not None:
        lo = np.full(size, math.log(z0) if 0 in track else np.inf)
        hi = np.full(size, math.log(z0) if 0 in track else -np.inf)
    last = max(track, default=-1)
    switches = []  # (rows, generation) of the replicas switched to log scale
    # the live replicas' rows (in the smallest unsigned type that holds
    # them) and counts
    rows = np.arange(size, dtype=np.min_scalar_type(max(size - 1, 0)))
    z = np.full(size, z0, dtype=np.int64)

    def retire(gone, first_col, switched, shift=0.0):
        """Replicas ``gone`` keep ``log W = log Z + shift - S`` from
        generation ``i`` on, and from record column ``first_col``; those
        not extinct switched at ``switched``."""
        nonlocal rows, z
        at = np.flatnonzero(gone)
        left = z[at]
        val = np.log(left)
        up = left > 0
        if up.any():
            switches.append((rows[at[up]], switched))
        del left, up
        val += _take(shift, at)
        val -= _take(laws.s, at)
        out = rows[at]
        del at
        log_w[out, first_col:] = val[:, None]
        if last >= i:
            lo[out] = np.minimum(lo[out], val)
            hi[out] = np.maximum(hi[out], val)
        del out, val
        # freed before the live rows are selected
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
            gone = _draw_totals(groups, z, rng)
            if i in cols or i in track:
                cur = np.log(z)
                cur -= laws.s
                if i in cols:
                    log_w[rows, cols[i]] = cur[:, None]
                if i in track and len(rows) == size:
                    # no replica has left yet: rows is every replica
                    np.minimum(lo, cur, out=lo)
                    np.maximum(hi, cur, out=hi)
                elif i in track:
                    lo[rows] = np.minimum(lo[rows], cur)
                    hi[rows] = np.maximum(hi[rows], cur)
            if gone.any():
                retire(gone, bisect.bisect_right(record, i), i)
    frozen_at = np.full(size, -1, dtype=np.int64)
    for switched_rows, gen in switches:
        frozen_at[switched_rows] = gen
    return Block(log_w, lo, hi, frozen_at)


def stretched_indices(n: int, grid: Sequence[float]) -> np.ndarray:
    """Generation indices ``floor(r + (n - r) t)`` for each ``t`` in
    ``grid``, with ``r = floor(sqrt(n))``.  ``t=0`` reads generation ``r``,
    ``t=1`` generation ``n``."""
    r = math.isqrt(n)
    grid = np.asarray(grid, dtype=float)
    if np.any((grid < 0.0) | (grid > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return np.floor(r + (n - r) * grid).astype(int)
