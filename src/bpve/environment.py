"""Environment sequences: which offspring law governs each generation.

An :class:`EnvironmentSpec` describes the sequence of per-generation
offspring laws -- constant, explicit, periodic, i.i.d. random, or random
with a cooling schedule (each environment draw held for a whole block of
generations).  A random kind's draw ``index`` (the generation, or its
cooling block) comes from the counter-based stream ``(env_seed, index)``,
so the same seed always gives the same laws.

:meth:`Mixer.sample` is the one rule that turns uniforms (one per finite
draw, two per Gaussian draw) into log-means and laws: a quenched draw
(:meth:`Mixer.draw`, called by ``quench_many`` alone) takes each stream's
first uniforms, and the annealed draws
(:class:`bpve.simulate.AnnealedLaws`) a block's.

``quench`` freezes a spec into a :class:`QuenchedEnvironment`: a table of
its distinct laws (a Gaussian draw's: the ``GeometricRows`` of its means),
the law index of each generation, and the running sums of the log-means,
accumulated with compensated summation (the condition series are
exponentially sensitive to drift in those sums).  A function of the law,
such as a moment, is evaluated once per table entry
(:meth:`QuenchedEnvironment.map_laws`).  ``quench_many`` freezes many
environments of one spec at once.

Each named preset is one config in :data:`PRESET_CONFIGS`, the dict
``bpve list-presets`` prints; ``{"preset": name}`` and the inline config
give the same spec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import distributions
from .distributions import GeometricRows, OffspringDistribution, check_keys
# the benchmark's tracer (bench/spans.py) wraps ``substream`` in this
# module, so it stays bound though nothing here calls it
from .streams import first_uniforms, substream

__all__ = [
    "Mixer",
    "EnvironmentSpec",
    "QuenchedEnvironment",
    "quench",
    "quench_many",
    "PRESET_CONFIGS",
]

MAX_QUENCH_HORIZON = 10**7

_MIXER_KEYS = {
    "finite": {"dists", "weights"},
    "gaussian_logmean_geometric": {"mu", "sigma"},
}
_SPEC_KEYS = {"constant": {"dist"}, "explicit_sequence": {"dists"},
              "periodic": {"dists"}, "iid_random": {"mixer"},
              "cooling": {"mixer", "schedule"}}


class Mixer:
    """A sampling law over offspring distributions (one random-environment
    draw): a ``finite`` mixture of fully specified laws with weights, or
    ``gaussian_logmean_geometric``, geometric offspring whose log-mean is
    drawn from a Gaussian."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind not in _MIXER_KEYS:
            raise ValueError(f"unknown mixer kind {kind!r}")
        check_keys(params, _MIXER_KEYS[kind], "mixer")
        if kind == "finite":
            dists = list(params["dists"])
            weights = np.asarray(params["weights"], dtype=float)
            if len(dists) != len(weights) or len(dists) == 0:
                raise ValueError("finite mixer needs matching dists and weights")
            # written so that a NaN weight fails
            if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
                raise ValueError("mixer weights must be a probability vector")
            self.dists: List[OffspringDistribution] = dists
            self.weights = weights / weights.sum()
            # the cdf numpy's Generator.choice builds from p on every call
            self.cdf = self.weights.cumsum()
            self.cdf /= self.cdf[-1]
            self.xi = np.array([d.log_mean for d in dists])
        elif kind == "gaussian_logmean_geometric":
            self.mu = float(params["mu"])
            self.sigma = float(params["sigma"])
            if not (math.isfinite(self.mu) and 0.0 <= self.sigma < math.inf):
                raise ValueError("mixer needs a finite mu and a finite sigma "
                                 f">= 0, got {self.mu!r} and {self.sigma!r}")
        self.width = 1 if kind == "finite" else 2  # uniforms per draw

    def sample(self, u: np.ndarray, out=None):
        """``(xi, law)`` of the draws whose ``width`` uniforms lie along the
        last axis of ``u``: a finite draw's log-mean and component (the one
        ``Generator.choice`` with the weights gives); a Gaussian draw's
        log-mean ``mu + sigma * z``, ``z`` the Box-Muller normal of its two
        uniforms (Box & Muller 1958; ``|z| < 8.58``), and mean ``exp(xi)``.
        They are written into ``out``, a pair of arrays shaped as ``u[...,
        0]`` (a component may take any integer dtype that holds it), when
        given, else into new ones; a Gaussian draw takes no other array."""
        xi, law = out = self._outputs(u.shape[:-1]) if out is None else out
        if self.kind == "finite":
            comp = self.cdf.searchsorted(u[..., 0], side="right")
            law[...], xi[...] = comp, self.xi[comp]
            return out
        # z = sqrt(-2 log1p(-u0)) * cos(2 pi u1), built in xi, the cosine in
        # law, each step the float operation of the expression
        np.log1p(np.negative(u[..., 0], out=xi), out=xi)
        np.sqrt(np.multiply(-2.0, xi, out=xi), out=xi)
        xi *= np.cos(np.multiply(2.0 * math.pi, u[..., 1], out=law), out=law)
        with np.errstate(over="ignore"):  # an infinite mean the law refuses
            np.add(self.mu, np.multiply(self.sigma, xi, out=xi), out=xi)
            np.exp(xi, out=law)
        return out

    def _outputs(self, shape):
        """New ``(xi, law)`` arrays of ``shape`` for :meth:`sample`."""
        return np.empty(shape), np.empty(
            shape, np.intp if self.kind == "finite" else float)

    def draw(self, seeds: Sequence[int], keys: Sequence[int]):
        """The draws of streams ``(seed, key)``: per seed a law table (the
        components, or the :class:`GeometricRows` of the keys' means), and
        per seed and key the law's index in it and the log-mean.  The
        ``(seeds, keys)`` arrays are allocated once, and :meth:`sample`
        fills their columns from :func:`first_uniforms`, a pass of
        ``distributions.ROW_CHUNK`` keys at a time."""
        seeds = np.array(seeds, dtype=object)[:, None]
        xi, law = self._outputs((len(seeds), len(keys)))
        step = distributions.ROW_CHUNK
        for lo in range(0, len(keys), step):
            c = slice(lo, lo + step)
            self.sample(first_uniforms(seeds, keys[c], self.width),
                        out=(xi[:, c], law[:, c]))
        if self.kind == "finite":
            return [tuple(self.dists)] * len(seeds), law, xi
        tables = [GeometricRows(row) for row in law]
        return tables, np.broadcast_to(np.arange(len(keys)), xi.shape), xi

    @classmethod
    def from_config(cls, cfg: dict) -> "Mixer":
        cfg = dict(cfg)
        kind = cfg.pop("kind", None)
        if kind == "finite" and "dists" in cfg:
            cfg["dists"] = [OffspringDistribution.from_config(d)
                            for d in cfg["dists"]]
        return cls(kind, **cfg)


@dataclass(frozen=True)
class EnvironmentSpec:
    """Description of the (possibly random) sequence of offspring laws."""

    kind: str
    dists: Optional[tuple] = None          # constant / explicit / periodic
    mixer: Optional[Mixer] = None          # iid_random / cooling
    block_lengths: Optional[tuple] = None  # cooling; None means doubling

    def __post_init__(self):
        if self.kind not in _SPEC_KEYS:
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if not self.is_random:
            if not (isinstance(self.dists, tuple) and self.dists and all(
                    isinstance(d, OffspringDistribution) for d in self.dists)):
                raise ValueError(f"{self.kind} environment needs a nonempty "
                                 "tuple of offspring laws")
        elif not isinstance(self.mixer, Mixer):
            raise ValueError(f"{self.kind} environment needs a mixer")
        bl = self.block_lengths
        if bl is not None and self.kind != "cooling":
            raise ValueError(f"{self.kind} environment has no block lengths")
        if bl is not None and not (isinstance(bl, tuple) and bl and all(
                type(b) is int and b >= 1 for b in bl)):
            raise ValueError('cooling schedule must be "doubling" or a nonempty '
                             f"list of integers >= 1, got "
                             f"{list(bl) if isinstance(bl, tuple) else bl!r}")

    @property
    def is_random(self) -> bool:
        return self.kind in ("iid_random", "cooling")

    # -- resolution ---------------------------------------------------------

    def stream_index(self, i):
        """Index of the stream (keyed ``(env_seed, index)``) that the law of
        generation ``i`` (an int, 1-based, or an int64 array of them; below
        ``2**63``) is drawn from, for a random spec: ``i`` itself when
        i.i.d., the block index when cooling, found in int64 arithmetic (a
        float rounds ``2**54 - 1`` up to ``2**54``)."""
        if self.kind != "cooling":
            return i
        gens = np.array(i, dtype=np.int64, ndmin=1)
        # doubling: block j has length 2^j, covering [2^j, 2^{j+1} - 1]
        lengths = self.block_lengths or [
            1 << j for j in range(int(gens.max()).bit_length())]
        ends = np.array([min(end, 2**63 - 1) for end in itertools.accumulate(
            lengths)], dtype=np.int64)
        keys = np.searchsorted(ends, gens)
        past = gens > ends[-1]  # the last listed block length repeats
        if past.any():
            keys[past] = len(ends) + (gens[past] - ends[-1] - 1) // lengths[-1]
        return keys if isinstance(i, np.ndarray) else int(keys[0])

    def dist_at(self, env_seed: int, i: int) -> OffspringDistribution:
        """Offspring law of generation ``i`` (1-based) of a constant,
        explicit or periodic spec, whatever ``env_seed``."""
        if self.is_random:
            raise ValueError(f"a {self.kind} environment's laws come from "
                             "quench, not dist_at")
        if i < 1:
            raise ValueError("generation index is 1-based")
        if self.kind == "explicit_sequence" and i > len(self.dists):
            raise ValueError(f"explicit sequence has length {len(self.dists)}")
        return self.dists[(i - 1) % len(self.dists)]

    @classmethod
    def from_config(cls, cfg: dict) -> "EnvironmentSpec":
        cfg = dict(cfg)
        preset = cfg.pop("preset", None)
        if preset is not None:
            if cfg:
                raise ValueError("preset environments take no extra keys")
            if preset not in PRESET_CONFIGS:
                raise ValueError(f"unknown preset {preset!r}; "
                                 f"known: {sorted(PRESET_CONFIGS)}")
            return cls.from_config(PRESET_CONFIGS[preset])
        kind = cfg.pop("kind", None)
        if kind not in _SPEC_KEYS:
            return cls(kind)  # __post_init__ refuses the kind
        check_keys(cfg, _SPEC_KEYS[kind], "environment", optional={"schedule"})
        if kind in ("iid_random", "cooling"):
            sched = cfg.get("schedule", "doubling")
            if isinstance(sched, list):
                sched = tuple(sched)
            return cls(kind, mixer=Mixer.from_config(cfg["mixer"]),
                       block_lengths=None if sched == "doubling" else sched)
        dists = [cfg["dist"]] if kind == "constant" else cfg["dists"]
        return cls(kind, dists=tuple(OffspringDistribution.from_config(d)
                                     for d in dists))


@dataclass
class QuenchedEnvironment:
    """A materialized environment prefix: generation ``i`` has the law
    ``laws[index[i-1]]``, ``laws`` being a table of the environment's laws
    (a tuple, or a Gaussian draw's ``GeometricRows``); ``s[n]`` is the sum
    of the first ``n`` log-means ``xi`` (``s[0] = 0``), Kahan-accumulated.
    Immutable by convention; safe to share across workers.
    """

    laws: Sequence
    index: np.ndarray
    s: np.ndarray
    xi: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.index)

    def map_laws(self, f, lo=0, hi=None, stop=None) -> np.ndarray:
        """``f(law)`` of generations ``lo + 1 .. hi`` as floats, from one call
        of ``f`` per law in order of first generation.  The first value with
        ``stop(value)`` ends the walk: no law first seen later is evaluated,
        and the result ends at that law's first generation."""
        # laws numbered from the window's smallest index: O(window) work
        base = self.index[lo:hi].min(initial=len(self.laws))
        index = self.index[lo:hi] - base
        first = np.full(index.max(initial=-1) + 1, len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        values = np.empty(len(first))
        for k in index[np.sort(first[first < len(index)])]:
            values[k] = value = f(self.laws[base + k])
            if stop is not None and stop(value):
                return values[index[:first[k] + 1]]
        return values[index]

    def shifted(self, drop: int) -> "QuenchedEnvironment":
        """Drop the first ``drop`` generations and re-zero the log-mean sums."""
        if not (0 <= drop < self.horizon):
            raise ValueError("shift out of range")
        xi = self.xi[drop:]
        return QuenchedEnvironment(self.laws, self.index[drop:],
                                   _kahan_cumsum(xi), xi)


_CUMSUM_CHUNK = 2**16


def _kahan_cumsum(xs: np.ndarray) -> np.ndarray:
    """Compensated running sums along the last axis, after a leading 0.
    The rows of a 2-D ``xs`` are summed side by side, each with the same
    float operations in the same order as on its own.  The sums go into
    the result ``_CUMSUM_CHUNK`` generations at a time, so no more than a
    chunk of them is held as Python objects."""
    rows = xs.ndim == 2 and len(xs) != 1
    out = np.zeros(xs.shape[:-1] + (xs.shape[-1] + 1,))
    flat = out.reshape(-1, out.shape[-1])
    # a single row steps faster through Python floats than numpy scalars
    total = comp = np.zeros(len(xs)) if rows else 0.0
    cols = xs.T if rows else xs.ravel()
    for lo in range(0, len(cols), _CUMSUM_CHUNK):
        chunk, sums = cols[lo:lo + _CUMSUM_CHUNK], []
        for x in chunk if rows else chunk.tolist():
            y = x - comp
            t = total + y
            comp = (t - total) - y
            total = t
            sums.append(total)
        flat[:, lo + 1:lo + 1 + len(sums)] = np.array(sums).T
    return out


def quench(spec: EnvironmentSpec, env_seed: int, horizon: int) -> QuenchedEnvironment:
    """Materialize ``horizon`` generations of ``spec``; idempotent for fixed
    inputs.  A random spec's generation ``i`` gets the law its stream
    ``(env_seed, spec.stream_index(i))`` draws; a cooling spec draws once
    per block and holds that law for the whole block."""
    return quench_many(spec, [env_seed], horizon)[0]


def quench_many(spec: EnvironmentSpec, env_seeds: Sequence[int],
                horizon: int) -> List[QuenchedEnvironment]:
    """``[quench(spec, s, horizon) for s in env_seeds]``, bitwise, computed
    together.  A non-random spec's law table is its own laws, shared by
    every seed.  A random spec is resolved once per distinct stream key of
    generations ``1..horizon``, by one :meth:`Mixer.draw` for every seed
    and key."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_budget(horizon, MAX_QUENCH_HORIZON, "quenched generations")
    seeds = [int(s) for s in env_seeds]
    if not spec.is_random:
        spec.dist_at(1, horizon)  # refuses a horizon past an explicit sequence
        laws = spec.dists[:horizon]
        index = np.arange(horizon) % len(laws)
        xi = np.array([d.log_mean for d in laws])[index]
        env = QuenchedEnvironment(laws, index, _kahan_cumsum(xi), xi)
        return [env] * len(seeds)
    # a generation shares its predecessor's key or takes the next one
    inverse = spec.stream_index(np.arange(1, horizon + 1))
    keys = np.arange(inverse[0], inverse[-1] + 1)
    tables, index, xi = spec.mixer.draw(seeds, keys)
    if len(keys) < horizon:  # a cooling block's draw serves its generations
        inverse -= inverse[0]
        xi, index = xi[:, inverse], index[:, inverse]
    return [QuenchedEnvironment(*row) for row in zip(
        tables, index, _kahan_cumsum(xi), xi)]


class ResourceWarningError(MemoryError):
    """A size beyond a fixed in-memory budget."""


def check_budget(count: int, budget: int, what: str):
    """Refuse ``count`` ``what`` beyond the in-memory ``budget``."""
    if count > budget:
        raise ResourceWarningError(f"{count} {what} exceed the in-memory "
                                   f"budget ({budget})")


# only the quantile estimators (path spread, conditioned critical) keep a
# value per replica: one result array plus the blocks in flight, which must
# fit in memory, at 8 bytes a value 0.8 GB per value kept per replica.  The
# others reduce each block to counts or moments and hold the blocks in
# flight alone; one limit serves every estimator.
MAX_REPLICAS = 10**8


# -- presets ----------------------------------------------------------------

def _two_point(mu: float) -> dict:
    """Finite mixer config: geometric offspring whose log-mean is
    ``mu +/- log 2`` with equal weights."""
    up, down = math.exp(mu + math.log(2.0)), math.exp(mu - math.log(2.0))
    return {"kind": "finite",
            "dists": [{"kind": "geometric", "mean": m} for m in (up, down)],
            "weights": [0.5, 0.5]}


PRESET_CONFIGS = {
    # i.i.d. environments with log-mean drift 0, 0.2 and -0.2
    "critical_two_point": {"kind": "iid_random", "mixer": _two_point(0.0)},
    "supercritical_mu0.2": {"kind": "iid_random", "mixer": _two_point(0.2)},
    "subcritical_mu0.2": {"kind": "iid_random", "mixer": _two_point(-0.2)},
    # random environment held constant over doubling-length blocks
    "cooling_doubling_blocks": {"kind": "cooling", "mixer": _two_point(0.2),
                                "schedule": "doubling"},
    # constant heavy-tail law: infinite variance, supercritical mean
    "heavy_tail_supercritical": {"kind": "constant", "dist": {
        "kind": "power_law_tail", "alpha": 0.5, "p0": 0.2}},
}
