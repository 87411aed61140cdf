"""Environment sequences: which offspring law governs each generation.

An :class:`EnvironmentSpec` describes the sequence of per-generation
offspring laws -- constant, explicit, periodic, i.i.d. random, or random
with a cooling schedule (each environment draw held for a whole block of
generations).  Random kinds are resolved through counter-based streams
keyed by ``(env_seed, index)``, so ``dist_at`` is random-access: the law of
generation ``i`` can be produced without materializing generations
``1..i-1``, and two calls always agree.

``quench`` freezes a spec into a :class:`QuenchedEnvironment`: a concrete
sequence of laws together with the running sums of their log-means,
accumulated with compensated summation (the condition series are
exponentially sensitive to drift in those sums).  A cooling spec's stream
is keyed by the block index, so ``quench`` draws once per block.
``quench_many`` freezes many environments of one spec at once; for an
i.i.d. finite mixer it picks every generation of every environment from one
vectorized pass over the streams' first uniforms, with the values
generation-by-generation draws would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .distributions import OffspringDistribution, check_keys
from .streams import first_uniforms, substream

__all__ = [
    "Mixer",
    "EnvironmentSpec",
    "QuenchedEnvironment",
    "quench",
    "quench_many",
    "critical_preset",
    "supercritical_preset",
    "subcritical_preset",
    "cooling_preset",
    "heavy_tail_supercritical_preset",
    "PRESETS",
]

MAX_QUENCH_HORIZON = 10**7


class Mixer:
    """A sampling law over offspring distributions (one i.i.d. environment draw).

    Two forms:

    * ``finite``: a finite mixture of fully specified laws with weights.
    * ``gaussian_logmean_geometric``: geometric offspring whose log-mean is
      drawn from a Gaussian.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind == "finite":
            dists = list(params["dists"])
            weights = np.asarray(params["weights"], dtype=float)
            if len(dists) != len(weights) or len(dists) == 0:
                raise ValueError("finite mixer needs matching dists and weights")
            if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError("mixer weights must be a probability vector")
            self.dists: List[OffspringDistribution] = dists
            self.weights = weights / weights.sum()
            # the cdf numpy's Generator.choice builds from p on every call
            self.cdf = self.weights.cumsum()
            self.cdf /= self.cdf[-1]
        elif kind == "gaussian_logmean_geometric":
            self.mu = float(params["mu"])
            self.sigma = float(params["sigma"])
            if self.sigma < 0:
                raise ValueError("sigma must be nonnegative")
        else:
            raise ValueError(f"unknown mixer kind {kind!r}")

    def components(self, rng: np.random.Generator, size=None):
        """Component indices of a finite mixer: one uniform per draw against
        the weights' cdf, the values ``rng.choice(len(dists), size,
        p=weights)`` returns, without its per-call checks of ``p``."""
        return self.pick(rng.random(size))

    def pick(self, uniforms):
        """Component index of each uniform in ``[0, 1)``."""
        return self.cdf.searchsorted(uniforms, side="right")

    def draw(self, rng: np.random.Generator) -> OffspringDistribution:
        if self.kind == "finite":
            return self.dists[self.components(rng)]
        xi = self.mu + self.sigma * rng.standard_normal()
        return OffspringDistribution.geometric(mean=math.exp(xi))

    def to_config(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite",
                    "dists": [d.to_config() for d in self.dists],
                    "weights": [float(w) for w in self.weights]}
        return {"kind": "gaussian_logmean_geometric",
                "mu": self.mu, "sigma": self.sigma}

    @classmethod
    def from_config(cls, cfg: dict) -> "Mixer":
        cfg = dict(cfg)
        kind = cfg.pop("kind", None)
        if kind == "finite":
            check_keys(cfg, {"dists", "weights"}, "mixer")
            dists = [OffspringDistribution.from_config(d) for d in cfg["dists"]]
            return cls("finite", dists=dists, weights=cfg["weights"])
        if kind == "gaussian_logmean_geometric":
            check_keys(cfg, {"mu", "sigma"}, "mixer")
            return cls("gaussian_logmean_geometric",
                       mu=cfg["mu"], sigma=cfg["sigma"])
        raise ValueError(f"unknown mixer kind {kind!r}")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Description of the (possibly random) sequence of offspring laws."""

    kind: str
    dists: Optional[tuple] = None          # constant / explicit / periodic
    mixer: Optional[Mixer] = None          # iid_random / cooling
    block_lengths: Optional[tuple] = None  # cooling; None means doubling

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, dist: OffspringDistribution) -> "EnvironmentSpec":
        return cls("constant", dists=(dist,))

    @classmethod
    def explicit(cls, dists: Sequence[OffspringDistribution]) -> "EnvironmentSpec":
        if not dists:
            raise ValueError("explicit sequence must be nonempty")
        return cls("explicit_sequence", dists=tuple(dists))

    @classmethod
    def periodic(cls, dists: Sequence[OffspringDistribution]) -> "EnvironmentSpec":
        if not dists:
            raise ValueError("periodic pattern must be nonempty")
        return cls("periodic", dists=tuple(dists))

    @classmethod
    def iid_random(cls, mixer: Mixer) -> "EnvironmentSpec":
        return cls("iid_random", mixer=mixer)

    @classmethod
    def cooling(cls, mixer: Mixer, block_lengths=None) -> "EnvironmentSpec":
        bl = tuple(block_lengths) if block_lengths is not None else None
        if bl is not None and any(b < 1 for b in bl):
            raise ValueError("block lengths must be positive")
        return cls("cooling", mixer=mixer, block_lengths=bl)

    @property
    def is_random(self) -> bool:
        return self.kind in ("iid_random", "cooling")

    # -- resolution ---------------------------------------------------------

    def _cooling_block_index(self, i: int) -> int:
        """Block containing generation ``i`` (1-based)."""
        if self.block_lengths is not None:
            pos, b = 0, 0
            for b, ln in enumerate(self.block_lengths):
                pos += ln
                if i <= pos:
                    return b
            # beyond the configured schedule, repeat the last block length
            last = self.block_lengths[-1]
            return len(self.block_lengths) + (i - pos - 1) // last
        # doubling schedule: block j has length 2^j, so it covers
        # generations [2^j, 2^{j+1} - 1]
        return i.bit_length() - 1

    def stream_index(self, i):
        """Index of the stream (keyed ``(env_seed, index)``) that the law of
        generation ``i`` is drawn from, for a random spec: ``i`` itself
        (element-wise for an array) when i.i.d., the block index when
        cooling."""
        return self._cooling_block_index(i) if self.kind == "cooling" else i

    def dist_at(self, env_seed: int, i: int) -> OffspringDistribution:
        """Offspring law of generation ``i`` (1-based); deterministic in
        ``(spec, env_seed, i)``."""
        if i < 1:
            raise ValueError("generation index is 1-based")
        if self.kind == "constant":
            return self.dists[0]
        if self.kind == "explicit_sequence":
            if i > len(self.dists):
                raise ValueError(f"explicit sequence has length {len(self.dists)}")
            return self.dists[i - 1]
        if self.kind == "periodic":
            return self.dists[(i - 1) % len(self.dists)]
        return self.mixer.draw(substream(env_seed, self.stream_index(i)))

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.dists is not None:
            if self.kind == "constant":
                cfg["dist"] = self.dists[0].to_config()
            else:
                cfg["dists"] = [d.to_config() for d in self.dists]
        if self.mixer is not None:
            cfg["mixer"] = self.mixer.to_config()
        if self.kind == "cooling":
            cfg["schedule"] = (list(self.block_lengths)
                               if self.block_lengths is not None else "doubling")
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "EnvironmentSpec":
        cfg = dict(cfg)
        preset = cfg.pop("preset", None)
        if preset is not None:
            if cfg:
                raise ValueError("preset environments take no extra keys")
            if preset not in PRESETS:
                raise ValueError(f"unknown preset {preset!r}; "
                                 f"known: {sorted(PRESETS)}")
            return PRESETS[preset]()
        kind = cfg.pop("kind", None)
        if kind == "constant":
            check_keys(cfg, {"dist"}, "environment")
            return cls.constant(OffspringDistribution.from_config(cfg["dist"]))
        if kind == "explicit_sequence":
            check_keys(cfg, {"dists"}, "environment")
            return cls.explicit([OffspringDistribution.from_config(d)
                                 for d in cfg["dists"]])
        if kind == "periodic":
            check_keys(cfg, {"dists"}, "environment")
            return cls.periodic([OffspringDistribution.from_config(d)
                                 for d in cfg["dists"]])
        if kind == "iid_random":
            check_keys(cfg, {"mixer"}, "environment")
            return cls.iid_random(Mixer.from_config(cfg["mixer"]))
        if kind == "cooling":
            check_keys(cfg, {"mixer", "schedule"}, "environment",
                       optional={"schedule"})
            sched = cfg.get("schedule", "doubling")
            bl = None if sched == "doubling" else sched
            return cls.cooling(Mixer.from_config(cfg["mixer"]), block_lengths=bl)
        raise ValueError(f"unknown environment kind {kind!r}")


@dataclass
class QuenchedEnvironment:
    """A materialized environment prefix.

    ``dists[i-1]`` is the law of generation ``i``; ``s[n]`` is the sum of
    the first ``n`` log-means (``s[0] = 0``), Kahan-accumulated.
    Immutable by convention; safe to share across workers.
    """

    dists: List[OffspringDistribution]
    s: np.ndarray
    xi: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.xi is None:
            self.xi = np.diff(self.s)

    @property
    def horizon(self) -> int:
        return len(self.dists)

    def shifted(self, drop: int) -> "QuenchedEnvironment":
        """Drop the first ``drop`` generations and re-zero the log-mean sums."""
        if not (0 <= drop < self.horizon):
            raise ValueError("shift out of range")
        s = _kahan_cumsum(self.xi[drop:])
        return QuenchedEnvironment(self.dists[drop:], s)


def _kahan_cumsum(xs: np.ndarray) -> np.ndarray:
    """Compensated running sums along the last axis, after a leading 0.
    The rows of a 2-D ``xs`` are summed side by side, each with the same
    float operations in the same order as on its own."""
    out = np.zeros(xs.shape[:-1] + (xs.shape[-1] + 1,))
    # a single row steps faster through Python floats than numpy scalars
    steps = xs.T if xs.ndim == 2 and len(xs) > 1 else xs.ravel().tolist()
    total, comp = 0.0, 0.0
    for i, x in enumerate(steps, 1):
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[..., i] = total
    return out


def _laws(spec: EnvironmentSpec, env_seed: int,
          horizon: int) -> List[OffspringDistribution]:
    """Generation ``i`` gets ``spec.dist_at(env_seed, i)``; a cooling spec
    draws once per block and holds that law for the whole block."""
    if spec.kind != "cooling":
        return [spec.dist_at(env_seed, i) for i in range(1, horizon + 1)]
    dists, block = [], None
    for i in range(1, horizon + 1):
        b = spec.stream_index(i)
        if b != block:
            block, law = b, spec.dist_at(env_seed, i)
        dists.append(law)
    return dists


def quench(spec: EnvironmentSpec, env_seed: int, horizon: int) -> QuenchedEnvironment:
    """Materialize ``horizon`` generations of ``spec``; idempotent for fixed
    inputs.  Generation ``i`` gets ``spec.dist_at(env_seed, i)``; a cooling
    spec draws once per block and holds that law for the whole block."""
    return quench_many(spec, [env_seed], horizon)[0]


def quench_many(spec: EnvironmentSpec, env_seeds: Sequence[int],
                horizon: int) -> List[QuenchedEnvironment]:
    """``[quench(spec, s, horizon) for s in env_seeds]``, bitwise, computed
    together.  An i.i.d. finite mixer's draw for generation ``i`` is the
    first uniform of stream ``(s, i)`` against the weights' cdf, so all of
    them come from one :func:`first_uniforms` pass; other specs resolve
    each environment through ``dist_at``."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_QUENCH_HORIZON:
        raise ResourceWarningError(horizon)
    seeds = [int(s) for s in env_seeds]
    if spec.kind == "iid_random" and spec.mixer.kind == "finite":
        table = spec.mixer.dists
        picks = spec.mixer.pick(first_uniforms(
            np.array(seeds, dtype=object)[:, None],
            spec.stream_index(np.arange(1, horizon + 1, dtype=np.uint64))))
        laws = [[table[c] for c in row] for row in picks.tolist()]
        xi = np.array([d.log_mean for d in table])[picks]
    else:
        laws = [_laws(spec, s, horizon) for s in seeds]
        xi = np.array([[d.log_mean for d in row] for row in laws])
    xi = xi.reshape(len(laws), horizon)
    if not np.all(np.isfinite(xi)):
        raise ValueError("environment produced a non-finite log-mean")
    s = _kahan_cumsum(xi)
    return [QuenchedEnvironment(d, s_row, xi_row)
            for d, s_row, xi_row in zip(laws, s, xi)]


class ResourceWarningError(MemoryError):
    def __init__(self, horizon):
        super().__init__(
            f"horizon {horizon} exceeds the in-memory quench budget "
            f"({MAX_QUENCH_HORIZON})")


# -- presets ----------------------------------------------------------------

def _two_point_geometric_mixer(mu: float) -> Mixer:
    """Geometric offspring; log-mean is ``mu +/- log 2`` with equal weights."""
    up = OffspringDistribution.geometric(mean=math.exp(mu + math.log(2.0)))
    down = OffspringDistribution.geometric(mean=math.exp(mu - math.log(2.0)))
    return Mixer("finite", dists=[up, down], weights=[0.5, 0.5])


def critical_preset() -> EnvironmentSpec:
    """I.i.d. environment with zero-mean log-means (two-point, +/- log 2)."""
    return EnvironmentSpec.iid_random(_two_point_geometric_mixer(0.0))


def supercritical_preset() -> EnvironmentSpec:
    """I.i.d. environment with positive-mean log-means (drift 0.2)."""
    return EnvironmentSpec.iid_random(_two_point_geometric_mixer(0.2))


def subcritical_preset() -> EnvironmentSpec:
    """I.i.d. environment with negative-mean log-means (drift -0.2)."""
    return EnvironmentSpec.iid_random(_two_point_geometric_mixer(-0.2))


def cooling_preset() -> EnvironmentSpec:
    """Random environment held constant over doubling-length blocks."""
    return EnvironmentSpec.cooling(_two_point_geometric_mixer(0.2))


def heavy_tail_supercritical_preset() -> EnvironmentSpec:
    """Constant heavy-tail law: infinite variance, supercritical mean."""
    return EnvironmentSpec.constant(
        OffspringDistribution.power_law_tail(alpha=0.5, p0=0.2))


PRESETS = {
    "critical_two_point": critical_preset,
    "supercritical_mu0.2": supercritical_preset,
    "subcritical_mu0.2": subcritical_preset,
    "cooling_doubling_blocks": cooling_preset,
    "heavy_tail_supercritical": heavy_tail_supercritical_preset,
}
