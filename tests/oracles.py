"""References the tests compare the library against: draws of individual
offspring counts (an alias table for a finite pmf) and their sum per
generation, the cooling block walk, one generation's law drawn from its own
stream, and the per-column path spread.  No run path needs them, so they
live with the tests."""

from typing import Optional

import numpy as np

from bpve.distributions import OffspringDistribution
from bpve.streams import substream


def build_alias_table(probs: np.ndarray):
    """Vose alias table: O(K) setup, O(1) exact draws."""
    k = len(probs)
    accept = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    scaled = probs * k
    small = [i for i, v in enumerate(scaled) if v < 1.0]
    large = [i for i, v in enumerate(scaled) if v >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    for i in large + small:
        accept[i] = 1.0
        alias[i] = i
    return accept, alias


def sample(dist, rng: np.random.Generator, size: Optional[int] = None):
    """Exact draw(s) of one individual's offspring count under ``dist``."""
    n = 1 if size is None else size
    if dist.kind == "finite_pmf":
        accept, alias = build_alias_table(dist._pmf)
        idx = rng.integers(0, len(accept), size=n)
        keep = rng.random(n) < accept[idx]
        out = np.where(keep, idx, alias[idx]).astype(np.int64)
    elif dist.kind == "geometric":
        out = rng.geometric(1.0 - dist._q, size=n) - 1
    elif dist.kind == "poisson":
        out = rng.poisson(dist._lam, size=n)
    elif dist.kind == "linear_fractional":
        nonzero = rng.random(n) >= dist._p0
        out = nonzero * rng.geometric(1.0 - dist._q, size=n)
    else:
        nonzero = rng.random(n) >= dist._p0
        out = nonzero * rng.zipf(2.0 + dist._alpha, size=n)
    if size is None:
        return int(out[0])
    return out.astype(np.int64)


def sample_generation_total(dist, parents: int,
                            rng: np.random.Generator) -> int:
    """Scalar wrapper over ``dist.sample_generation_totals``."""
    if parents < 0:
        raise ValueError("parent count must be nonnegative")
    return int(dist.sample_generation_totals(
        np.array([parents], dtype=np.int64), rng)[0])


def cooling_block_index(spec, i: int) -> int:
    """Block of a cooling spec containing generation ``i`` (1-based), by a
    walk over its schedule in exact Python integers."""
    if spec.block_lengths is not None:
        pos, b = 0, 0
        for b, ln in enumerate(spec.block_lengths):
            pos += ln
            if i <= pos:
                return b
        # beyond the configured schedule, repeat the last block length
        last = spec.block_lengths[-1]
        return len(spec.block_lengths) + (i - pos - 1) // last
    # doubling schedule: block j has length 2^j, so it covers
    # generations [2^j, 2^{j+1} - 1]
    return i.bit_length() - 1


def law_at(spec, seed: int, i: int):
    """Offspring law of generation ``i`` (1-based) of a random spec, from the
    first uniforms of the generation's own stream, keyed by its cooling
    block or by ``i``: the mixer's component, or the geometric law of the
    drawn mean."""
    key = cooling_block_index(spec, i) if spec.kind == "cooling" else i
    mixer = spec.mixer
    _, law = mixer.sample(substream(seed, key).random(mixer.width))
    if mixer.kind == "finite":
        return mixer.dists[law]
    return OffspringDistribution.geometric(mean=float(law))


def path_spread(log_w: np.ndarray) -> np.ndarray:
    """``sup_t |Y(t) - Y(1)|`` of each row of a recorded ``log W`` path
    whose last column is generation ``n``, column by column; -1 for a
    replica not alive at ``n``."""
    w = np.exp(log_w)
    alive = log_w[:, -1] > -np.inf
    w -= w[:, -1:].copy()
    spread = np.abs(w, out=w).max(axis=1)
    spread[~alive] = -1.0
    return spread
