"""References the tests compare the library against: draws of individual
offspring counts (an alias table for a finite pmf) and their sum per
generation, the cooling block walk, one generation's law drawn from its own
stream, the exact survival probability and mean squared increment of the
normalized process in a quenched environment (the survival probability also
over many geometric environments at once), the exact law of ``W_n`` in
geometric and linear-fractional environments, and the per-column path
spread; each generation's law of a quenched environment; and the traced
peak memory of a call.  No run path needs them, so they live with the
tests."""

import math
import tracemalloc
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


def laws_of(env) -> list:
    """The law of each generation of the quenched environment ``env``, in
    order, read through its law table."""
    return [env.laws[k] for k in env.index.tolist()]


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
    return OffspringDistribution("geometric", mean=float(law))


def pgf(dist, s: float) -> float:
    """``E s^X`` of a law with a closed-form pgf: a finite pmf (Horner's
    rule), geometric, Poisson or linear-fractional."""
    if dist.kind == "finite_pmf":
        value = 0.0
        for p in dist._pmf[::-1].tolist():
            value = value * s + p
        return value
    if dist.kind == "geometric":
        return (1.0 - dist._q) / (1.0 - dist._q * s)
    if dist.kind == "poisson":
        return math.exp(dist._lam * (s - 1.0))
    if dist.kind == "linear_fractional":
        # Kersting & Vatutin 2017, Discrete Time Branching Processes in
        # Random Environment
        p0, q = dist._p0, dist._q
        return p0 + (1.0 - p0) * (1.0 - q) * s / (1.0 - q * s)
    raise ValueError(f"no closed-form pgf for {dist.kind}")


def survival_exact(env, n: int, z0: int = 1) -> float:
    """``P(Z_n > 0)`` from ``z0`` ancestors in the quenched environment
    ``env``: ``1 - (f_1 o ... o f_n)(0)^z0``, ``f_i`` generation ``i``'s
    pgf."""
    s = 0.0
    for dist in reversed(laws_of(env)[:n]):
        s = pgf(dist, s)
    return 1.0 - s**z0


def geometric_survival(means: np.ndarray) -> np.ndarray:
    """``P(Z_n > 0)`` from one ancestor in each row's environment of
    geometric laws, row ``r`` giving the means of generations ``1..n``:
    ``1 - (f_1 o ... o f_n)(0)``, ``f_i(s) = (1 - q_i) / (1 - q_i s)`` with
    ``q_i = m_i / (1 + m_i)``."""
    q = means / (1.0 + means)
    s = np.zeros(len(means))
    for j in range(means.shape[1] - 1, -1, -1):
        s = (1.0 - q[:, j]) / (1.0 - q[:, j] * s)
    return 1.0 - s


def w_exceedance(env, n: int, eps: float) -> float:
    """``P(W_n > eps)``, ``W_n = Z_n e^-S_n``, from one ancestor in the
    quenched environment ``env`` of geometric and linear-fractional laws.
    Generation ``i``'s pgf is the Mobius map of ``[[(1-p0)(1-q) - p0 q,
    p0], [-q, 1]]`` (a geometric law has ``p0 = 1 - q``: ``[[0, 1-q], [-q,
    1]]``), so ``f_1 o ... o f_n`` is that of the product ``[[a, b], [c,
    d]]``, normalised after each step: ``P(Z_n = 0) = b/d``, and given
    ``Z_n > 0``, ``Z_n`` is geometric on ``{1, 2, ...}`` with ratio ``-c/d``
    (Kersting & Vatutin 2017).  ``W_n > eps`` exactly when ``Z_n >
    floor(eps e^S_n)``."""
    m = np.eye(2)
    for dist in laws_of(env)[:n]:
        q = dist._q
        p0 = 1.0 - q if dist.kind == "geometric" else dist._p0
        m = m @ np.array([[(1.0 - p0) * (1.0 - q) - p0 * q, p0], [-q, 1.0]])
        m /= np.abs(m).max()
    (_, b), (c, d) = m.tolist()
    return (1.0 - b / d) * (-c / d) ** math.floor(
        eps * math.exp(float(env.s[n])))


def l2_exact(env, k: int, n: int, m: int) -> float:
    """``E(W_{n+m} - W_n)^2`` from ``k`` ancestors in the quenched
    environment ``env``: ``k * sum_{j=n+1..n+m} nu_j exp(-S_{j-1})``,
    ``nu_j`` generation ``j``'s normalized variance.  The increments
    ``W_j - W_{j-1}`` are orthogonal, each with conditional variance
    ``Z_{j-1} nu_j exp(-2 S_{j-1})`` given ``Z_{j-1}``, whose mean is ``k
    exp(S_{j-1})``."""
    dists = laws_of(env)
    return k * math.fsum(dists[j - 1].normalized_variance
                         * math.exp(-float(env.s[j - 1]))
                         for j in range(n + 1, n + m + 1))


def path_spread(log_w: np.ndarray) -> np.ndarray:
    """``sup_t |Y(t) - Y(1)|`` of each replica alive at generation ``n``,
    in row order, column by column over a recorded ``log W`` path whose
    last column is generation ``n``."""
    w = np.exp(log_w[log_w[:, -1] > -np.inf])
    w -= w[:, -1:].copy()
    return np.abs(w, out=w).max(axis=1)


def traced_peak(run) -> int:
    """Peak of the memory tracemalloc sees allocated during ``run()``;
    ``run`` may read ``tracemalloc.get_traced_memory()`` itself."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
