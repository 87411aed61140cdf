"""The block kernel against a reference: the masked full-width recursion it
replaced, kept here as an oracle.  Both consume the random streams the same
way, so extinction masks must agree exactly and ``log W`` to rounding; the
annealed reference also takes the kernel's float operations, so there the
two agree bitwise."""

import math

import numpy as np
import pytest

from bpve.distributions import OffspringDistribution
from bpve.environment import EnvironmentSpec, Mixer, PRESETS, quench
from bpve.simulate import (AnnealedLaws, QuenchedLaws, log_switch_threshold,
                           simulate_block)
from bpve.streams import substream
from oracles import cooling_block_index


def _log_or_frozen(frozen, logz, z):
    with np.errstate(divide="ignore"):
        return np.where(frozen, logz,
                        np.where(z > 0, np.log(np.maximum(z, 1)), -np.inf))


def reference_quenched(env, z0, n, rng, size, record):
    """log W at ``record`` and halving flags (relative to generation 0)."""
    pos = {idx: j for j, idx in enumerate(record)}
    z = np.full(size, z0, dtype=np.int64)
    logz = np.full(size, math.log(z0))
    frozen = np.zeros(size, dtype=bool)
    out = np.empty((size, len(record)))
    if 0 in pos:
        out[:, pos[0]] = math.log(z0) - env.s[0]
    halv = np.zeros(size, dtype=bool)
    for i in range(1, n + 1):
        dist = env.dists[i - 1]
        logz[frozen] += float(env.xi[i - 1])
        act = (~frozen) & (z > 0)
        if act.any():
            z[act] = dist.sample_generation_totals(z[act], rng)
        newly = act & (z > log_switch_threshold(dist))
        frozen[newly] = True
        logz[newly] = np.log(z[newly].astype(float))
        cur = _log_or_frozen(frozen, logz, z)
        if i in pos:
            out[:, pos[i]] = cur - env.s[i]
        halv |= cur - env.s[i] < math.log(z0 / 2.0)
    return out, halv


def reference_annealed(spec, z0, n, env_rng, rep_rng, size, record):
    """log W at ``record``, the generation each replica switched to log
    scale (else -1) and whether it switched early, from a full-width
    recursion with the kernel's float operations, so the two agree
    bitwise.  Before a generation's draws, a replica whose total could pass
    ``2**62`` switches one generation early and keeps that generation's
    log-mean."""
    mixer = spec.mixer
    pos = {idx: j for j, idx in enumerate(record)}
    z = np.full(size, z0, dtype=np.int64)
    frozen = np.zeros(size, dtype=bool)
    frozen_w = np.zeros(size)  # log W of a switched replica
    frozen_at = np.full(size, -1)
    switched_early = np.zeros(size, dtype=bool)
    svec = np.zeros(size)
    out = np.empty((size, len(record)))
    if 0 in pos:
        out[:, pos[0]] = math.log(z0)
    prev_block = None
    for i in range(1, n + 1):
        block = cooling_block_index(spec, i) if spec.kind == "cooling" else i
        if block != prev_block:
            prev_block = block
            # only the replicas alive here draw, in index order; the others
            # add nothing to their log-means from here on
            live = (~frozen) & (z > 0)
            xi = np.zeros(size)
            if mixer.kind == "finite":
                comp = np.full(size, -1)
                comp[live] = env_rng.choice(len(mixer.dists),
                                            size=int(live.sum()),
                                            p=mixer.weights)
                xi[live] = np.array([d.log_mean
                                     for d in mixer.dists])[comp[live]]
                mean = np.array([d.mean for d in mixer.dists])[comp]
            else:
                # Box-Muller: the normal of each replica's two uniforms
                u = env_rng.random((int(live.sum()), 2))
                normal = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(
                    2.0 * math.pi * u[:, 1])
                xi[live] = mixer.mu + mixer.sigma * normal
                q = np.exp(xi) / (1.0 + np.exp(xi))
                mean = q / (1.0 - q)
        svec += xi
        act = (~frozen) & (z > 0)
        early = act & (z * np.maximum(mean, 1.0) > 2**62)
        frozen_w[early] = np.log(z[early]) + xi[early] - svec[early]
        frozen[early], frozen_at[early] = True, i - 1
        switched_early |= early
        act &= ~early
        if mixer.kind == "finite":
            laws = [(comp == c, dist, log_switch_threshold(dist))
                    for c, dist in enumerate(mixer.dists)]
        else:
            laws = [(True, None, 10**12)]
        for in_law, dist, switch in laws:
            sel = act & in_law
            if not sel.any():
                continue
            if dist is None:
                z[sel] = rep_rng.negative_binomial(z[sel], 1.0 - q[sel])
            else:
                z[sel] = dist.sample_generation_totals(z[sel], rep_rng)
            newly = sel & (z > switch)
            frozen[newly], frozen_at[newly] = True, i
            frozen_w[newly] = np.log(z[newly]) - svec[newly]
        if i in pos:
            with np.errstate(divide="ignore"):
                out[:, pos[i]] = np.where(frozen, frozen_w,
                                          np.log(z) - svec)
    return out, frozen_at, switched_early


def assert_same(ref, got):
    dead = np.isneginf(ref)
    assert np.array_equal(dead, np.isneginf(got))
    assert np.all(np.isfinite(got[~dead]))
    assert np.max(np.abs(ref[~dead] - got[~dead]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("case", ["reference_pmf", "heavy_tail"])
def test_quenched_kernel_matches_reference(case):
    if case == "reference_pmf":
        spec = EnvironmentSpec.constant(
            OffspringDistribution.finite_pmf([0.25, 0.25, 0.5]))
        z0, n = 2, 150  # crosses the 1e12 switch near generation 122
    else:
        spec, z0, n = PRESETS["heavy_tail_supercritical"](), 1, 60
    env = quench(spec, 1, n)
    record = [0, 1, n // 2, n - 1, n]
    ref, ref_halv = reference_quenched(env, z0, n, substream(21, 0), 3000,
                                       record)
    block = simulate_block(QuenchedLaws(env), z0, n, 3000, substream(21, 0),
                           record, low=True)
    assert_same(ref, block.log_w)
    assert np.array_equal(ref_halv, block.low < math.log(z0 / 2.0))
    assert (block.frozen_at >= 0).any() and np.isneginf(ref[:, -1]).any()


@pytest.mark.parametrize("mixer", [
    PRESETS["critical_two_point"]().mixer,
    Mixer("gaussian_logmean_geometric", mu=0.3, sigma=0.8),
    # groups that switch at different sizes, 4000 and 1e12, so replicas
    # leave the working arrays from one group while the other stays
    Mixer("finite", dists=[OffspringDistribution.power_law_tail(0.5, 0.2),
                           OffspringDistribution.geometric(0.8)],
          weights=[0.5, 0.5]),
    # after one Poisson(3e9) generation, the next could pass 2**62: those
    # replicas switch one generation early
    Mixer("finite", dists=[OffspringDistribution.poisson(3e9),
                           OffspringDistribution.finite_pmf([0.25, 0.25,
                                                             0.5])],
          weights=[0.3, 0.7]),
])
@pytest.mark.parametrize("cooling", [False, True])
def test_annealed_kernel_matches_reference(mixer, cooling):
    spec = (EnvironmentSpec.cooling(mixer) if cooling
            else EnvironmentSpec.iid_random(mixer))
    n, record = 80, [0, 8, 40, 80]
    ref, ref_frozen_at, early = reference_annealed(
        spec, 1, n, substream(5, 0), substream(6, 0), 3000, record)
    laws = AnnealedLaws(spec, substream(5, 0), 3000)
    block = simulate_block(laws, 1, n, 3000, substream(6, 0), record)
    assert np.array_equal(ref, block.log_w)
    assert np.array_equal(ref_frozen_at, block.frozen_at)
    assert np.isneginf(ref[:, -1]).any() and np.isfinite(ref[:, -1]).any()
    poisson = mixer.kind == "finite" and mixer.dists[0].kind == "poisson"
    assert early.sum() > 100 if poisson else not early.any()


@pytest.mark.parametrize("mixer", [
    PRESETS["critical_two_point"]().mixer,
    Mixer("gaussian_logmean_geometric", mu=0.0, sigma=0.5),
], ids=["finite", "gaussian"])
@pytest.mark.parametrize("cooling", [False, True], ids=["iid", "cooling"])
def test_annealed_block_draws_only_for_live_replicas(mixer, cooling):
    # at each new stream key the environment stream gives the mixer's
    # uniforms (one finite, two Gaussian) per replica alive then: every
    # generation when i.i.d., at each block start when cooling
    spec = (EnvironmentSpec.cooling(mixer) if cooling
            else EnvironmentSpec.iid_random(mixer))
    n, size = 24, 3000
    env_rng = substream(5, 0)
    block = simulate_block(AnnealedLaws(spec, env_rng, size), 1, n, size,
                           substream(6, 0), range(n + 1))
    assert (block.frozen_at < 0).all()
    # replicas alive entering generation i, for i = 1..n
    live = (block.log_w[:, :-1] > -np.inf).sum(axis=0)
    keys = [spec.stream_index(i) for i in range(1, n + 1)]
    starts = [j for j in range(n) if j == 0 or keys[j] != keys[j - 1]]
    assert len(starts) == (5 if cooling else n)
    assert live[starts].sum() < size * len(starts) // 2
    want = substream(5, 0)
    for k in live[starts].tolist():
        want.random((k, 1 if mixer.kind == "finite" else 2))
    # both streams stand at the same position
    assert env_rng.random(8).tolist() == want.random(8).tolist()
