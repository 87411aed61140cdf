"""The block kernel against a reference: the masked full-width recursion it
replaced, kept here as an oracle.  Both consume the random streams the same
way, so extinction masks must agree exactly and ``log W`` to rounding; the
annealed reference also takes the kernel's float operations, so there the
two agree bitwise.  The running extremes of ``log W`` agree the same way,
and the path spread taken from them equals, bit for bit, the spread taken
column by column over a recorded path (``oracles.path_spread``)."""

import math

import numpy as np
import pytest

from bpve import distributions, estimators
from bpve.distributions import OffspringDistribution
from bpve.environment import EnvironmentSpec, Mixer, quench
from bpve.simulate import (AnnealedLaws, QuenchedLaws, log_switch_threshold,
                           simulate_block, stretched_indices)
from bpve.streams import substream
import oracles
from oracles import cooling_block_index


def _log_or_frozen(frozen, logz, z):
    with np.errstate(divide="ignore"):
        return np.where(frozen, logz,
                        np.where(z > 0, np.log(np.maximum(z, 1)), -np.inf))


def reference_quenched(env, z0, n, rng, size, record, span=()):
    """log W at ``record``, and its minimum and maximum over the
    generations ``span`` (``+inf`` and ``-inf`` over none).  Before a
    generation's draws, a replica whose total could pass ``2**62`` switches
    one generation early and keeps that generation's log-mean."""
    pos = {idx: j for j, idx in enumerate(record)}
    span = set(span)
    z = np.full(size, z0, dtype=np.int64)
    logz = np.full(size, math.log(z0))
    frozen = np.zeros(size, dtype=bool)
    out = np.empty((size, len(record)))
    lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
    cur = np.full(size, math.log(z0) - env.s[0])
    for i in range(n + 1):
        if i > 0:
            dist, xi = env.dists[i - 1], float(env.xi[i - 1])
            logz[frozen] += xi
            act = (~frozen) & (z > 0)
            early = act & (z * max(dist.mean, 1.0) > 2**62)
            frozen[early] = True
            logz[early] = np.log(z[early].astype(float)) + xi
            act &= ~early
            if act.any():
                z[act] = dist.sample_generation_totals(z[act], rng)
            newly = act & (z > log_switch_threshold(dist))
            frozen[newly] = True
            logz[newly] = np.log(z[newly].astype(float))
            cur = _log_or_frozen(frozen, logz, z) - env.s[i]
        if i in pos:
            out[:, pos[i]] = cur
        if i in span:
            lo, hi = np.minimum(lo, cur), np.maximum(hi, cur)
    return out, lo, hi


def reference_annealed(spec, z0, n, env_rng, rep_rng, size, record, span=()):
    """log W at ``record``, the generation each replica switched to log
    scale (else -1), whether it switched early, and the minimum and maximum
    of log W over the generations ``span``, from a full-width
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
    span = set(span)
    lo = np.full(size, math.log(z0) if 0 in span else np.inf)
    hi = np.full(size, math.log(z0) if 0 in span else -np.inf)
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
        with np.errstate(divide="ignore"):
            cur = np.where(frozen, frozen_w, np.log(z) - svec)
        if i in pos:
            out[:, pos[i]] = cur
        if i in span:
            lo, hi = np.minimum(lo, cur), np.maximum(hi, cur)
    return out, frozen_at, switched_early, lo, hi


def assert_same(ref, got):
    """Equal infinities, finite values equal to rounding."""
    for sign in (-1, 1):
        assert np.array_equal(ref == sign * np.inf, got == sign * np.inf)
    fin = np.isfinite(ref)
    assert np.all(np.isfinite(got[fin]))
    assert np.max(np.abs(ref[fin] - got[fin]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("case", ["reference_pmf", "heavy_tail",
                                  "early_switch"])
def test_quenched_kernel_matches_reference(case):
    if case == "reference_pmf":
        spec = EnvironmentSpec("constant", dists=(
            OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5]),))
        z0, n = 2, 150  # crosses the 1e12 switch near generation 122
    elif case == "heavy_tail":
        spec = EnvironmentSpec.from_config(
            {"preset": "heavy_tail_supercritical"})
        z0, n = 1, 60
    else:
        # 3e9 parents of Poisson(3e9) could pass 2**62: every replica
        # switches before generation 2's draws
        spec = EnvironmentSpec("constant", dists=(
            OffspringDistribution("poisson", lam=3e9),))
        z0, n = 1, 6
    env = quench(spec, 1, n)
    record = [0, 1, n // 2, n - 1, n]
    for span in (range(n + 1), range(1, n + 1), (), [0, n // 2],
                 [1, n // 3, n - 1]):
        ref, lo, hi = reference_quenched(env, z0, n, substream(21, 0), 3000,
                                         record, span)
        block = simulate_block(QuenchedLaws(env), z0, n, 3000,
                               substream(21, 0), record, extremes=span)
        assert_same(ref, block.log_w)
        assert_same(lo, block.lo)
        assert_same(hi, block.hi)
        if span == range(1, n + 1):
            # the halving flags read off the minimum
            assert np.array_equal(lo < math.log(z0 / 2.0),
                                  block.lo < math.log(z0 / 2.0))
    if case == "early_switch":
        assert (block.frozen_at == 1).all()
    else:
        assert (block.frozen_at >= 0).any() and np.isneginf(ref[:, -1]).any()


def test_extremes_are_allocated_only_on_request(gw_dist):
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 10)
    block = simulate_block(QuenchedLaws(env), 1, 10, 50, substream(3, 0),
                           [10])
    assert block.lo is None and block.hi is None
    with pytest.raises(ValueError, match="tracked generations"):
        simulate_block(QuenchedLaws(env), 1, 10, 50, substream(3, 0), [10],
                       extremes=[3, 11])


@pytest.mark.parametrize("case", ["reference_pmf", "heavy_tail",
                                  "cooling_gaussian"])
@pytest.mark.parametrize("grid_size", [9, 33, 10**6])
def test_path_spread_matches_per_column_reference(case, grid_size):
    # mc_flt_discrepancy's spread from the tracked extremes of log W equals,
    # bit for bit, the one taken column by column over the recorded path
    spec = {
        "reference_pmf": EnvironmentSpec("constant", dists=(
            OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5]),)),
        "heavy_tail": EnvironmentSpec.from_config(
            {"preset": "heavy_tail_supercritical"}),
        "cooling_gaussian": EnvironmentSpec("cooling", mixer=Mixer(
            "gaussian_logmean_geometric", mu=0.5, sigma=0.3)),
    }[case]
    n = 256
    env = quench(spec, 4, n)
    grid = np.linspace(0.0, 1.0, min(grid_size, n - math.isqrt(n) + 2))
    idx = np.unique(stretched_indices(n, grid)).tolist()
    path = simulate_block(QuenchedLaws(env), 1, n, 3000, substream(8, 1),
                          idx).log_w
    block = simulate_block(QuenchedLaws(env), 1, n, 3000, substream(8, 1),
                           [n], extremes=idx)
    want, got = oracles.path_spread(path), estimators._path_spread(block)
    assert want.tobytes() == got.tobytes()
    # some replicas died before n, and some spreads are positive
    assert 0 < len(got) < 3000 and (want > 0.0).any()


def annealed_against_reference(spec, size, n, record, span):
    """The kernel's annealed block and the reference's, on the same
    streams; the two agree bitwise.  Returns the reference's results."""
    ref, ref_frozen_at, early, lo, hi = reference_annealed(
        spec, 1, n, substream(5, 0), substream(6, 0), size, record, span)
    laws = AnnealedLaws(spec, substream(5, 0), size)
    block = simulate_block(laws, 1, n, size, substream(6, 0), record,
                           extremes=span)
    assert np.array_equal(ref, block.log_w)
    assert np.array_equal(ref_frozen_at, block.frozen_at)
    assert np.array_equal(lo, block.lo) and np.array_equal(hi, block.hi)
    assert np.isneginf(ref[:, -1]).any() and np.isfinite(ref[:, -1]).any()
    return ref_frozen_at, early


TWO_POINT = EnvironmentSpec.from_config({"preset": "critical_two_point"}).mixer
# groups that switch at different sizes, 4000 and 1e12, so replicas leave
# the working arrays from one group while the other stays
POWER_TAIL_GEOMETRIC = Mixer("finite", dists=[
    OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2),
    OffspringDistribution("geometric", mean=0.8)], weights=[0.5, 0.5])


@pytest.mark.parametrize("mixer", [
    TWO_POINT,
    Mixer("gaussian_logmean_geometric", mu=0.3, sigma=0.8),
    POWER_TAIL_GEOMETRIC,
    # after one Poisson(3e9) generation, the next could pass 2**62: those
    # replicas switch one generation early
    Mixer("finite", dists=[
        OffspringDistribution("poisson", lam=3e9),
        OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5])],
          weights=[0.3, 0.7]),
])
@pytest.mark.parametrize("cooling", [False, True])
def test_annealed_kernel_matches_reference(mixer, cooling):
    spec = (EnvironmentSpec("cooling", mixer=mixer) if cooling
            else EnvironmentSpec("iid_random", mixer=mixer))
    _, early = annealed_against_reference(
        spec, 3000, 80, [0, 8, 40, 80], [0, *range(5, 30), 60, 79])
    poisson = mixer.kind == "finite" and mixer.dists[0].kind == "poisson"
    assert early.sum() > 100 if poisson else not early.any()


@pytest.mark.parametrize("mixer", [
    TWO_POINT, Mixer("gaussian_logmean_geometric", mu=0.3, sigma=0.8),
    POWER_TAIL_GEOMETRIC,
], ids=["finite", "gaussian", "power_tail_geometric"])
@pytest.mark.parametrize("cooling", [False, True], ids=["iid", "cooling"])
def test_annealed_kernel_matches_reference_past_a_row_chunk(mixer, cooling):
    # 20,000 replicas: the Gaussian totals are drawn in several passes of
    # GeometricRows.step rows, while the groups take their positions from
    # masks
    size = 20000
    assert size > distributions.ROW_CHUNK
    spec = (EnvironmentSpec("cooling", mixer=mixer) if cooling
            else EnvironmentSpec("iid_random", mixer=mixer))
    frozen_at, _ = annealed_against_reference(spec, size, 12, [0, 4, 12],
                                              [0, *range(3, 9), 12])
    assert (frozen_at >= 0).any() == (mixer is POWER_TAIL_GEOMETRIC)


@pytest.mark.parametrize("mixer", [
    EnvironmentSpec.from_config({"preset": "critical_two_point"}).mixer,
    Mixer("gaussian_logmean_geometric", mu=0.0, sigma=0.5),
], ids=["finite", "gaussian"])
@pytest.mark.parametrize("cooling", [False, True], ids=["iid", "cooling"])
def test_annealed_block_draws_only_for_live_replicas(mixer, cooling):
    # at each new stream key the environment stream gives the mixer's
    # uniforms (one finite, two Gaussian) per replica alive then: every
    # generation when i.i.d., at each block start when cooling
    spec = (EnvironmentSpec("cooling", mixer=mixer) if cooling
            else EnvironmentSpec("iid_random", mixer=mixer))
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
