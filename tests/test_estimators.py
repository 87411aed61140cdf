import itertools
import math

import numpy as np
import pytest

from bpve import estimators
from bpve.cli import jsonable
from bpve.distributions import NotApplicableError, OffspringDistribution
from bpve.environment import EnvironmentSpec, Mixer, quench, quench_many
from bpve.estimators import (mc_conditioned_critical, mc_flt_discrepancy, mc_halving_bound,
                             mc_increment_covariance, mc_l2_increment,
                             mc_l2_span, mc_survival, mc_w_positivity)
from oracles import geometric_survival, l2_exact, survival_exact, traced_peak


@pytest.fixture(scope="module")
def gw_env200(gw_dist):
    return quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 200)


def run_w(env, z0, record, replicas, seed, threads):
    """``W`` at the generations ``record`` of every replica, one row each,
    joined in block order from the block runner on the real kernel."""
    w = np.concatenate(estimators._reduce_blocks(
        estimators._quenched(env, record[-1]), z0, record[-1], record,
        replicas, seed, threads, lambda b, block: block.log_w))
    return np.exp(w, out=w)


def test_reduce_blocks_thread_count_invariance(gw_env200):
    # spans four blocks; merged results must not depend on the worker count
    a = run_w(gw_env200, 1, [10, 50], 70000, 99, threads=1)
    b = run_w(gw_env200, 1, [10, 50], 70000, 99, threads=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("replicas", [1, 2, 3, 25000, 65537, 100000, 10**6])
def test_block_partition_is_even_and_balanced(replicas):
    sizes = estimators._map_blocks(replicas, estimators.DEFAULT_BLOCK,
                                   lambda b, size: size, threads=1)
    assert sum(sizes) == replicas
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= estimators.DEFAULT_BLOCK
    assert len(sizes) % 2 == 0 or replicas == 1


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("replicas", [1, 7, 65537, 100000])
def test_reduce_blocks_returns_each_block_once_in_block_order(
        monkeypatch, replicas, threads):
    # a stand-in kernel hands each block its laws: rows of block b hold b
    monkeypatch.setattr(estimators, "simulate_block", lambda laws, *_: laws)
    got = estimators._reduce_blocks(lambda b, size: np.full(size, b), 1, 0,
                                    [0], replicas, 0, threads,
                                    lambda b, block: (b, block))
    sizes = estimators._map_blocks(replicas, estimators.DEFAULT_BLOCK,
                                   lambda b, size: size, threads=1)
    assert [b for b, _ in got] == list(range(len(sizes)))
    assert np.array_equal(np.concatenate([block for _, block in got]),
                          np.repeat(np.arange(len(sizes)), sizes))


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 8191, 8192,
                               8193, 10**5 + 3])
def test_sample_mean_is_numpy_mean_and_std_bit_for_bit(n):
    rng = np.random.default_rng(n)
    # mixed magnitudes, with a third of the entries repeating a few values
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
    x[rng.integers(0, n, n // 3)] = x[rng.integers(0, 2, n // 3)]
    want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))
    est = estimators.McEstimate.from_moments(estimators._moments(x.copy()),
                                             7)
    assert [v.hex() for v in (est.value, est.std_error)] == \
        [v.hex() for v in want]
    assert (est.replicas, est.master_seed) == (n, 7)


def test_conditioned_critical_peak_memory_grows_with_survivors_only():
    # each block keeps only the log W rows alive at the first checkpoint,
    # about 5% of them at n 32, so five times the replicas adds little to
    # the blocks in flight
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    small, large = (traced_peak(lambda: mc_conditioned_critical(
        spec, [32, 64, 128], r, 3, threads=1))
        for r in (6 * 10**4, 3 * 10**5))
    assert large <= 1.2 * small


def largest_block(replicas: int) -> int:
    return max(estimators._map_blocks(replicas, estimators.DEFAULT_BLOCK,
                                      lambda b, size: size, threads=1))


def test_l2_span_peak_memory_does_not_grow_with_replicas(gw_env200):
    # each block of the L2 span and of the increment covariance reduces to
    # (count, mean, M2), so one thread holds one block at a time whatever
    # the replica count; the blocks of 10^6 replicas (31,250) are larger
    # than those of 10^5 (25,000), and so is their peak
    for estimate, m in ((mc_l2_span, 1), (mc_increment_covariance, 2)):
        small, large = (traced_peak(lambda: estimate(gw_env200, 1, 0, m, r, 3,
                                                     threads=1))
                        for r in (10**5, 10**6))
        assert large <= 1.2 * small * (largest_block(10**6)
                                       / largest_block(10**5)), estimate


def test_flt_peak_memory_does_not_grow_with_grid_size(gw_env200):
    # a block tracks the extremes of log W over the grid and records only
    # generation n, so its memory does not depend on the grid's size
    def run(grid_size):
        return traced_peak(lambda: mc_flt_discrepancy(
            gw_env200, [196], 20000, 3, grid_size=grid_size, threads=1))

    run(2)  # the first run allocates once what later runs reuse
    assert run(33) <= 1.2 * run(2)


def test_reduce_blocks_w_mean_one(gw_env200):
    w = run_w(gw_env200, 1, [30], 50000, 12, threads=4)[:, 0]
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 4 * se


def test_mc_survival_small(gw_env200):
    est = mc_survival(gw_env200, 1, 100, 30000, 8, threads=4)
    assert abs(est.value - 0.5) < 4 * est.std_error
    assert est.replicas == 30000


def test_mc_survival_monotone_in_n(gw_env200):
    # survival can only decrease with the horizon on the same replicas: one
    # seed gives both runs the same draws up to generation 20
    early = mc_survival(gw_env200, 1, 20, 30000, 8, threads=4)
    late = mc_survival(gw_env200, 1, 100, 30000, 8, threads=4)
    assert late.value <= early.value


def brute_extinction(laws, z0: int, kmax: int = 60) -> float:
    """``P(Z = 0)`` after ``laws``, one per generation, from ``z0``
    ancestors, by convolving the pmfs up to ``kmax`` individuals: exact but
    for the mass past ``kmax``, whose descendants all die with probability
    below ``p0^kmax``."""
    law_z = np.eye(1, kmax + 1, z0)[0]
    for law in laws:
        pmf = law.pmf_vector(np.arange(kmax + 1))
        fold, new = np.eye(1, kmax + 1)[0], np.zeros(kmax + 1)
        for parents in law_z.tolist():  # fold: the pmf of that many parents
            new += parents * fold
            fold = np.convolve(fold, pmf)[:kmax + 1]
        law_z = new
    return float(law_z[0])


EXACT_LAWS = [OffspringDistribution("finite_pmf", pmf=[0.2, 0.3, 0.5]),
              OffspringDistribution("geometric", mean=1.3),
              OffspringDistribution("poisson", lam=0.9),
              OffspringDistribution("linear_fractional", p0=0.25, q=0.4)]


@pytest.mark.parametrize("z0", [1, 2])
def test_survival_exact_matches_brute_force_convolution(z0):
    for laws in itertools.permutations(EXACT_LAWS, 3):
        env = quench(EnvironmentSpec("explicit_sequence", dists=laws), 0, 3)
        assert survival_exact(env, 3, z0) == pytest.approx(
            1.0 - brute_extinction(laws, z0), abs=1e-12)


def mixed_sequence(n: int) -> tuple:
    """``n`` laws that cycle through the Poisson, linear-fractional and
    finite-pmf families, with parameters that vary along the sequence."""
    laws = []
    for i in range(n):
        t = (7 * i % 11) / 10.0
        laws.append(
            OffspringDistribution("poisson", lam=0.8 + 0.6 * t) if i % 3 == 0
            else OffspringDistribution("linear_fractional", p0=0.2 + 0.2 * t,
                                       q=0.4) if i % 3 == 1
            else OffspringDistribution("finite_pmf",
                                       pmf=[0.3 - 0.2 * t, 0.3, 0.4 + 0.2 * t]))
    return tuple(laws)


QUENCHED_SPECS = {
    "supercritical_mu0.2": EnvironmentSpec.from_config(
        {"preset": "supercritical_mu0.2"}),
    "cooling_gaussian": EnvironmentSpec("cooling", mixer=Mixer(
        "gaussian_logmean_geometric", mu=0.1, sigma=0.3),
        block_lengths=(5, 10, 20)),
    "iid_gaussian": EnvironmentSpec("iid_random", mixer=Mixer(
        "gaussian_logmean_geometric", mu=0.05, sigma=0.5)),
    "explicit_mixed": EnvironmentSpec("explicit_sequence",
                                      dists=mixed_sequence(200)),
}


@pytest.mark.parametrize("env_seed", [1, 2])
@pytest.mark.parametrize("name", sorted(QUENCHED_SPECS))
def test_mc_survival_matches_exact_survival(name, env_seed):
    # within the bench's 4.5 standard errors, taken as the exact value's
    # binomial one: the estimate's own is 0 when no replica survives
    env = quench(QUENCHED_SPECS[name], env_seed, 200)
    exact = survival_exact(env, 200)
    est = mc_survival(env, 1, 200, 10**5, env_seed, threads=2)
    se = math.sqrt(exact * (1.0 - exact) / 10**5)
    assert abs(est.value - exact) <= 4.5 * se, (est.value, exact)


@pytest.mark.parametrize("k,n,m", [(1, 0, 40), (3, 5, 20)])
@pytest.mark.parametrize("name", sorted(QUENCHED_SPECS))
def test_mc_l2_span_matches_exact_l2(name, k, n, m):
    # within the bench's 4.5 standard errors
    env = quench(QUENCHED_SPECS[name], 3, n + m)
    exact = l2_exact(env, k, n, m)
    est = mc_l2_span(env, k, n, m, 10**5, 17, threads=2)
    assert abs(est.value - exact) <= 4.5 * est.std_error, (est, exact)


def test_l2_exact_is_the_one_step_second_moment(gw_env200):
    # nu = 0.44 on the reference law, with S_0 = 0 and S_1 = log 1.25
    assert l2_exact(gw_env200, 1, 0, 1) == pytest.approx(0.44, rel=1e-14)
    assert l2_exact(gw_env200, 2, 1, 1) == pytest.approx(0.88 / 1.25,
                                                         rel=1e-14)


def test_w_positivity_plateau(gw_env200):
    eps = list(np.logspace(-4, -2, 9))
    chk = mc_w_positivity(gw_env200, 1, 150, eps, 40000, 13, threads=4)
    assert chk.plateau_window is not None
    lo, hi = chk.plateau_window
    assert hi / lo >= 10.0
    assert abs(chk.gap) < 3 * 2 * chk.p_survive.std_error + 1e-9
    # exceedance is monotone decreasing in the threshold
    vals = [chk.p_w_above[e].value for e in sorted(chk.p_w_above)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_l2_increment_identity(gw_env200):
    est = mc_l2_increment(gw_env200, 1, 1, 200000, 5, threads=4)
    # [DERIVED] one-step second moment: 0.44 per unit ancestor
    assert abs(est.value - 0.44) < 3 * est.std_error
    # with k ancestors the one-step second moment scales linearly in k
    est_k = mc_l2_increment(gw_env200, 10, 1, 200000, 5, threads=4)
    assert abs(est_k.value - 4.4) < 3 * est_k.std_error


def test_l2_increment_later_step(gw_env200):
    # [DERIVED] E(W_2 - W_1)^2 = zeta / m = 0.44 * 0.8 = 0.352 at k = 1
    est = mc_l2_increment(gw_env200, 1, 2, 200000, 6, threads=4)
    assert abs(est.value - 0.352) < 3 * est.std_error


def test_increment_covariance_zero(gw_env200):
    # later increment W_2 - W_1 against the earlier span W_1 - W_0
    est = mc_increment_covariance(gw_env200, 1, 0, 2, 300000, 9, threads=4)
    assert est.std_error > 0
    assert abs(est.value) < 3 * est.std_error


def test_l2_span_bounded_by_series(gw_env200):
    # [DERIVED] E(W_{1+m} - W_1)^2 = 0.44 * sum_{j=1..m} 0.8^j, < 2.2 always
    for m in (1, 10):
        est = mc_l2_span(gw_env200, 1, 1, m, 100000, 10, threads=4)
        oracle = 0.44 * sum(0.8**j for j in range(1, m + 1))
        assert abs(est.value - oracle) < 4 * est.std_error
        assert est.value <= 2.2 + 3 * est.std_error


def test_halving_bound_certified(gw_dist):
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 402)
    res = mc_halving_bound(env, 64, 0, 400, 20000, 11, threads=4)
    assert res.bound == pytest.approx(4 * 2.2 / 64, abs=1e-6)
    assert res.upper_confidence <= res.bound
    assert res.estimate.value <= res.upper_confidence


def test_halving_bound_start_shift(gw_dist):
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 300)
    res = mc_halving_bound(env, 64, 50, 200, 5000, 12, threads=2)
    assert res.bound == pytest.approx(4 * 2.2 / 64, abs=1e-4)
    assert res.upper_confidence < 0.5


def test_halving_bound_refuses_heavy_tail():
    env = quench(EnvironmentSpec.from_config(
        {"preset": "heavy_tail_supercritical"}), 0, 100)
    with pytest.raises(NotApplicableError):
        mc_halving_bound(env, 64, 0, 50, 100, 1)


def test_halving_bound_refuses_a_short_environment(gw_dist):
    # the budget reads generations up to start + horizon + 1; a shorter
    # environment used to give a silently shorter run
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 300)
    with pytest.raises(ValueError, match="exceeds environment horizon"):
        mc_halving_bound(env, 64, 50, 300, 100, 1)
    assert mc_halving_bound(env, 64, 50, 249, 100, 1).estimate.replicas == 100


def test_flt_spread_shrinks(gw_dist):
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 260)
    out = mc_flt_discrepancy(env, [64, 256], 15000, 14, threads=4)
    assert [s.n for s in out] == [64, 256]
    assert all(s.survivors > 5000 for s in out)
    assert out[1].median < out[0].median
    assert all(s.q90 >= s.median for s in out)


@pytest.mark.parametrize("threads", [1, 2])
def test_live_replicas_whose_w_underflows_count_as_alive(threads):
    # p0 = 0, so every replica survives; about 4.5% of them end with
    # log W below -745, where exp(log W) underflows to 0
    pmf = [0.0] * 1001
    pmf[1], pmf[1000] = 0.99, 0.01
    law = OffspringDistribution("finite_pmf", pmf=pmf)
    env = quench(EnvironmentSpec("constant", dists=(law,)), 1, 400)
    assert mc_survival(env, 1, 400, 2000, 5, threads).value == 1.0
    chk = mc_w_positivity(env, 1, 400, [1e-3, 1e-2], 2000, 5, threads)
    assert chk.p_survive.value == 1.0
    assert mc_flt_discrepancy(env, [400], 2000, 5,
                              threads=threads)[0].survivors == 2000
    spec = EnvironmentSpec("iid_random", mixer=Mixer("finite", dists=[law],
                                            weights=[1.0]))
    out = mc_conditioned_critical(spec, [400], 2000, 5, threads=threads)
    assert out[0].survivors == 2000


@pytest.mark.parametrize("threads", [1, 2])
def test_quantile_estimators_without_survivors_join_empty_blocks(threads):
    # every block of these laws dies out, so each joins empty parts
    law = OffspringDistribution("finite_pmf", pmf=[0.9, 0.1])
    env = quench(EnvironmentSpec("constant", dists=(law,)), 1, 64)
    (flt,) = mc_flt_discrepancy(env, [64], 70000, 5, threads=threads)
    assert flt.survivors == 0
    assert math.isnan(flt.median) and math.isnan(flt.q90)
    spec = EnvironmentSpec("iid_random", mixer=Mixer("finite", dists=[
        OffspringDistribution("geometric", mean=0.1),
        OffspringDistribution("geometric", mean=0.2)], weights=[0.5, 0.5]))
    out = mc_conditioned_critical(spec, [16, 32], 70000, 5, threads=threads)
    assert [(s.survivors, s.inconclusive) for s in out] == [(0, True)] * 2
    assert all(math.isnan(s.median_w) and math.isnan(s.q10_w) for s in out)


def test_conditioned_critical_runs():
    out = mc_conditioned_critical(
        EnvironmentSpec.from_config({"preset": "critical_two_point"}),
        [16, 32], 20000, 15, threads=4, min_survivors=100)
    assert [s.n for s in out] == [16, 32]
    assert out[0].survivors > out[1].survivors > 0
    assert out[0].median_w > 0
    assert not out[1].inconclusive


@pytest.mark.parametrize("mixer", [
    EnvironmentSpec.from_config({"preset": "critical_two_point"}).mixer,
    Mixer("gaussian_logmean_geometric", mu=0.0, sigma=0.5),
], ids=["finite", "gaussian"])
def test_conditioned_critical_survivors_match_annealed_survival(mixer):
    # the annealed survival probability is the quenched one averaged over
    # environments: here over 10^4 quenched draws, each exact by composing
    # its geometric pgfs; survivors count replicas, each with its own
    # environment, so the two sampling errors add
    spec = EnvironmentSpec("iid_random", mixer=mixer)
    n_list, replicas, envs = [16, 64], 40000, 10**4
    quenched = quench_many(spec, range(envs), n_list[-1])
    means = np.exp(np.stack([env.xi for env in quenched]))
    assert geometric_survival(means[:1, :16])[0] == pytest.approx(
        survival_exact(quenched[0], 16), rel=1e-12)
    out = mc_conditioned_critical(spec, n_list, replicas, 31,
                                  env_seed=10**5, threads=2)
    for s in out:
        p = geometric_survival(means[:, :s.n])
        se = math.sqrt(p.mean() * (1.0 - p.mean()) / replicas
                       + p.var() / envs)
        assert abs(s.survivors / replicas - p.mean()) <= 4.5 * se, s.n


def test_conditioned_critical_determinism():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    a = mc_conditioned_critical(spec, [16], 40000, 7, threads=1)
    b = mc_conditioned_critical(spec, [16], 40000, 7, threads=6)
    assert a[0].survivors == b[0].survivors
    assert a[0].median_w == b[0].median_w


def test_conditioned_critical_inconclusive_flag():
    out = mc_conditioned_critical(
        EnvironmentSpec.from_config({"preset": "critical_two_point"}), [64],
        2000, 16, min_survivors=10**6)
    assert out[0].inconclusive


def test_conditioned_cooling_spec_supported():
    out = mc_conditioned_critical(
        EnvironmentSpec.from_config({"preset": "cooling_doubling_blocks"}),
        [16], 5000, 18, threads=2, min_survivors=10)
    assert out[0].survivors > 0


def test_conditioned_gaussian_mixer_supported():
    spec = EnvironmentSpec("iid_random", mixer=Mixer(
        "gaussian_logmean_geometric", mu=0.0, sigma=0.5))
    out = mc_conditioned_critical(spec, [16], 5000, 19, threads=2,
                                  min_survivors=10)
    assert out[0].survivors > 0
    assert math.isfinite(out[0].median_w)


def test_estimate_to_dict(gw_env200):
    est = mc_survival(gw_env200, 1, 10, 1000, 2)
    d = jsonable(est)
    assert set(d) >= {"value", "std_error", "replicas", "master_seed"}


def test_replica_validation(gw_env200):
    with pytest.raises(ValueError):
        mc_survival(gw_env200, 1, 10, 0, 1)
    with pytest.raises(ValueError):
        mc_survival(gw_env200, 1, 500, 10, 1)
    with pytest.raises(ValueError):
        mc_w_positivity(gw_env200, 1, 10, [-0.1, 0.5], 10, 1)
    for n, m in ((-1, 2), (3, 0)):
        with pytest.raises(ValueError):
            mc_l2_span(gw_env200, 1, n, m, 10, 1)
