import math

import numpy as np
import pytest

from bpve.distributions import OffspringDistribution
from bpve import streams
from bpve.environment import (EnvironmentSpec, Mixer, PRESETS,
                              QuenchedEnvironment, ResourceWarningError,
                              quench, quench_many)
from bpve.streams import substream


def test_constant_env(gw_dist):
    spec = EnvironmentSpec.constant(gw_dist)
    env = quench(spec, 0, 10)
    assert env.horizon == 10
    assert all(d == gw_dist for d in env.dists)
    assert env.s[0] == 0.0
    assert env.s[10] == pytest.approx(10 * math.log(1.25), abs=1e-12)
    assert np.allclose(env.xi, math.log(1.25))


def test_explicit_and_periodic_indexing(gw_dist):
    g = OffspringDistribution.geometric(mean=2.0)
    spec = EnvironmentSpec.explicit([gw_dist, g, gw_dist])
    assert spec.dist_at(0, 2) == g
    with pytest.raises(ValueError):
        spec.dist_at(0, 4)
    with pytest.raises(ValueError):
        spec.dist_at(0, 0)
    per = EnvironmentSpec.periodic([gw_dist, g])
    assert per.dist_at(0, 1) == gw_dist
    assert per.dist_at(0, 2) == g
    assert per.dist_at(0, 7) == gw_dist


def test_quench_prefix_consistency():
    spec = PRESETS["critical_two_point"]()
    short = quench(spec, 42, 50)
    long = quench(spec, 42, 120)
    assert short.dists == long.dists[:50]
    assert np.array_equal(short.s, long.s[:51])


def test_dist_at_random_access():
    spec = PRESETS["critical_two_point"]()
    a = spec.dist_at(9, 37)
    b = spec.dist_at(9, 37)
    assert a == b
    # different index can differ, and usually does over a range
    laws = {spec.dist_at(9, i).mean for i in range(1, 40)}
    assert len(laws) == 2


def test_two_point_frequency():
    spec = PRESETS["critical_two_point"]()
    env = quench(spec, 7, 2000)
    up = sum(1 for d in env.dists if d.mean > 1.0)
    # binomial(2000, 1/2): 6 sigma is ~134
    assert abs(up - 1000) < 140


def test_critical_preset_log_means():
    spec = PRESETS["critical_two_point"]()
    assert spec.mixer.log_mean_expectation() == pytest.approx(0.0, abs=1e-12)
    env = quench(spec, 3, 100)
    assert set(np.round(env.xi, 10)) <= {round(math.log(2.0), 10),
                                         round(-math.log(2.0), 10)}


def test_supercritical_subcritical_drift():
    up = PRESETS["supercritical_mu0.2"]()
    dn = PRESETS["subcritical_mu0.2"]()
    assert up.mixer.log_mean_expectation() == pytest.approx(0.2, abs=1e-12)
    assert dn.mixer.log_mean_expectation() == pytest.approx(-0.2, abs=1e-12)


def test_cooling_doubling_blocks():
    spec = PRESETS["cooling_doubling_blocks"]()
    env_seed = 11
    # block j covers generations [2^j, 2^{j+1} - 1]
    for j in range(1, 5):
        lo, hi = 2**j, 2**(j + 1) - 1
        laws = {spec.dist_at(env_seed, i) for i in range(lo, hi + 1)}
        assert len(laws) == 1
    assert spec.dist_at(env_seed, 1) is not None


def test_cooling_explicit_schedule():
    mixer = PRESETS["critical_two_point"]().mixer
    spec = EnvironmentSpec.cooling(mixer, block_lengths=[3, 2])
    s = 5
    assert spec.dist_at(s, 1) == spec.dist_at(s, 3)
    assert spec.dist_at(s, 4) == spec.dist_at(s, 5)
    # beyond the schedule the last block length repeats
    assert spec.dist_at(s, 6) == spec.dist_at(s, 7)


def test_shifted_environment():
    spec = PRESETS["supercritical_mu0.2"]()
    env = quench(spec, 2, 60)
    sh = env.shifted(10)
    assert sh.horizon == 50
    assert sh.s[0] == 0.0
    assert np.allclose(sh.xi, env.xi[10:])
    assert sh.s[5] == pytest.approx(env.s[15] - env.s[10], abs=1e-12)


def test_quench_horizon_guard():
    spec = PRESETS["critical_two_point"]()
    with pytest.raises(ValueError):
        quench(spec, 0, 0)
    with pytest.raises(ResourceWarningError):
        quench(spec, 0, 10**7 + 1)


def test_mixer_gaussian_logmean():
    mx = Mixer("gaussian_logmean_geometric", mu=0.1, sigma=0.2)
    spec = EnvironmentSpec.iid_random(mx)
    env = quench(spec, 4, 500)
    assert abs(env.xi.mean() - 0.1) < 6 * 0.2 / math.sqrt(500)
    assert all(d.kind == "geometric" for d in env.dists)


def test_spec_config_round_trip(gw_dist):
    specs = [
        EnvironmentSpec.constant(gw_dist),
        EnvironmentSpec.periodic([gw_dist,
                                  OffspringDistribution.geometric(mean=2.0)]),
        PRESETS["critical_two_point"](),
        PRESETS["cooling_doubling_blocks"](),
        EnvironmentSpec.iid_random(
            Mixer("gaussian_logmean_geometric", mu=0.0, sigma=0.3)),
    ]
    for spec in specs:
        spec2 = EnvironmentSpec.from_config(spec.to_config())
        assert spec2.kind == spec.kind
        env_a = quench(spec, 13, 30)
        env_b = quench(spec2, 13, 30)
        assert env_a.dists == env_b.dists
        assert np.array_equal(env_a.s, env_b.s)


def test_preset_config_reference():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    assert spec.kind == "iid_random"
    with pytest.raises(ValueError):
        EnvironmentSpec.from_config({"preset": "missing_preset"})
    with pytest.raises(ValueError):
        EnvironmentSpec.from_config({"preset": "critical_two_point",
                                     "kind": "constant"})


def test_config_rejects_unknown_keys(gw_dist):
    with pytest.raises(ValueError):
        EnvironmentSpec.from_config({"kind": "constant",
                                     "dist": gw_dist.to_config(),
                                     "bogus": 1})
    with pytest.raises(ValueError):
        EnvironmentSpec.from_config({"kind": "whatever"})


def test_mixer_validation(gw_dist):
    with pytest.raises(ValueError):
        Mixer("finite", dists=[gw_dist], weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        Mixer("finite", dists=[gw_dist], weights=[0.9])
    with pytest.raises(ValueError):
        Mixer("gaussian_logmean_geometric", mu=0.0, sigma=-1.0)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.3, 0.5),
                                     (0.1, 0.7, 0.2)])
def test_finite_mixer_draw_matches_choice(weights):
    dists = [OffspringDistribution.geometric(mean=m)
             for m in (0.5, 1.0, 2.0)[:len(weights)]]
    mixer = Mixer("finite", dists=dists, weights=list(weights))
    for index in range(10_000):
        ref = substream(17, index).choice(len(dists), p=mixer.weights)
        assert mixer.draw(substream(17, index)) is dists[ref]
    rows = substream(18, 0).choice(len(dists), size=1000, p=mixer.weights)
    assert np.array_equal(mixer.components(substream(18, 0), 1000), rows)


@pytest.mark.parametrize("schedule", [None, [3, 1, 7, 2]])
def test_cooling_quench_draws_once_per_block(schedule, monkeypatch):
    spec = EnvironmentSpec.cooling(PRESETS["critical_two_point"]().mixer,
                                   block_lengths=schedule)
    per_generation = [spec.dist_at(9, i) for i in range(1, 2001)]
    draws = []
    real_draw = Mixer.draw
    monkeypatch.setattr(Mixer, "draw",
                        lambda self, rng: draws.append(1) or real_draw(self, rng))
    env = quench(spec, 9, 2000)
    assert env.dists == per_generation
    blocks = (11 if schedule is None
              else 4 + math.ceil((2000 - sum(schedule)) / schedule[-1]))
    assert len(draws) == blocks


QUENCH_SPECS = {
    **{name: make() for name, make in PRESETS.items()},
    "gaussian_iid": EnvironmentSpec.iid_random(
        Mixer("gaussian_logmean_geometric", mu=0.1, sigma=0.5)),
    "cooling_schedule": EnvironmentSpec.cooling(
        PRESETS["critical_two_point"]().mixer, block_lengths=[3, 1, 7, 2]),
}
QUENCH_SEEDS = [0, 5, -1, 2**63 + 5, 2**64 - 1, 123456789]


def assert_same_environment(got: QuenchedEnvironment,
                            want: QuenchedEnvironment, identical=True):
    """Equal laws (the same objects if ``identical``), bitwise sums."""
    assert got.dists == want.dists
    if identical:
        assert all(a is b for a, b in zip(got.dists, want.dists))
    assert np.array_equal(got.s, want.s)
    assert np.array_equal(got.xi, want.xi)


def kahan_oracle(xs):
    """Compensated running sums, one Python float at a time."""
    out, total, comp = [0.0], 0.0, 0.0
    for x in xs:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("name", sorted(QUENCH_SPECS))
@pytest.mark.parametrize("horizon", [1, 1000])
def test_quench_many_matches_quench(name, horizon):
    spec = QUENCH_SPECS[name]
    envs = quench_many(spec, QUENCH_SEEDS, horizon)
    assert len(envs) == len(QUENCH_SEEDS)
    # a Gaussian draw builds a new law object every time
    identical = name != "gaussian_iid"
    for seed, env in zip(QUENCH_SEEDS, envs):
        assert_same_environment(env, quench(spec, seed, horizon), identical)


@pytest.mark.parametrize("name", ["critical_two_point", "gaussian_iid"])
def test_quench_matches_per_generation_draws(name):
    spec = QUENCH_SPECS[name]
    for seed in (0, -1, 2**64 - 1):
        env = quench(spec, seed, 1000)
        laws = [spec.dist_at(seed, i) for i in range(1, 1001)]
        assert env.dists == laws
        xi = np.array([d.log_mean for d in laws])
        assert np.array_equal(env.xi, xi)
        assert np.array_equal(env.s, kahan_oracle(xi))


def test_quench_many_across_passes():
    # 70 environments of 1000 generations are 70,000 keys: the first
    # uniforms take two Philox passes
    spec = PRESETS["supercritical_mu0.2"]()
    seeds = list(range(1000, 1070))
    assert len(seeds) * 1000 > streams._PASS_KEYS
    for seed, env in zip(seeds, quench_many(spec, seeds, 1000)):
        assert_same_environment(env, quench(spec, seed, 1000))


def test_quench_many_edge_cases():
    spec = PRESETS["critical_two_point"]()
    assert quench_many(spec, [], 10) == []
    with pytest.raises(ValueError):
        quench_many(spec, [1], 0)
    with pytest.raises(ResourceWarningError):
        quench_many(spec, [1], 10**7 + 1)
