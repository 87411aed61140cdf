import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from bpve.distributions import GeometricRows, OffspringDistribution
from bpve import distributions, environment, streams
from bpve.environment import (EnvironmentSpec, Mixer, PRESET_CONFIGS,
                              QuenchedEnvironment, ResourceWarningError,
                              quench, quench_many)
from bpve.simulate import AnnealedLaws
from bpve.streams import substream
from oracles import cooling_block_index, law_at

TWO_POINT_MIXER = EnvironmentSpec.from_config(
    {"preset": "critical_two_point"}).mixer


def test_constant_env(gw_dist):
    spec = EnvironmentSpec("constant", dists=(gw_dist,))
    env = quench(spec, 0, 10)
    assert env.horizon == 10
    assert all(d == gw_dist for d in env.dists)
    assert env.s[0] == 0.0
    assert env.s[10] == pytest.approx(10 * math.log(1.25), abs=1e-12)
    assert np.allclose(env.xi, math.log(1.25))


def test_explicit_and_periodic_indexing(gw_dist):
    g = OffspringDistribution("geometric", mean=2.0)
    spec = EnvironmentSpec("explicit_sequence", dists=(gw_dist, g, gw_dist))
    assert spec.dist_at(0, 2) == g
    with pytest.raises(ValueError):
        spec.dist_at(0, 4)
    with pytest.raises(ValueError):
        spec.dist_at(0, 0)
    per = EnvironmentSpec("periodic", dists=(gw_dist, g))
    assert per.dist_at(0, 1) == gw_dist
    assert per.dist_at(0, 2) == g
    assert per.dist_at(0, 7) == gw_dist


def test_quench_prefix_consistency():
    gaussian = QUENCH_SPECS["gaussian_iid"].mixer
    for spec in (EnvironmentSpec("iid_random", mixer=TWO_POINT_MIXER),
                 EnvironmentSpec("iid_random", mixer=gaussian),
                 EnvironmentSpec("cooling", mixer=gaussian)):
        short, long = quench(spec, 42, 1000), quench(spec, 42, 3000)
        assert short.dists == long.dists[:1000]
        assert np.array_equal(short.xi, long.xi[:1000])
        assert np.array_equal(short.s, long.s[:1001])


def test_dist_at_random_access():
    # a random spec's laws come from quench alone
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    with pytest.raises(ValueError, match="come from quench"):
        spec.dist_at(9, 37)
    laws = quench(spec, 9, 39).dists
    assert laws[36] == quench(spec, 9, 37).dists[36]
    # different index can differ, and usually does over a range
    assert {d.mean for d in laws} == {d.mean for d in spec.mixer.dists}


def test_two_point_frequency():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    env = quench(spec, 7, 2000)
    up = sum(1 for d in env.dists if d.mean > 1.0)
    # binomial(2000, 1/2): 6 sigma is ~134
    assert abs(up - 1000) < 140


def test_critical_preset_log_means():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    mixer = spec.mixer
    drift = np.dot(mixer.weights, [d.log_mean for d in mixer.dists])
    assert drift == pytest.approx(0.0, abs=1e-12)
    env = quench(spec, 3, 100)
    assert set(np.round(env.xi, 10)) <= {round(math.log(2.0), 10),
                                         round(-math.log(2.0), 10)}


def test_supercritical_subcritical_drift():
    up = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    dn = EnvironmentSpec.from_config({"preset": "subcritical_mu0.2"})
    for spec, mu in ((up, 0.2), (dn, -0.2)):
        mixer = spec.mixer
        drift = np.dot(mixer.weights, [d.log_mean for d in mixer.dists])
        assert drift == pytest.approx(mu, abs=1e-12)


def test_cooling_doubling_blocks():
    spec = EnvironmentSpec.from_config({"preset": "cooling_doubling_blocks"})
    env_seed = 11
    laws = quench(spec, env_seed, 31).dists
    # block j covers generations [2^j, 2^{j+1} - 1]
    for j in range(5):
        lo, hi = 2**j, 2**(j + 1) - 1
        assert set(laws[lo - 1:hi]) == {law_at(spec, env_seed, lo)}


def test_cooling_explicit_schedule():
    spec = EnvironmentSpec("cooling", mixer=TWO_POINT_MIXER,
                           block_lengths=(3, 2))
    laws = quench(spec, 5, 7).dists
    # beyond the schedule the last block length repeats
    for lo, hi in ((1, 3), (4, 5), (6, 7)):
        assert set(laws[lo - 1:hi]) == {law_at(spec, 5, lo)}


def test_shifted_environment():
    spec = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    env = quench(spec, 2, 60)
    sh = env.shifted(10)
    assert sh.horizon == 50
    assert sh.s[0] == 0.0
    assert np.allclose(sh.xi, env.xi[10:])
    assert sh.s[5] == pytest.approx(env.s[15] - env.s[10], abs=1e-12)


def test_shifted_environment_keeps_the_log_means():
    # the log-means were re-derived as differences of the re-summed S,
    # which moved most of them in the last bits
    env = quench(EnvironmentSpec.from_config(
        {"preset": "supercritical_mu0.2"}), 3, 500)
    for k in (1, 50, 499):
        sh = env.shifted(k)
        assert sh.xi.tobytes() == env.xi[k:].tobytes()
        assert sh.s.tobytes() == environment._kahan_cumsum(env.xi[k:]).tobytes()


def test_quench_horizon_guard():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    with pytest.raises(ValueError):
        quench(spec, 0, 0)
    with pytest.raises(ResourceWarningError):
        quench(spec, 0, 10**7 + 1)


def test_mixer_gaussian_logmean():
    mx = Mixer("gaussian_logmean_geometric", mu=0.1, sigma=0.2)
    spec = EnvironmentSpec("iid_random", mixer=mx)
    env = quench(spec, 4, 500)
    assert abs(env.xi.mean() - 0.1) < 6 * 0.2 / math.sqrt(500)
    assert all(d.kind == "geometric" for d in env.dists)


def test_spec_config_round_trip(gw_dist):
    # each preset written inline is the named preset; a literal config is
    # the spec its constructors build
    pairs = [(cfg, EnvironmentSpec.from_config({"preset": name}))
             for name, cfg in PRESET_CONFIGS.items()]
    pairs += [
        ({"kind": "constant",
          "dist": {"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}},
         EnvironmentSpec("constant", dists=(gw_dist,))),
        ({"kind": "periodic",
          "dists": [{"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]},
                    {"kind": "geometric", "mean": 2.0}]},
         EnvironmentSpec("periodic", dists=(
             gw_dist, OffspringDistribution("geometric", mean=2.0)))),
        ({"kind": "iid_random",
          "mixer": {"kind": "gaussian_logmean_geometric",
                    "mu": 0.0, "sigma": 0.3}},
         EnvironmentSpec("iid_random", mixer=Mixer(
             "gaussian_logmean_geometric", mu=0.0, sigma=0.3))),
    ]
    for cfg, other in pairs:
        spec = EnvironmentSpec.from_config(json.loads(json.dumps(cfg)))
        assert spec.kind == other.kind
        env_a = quench(spec, 13, 30)
        env_b = quench(other, 13, 30)
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
                                     "dist": {"kind": "geometric", "mean": 1.0},
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
    # non-finite values used to make a mixer of meaningless draws
    with pytest.raises(ValueError, match="mixer"):
        Mixer("finite", dists=[gw_dist, gw_dist], weights=[math.nan, 1.0])
    for mu, sigma in [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan),
                      (0.0, math.inf)]:
        with pytest.raises(ValueError, match="mixer"):
            Mixer("gaussian_logmean_geometric", mu=mu, sigma=sigma)


def test_mixer_refuses_unknown_and_missing_keys(gw_dist):
    with pytest.raises(ValueError, match=r"unknown mixer keys: \['bogus'\]"):
        Mixer("finite", dists=[gw_dist], weights=[1.0], bogus=1)
    with pytest.raises(ValueError, match=r"missing mixer keys: \['weights'\]"):
        Mixer("finite", dists=[gw_dist])
    with pytest.raises(ValueError, match=r"unknown mixer keys: \['dists'\]"):
        Mixer.from_config({"kind": "gaussian_logmean_geometric", "mu": 0.0,
                           "sigma": 1.0, "dists": []})
    with pytest.raises(ValueError, match=r"missing mixer keys: \['sigma'\]"):
        Mixer.from_config({"kind": "gaussian_logmean_geometric", "mu": 0.0})
    with pytest.raises(ValueError, match="unknown mixer kind 'nope'"):
        Mixer.from_config({"kind": "nope", "mu": 0.0})
    with pytest.raises(ValueError, match="unknown mixer kind None"):
        Mixer.from_config({"mu": 0.0, "sigma": 1.0})


ONE_LAW_MIXER = {"kind": "finite", "weights": [1.0],
                 "dists": [{"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}]}


def test_spec_fields_are_checked_where_built(gw_dist):
    # the first five built, then quenched to a constant environment (with a
    # divide-by-zero warning) or raised ZeroDivisionError, TypeError or
    # AttributeError
    mixer = Mixer("finite", dists=[gw_dist], weights=[1.0])
    for kind, fields, message in [
            ("cooling", {"mixer": mixer, "block_lengths": (0,)},
             r"cooling schedule .* got \[0\]"),
            ("periodic", {"dists": ()}, "periodic environment needs a non"),
            ("constant", {}, "constant environment needs a nonempty"),
            ("bogus", {}, "unknown environment kind 'bogus'"),
            ("iid_random", {}, "iid_random environment needs a mixer"),
            ("explicit_sequence", {"dists": [gw_dist]}, "tuple of offspring"),
            ("constant", {"dists": (mixer,)}, "tuple of offspring laws"),
            ("cooling", {"mixer": gw_dist}, "cooling environment needs a mix"),
            ("iid_random", {"mixer": mixer, "block_lengths": (2,)},
             "iid_random environment has no block lengths"),
            ("explicit_sequence", {"dists": ()},
             "explicit_sequence environment needs a non")]:
        with pytest.raises(ValueError, match=message):
            EnvironmentSpec(kind, **fields)
    # a config's schedule list becomes the block-length tuple
    assert EnvironmentSpec.from_config(
        {"kind": "cooling", "mixer": ONE_LAW_MIXER, "schedule": [2, 3]}
    ).block_lengths == (2, 3)


@pytest.mark.parametrize("schedule", [[], [2.5], [math.nan], [0], [3, -1],
                                      [True], "blocks", 4])
def test_cooling_refuses_bad_schedules(schedule):
    with pytest.raises(ValueError, match="cooling schedule"):
        EnvironmentSpec.from_config(
            {"kind": "cooling", "mixer": ONE_LAW_MIXER, "schedule": schedule})


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.3, 0.5),
                                     (0.1, 0.7, 0.2)])
def test_finite_mixer_draw_matches_choice(weights):
    dists = [OffspringDistribution("geometric", mean=m)
             for m in (0.5, 1.0, 2.0)[:len(weights)]]
    mixer = Mixer("finite", dists=dists, weights=list(weights))
    ref = [substream(17, index).choice(len(dists), p=mixer.weights)
           for index in range(10_000)]
    tables, comp, xi = mixer.draw([17], np.arange(10_000))
    assert tables == [tuple(dists)] and comp.tolist() == [ref]
    assert np.array_equal(xi, [[dists[r].log_mean for r in ref]])
    rows = substream(18, 0).choice(len(dists), size=1000, p=mixer.weights)
    xi, comp = mixer.sample(substream(18, 0).random((1000, 1)))
    assert np.array_equal(comp, rows)
    assert np.array_equal(xi, [dists[r].log_mean for r in rows])


@pytest.mark.parametrize("schedule", [None, (3, 1, 7, 2)])
def test_cooling_quench_draws_once_per_block(schedule, monkeypatch):
    # either mixer draws every block's first uniforms in one pass
    draws = []
    real_first_uniforms = environment.first_uniforms
    blocks = (11 if schedule is None
              else 4 + math.ceil((2000 - sum(schedule)) / schedule[-1]))
    for mixer in (TWO_POINT_MIXER,
                  Mixer("gaussian_logmean_geometric", mu=0.1, sigma=0.5)):
        spec = EnvironmentSpec("cooling", mixer=mixer, block_lengths=schedule)
        per_generation = [law_at(spec, 9, i) for i in range(1, 2001)]
        with monkeypatch.context() as patch:
            patch.setattr(environment, "first_uniforms",
                          lambda seeds, keys, width: (
                              draws.append(np.broadcast(seeds, keys).size)
                              or real_first_uniforms(seeds, keys, width)))
            env = quench(spec, 9, 2000)
        assert env.dists == per_generation
        assert draws == [blocks]
        draws.clear()


@pytest.mark.parametrize("kind,schedule", [
    ("iid_random", None), ("cooling", None), ("cooling", (3, 1, 7, 2)),
    ("cooling", (1,)), ("cooling", (5,)),
    # block ends past int64: the cumulative sum wrapped or overflowed
    ("cooling", (2**62, 2**62, 3))])
def test_stream_indices_match_stream_index(kind, schedule):
    spec = EnvironmentSpec(kind, mixer=TWO_POINT_MIXER,
                           block_lengths=schedule)

    def walk(i):
        return cooling_block_index(spec, i) if kind == "cooling" else i
    # across the schedule's end (13) and around powers of two
    for horizon in (1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 1023, 1024,
                    1025, 2**16 + 1):
        keys = [walk(i) for i in range(1, horizon + 1)]
        assert spec.stream_index(np.arange(1, horizon + 1)).tolist() == keys
    assert [spec.stream_index(i) for i in range(1, 1026)] == keys[:1025]
    # a float holds no integer past 2^53 exactly: 2^54 - 1 rounds up to
    # 2^54; an int and an array take the same int64 search of the block
    # ends, up to the largest generation, and an int gets an int back
    big = [2**53 + 1, 2**54 - 1, 2**60 - 1, 2**62 + 1, 2**63 - 1]
    keys = spec.stream_index(np.array(big)).tolist()
    assert keys == list(map(walk, big))
    assert [spec.stream_index(i) for i in big] == keys
    assert all(type(spec.stream_index(i)) is int for i in big)


QUENCH_SPECS = {
    **{name: EnvironmentSpec.from_config({"preset": name})
       for name in PRESET_CONFIGS},
    "gaussian_iid": EnvironmentSpec("iid_random", mixer=Mixer(
        "gaussian_logmean_geometric", mu=0.1, sigma=0.5)),
    "cooling_schedule": EnvironmentSpec("cooling", mixer=TWO_POINT_MIXER,
                                        block_lengths=(3, 1, 7, 2)),
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
    # each generation's log-mean is Mixer.sample of its stream's first
    # uniforms, a Gaussian one the drawn value, not its law's log-mean
    spec = QUENCH_SPECS[name]
    mixer = spec.mixer
    for seed in (0, -1, 2**64 - 1):
        env = quench(spec, seed, 1000)
        laws = [law_at(spec, seed, i) for i in range(1, 1001)]
        assert env.dists == laws
        xi = np.array([mixer.sample(substream(seed, i).random(mixer.width))[0]
                       for i in range(1, 1001)])
        assert np.array_equal(env.xi, xi)
        assert np.array_equal(env.s, kahan_oracle(xi))


@pytest.mark.parametrize("n", [0, 1, 2, 2**16 - 1, 2**16, 2**16 + 1,
                               2**17 + 3])
def test_kahan_cumsum_matches_the_oracle_across_chunks(n):
    # the sums go into the result one chunk of 2^16 at a time; a chunk
    # boundary changes no bit, for a 1-D input, a single row and two rows
    rng = np.random.default_rng(n)
    xs = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    want = kahan_oracle(xs.tolist())
    assert environment._kahan_cumsum(xs).tobytes() == want.tobytes()
    assert environment._kahan_cumsum(xs[None]).tobytes() == \
        want[None].tobytes()
    pair = environment._kahan_cumsum(np.stack([xs, xs[::-1]]))
    assert pair.tobytes() == np.stack(
        [want, kahan_oracle(xs[::-1].tolist())]).tobytes()


def test_kahan_cumsum_peak_memory_is_the_result_and_one_chunk():
    # the single-row path holds one chunk of Python floats at a time; a
    # list of the whole horizon would take 17 MB at 2^18 values
    xs = np.random.default_rng(0).standard_normal(2**18)
    tracemalloc.start()
    try:
        environment._kahan_cumsum(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(xs) + 6 * 10**6


def test_finite_mixer_quench_peaks_within_48_bytes_per_generation(
        monkeypatch):
    # the draw takes its uniforms a chunk of keys at a time, and an i.i.d.
    # spec's draws are its generations' without an indexed copy.  The
    # running sums' array stands in for _kahan_cumsum, whose chunk of Python
    # floats (pinned above) is slow to trace; 40 B per generation (48 B when
    # the draw took every key's uniforms at once and copied its draws
    # through the key of each generation)
    monkeypatch.setattr(environment, "_kahan_cumsum", lambda xs: np.zeros(
        xs.shape[:-1] + (xs.shape[-1] + 1,)))
    spec = QUENCH_SPECS["supercritical_mu0.2"]
    quench(spec, 1, 10)
    tracemalloc.start()
    try:
        quench(spec, 7, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 10**6


@pytest.mark.parametrize("kind", ["finite", "gaussian"])
def test_mixer_draw_in_key_chunks_is_one_first_uniforms_pass(monkeypatch,
                                                             kind):
    # 7-key chunks: the 40 keys take five full chunks and a part
    monkeypatch.setattr(distributions, "ROW_CHUNK", 7)
    mixer = (TWO_POINT_MIXER if kind == "finite"
             else GAUSSIAN_SPECS["iid"].mixer)
    seeds, keys = [1, 5, 2**64 - 1], np.arange(3, 43)
    tables, index, xi = mixer.draw(seeds, keys)
    want_xi, want_law = mixer.sample(streams.first_uniforms(
        np.array(seeds, dtype=object)[:, None], keys, mixer.width))
    assert xi.tobytes() == want_xi.tobytes()
    if kind == "finite":
        assert index.tolist() == want_law.tolist()
    else:
        assert [t.mean.tobytes() for t in tables] == [
            row.tobytes() for row in want_law]


GAUSSIAN_SPECS = {
    "iid": QUENCH_SPECS["gaussian_iid"],
    "cooling": EnvironmentSpec("cooling",
                               mixer=QUENCH_SPECS["gaussian_iid"].mixer),
}


def test_gaussian_quench_holds_its_arrays_alone():
    # per generation a law index, a log-mean and a running sum, and per draw
    # the GeometricRows' mean and q: 40 B in all (one law object per draw
    # held 608 B)
    spec = GAUSSIAN_SPECS["iid"]
    quench(spec, 1, 10)
    tracemalloc.start()
    try:
        env = quench(spec, 7, 10**5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(env.laws, GeometricRows)
    assert held <= 48 * 10**5


@pytest.mark.parametrize("name", sorted(GAUSSIAN_SPECS))
def test_gaussian_quench_builds_no_law_object(monkeypatch, name):
    # the law table keeps the drawn means; a law is built when it is read
    spec, built = GAUSSIAN_SPECS[name], []
    init = OffspringDistribution.__init__
    monkeypatch.setattr(OffspringDistribution, "__init__", lambda self, *a,
                        **kw: built.append(kw) or init(self, *a, **kw))
    env = quench(spec, 5, 1000)
    envs = quench_many(spec, QUENCH_SEEDS, 1000)
    assert built == []
    assert env.dists == envs[QUENCH_SEEDS.index(5)].dists
    assert env.dists[999] == OffspringDistribution(
        "geometric", mean=float(env.laws.mean[env.index[999]]))
    assert len(built) > 0


def ks_statistic(x, law: NormalDist) -> float:
    """``sqrt(n)`` times the Kolmogorov-Smirnov distance of the sample
    ``x`` from ``law``."""
    x = np.sort(x)
    n = len(x)
    cdf = np.array([law.cdf(v) for v in x.tolist()])
    ranks = np.arange(1, n + 1)
    return math.sqrt(n) * max((ranks / n - cdf).max(),
                              (cdf - (ranks - 1) / n).max())


def test_gaussian_draws_follow_the_normal_law():
    # 10^5 quenched and 10^5 annealed log-means against N(mu, sigma^2); the
    # Kolmogorov distribution exceeds 1.95 with probability about 0.001
    spec = QUENCH_SPECS["gaussian_iid"]
    law = NormalDist(spec.mixer.mu, spec.mixer.sigma)
    annealed = AnnealedLaws(spec, substream(2, 0), 10**5)
    annealed.advance(1)
    for xi in (quench(spec, 1, 10**5).xi, annealed.xi):
        assert ks_statistic(xi, law) < 1.95


def test_quench_many_across_passes():
    # 70 environments of 1000 generations are 70,000 keys: the first
    # uniforms take two Philox passes
    spec = EnvironmentSpec.from_config({"preset": "supercritical_mu0.2"})
    seeds = list(range(1000, 1070))
    assert len(seeds) * 1000 > streams._PASS_KEYS
    for seed, env in zip(seeds, quench_many(spec, seeds, 1000)):
        assert_same_environment(env, quench(spec, seed, 1000))


def test_quench_many_edge_cases():
    spec = EnvironmentSpec.from_config({"preset": "critical_two_point"})
    assert quench_many(spec, [], 10) == []
    with pytest.raises(ValueError):
        quench_many(spec, [1], 0)
    with pytest.raises(ResourceWarningError):
        quench_many(spec, [1], 10**7 + 1)
