import math

import numpy as np
import pytest

from bpve import simulate
from bpve.distributions import OffspringDistribution
from bpve.environment import EnvironmentSpec, quench
from bpve.estimators import mc_survival
from bpve.simulate import (FINITE_VAR_LOG_SWITCH, QuenchedLaws,
                           log_switch_threshold, simulate_block,
                           stretched_indices)
from bpve.streams import substream


@pytest.fixture(scope="module")
def gw_env_short(gw_dist):
    return quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 64)


def test_deterministic_given_stream(gw_env_short):
    a, b = (simulate_block(QuenchedLaws(gw_env_short), 5, 40, 64,
                           substream(3, 0), range(41),
                           extremes=range(1, 41))
            for _ in range(2))
    assert np.array_equal(a.log_w, b.log_w)
    assert np.array_equal(a.lo, b.lo)
    assert np.array_equal(a.hi, b.hi)
    assert np.array_equal(a.frozen_at, b.frozen_at)


def test_absorption_at_zero(gw_dist):
    env = quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 200)
    log_w = simulate_block(QuenchedLaws(env), 1, 200, 200, substream(4, 0),
                           range(201)).log_w
    dead = np.isneginf(log_w)
    assert dead[:, -1].any()
    for row, d in zip(log_w, dead):
        if d.any():
            e = int(np.argmax(d))
            assert e >= 1 and np.all(d[e:])
            assert np.isfinite(row[e - 1])


def test_switch_threshold(gw_dist):
    heavy = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    assert log_switch_threshold(gw_dist) == FINITE_VAR_LOG_SWITCH
    assert log_switch_threshold(heavy) == 4000


def test_log_scale_continuation(monkeypatch):
    monkeypatch.setattr(simulate, "HEAVY_TAIL_LOG_SWITCH", 200)
    heavy = OffspringDistribution("power_law_tail", alpha=0.5, p0=0.2)
    env = quench(EnvironmentSpec("constant", dists=(heavy,)), 1, 120)
    block = None
    for i in range(300):
        cand = simulate_block(QuenchedLaws(env), 50, 120, 1, substream(6, i),
                              range(121))
        if cand.frozen_at[0] >= 0:
            block = cand
            break
    assert block is not None, "no replica crossed the switch"
    a = int(block.frozen_at[0])
    log_z = block.log_w[0] + env.s
    assert math.exp(log_z[a]) > 200
    # after the switch the log value moves by exactly the per-generation
    # log-mean
    xi = math.log(heavy.mean)
    diffs = np.diff(log_z[a:])
    assert np.allclose(diffs, xi, atol=1e-12)


def test_horizon_validation(gw_env_short):
    with pytest.raises(ValueError):
        mc_survival(gw_env_short, 1, 100, 10, 0)
    for z0, record in ((0, [10]), (1, [11]), (1, [-3, 8])):
        with pytest.raises(ValueError):
            simulate_block(QuenchedLaws(gw_env_short), z0, 10, 4,
                           substream(0, 0), record)


def test_path_functional_grid(gw_env_short):
    # the stretched-time path as mc_flt_discrepancy reads it: the kernel's
    # log W recorded at the stretched indices only
    n, r = 64, 8
    idx = stretched_indices(n, [0.0, 0.5, 1.0])
    assert idx.tolist() == [r, math.floor(r + (n - r) * 0.5), n]
    full = simulate_block(QuenchedLaws(gw_env_short), 10, n, 16,
                          substream(7, 1), range(n + 1)).log_w
    path = simulate_block(QuenchedLaws(gw_env_short), 10, n, 16,
                          substream(7, 1), idx).log_w
    assert np.array_equal(path, full[:, idx])
    with pytest.raises(ValueError):
        stretched_indices(n, [1.5])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 1000, 4097, 99991])
def test_stretched_grid_of_n_minus_r_plus_2_points_reads_every_generation(n):
    # mc_flt_discrepancy caps its grid at n - r + 2 points: from there on a
    # finer grid reads no further generation
    r = math.isqrt(n)
    for size in (n - r + 2, 10 * (n - r)):
        idx = np.unique(stretched_indices(n, np.linspace(0.0, 1.0, size)))
        assert idx.tolist() == list(range(r, n + 1)), size
