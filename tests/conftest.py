import numpy as np
import pytest

from bpve.distributions import OffspringDistribution
from bpve.environment import EnvironmentSpec, quench


@pytest.fixture(scope="session")
def gw_dist():
    # reference single-type law: P(X=0)=P(X=1)=1/4, P(X=2)=1/2
    return OffspringDistribution("finite_pmf", pmf=[0.25, 0.25, 0.5])


@pytest.fixture(scope="session")
def gw_env(gw_dist):
    return quench(EnvironmentSpec("constant", dists=(gw_dist,)), 1, 1100)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
