"""Golden digests: one small config per experiment, run through the CLI.

Each config's ``results.json``, and its ``series.csv`` when it writes one,
must hash to the recorded sha256.  Together
the configs cover every experiment and every environment kind (constant,
explicit, periodic, i.i.d. and cooling with both mixers and both
schedules), so a change that consumes any random stream differently, or
changes what a series or estimator computes, shows up here.
``w_positivity_heavy`` has thresholds whose string order differs from their
numeric order, which pins how ``results.json`` keys them.  A change that
alters a stream on purpose updates the digests and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from bpve.cli import main

GEOMETRIC_PAIR = {"kind": "finite",
                  "dists": [{"kind": "geometric", "mean": 2.0},
                            {"kind": "geometric", "mean": 0.5}],
                  "weights": [0.5, 0.5]}
GAUSSIAN = {"kind": "gaussian_logmean_geometric", "mu": 0.1, "sigma": 0.5}
PMF = {"kind": "finite_pmf", "pmf": [0.25, 0.25, 0.5]}

CONFIGS = {
    "conditions": {
        "experiment": "conditions",
        "environment": {"preset": "cooling_doubling_blocks"},
        "env_seed": 5,
        "params": {"series": "variance", "horizon": 600}},
    "survival": {
        "experiment": "survival",
        "environment": {"preset": "supercritical_mu0.2"},
        "env_seed": 3, "master_seed": 11,
        "params": {"n": 60, "replicas": 4000}},
    "w_positivity": {
        "experiment": "w_positivity",
        "environment": {"kind": "cooling", "mixer": GAUSSIAN,
                        "schedule": [3, 5, 8]},
        "env_seed": 9, "master_seed": 12,
        "params": {"n": 40, "replicas": 4000}},
    "l2": {
        "experiment": "l2",
        "environment": {"kind": "constant", "dist": PMF},
        "master_seed": 13,
        "params": {"k": 3, "m": 5, "replicas": 20000}},
    "halving": {
        "experiment": "halving",
        "environment": {"kind": "periodic",
                        "dists": [PMF, {"kind": "geometric", "mean": 1.5}]},
        "master_seed": 14,
        "params": {"k": 16, "horizon": 60, "replicas": 4000}},
    "flt": {
        "experiment": "flt",
        "environment": {"kind": "explicit_sequence",
                        "dists": [PMF, {"kind": "geometric", "mean": 1.8},
                                  {"kind": "power_law_tail", "alpha": 1.5,
                                   "p0": 0.2}] * 11},
        "master_seed": 15,
        "params": {"n_list": [16, 32], "replicas": 2000, "grid_size": 9}},
    "tightness": {
        "experiment": "tightness",
        "environment": {"kind": "iid_random", "mixer": GEOMETRIC_PAIR},
        "master_seed": 16,
        "params": {"l_grid": [1, 10, 20], "env_replicas": 25,
                   "series": "psi", "phi": {"power": 0.5, "log_power": 0.0}}},
    "critical": {
        "experiment": "critical",
        "environment": {"kind": "cooling", "mixer": GEOMETRIC_PAIR},
        "env_seed": 7, "master_seed": 17,
        "params": {"n_list": [16, 32], "replicas": 4000,
                   "min_survivors": 50}},
    # i.i.d. annealed runs of both mixers with blocks past one row chunk
    # (2^14 replicas), so the in-place law draws are pinned
    "critical_gaussian": {
        "experiment": "critical",
        "environment": {"kind": "iid_random", "mixer": {
            "kind": "gaussian_logmean_geometric", "mu": 0.0, "sigma": 0.5}},
        "env_seed": 19, "master_seed": 20,
        "params": {"n_list": [12, 40], "replicas": 40000,
                   "min_survivors": 50}},
    "critical_two_point": {
        "experiment": "critical",
        "environment": {"preset": "critical_two_point"},
        "env_seed": 21, "master_seed": 22,
        "params": {"n_list": [12, 40], "replicas": 40000,
                   "min_survivors": 50}},
    "w_positivity_heavy": {
        "experiment": "w_positivity",
        "environment": {"preset": "heavy_tail_supercritical"},
        "master_seed": 18,
        "params": {"n": 40, "replicas": 4000,
                   "eps_grid": [10.0 ** (-8 + 3 * i / 12) for i in range(13)]}},
}

DIGESTS = {
    "conditions":
        "6c72bbc3b640555619dc1600bd56f98baa16a90edc1534f522cc08f48658035c",
    "critical":
        "3caf7ec15e1f77c8895784c60a9e46e0555d9b4ddffabc5704c7b30978704e26",
    "critical_gaussian":
        "928b0b5f528ba9496072cfbba158474d46c12e6b44b30b3f6c9cebcb54c1b3d6",
    "critical_two_point":
        "128cbec2ae259389b814dd0c29ebae9be392d83f60cd857a3f28339d0a37f8c5",
    "flt":
        "761a936aebb8691c86ab4e483bc3cde36c645c18552340d21379940059e2edcd",
    "halving":
        "e592354ed3bce41a6160abb700625760682b4bd54dcae1887de32a98d32dc8fe",
    "l2":
        "f5678ac2aab33abcd84118e2f32a990c2ed3fc80eb7a6d9d60eb9d3bb4cb090a",
    "survival":
        "e0c7fdb0d9a33ca34695909e336444a8bbeaf1dc42085576e4fe886c3fc13c9b",
    "tightness":
        "50095ce777a98938e9c1e2abb6073befa99813dd4c38a5bff5c6255151ab1e5c",
    "w_positivity":
        "8ebc92f6559164b3fc0185996a3233a0b2b1c7620e1089c694fd446911317e90",
    "w_positivity_heavy":
        "6c7bba45afa6a13556d7328b7d914d0f7dbcdabcf8f0a5fbd6eb138d69ebf6cb",
}

SERIES_DIGESTS = {
    "critical":
        "4e08db5e56f801505a56bf0da17428e9c06c0009300420c35bcfbab374cff32c",
    "critical_gaussian":
        "d8bf3f37040c78abd5d338d09a570ac1dbaa4691a4f74720f597ff7c88fb9420",
    "critical_two_point":
        "894b8bd3f9a487e5e94bb6cf95d2e6eac46df10833954d1d6573e18808d91893",
    "flt":
        "47df4c8f1c12432b22a0337a2edb62c23eb92a7de7c60b2a5e4ccab05ff7a808",
    "tightness":
        "7e0dabe788972e638bd6025f121e7d9936bb9fb1f804398fcbe61e0cda31108f",
    "w_positivity":
        "814a6dc6bf628643d4f09edfdd47cf8d98c3481fe86329d0ca55c38e80a38a0b",
    "w_positivity_heavy":
        "81f42de82a58e1171483f9f88bf6e600985dd280dc8bc9187a7dc15bfa340de1",
}


def output_sha256(tmp_path, name: str, threads: int = 2) -> dict:
    """sha256 of each file a run of ``CONFIGS[name]`` writes, by name."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / f"{name}-out"
    assert main(["run", str(cfg), "--threads", str(threads),
                 "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()}


@pytest.mark.parametrize("name,threads", [
    *(pytest.param(name, 2, id=name) for name in sorted(CONFIGS)),
    # the runs that draw random environments, and the path spread, at one
    # thread as well
    *(pytest.param(name, 1, id=f"{name}-threads1")
      for name in ("critical", "critical_gaussian", "critical_two_point",
                   "flt", "tightness")),
])
def test_results_digest(tmp_path, name, threads):
    digests = output_sha256(tmp_path, name, threads)
    assert digests["results.json"] == DIGESTS[name]
    assert digests.get("series.csv") == SERIES_DIGESTS.get(name)
