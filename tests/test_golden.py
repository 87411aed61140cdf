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
        "972a56be1ac50dc2e8bab82f99e758def4f64580e618620797cdc78121e4f658",
    "flt":
        "0655abcce263ab89b34e280a9966ac166d3682811eeff3590ff4224f6cad8b3e",
    "halving":
        "96c3498cf1135a2551f8fad8f66890fe0df28cc9b5f898de0b40aa461874a768",
    "l2":
        "b66bd39e1ea3d806f98dd4e01e83ef8cb97042d626ae7850499b481e5d3bb786",
    "survival":
        "395a922fb06d8b614960b8107716de319b2c18db4e4c66aa182fb764a3d4e6aa",
    "tightness":
        "50095ce777a98938e9c1e2abb6073befa99813dd4c38a5bff5c6255151ab1e5c",
    "w_positivity":
        "474cb65a9b74a0e13441be7311e0228fd2553c76e6e30f37a2ca01c1e3024996",
    "w_positivity_heavy":
        "9c0e772e46a6d0e06420254b6400aa0516bc7e6b77c57e2118e6c4f1a5ea0bcf",
}

SERIES_DIGESTS = {
    "critical":
        "d5587ae25d0844a3b34168dd4c5a78f527ef5d947a7504f80b58bc315ba5d362",
    "flt":
        "3253ef73aafab6d8ef8d6320c9723af316fa385d7d999aa39797ebfe583ae7fa",
    "tightness":
        "7e0dabe788972e638bd6025f121e7d9936bb9fb1f804398fcbe61e0cda31108f",
    "w_positivity":
        "aad39d9134dd55fbb4f1bd87eb66c7b4f5f06555e822f392424bd562af887c07",
    "w_positivity_heavy":
        "ea10c1b97685bdee1b9276e103bb69057f49d32c3159399ac756be8009b247e8",
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
    # the runs that draw random environments, at one thread as well
    *(pytest.param(name, 1, id=f"{name}-threads1")
      for name in ("critical", "tightness")),
])
def test_results_digest(tmp_path, name, threads):
    digests = output_sha256(tmp_path, name, threads)
    assert digests["results.json"] == DIGESTS[name]
    assert digests.get("series.csv") == SERIES_DIGESTS.get(name)
