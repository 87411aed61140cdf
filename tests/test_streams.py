import numpy as np
import pytest

from bpve import streams
from bpve.streams import first_uniforms, substream

MASK = (1 << 64) - 1


def keyed_philox(seed, index):
    """The reference construction: Philox with an explicit key."""
    key = np.array([seed & MASK, index & MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(rng):
    return (rng.random(1000), rng.standard_normal(1000),
            rng.multinomial(50, [0.2, 0.3, 0.5], size=1000))


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2**40])
def test_substream_matches_keyed_philox(seed, index):
    got, want = substream(seed, index), keyed_philox(seed, index)
    state, ref = got.bit_generator.state, want.bit_generator.state
    assert np.array_equal(state["state"]["key"], ref["state"]["key"])
    assert np.array_equal(state["state"]["counter"], [0, 0, 0, 0])
    assert np.array_equal(state["state"]["counter"], ref["state"]["counter"])
    for a, b in zip(draws(got), draws(want)):
        assert np.array_equal(a, b)


def test_substream_returns_fresh_generators():
    a, b = substream(3, 4), substream(3, 4)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(10)
    assert np.array_equal(b.random(10), first)
    assert not np.array_equal(a.random(10), first)


def test_substream_draws_no_os_entropy(monkeypatch):
    def refuse(*args):
        raise AssertionError("substream asked for OS entropy")
    # numpy's SeedSequence() reads entropy through random.SystemRandom
    monkeypatch.setattr("random._urandom", refuse)
    with pytest.raises(AssertionError):
        np.random.SeedSequence()
    substream(1, 2).random()


def test_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        substream(0, -1)


SEEDS = [0, 1, -1, 2**63 + 5, 2**64 - 1]
INDICES = list(range(1001)) + [2**40, 2**63, 2**64 - 1]


def test_first_uniforms_match_substreams():
    # every seed against every index, mixed seeds in one call
    for width in (1, 2):
        want = np.array([[substream(s, i).random(width) for i in INDICES]
                         for s in SEEDS])
        got = first_uniforms(np.array(SEEDS, dtype=object)[:, None],
                             np.array(INDICES, dtype=object), width)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        pairs = [(s, i) for s in SEEDS for i in INDICES]
        flat = first_uniforms([s for s, _ in pairs], [i for _, i in pairs],
                              width)
        assert np.array_equal(flat, want.reshape(-1, width))


def test_first_uniforms_integer_arrays_and_scalars():
    seeds = np.array([-1, 0, 7, 2**62], dtype=np.int64)
    indices = np.array([0, 3, 2**40, 9], dtype=np.uint64)
    for width in (1, 2):
        want = [substream(int(s), int(i)).random(width)
                for s, i in zip(seeds, indices)]
        assert np.array_equal(first_uniforms(seeds, indices, width), want)
        assert np.array_equal(first_uniforms(3, 4, width),
                              substream(3, 4).random(width))
        assert first_uniforms([], [], width).shape == (0, width)


def test_first_uniforms_across_passes(monkeypatch):
    monkeypatch.setattr(streams, "_PASS_KEYS", 7)
    seeds = np.arange(5)[:, None] * 1000003
    indices = np.arange(1, 24)
    for width in (1, 2):
        want = [[substream(int(s), int(i)).random(width) for i in indices]
                for s in seeds[:, 0]]
        assert np.array_equal(first_uniforms(seeds, indices, width), want)


@pytest.mark.parametrize("indices", [[-1], np.array([2, -1])])
def test_first_uniforms_reject_negative_index(indices):
    with pytest.raises(ValueError):
        first_uniforms(0, indices, 1)
