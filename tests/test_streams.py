import numpy as np
import pytest

from bpve.streams import substream

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
