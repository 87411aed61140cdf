"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by
``(seed, stream_index)``.  A stream is fully determined by its key, so any
consumer can open stream ``i`` without generating streams ``0..i-1`` first.
This is what makes environment access random-access and Monte Carlo runs
reproducible under any worker scheduling.

The Philox key of stream ``(seed, index)`` is exactly the two 64-bit words
``(seed mod 2^64, index mod 2^64)`` and its counter starts at 0.  The key
reaches Philox through numpy's ``ISeedSequence`` interface, so opening a
stream draws no OS entropy: ``Philox(key=...)`` would first build a
``SeedSequence`` from ``os.urandom`` and then discard it.

numpy advances the counter before it computes a block, so a stream's first
block is Philox4x64-10 of the key at counter ``(1, 0, 0, 0)``, and its first
two ``random()`` values are that block's first two words ``w`` as
``(w >> 11) * 2^-53``.  Counter-based streams need no state to reach those
values (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011), so :func:`first_uniforms` computes them for many keys in one array
pass, bitwise equal to opening each stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_PASS_KEYS = 2**16  # keys per Philox pass; bounds the temporaries


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two key words verbatim."""

    __slots__ = ("words",)

    def __init__(self, seed: int, index: int):
        self.words = np.array([seed & _MASK64, index & _MASK64],
                              dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.words


def substream(seed: int, index: int) -> np.random.Generator:
    """Open the ``index``-th independent stream under ``seed``.

    Two calls with the same ``(seed, index)`` return generators producing
    bitwise-identical output.  Every call returns a fresh generator, so
    streams can be consumed concurrently.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, index)))


def _key_words(values, nonnegative: bool = False) -> np.ndarray:
    """Integers ``values`` as uint64 key words ``value mod 2^64``; with
    ``nonnegative``, a negative value is a ``ValueError``."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.asarray(values, dtype=object)  # exact Python integers
    if nonnegative and (values < 0).any():
        raise ValueError("stream index must be >= 0")
    if values.dtype == object:
        values = np.frompyfunc(lambda v: int(v) & _MASK64, 1, 1)(values)
    return np.asarray(values).astype(np.uint64)  # int64 wraps mod 2^64


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit products ``m * x``, from 32-bit
    limbs (numpy has no 128-bit integer); uint64 arithmetic wraps."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> np.uint64(32)
    mid = m_hi * x_lo
    cross = (m_lo * x_lo >> np.uint64(32)) + (mid & _LOW32) + m_lo * x_hi
    hi = m_hi * x_hi + (mid >> np.uint64(32)) + (cross >> np.uint64(32))
    return hi, np.uint64(m) * x


def _first_block_words(k0: np.ndarray, k1: np.ndarray):
    """Words 0 and 1 of Philox4x64-10 at counter ``(1, 0, 0, 0)`` under
    keys ``(k0, k1)``."""
    c0 = np.ones_like(k0)
    c1, c2, c3 = np.zeros_like(k0), np.zeros_like(k0), np.zeros_like(k0)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


def first_uniforms(seeds, indices, width: int) -> np.ndarray:
    """``substream(seed, index).random(width)``, ``width`` 1 or 2, for every
    key pair in one vectorized Philox evaluation: ``seeds`` and ``indices``
    (integers, or integer arrays) broadcast against each other, then a last
    axis of ``width``.  Bitwise equal to opening each stream."""
    k0, k1 = np.broadcast_arrays(_key_words(seeds),
                                 _key_words(indices, nonnegative=True))
    out = np.empty(k0.shape + (width,))
    flat = out.reshape(-1, width)
    for lo in range(0, len(flat), _PASS_KEYS):
        hi = lo + _PASS_KEYS
        words = _first_block_words(k0.flat[lo:hi], k1.flat[lo:hi])
        for j in range(width):
            flat[lo:hi, j] = (words[j] >> np.uint64(11)) * 2.0**-53
    return out
