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
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


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
