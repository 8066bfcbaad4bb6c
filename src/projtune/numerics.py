"""Dense float64 linear algebra, row norms, and reproducible randomness.

Everything downstream (models, optimizers, the audit, the benchmark) works on
plain row-major ``float64`` numpy arrays. Vectors are treated as single-row
matrices where a 2-D view is needed. All randomness flows through
:class:`SeededRng`, a counter-based generator (Philox) so that a run is
reproducible byte-for-byte from its seed on any platform.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

__all__ = ["SeededRng", "as_matrix", "mars_norm"]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), for hashing many
# stream keys at once; it has been stable since SeedSequence was added.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4   # SeedSequence's default, and Philox's key is four uint32 words
# counters hashed per batch, which bounds the keys held at once
_KEY_CHUNK = 1024


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 array; 1-D input becomes a single row.

    Raises DomainError for empty input or rank > 2.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DomainError(f"expected a matrix or vector, got rank {arr.ndim}")
    if arr.size == 0:
        raise DomainError("empty matrix")
    return np.ascontiguousarray(arr)


def mars_norm(w) -> float:
    """Maximum absolute row sum of ``w``: the l_inf->l_inf operator norm."""
    m = as_matrix(w)
    return float(np.abs(m).sum(axis=1).max())


def _n_words(n: int) -> int:
    """How many uint32 words SeedSequence splits the nonnegative int ``n`` into."""
    return max(1, (n.bit_length() + 31) // 32)


def _hashmix(words: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of uint32 ``words``; returns the result and the next constant."""
    out = words ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    out *= np.uint32(const)
    out ^= out >> np.uint32(16)
    return out, const


def _stream_keys(seed: int, prefix: tuple[int, ...], words: np.ndarray) -> np.ndarray:
    """The Philox key of ``SeedSequence(seed, spawn_key=prefix + tuple(row))`` per ``words`` row.

    ``words`` is an (n, m) uint32 array: each row's trailing spawn-key words,
    one word per value below 2**32. ``prefix`` must not be empty, so that the
    seed is padded to a full pool and the trailing words only continue the
    hash. The hash of the prefix is numpy's own; the rest is the same uint32
    arithmetic on every row at once. Returns an (n, 2) uint64 array.
    """
    seq = np.random.SeedSequence(seed, spawn_key=prefix, pool_size=_POOL_SIZE)
    n_entropy = max(_n_words(seed), _POOL_SIZE) + sum(_n_words(s) for s in prefix)
    # mixing n entropy words into the pool takes n hashmix calls per pool word
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_entropy, 1 << 32) & _MASK32
    pool = np.repeat(seq.pool[None, :], len(words), axis=0)
    for column in words.T:
        for i in range(_POOL_SIZE):
            hashed, const = _hashmix(column, const)
            mixed = pool[:, i] * np.uint32(_MIX_L)
            mixed -= hashed * np.uint32(_MIX_R)
            mixed ^= mixed >> np.uint32(16)
            pool[:, i] = mixed
    # generate_state(2, np.uint64): one uint32 word per pool word, read as two
    # little-endian uint64
    state = np.empty_like(pool)
    const = _INIT_B
    for i in range(_POOL_SIZE):
        state[:, i] = pool[:, i] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        state[:, i] *= np.uint32(const)
        state[:, i] ^= state[:, i] >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PhiloxKey(ISeedSequence):
    """A seed sequence whose Philox key is already hashed; Philox asks it for that key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.key) or np.dtype(dtype) != np.uint64:
            raise TypeError(f"a stream key holds {len(self.key)} uint64 words, "
                            f"not {n_words} of {dtype}")
        return self.key


class SeededRng:
    """Counter-based random generator owned by a single run.

    Built on numpy's Philox bit generator: the same ``(seed, stream)`` pair
    yields the same sample sequence on every platform. ``derive`` creates an
    independent child stream from integer tags, which is how the benchmark
    draws per-iteration batches without carrying mutable RNG state between
    checkpoints; ``streams`` gives the children of a run of counters and
    hashes their keys together.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.stream))
        )

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"

    @classmethod
    def _keyed(cls, seed: int, stream: tuple[int, ...], key: np.ndarray) -> "SeededRng":
        """``SeededRng(seed, stream)`` built from its already hashed Philox ``key``."""
        rng = cls.__new__(cls)
        rng.seed = seed
        rng.stream = stream
        rng._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key)))
        return rng

    def derive(self, *tags: int) -> "SeededRng":
        """Independent child generator keyed by ``tags`` (order matters)."""
        return SeededRng(self.seed, self.stream + tuple(int(t) for t in tags))

    def streams(self, tag: int, counters: range, width: Optional[int] = None) -> Iterator:
        """``derive(tag, t)`` for each ``t`` in ``counters``, the keys hashed a batch at a time.

        With ``width``, each item is instead the list of ``derive(tag, t, j)``
        for ``j`` below ``width``. Every generator is a fresh one and draws
        exactly what ``derive`` would give. Counters outside ``[0, 2**32)``
        take ``derive`` itself.
        """
        tag = int(tag)
        prefix = self.stream + (tag,)
        subs = [()] if width is None else [(j,) for j in range(width)]
        for start in range(0, len(counters), _KEY_CHUNK):
            chunk = counters[start:start + _KEY_CHUNK]
            tails = [(t, *sub) for t in chunk for sub in subs]
            if min(chunk) >= 0 and max(chunk) <= _MASK32:
                words = np.array(tails, np.uint32).reshape(len(tails), 1 if width is None else 2)
                keys = _stream_keys(self.seed, prefix, words)
                rngs = (SeededRng._keyed(self.seed, prefix + tail, key)
                        for tail, key in zip(tails, keys))
            else:
                rngs = (self.derive(tag, *tail) for tail in tails)
            for _ in chunk:
                items = [next(rngs) for _ in subs]
                yield items[0] if width is None else items

    # -- sampling ---------------------------------------------------------

    def normal(self, shape, mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
        if stddev < 0:
            raise DomainError(f"negative stddev: {stddev}")
        return mean + stddev * self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64, copy=False)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)
