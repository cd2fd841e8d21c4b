"""Per-session random streams, seeded a block at a time.

The stream of index ``i`` under spawn key ``key`` is exactly
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))``.
Building that ``SeedSequence`` costs more than most sessions' own work,
so ``streams`` runs numpy's seeding arithmetic for a block of indices at
once: ``SeedSequence`` hashes and mixes the uint32 words of
``(seed, key, i)`` into a pool of four words and draws the PCG64 seed
from it. Every word before the index's is the same for the whole block
and is mixed once in Python integers; the index words and the draw run as
array arithmetic. Each row of seed words reaches ``PCG64`` through
``_SeedWords``, and PCG64 seeds itself from it as from a ``SeedSequence``;
such a generator draws as numpy's does but cannot ``spawn``.

Keys in use: 0 the sessions of ``simulator``, 1 the Poisson draw of each
A/B day, 3 the quotes of ``metrics.records_for_policy``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFF_FFFF
WORD = 1 << 32

BLOCK = 1024  # indices seeded per array pass


def _words(n: int) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of a non-negative int, low first."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    out = [n & MASK32]
    while n := n >> 32:
        out.append(n & MASK32)
    return out


# The helpers below take Python ints or uint64 arrays of uint32 values:
# a product of two such values fits in 64 bits, and masking keeps the low
# 32, which is the uint32 arithmetic of numpy's C code.

def _hashmix(value, const: int):
    """numpy's ``hashmix``: the hashed value and the next hash constant."""
    value = value ^ const
    const = const * MULT_A & MASK32
    value = value * const & MASK32
    return value ^ value >> XSHIFT, const


def _mix(x, y):
    result = MIX_MULT_L * x - MIX_MULT_R * y & MASK32
    return result ^ result >> XSHIFT


def _mix_in(pool: list, word, const: int) -> int:
    """Mix one entropy word past the pool size into every pool word, as
    ``SeedSequence.mix_entropy`` does; returns the next hash constant."""
    for dst in range(POOL_SIZE):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _prefix(seed: int, key: int) -> tuple[list[int], int]:
    """The pool and hash constant after every word of ``seed`` and ``key``,
    which come before the index's words."""
    entropy = _words(seed)
    entropy += [0] * (POOL_SIZE - len(entropy))  # numpy pads the seed when spawned
    entropy += _words(key)
    const = INIT_A
    pool = []
    for word in entropy[:POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[POOL_SIZE:]:
        const = _mix_in(pool, word, const)
    return pool, const


def seed_words(seed: int, key: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(key, i)).generate_state(4, np.uint64)``
    for each ``i`` in ``start..stop``, as rows of an (n, 4) array. Every
    index must have the same words above its lowest, that is, lie in one
    multiple of 2**32."""
    high = _words(start)[1:]
    if (stop - 1) >> 32 != start >> 32:
        raise ValueError(f"indices {start}..{stop} cross a multiple of 2**32")
    pool, const = _prefix(seed, key)
    low = np.arange(start & MASK32, ((stop - 1) & MASK32) + 1, dtype=np.uint64)
    const = _mix_in(pool, low, const)
    for word in high:
        const = _mix_in(pool, word, const)
    # generate_state(8 uint32 words), read as 4 little-endian uint64 words
    const = INIT_B
    state = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        state.append(value ^ value >> XSHIFT)
    return np.stack([state[2 * j] | state[2 * j + 1] << 32 for j in range(POOL_SIZE)],
                    axis=1)


class _SeedWords(ISeedSequence):
    """One row of ``seed_words``, served to PCG64 in place of its
    ``SeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("seeds PCG64 only: 4 uint64 words")
        return self.words


def streams(seed: int, key: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """The stream of each index in ``start..stop`` under spawn key ``key``,
    in index order; each equals
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))``.
    Iterating with a negative seed, key or index raises ``ValueError``, as
    numpy does."""
    while start < stop:
        cut = min(stop, start + BLOCK, (start // WORD + 1) * WORD)
        for words in seed_words(seed, key, start, cut):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
        start = cut


def stream(seed: int, key: int, index: int) -> np.random.Generator:
    """The stream of one index. An array pass costs more than numpy's own
    ``SeedSequence`` for a single index, so this is the definition itself."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, index)))
