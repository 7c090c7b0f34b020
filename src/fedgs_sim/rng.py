"""Deterministic random streams.

All randomness derives from numpy's SeedSequence/PCG64: a stream is keyed by
the experiment seed plus a spawn key of small non-negative integers. The first
key component is a domain tag so that parameter init, data generation, and
per-round shuffling never share a stream. Streams are stable across runs of
the same build and do not depend on the order in which they are created.

Building a SeedSequence and a PCG64 costs about 15 µs per stream before the
first draw. `stream_seeds` computes the seeds of a whole column of keys in
one array pass instead, and `reseed` starts a reused Generator from one of
them; every stream starts this way. Both follow numpy's SeedSequence hash
(O'Neill's seed_seq) and PCG64 seeding, whose output NEP 19 freezes; the
tests pin them against numpy's own path.
"""

from __future__ import annotations

import numpy as np

INIT_STREAM = 0  # model parameter initialization
DATA_STREAM = 1  # synthetic sample generation, keyed (client, sample)
SHUFFLE_STREAM = 2  # per-round batch shuffling, keyed (round, client)

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# SeedSequence's hash constants: pool mix (A), output hash (B) and word mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of hash word `y` into pool word `x`."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def stream_seeds(seed: int, *key) -> np.ndarray:
    """(n, 4) uint64 rows: row i is SeedSequence(seed, spawn_key=key_i).generate_state(4, np.uint64).

    Each key entry is an int, shared by every row, or an (n,) integer array
    of values in [0, 2**32) whose element i goes into key_i. Each word of
    the hash is a Python int while it depends only on ints, so constant
    words are folded once, and a uint32 (n,) array, which wraps as the
    hash's uint32 arithmetic does, once a column enters it.
    """
    entropy: list = _words(seed)
    if key:  # as numpy does, a spawned sequence pads its run entropy to the pool size
        entropy += [0] * (_POOL_SIZE - len(entropy))
    n = 1
    for entry in key:
        if np.ndim(entry) == 0:
            entropy += _words(int(entry))
            continue
        if len(entry) and (entry.min() < 0 or entry.max() > _MASK32):
            raise ValueError("key column values must lie in [0, 2**32): a larger one is more than one hash word")
        entropy.append(entry.astype(np.uint32))
        n = len(entry)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    state = np.empty((n, 8), dtype="<u4")  # 4 uint64 words as little-endian uint32 pairs, as numpy builds them
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[:, i] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


def reseed(generator: np.random.Generator, row) -> None:
    """Set a PCG64 `generator` to the state PCG64 starts from with the seed `row`, a stream_seeds row.

    PCG64 reads the row as a 128-bit initial state and stream (most
    significant word first), then steps once from zero and once after adding
    the initial state. The half-used 32-bit draw that bounded integers keep
    is dropped, as in a new PCG64.
    """
    state_hi, state_lo, seq_hi, seq_lo = map(int, row)
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
