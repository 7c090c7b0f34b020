"""Deterministic random streams.

All randomness derives from numpy's SeedSequence/PCG64: a stream is keyed by
the experiment seed plus a spawn key of small non-negative integers. The first
key component is a domain tag so that parameter init, data generation, and
per-round shuffling never share a stream. Streams are stable across runs of
the same build and do not depend on the order in which they are created.
"""

from __future__ import annotations

import numpy as np

INIT_STREAM = 0  # model parameter initialization
DATA_STREAM = 1  # synthetic sample generation, keyed (client, sample)
SHUFFLE_STREAM = 2  # per-round batch shuffling, keyed (round, client)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, key): what default_rng builds from its SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))
