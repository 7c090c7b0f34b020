import numpy as np
import pytest

STREAM_CONSTRUCTORS = ("SeedSequence", "PCG64", "Generator", "default_rng")


@pytest.fixture
def stream_constructions(monkeypatch) -> dict[str, int]:
    """How often each np.random name that builds a stream is called during the test; reset it by assigning zeros."""
    counts = dict.fromkeys(STREAM_CONSTRUCTORS, 0)
    for name in STREAM_CONSTRUCTORS:
        build = getattr(np.random, name)

        def counting(*args, _name=name, _build=build, **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    return counts
