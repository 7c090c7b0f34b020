import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import substream

from fedgs_sim.rng import DATA_STREAM, reseed, stream_seeds


@st.composite
def keys(draw):
    """A spawn key of 1-3 entries, each an int (several hash words above 2**32) or a column of one length."""
    n = draw(st.integers(1, 4))
    column = st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n).map(np.array)
    return draw(st.lists(st.one_of(st.integers(0, 2**70), column), min_size=1, max_size=3))


def rows_of(key) -> list[tuple[int, ...]]:
    """The spawn key of each row: a column gives row i its element i, an int every row itself."""
    columns = [entry for entry in key if not isinstance(entry, int)]
    n = len(columns[0]) if columns else 1
    return [tuple(entry if isinstance(entry, int) else int(entry[i]) for entry in key) for i in range(n)]


@given(st.integers(0, 2**96 - 1), keys())
def test_stream_seeds_are_numpys_seed_sequence_states(seed, key):
    expected = [np.random.SeedSequence(seed, spawn_key=row).generate_state(4, np.uint64) for row in rows_of(key)]
    seeds = stream_seeds(seed, *key)
    assert seeds.dtype == np.uint64 and seeds.shape == (len(expected), 4)
    assert seeds.tobytes() == np.array(expected).tobytes()


@given(st.integers(0, 2**96 - 1), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), st.integers(0, 3))
def test_reseed_starts_where_a_new_substream_starts(seed, key, pairs):
    generator = np.random.default_rng(7)
    # an odd number of small-range draws leaves half of a 64-bit output buffered, which a new stream does not have
    generator.integers(0, 10, size=2 * pairs + 1)
    assert generator.bit_generator.state["has_uint32"] == 1
    reseed(generator, stream_seeds(seed, *key)[0])
    expected = substream(seed, *key)
    assert generator.bit_generator.state == expected.bit_generator.state
    assert generator.integers(0, 10, size=9).tobytes() == expected.integers(0, 10, size=9).tobytes()
    assert generator.normal(size=5).tobytes() == expected.normal(size=5).tobytes()


def test_reseed_takes_a_row_as_numpy_words_or_python_ints():
    seeds = stream_seeds(811, DATA_STREAM, 3, np.arange(4))
    from_words, from_ints = np.random.default_rng(0), np.random.default_rng(0)
    reseed(from_words, seeds[2])
    reseed(from_ints, seeds.tolist()[2])
    expected = substream(811, DATA_STREAM, 3, 2).random(3).tobytes()
    assert from_words.random(3).tobytes() == from_ints.random(3).tobytes() == expected


@pytest.mark.parametrize("column", [[0, 2**32], [2**40], [-1, 3]])
def test_a_column_value_outside_one_hash_word_is_rejected(column):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        stream_seeds(5, DATA_STREAM, np.array(column, dtype=np.int64))

