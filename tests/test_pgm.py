import numpy as np
from oracles import read_written_pgm

from fedgs_sim.pgm import write_gray_pgm, write_mask_pgm


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    mask = (rng.random((17, 23)) > 0.6).astype(np.uint8)
    path = tmp_path / "m.pgm"
    write_mask_pgm(path, mask)
    assert np.array_equal(read_written_pgm(path), mask * 255)


def test_writer_emits_exactly_0_and_255(tmp_path):
    mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    path = tmp_path / "m.pgm"
    write_mask_pgm(path, mask)
    raw = read_written_pgm(path)
    assert set(np.unique(raw)) == {0, 255}


def test_header_layout(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask_pgm(path, np.ones((3, 5), dtype=np.uint8))
    data = path.read_bytes()
    assert data.startswith(b"P5\n5 3\n255\n")
    assert len(data) == len(b"P5\n5 3\n255\n") + 15


def test_gray_write_clamps(tmp_path):
    image = np.array([[-0.5, 0.0], [0.5, 2.0]])
    path = tmp_path / "g.pgm"
    write_gray_pgm(path, image)
    raw = read_written_pgm(path)
    assert raw[0, 0] == 0 and raw[1, 1] == 255
    assert raw[1, 0] == 128  # 0.5 * 255 rounds to 128
