import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import rasterize_disk, read_written_pgm, replayed_images, substream

from fedgs_sim.data import (
    LESION_INTENSITY,
    LESIONS_PER_IMAGE,
    ClientData,
    ClientDataSpec,
    _stamp_disk,
    build_federation,
    dump_samples,
    generate_client_dataset,
)
from fedgs_sim.rng import DATA_STREAM
from fedgs_sim.masks import DifficultyConfig, difficulty_factor


def make_spec(**kwargs) -> ClientDataSpec:
    defaults = dict(n_samples=20, image_size=(32, 32), seed_offset=3)
    defaults.update(kwargs)
    return ClientDataSpec(**defaults)


def matching_threshold(spec: ClientDataSpec) -> float:
    """A threshold that exactly separates the two regimes under whole_mask.

    The smallest inverse area of a small sample is bounded below by
    HW / (max lesions * area of the largest small disk); the largest inverse
    area of a large sample is bounded above by HW / (area of one smallest
    large disk). Disjoint radius regimes keep these bounds ordered.
    """
    h, w = spec.image_size
    r_hi = spec.small_radius_range[1]
    max_small_area = LESIONS_PER_IMAGE[1] * np.pi * (r_hi + 0.6) ** 2
    big_r_lo = spec.large_radius_range[0]
    smallest_large_area = np.pi * (big_r_lo - 0.6) ** 2
    low = h * w / max_small_area
    high = h * w / smallest_large_area
    assert high < low, "radius regimes too close to separate"
    return float(np.sqrt(low * high))


class TestGeneration:
    def test_bit_identical_regeneration(self):
        spec = make_spec()
        a = generate_client_dataset(spec, 7)
        b = generate_client_dataset(spec, 7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.masks, b.masks)
        assert a.seed_offset == b.seed_offset
        assert np.array_equal(a.is_small, b.is_small)

    def test_different_seeds_differ(self):
        spec = make_spec()
        a = generate_client_dataset(spec, 1)
        b = generate_client_dataset(spec, 2)
        assert any(not np.array_equal(ma, mb) for ma, mb in zip(a.masks, b.masks))

    def test_small_fraction_zero_never_classifies_small(self):
        spec = make_spec(n_samples=100, small_fraction=0.0)
        tau = matching_threshold(spec)
        cfg = DifficultyConfig(log_base=100.0, threshold=tau, regime="whole_mask")
        dataset = generate_client_dataset(spec, 11)
        for mask, is_small in zip(dataset.masks, dataset.is_small):
            assert not is_small
            assert not difficulty_factor(mask, cfg).is_small

    def test_small_fraction_one_always_classifies_small(self):
        spec = make_spec(n_samples=100, small_fraction=1.0)
        tau = matching_threshold(spec)
        cfg = DifficultyConfig(log_base=100.0, threshold=tau, regime="whole_mask")
        dataset = generate_client_dataset(spec, 11)
        for mask, is_small in zip(dataset.masks, dataset.is_small):
            assert is_small
            assert difficulty_factor(mask, cfg).is_small

    def test_construction_flag_matches_classifier(self):
        spec = make_spec(n_samples=150, small_fraction=0.5)
        tau = matching_threshold(spec)
        cfg = DifficultyConfig(log_base=100.0, threshold=tau, regime="whole_mask")
        dataset = generate_client_dataset(spec, 5)
        for mask, is_small in zip(dataset.masks, dataset.is_small):
            assert difficulty_factor(mask, cfg).is_small == is_small

    def test_infeasible_radius_rejected(self):
        # the spec itself is rejected, before any generation
        with pytest.raises(ValueError, match=r"^disk radius 10\.0 cannot fit fully inside a 8x8 image$"):
            make_spec(image_size=(8, 8), small_radius_range=(2.0, 2.0), large_radius_range=(10.0, 10.0))
        with pytest.raises(ValueError, match=r"^disk radius 9\.5 cannot fit fully inside a 21x20 image$"):
            make_spec(image_size=(21, 20), large_radius_range=(6.0, 9.5))
        make_spec(image_size=(21, 21), large_radius_range=(6.0, 9.5))  # 2 * ceil(9.5) + 1 = 21 fits

    def test_disks_fully_inside_frame(self):
        spec = make_spec(n_samples=60)
        for mask in generate_client_dataset(spec, 13).masks:
            assert mask[0, :].sum() == 0
            assert mask[-1, :].sum() == 0
            assert mask[:, 0].sum() == 0
            assert mask[:, -1].sum() == 0
            assert mask.sum() > 0

    def test_empirical_small_fraction_within_seven_points(self):
        # n=400 draws: binomial sigma is ~2.3pp at p=0.3, so a 7pp deviation
        # is beyond 3 sigma; with the fixed stream this is deterministic anyway
        spec = make_spec(n_samples=400, small_fraction=0.3)
        samples = generate_client_dataset(spec, 21)
        fraction = sum(samples.is_small) / len(samples)
        assert abs(fraction - 0.3) < 0.07

    def test_lesion_pixels_sit_above_noise_floor(self):
        spec = make_spec(n_samples=50, noise_std=0.3)
        violations = 0
        foreground = 0
        dataset = generate_client_dataset(spec, 17)
        for image, mask in zip(dataset.images, dataset.masks):
            fg = mask == 1
            foreground += int(fg.sum())
            violations += int((image[fg] < LESION_INTENSITY - 5 * spec.noise_std).sum())
        assert violations <= 0.001 * foreground

    def test_a_rare_noise_draw_raises_no_warning(self):
        # one lesion pixel of this one-sample client draws below -5 sigma (chance ~2.9e-7 per pixel,
        # the same for every spec): a well-formed client, generated silently
        spec = ClientDataSpec(n_samples=1, noise_std=0.5, seed_offset=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset = generate_client_dataset(spec, 2663)
        lesion = dataset.images[dataset.masks.view(bool)]
        assert np.count_nonzero(lesion < LESION_INTENSITY - 5 * spec.noise_std) == 1

    @pytest.mark.parametrize("seed, offset, size", [(7, 3, (32, 32)), (2, 0, (20, 28)), (5, 11, (64, 64))])
    def test_images_are_the_float64_draws_stored_as_float32(self, seed, offset, size):
        spec = make_spec(n_samples=12, image_size=size, small_fraction=0.5, seed_offset=offset)
        images = generate_client_dataset(spec, seed).images
        assert images.dtype == np.float32
        assert images.tobytes() == replayed_images(spec, seed).astype(np.float32).tobytes()

    @given(
        st.floats(0.0, 9.0, exclude_min=True),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 99),
        st.integers(0, 99),
        st.integers(0, 2),
        st.integers(0, 9),
    )
    def test_stamp_sets_the_disk_on_top_of_what_is_there(
        self, radius, spare_rows, spare_cols, row_pick, col_pick, extra_reach, seed
    ):
        # a centre the generator can draw, ceil(radius) from every edge, and a table at least as wide as the disk
        margin = math.ceil(radius)
        height, width = 2 * margin + 1 + spare_rows, 2 * margin + 1 + spare_cols
        cy, cx = margin + row_pick % (spare_rows + 1), margin + col_pick % (spare_cols + 1)
        mask = (np.random.default_rng(seed).random((height, width)) < 0.2).astype(np.uint8)
        expected = mask | rasterize_disk(height, width, cy, cx, radius)
        _stamp_disk(mask, cy, cx, radius, math.floor(radius) + extra_reach)
        assert mask.dtype == np.uint8 and np.array_equal(mask, expected)

    def test_stamp_is_the_disk_at_every_radius_of_a_fine_grid(self):
        # steps of 1/64 hit every integer radius r, where the pixels with d2 == r*r sit on the boundary;
        # sqrt(d2) for every d2 a table holds puts each distance on it once more
        reach = 9
        radii = np.concatenate([np.arange(1, 64 * (reach + 1)) / 64, np.sqrt(np.arange(1, (reach + 1) ** 2))])
        for radius in radii[radii < reach + 1].tolist():
            margin = math.ceil(radius)
            tight = (2 * margin + 1, 2 * margin + 1, margin, margin)
            loose = (2 * margin + 4, 2 * margin + 7, margin + 3, margin)
            for height, width, cy, cx in (tight, loose):
                for table in (math.floor(radius), reach):
                    mask = np.zeros((height, width), dtype=np.uint8)
                    _stamp_disk(mask, cy, cx, radius, table)
                    assert np.array_equal(mask, rasterize_disk(height, width, cy, cx, radius)), (radius, table)

    @pytest.mark.parametrize("key", [(DATA_STREAM, 3, 0), (DATA_STREAM, 0, 17), (0,)])
    def test_substream_is_the_default_rng_stream(self, key):
        expected = np.random.default_rng(np.random.SeedSequence(811, spawn_key=key))
        rng = substream(811, *key)
        assert rng.random(5).tolist() == expected.random(5).tolist()
        assert rng.normal(size=7).tobytes() == expected.normal(size=7).tobytes()

    def test_masks_are_read_only(self):
        dataset = generate_client_dataset(make_spec(n_samples=3), 4)
        with pytest.raises(ValueError, match="read-only"):
            dataset.masks[0, 5, 5] = 1
        with pytest.raises(ValueError, match="read-only"):
            dataset.masks[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            dataset.images[0, 5, 5] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dataset.images[2] += 1.0


def _with_pixel(value):
    def corrupt(images, masks, is_small):
        images[1, 2, 3] = value
        return images, masks, is_small

    return corrupt


# (bad input, a fragment of the ValueError message it raises), each applied
# to a well-formed 4-sample 8x8 client
BAD_CLIENT_DATA = {
    "nan-pixel": (_with_pixel(np.nan), "non-finite"),
    "plus-inf-pixel": (_with_pixel(np.inf), "non-finite"),
    "minus-inf-pixel": (_with_pixel(-np.inf), "non-finite"),
    "float64-images": (lambda i, m, s: (i.astype(np.float64), m, s), "float32"),
    "no-samples": (lambda i, m, s: (i[:0], m[:0], s[:0]), "non-empty"),
    "2x2-images": (lambda i, m, s: (i[:, :2, :2], m[:, :2, :2], s), "H and W >= 3"),
    "mask-cell-2": (lambda i, m, s: (i, np.where(m == 1, np.uint8(2), m), s), "0s and 1s"),
    "int64-masks": (lambda i, m, s: (i, m.astype(np.int64), s), "uint8"),
    "mask-shape": (lambda i, m, s: (i, m[:, :, :7], s), r"mask stack \(4, 8, 7\)"),
    "is-small-length": (lambda i, m, s: (i, m, s[:3]), "is_small of shape"),
}


@pytest.mark.parametrize("corrupt, message", BAD_CLIENT_DATA.values(), ids=BAD_CLIENT_DATA.keys())
def test_client_data_rejects_bad_input_at_construction(corrupt, message):
    rng = np.random.default_rng(0)
    images = rng.normal(size=(4, 8, 8)).astype(np.float32)
    masks = (images > 0).astype(np.uint8)
    is_small = np.zeros(4, dtype=bool)
    well_formed = ClientData(images.copy(), masks.copy(), is_small, seed_offset=6)
    assert not well_formed.images.flags.writeable and not well_formed.masks.flags.writeable
    with pytest.raises(ValueError, match=f"client 6: .*{message}"):
        ClientData(*corrupt(images, masks, is_small), seed_offset=6)


class TestFederation:
    def test_last_spec_is_test_center(self):
        specs = [make_spec(seed_offset=i) for i in range(5)]
        federation = build_federation(specs, 3)
        assert len(federation.clients) == 4
        assert len(federation.test_set) == specs[-1].n_samples

    def test_requires_two_specs(self):
        with pytest.raises(ValueError):
            build_federation([make_spec()], 0)

    def test_client_data_keyed_by_offset_not_position(self):
        specs = [make_spec(seed_offset=i) for i in (1, 2, 3)]
        fed_a = build_federation(specs, 9)
        fed_b = build_federation([specs[1], specs[0], specs[2]], 9)
        # client with offset 1 sees the same data regardless of list position
        sa, sb = fed_a.clients[0], fed_b.clients[1]
        assert np.array_equal(sa.images, sb.images)
        assert np.array_equal(sa.masks, sb.masks)

    def test_provenance_disjoint_between_test_and_train(self):
        specs = [make_spec(seed_offset=i) for i in (1, 2, 7)]
        federation = build_federation(specs, 4)
        train_clients = {c.seed_offset for c in federation.clients}
        test_clients = {federation.test_set.seed_offset}
        assert train_clients.isdisjoint(test_clients)

    def test_clients_are_what_each_client_generates_alone(self):
        # one seeding pass for the whole federation, cut into clients of unequal sizes, in a permuted order
        specs = [
            make_spec(n_samples=n, seed_offset=offset, small_fraction=0.5, image_size=size)
            for n, offset, size in ((5, 9, (32, 32)), (1, 2, (20, 28)), (12, 0, (32, 32)), (3, 4, (24, 24)))
        ]
        federation = build_federation(specs, 811)
        for spec, built in zip(specs, federation.clients + [federation.test_set]):
            alone = generate_client_dataset(spec, 811)
            assert built.seed_offset == alone.seed_offset
            for name in ("images", "masks", "is_small"):
                assert getattr(built, name).tobytes() == getattr(alone, name).tobytes(), (spec.seed_offset, name)
            assert alone.images.tobytes() == replayed_images(spec, 811).astype(np.float32).tobytes()


def test_build_federation_seeds_per_client_not_per_sample(stream_constructions):
    counts, seen = stream_constructions, []
    for n in (2, 9):
        build_federation([make_spec(n_samples=n, seed_offset=i) for i in range(3)], 4)
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    assert seen[0] == seen[1]
    assert seen[0]["SeedSequence"] == 0


def test_dump_writes_pairs_and_manifest(tmp_path):
    spec = make_spec(n_samples=3)
    samples = generate_client_dataset(spec, 2)
    dump_samples(tmp_path, samples)
    for i, mask in enumerate(samples.masks):
        assert read_written_pgm(tmp_path / f"img_{i:04d}.pgm").shape == mask.shape
        assert np.array_equal(read_written_pgm(tmp_path / f"msk_{i:04d}.pgm"), mask * 255)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        ident, client, is_small = line.split()
        assert ident == f"{i:04d}"
        assert client == str(spec.seed_offset)
        assert is_small in {"0", "1"}


def dump_one(tmp_path, image, mask):
    """dump_samples of a one-sample client holding `image` (as float32) and `mask`; returns the output directory."""
    sample = ClientData(
        np.asarray(image, dtype=np.float32)[None], np.asarray(mask, dtype=np.uint8)[None], np.zeros(1, bool), 0
    )
    dump_samples(tmp_path, sample)
    return tmp_path


def test_dump_mask_roundtrip(tmp_path):
    mask = (np.random.default_rng(11).random((17, 23)) > 0.6).astype(np.uint8)
    out = dump_one(tmp_path, np.zeros((17, 23)), mask)
    assert np.array_equal(read_written_pgm(out / "msk_0000.pgm"), mask * 255)


def test_dump_writes_masks_as_exactly_0_and_255(tmp_path):
    out = dump_one(tmp_path, np.zeros((3, 3)), np.indices((3, 3)).sum(axis=0) % 2)
    assert set(np.unique(read_written_pgm(out / "msk_0000.pgm"))) == {0, 255}


def test_dump_header_layout(tmp_path):
    out = dump_one(tmp_path, np.zeros((3, 5)), np.ones((3, 5)))
    for name in ("img_0000.pgm", "msk_0000.pgm"):
        data = (out / name).read_bytes()
        assert data.startswith(b"P5\n5 3\n255\n")
        assert len(data) == len(b"P5\n5 3\n255\n") + 15


def test_dump_gray_clamps_and_rounds_in_float64(tmp_path):
    image = np.array([[-0.5, 0.0, 0.5], [2.0, 0.3, 1.0], [0.0, 0.0, 0.0]])
    raw = read_written_pgm(dump_one(tmp_path, image, np.zeros((3, 3))) / "img_0000.pgm")
    assert raw[0, 0] == 0 and raw[1, 0] == 255 and raw[1, 2] == 255
    assert raw[0, 2] == 128  # 0.5 * 255 rounds to 128
    # float32 0.3 is 0.30000001: times 255 it is 76.5000030 in float64 (77) but 76.5 in float32 (76)
    assert raw[1, 1] == 77


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(n_samples=0)
    with pytest.raises(ValueError):
        make_spec(small_radius_range=(2.0, 7.0), large_radius_range=(6.0, 9.0))
    with pytest.raises(ValueError):
        make_spec(small_fraction=1.5)
