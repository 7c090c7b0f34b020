import numpy as np
import pytest

from fedgs_sim.data import (
    ClientData,
    ClientDataSpec,
    InfeasibleSpecError,
    build_federation,
    dump_samples,
    generate_client_dataset,
)
from fedgs_sim.masks import DifficultyConfig, ShapeMismatchError, difficulty_factor
from fedgs_sim.pgm import read_mask_pgm


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
    max_small_area = spec.lesions_per_image[1] * np.pi * (r_hi + 0.6) ** 2
    big_r_lo = spec.large_radius_range[0]
    min_large_area = np.pi * (big_r_lo - 0.6) ** 2
    low = h * w / max_small_area
    high = h * w / min_large_area
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
        spec = make_spec(image_size=(8, 8), small_radius_range=(2.0, 2.0), large_radius_range=(10.0, 10.0))
        with pytest.raises(InfeasibleSpecError):
            generate_client_dataset(spec, 0)

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
            violations += int((image[fg] < spec.lesion_intensity - 5 * spec.noise_std).sum())
        assert violations <= 0.001 * foreground


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


# (bad input, the error it raises, a fragment of its message), each applied
# to a well-formed 4-sample 8x8 client
BAD_CLIENT_DATA = {
    "nan-pixel": (_with_pixel(np.nan), ValueError, "non-finite"),
    "plus-inf-pixel": (_with_pixel(np.inf), ValueError, "non-finite"),
    "minus-inf-pixel": (_with_pixel(-np.inf), ValueError, "non-finite"),
    "float32-images": (lambda i, m, s: (i.astype(np.float32), m, s), ValueError, "float64"),
    "no-samples": (lambda i, m, s: (i[:0], m[:0], s[:0]), ValueError, "non-empty"),
    "2x2-images": (lambda i, m, s: (i[:, :2, :2], m[:, :2, :2], s), ValueError, "H and W >= 3"),
    "mask-cell-2": (lambda i, m, s: (i, np.where(m == 1, np.uint8(2), m), s), ValueError, "0s and 1s"),
    "int64-masks": (lambda i, m, s: (i, m.astype(np.int64), s), ValueError, "uint8"),
    "mask-shape": (lambda i, m, s: (i, m[:, :, :7], s), ShapeMismatchError, r"mask stack \(4, 8, 7\)"),
    "is-small-length": (lambda i, m, s: (i, m, s[:3]), ShapeMismatchError, "is_small of shape"),
}


@pytest.mark.parametrize("corrupt, error, message", BAD_CLIENT_DATA.values(), ids=BAD_CLIENT_DATA.keys())
def test_client_data_rejects_bad_input_at_construction(corrupt, error, message):
    rng = np.random.default_rng(0)
    images = rng.normal(size=(4, 8, 8))
    masks = (images > 0).astype(np.uint8)
    is_small = np.zeros(4, dtype=bool)
    well_formed = ClientData(images.copy(), masks.copy(), is_small, seed_offset=6)
    assert not well_formed.images.flags.writeable and not well_formed.masks.flags.writeable
    with pytest.raises(error, match=f"client 6: .*{message}"):
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


def test_dump_writes_pairs_and_manifest(tmp_path):
    spec = make_spec(n_samples=3)
    samples = generate_client_dataset(spec, 2)
    dump_samples(tmp_path, samples)
    for i, mask in enumerate(samples.masks):
        assert (tmp_path / f"img_{i:04d}.pgm").exists()
        assert np.array_equal(read_mask_pgm(tmp_path / f"msk_{i:04d}.pgm"), mask)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        ident, client, is_small = line.split()
        assert ident == f"{i:04d}"
        assert client == str(spec.seed_offset)
        assert is_small in {"0", "1"}


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(n_samples=0)
    with pytest.raises(ValueError):
        make_spec(small_radius_range=(2.0, 7.0), large_radius_range=(6.0, 9.0))
    with pytest.raises(ValueError):
        make_spec(small_fraction=1.5)
    with pytest.raises(ValueError):
        make_spec(lesions_per_image=(0, 2))
