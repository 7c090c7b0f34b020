import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgs_sim import masks
from fedgs_sim.masks import (
    BadBatchError,
    DifficultyConfig,
    EmptyMaskError,
    batch_scaling_factor,
    delta_from_inverse_area,
    difficulty_factor,
    dilate,
    erode,
    inverse_relative_area,
    label_components,
    raw_difficulty,
    smallest_lesion_inverse_area,
)
from oracles import (
    CROSS3_OFFSETS,
    EIGHT_NEIGHBORS,
    FOUR_NEIGHBORS,
    SQUARE3_OFFSETS,
    flood_fill_components,
    rasterize_disk,
    shift_dilate,
    shift_erode,
    smallest_lesion_estimate,
)

# tanh((log_l a)^2) computed with mpmath at 50 digits before the build
TANH_ONE = 0.7615941559557649
RAW_L100 = {
    150: 0.8286596448838733,
    1_000: 0.9780261147388136,
    10_000: 0.9993292997390670,
    1_000_000: 0.9999999695400410,
}

small_masks = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=st.integers(0, 1))


def blob_cfg(**kwargs) -> DifficultyConfig:
    defaults = dict(log_base=100.0, threshold=150.0, regime="blob_split")
    defaults.update(kwargs)
    return DifficultyConfig(**defaults)


class TestInverseRelativeArea:
    def test_512_grid_1000_pixels(self):
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask.ravel()[:1000] = 1
        assert inverse_relative_area(mask) == pytest.approx(262.144)

    def test_full_coverage_is_one(self):
        assert inverse_relative_area(np.ones((32, 32), dtype=np.uint8)) == 1.0

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            inverse_relative_area(np.zeros((32, 32), dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            inverse_relative_area(np.full((4, 4), 3, dtype=np.uint8))


class TestErosion:
    def test_isolated_pixel_vanishes(self):
        mask = np.zeros((7, 7), dtype=np.uint8)
        mask[3, 3] = 1
        assert erode(mask, "square3", 1).sum() == 0

    def test_three_wide_strip_becomes_one_wide(self):
        mask = np.zeros((9, 9), dtype=np.uint8)
        mask[1:8, 3:6] = 1
        out = erode(mask, "square3", 1)
        expected = np.zeros_like(mask)
        expected[2:7, 4] = 1
        assert np.array_equal(out, expected)

    def test_zero_iterations_is_identity(self):
        mask = (np.random.default_rng(3).random((10, 10)) > 0.5).astype(np.uint8)
        assert np.array_equal(erode(mask, "square3", 0), mask)

    @pytest.mark.parametrize("iterations", [0, 1])
    @pytest.mark.parametrize("operation", [erode, dilate])
    def test_unknown_element_is_value_error_naming_it(self, operation, iterations):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        with pytest.raises(ValueError, match="diamond"):
            operation(mask, "diamond", iterations)

    @given(small_masks, st.sampled_from(["square3", "cross3"]))
    def test_anti_extensive(self, mask, element):
        out = erode(mask, element, 1)
        assert ((out == 1) <= (mask == 1)).all()

    @given(small_masks, st.sampled_from(["square3", "cross3"]))
    def test_composition_equals_two_iterations(self, mask, element):
        twice = erode(erode(mask, element, 1), element, 1)
        assert np.array_equal(twice, erode(mask, element, 2))

    @given(small_masks)
    def test_matches_definition_square3(self, mask):
        assert np.array_equal(erode(mask, "square3", 1), shift_erode(mask, SQUARE3_OFFSETS))

    @given(small_masks)
    def test_matches_definition_cross3(self, mask):
        assert np.array_equal(erode(mask, "cross3", 1), shift_erode(mask, CROSS3_OFFSETS))

    @pytest.mark.parametrize("element, offsets", [("square3", SQUARE3_OFFSETS), ("cross3", CROSS3_OFFSETS)])
    def test_one_pixel_wide_masks_match_definition(self, element, offsets):
        # every 1xN and Nx1 mask up to N = 6, 1x1 included, where each shift
        # that leaves the row or column must read background
        for n in range(1, 7):
            for cells in itertools.product((0, 1), repeat=n):
                row = np.array([cells], dtype=np.uint8)
                for mask in (row, row.T):
                    for iterations in range(4):
                        assert np.array_equal(erode(mask, element, iterations), shift_erode(mask, offsets, iterations))
                        assert np.array_equal(dilate(mask, element, iterations), shift_dilate(mask, offsets, iterations))


class TestLabelComponents:
    def test_two_disjoint_blobs(self):
        mask = np.zeros((12, 12), dtype=np.uint8)
        mask[1:2, 1:6] = 1
        mask[8:9, 2:7] = 1
        labeling = label_components(mask, 8)
        assert labeling.n_components == 2
        assert sorted(area for _, area in labeling.component_areas) == [5, 5]

    def test_empty_mask(self):
        labeling = label_components(np.zeros((5, 5), dtype=np.uint8), 8)
        assert labeling.n_components == 0
        assert labeling.labels.sum() == 0

    def test_diagonal_touch_depends_on_connectivity(self):
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        mask[3:5, 3:5] = 1
        assert label_components(mask, 8).n_components == 1
        assert label_components(mask, 4).n_components == 2

    @given(small_masks, st.sampled_from([4, 8]))
    def test_areas_partition_foreground(self, mask, connectivity):
        labeling = label_components(mask, connectivity)
        assert sum(area for _, area in labeling.component_areas) == int(mask.sum())
        # every foreground pixel is labeled, background never is
        assert ((labeling.labels > 0) == (mask == 1)).all()
        labels = [label for label, _ in labeling.component_areas]
        assert labels == list(range(1, len(labels) + 1))
        for label, area in labeling.component_areas:
            assert area >= 1
            assert int((labeling.labels == label).sum()) == area

    @given(small_masks, st.sampled_from([4, 8]))
    def test_matches_flood_fill(self, mask, connectivity):
        # the oracle seeds its fills in raster order, so its k-th component
        # is the k-th by first pixel: labels must match it exactly
        labeling = label_components(mask, connectivity)
        reference = flood_fill_components(mask, FOUR_NEIGHBORS if connectivity == 4 else EIGHT_NEIGHBORS)
        expected = np.zeros(mask.shape, dtype=int)
        for label, component in enumerate(reference, start=1):
            for pixel in component:
                expected[pixel] = label
        assert np.array_equal(labeling.labels, expected)
        assert labeling.component_areas == [(label, len(c)) for label, c in enumerate(reference, start=1)]

    def test_raster_order_of_first_pixel(self):
        # two runs of row 0 that meet in row 1 are one component, numbered by
        # its first pixel (0, 5); a bar that starts further left, a row lower,
        # comes second
        mask = np.zeros((6, 8), dtype=np.uint8)
        mask[0, 5] = mask[0, 7] = 1
        mask[1, 5:8] = 1
        mask[2, 0:3] = 1
        mask[4, 6] = 1
        labels = label_components(mask, 8).labels
        assert labels[0, 5] == labels[0, 7] == labels[1, 6] == 1
        assert labels[2, 0] == 2
        assert labels[4, 6] == 3


class TestSmallestLesion:
    def test_two_disks_uses_the_small_one(self):
        # r=50 disk plus a far-away r=5 disk on a 512x512 grid
        mask = rasterize_disk(512, 512, 200, 200, 50) | rasterize_disk(512, 512, 420, 420, 5)
        expected_area = smallest_lesion_estimate(mask)
        got = smallest_lesion_inverse_area(mask, blob_cfg())
        assert got == 512 * 512 / expected_area
        # sanity: the estimate tracks the small disk (area 81), not the big one
        assert 512 * 512 / 81 * 0.8 < got < 512 * 512 / 50

    def test_single_rectangle_matches_whole_mask_exactly(self):
        # opening with square3 recovers rectangles >= 3x3 exactly
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[10:20, 30:45] = 1
        assert smallest_lesion_inverse_area(mask, blob_cfg()) == inverse_relative_area(mask)

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            smallest_lesion_inverse_area(np.zeros((8, 8), dtype=np.uint8), blob_cfg())

    def test_erosion_wipeout_falls_back_to_raw_components(self):
        # two isolated pixels: erosion empties the mask; classify on raw blobs
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[2, 2] = 1
        mask[7, 7] = 1
        assert smallest_lesion_inverse_area(mask, blob_cfg()) == 100.0

    def test_zero_iterations_uses_smallest_raw_component(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        mask[7, 7] = 1
        cfg = blob_cfg(erosion_iterations=0)
        assert smallest_lesion_inverse_area(mask, cfg) == 100.0

    @pytest.mark.parametrize("diagonal_first", [True, False])
    def test_area_tie_goes_to_the_first_component_in_raster_order(self, diagonal_first):
        # two lesions that erode to two pixels each: a 3x4 bar (eroded 1x2,
        # rebuilt to 12 pixels) and two 3x3 squares offset by (1, 1) (eroded
        # to a diagonal pair, rebuilt to 14); the eroded areas tie, so the
        # lesion whose eroded first pixel comes first decides
        mask = np.zeros((16, 16), dtype=np.uint8)
        diagonal, bar = (1, 9) if diagonal_first else (9, 1)
        mask[diagonal : diagonal + 3, 2:5] = mask[diagonal + 1 : diagonal + 4, 3:6] = 1
        mask[bar : bar + 3, 8:12] = 1
        eroded = label_components(erode(mask), 8)
        assert [area for _, area in eroded.component_areas] == [2, 2]
        expected = 256 / (14 if diagonal_first else 12)
        assert smallest_lesion_inverse_area(mask, blob_cfg()) == expected
        assert mask.size / smallest_lesion_estimate(mask) == expected

    def test_validates_its_mask_once(self, monkeypatch):
        calls = []
        validate = masks.validate_mask

        def counted(mask):
            calls.append(mask)
            return validate(mask)

        monkeypatch.setattr(masks, "validate_mask", counted)
        smallest_lesion_inverse_area(build_attached_pair(), blob_cfg())
        assert len(calls) == 1

    @given(small_masks, st.integers(0, 2))
    def test_matches_reference_pipeline(self, mask, iterations):
        if mask.sum() == 0:
            return
        cfg = blob_cfg(erosion_iterations=iterations)
        expected = mask.size / smallest_lesion_estimate(mask, SQUARE3_OFFSETS, iterations)
        assert smallest_lesion_inverse_area(mask, cfg) == expected


class TestDifficultyFactor:
    def test_whole_mask_at_inverse_area_150(self):
        # 30x30 grid with 6 foreground pixels: inverse area exactly 150
        mask = np.zeros((30, 30), dtype=np.uint8)
        mask[0, :6] = 1
        cfg = DifficultyConfig(log_base=100.0, threshold=150.0, regime="whole_mask")
        result = difficulty_factor(mask, cfg)
        assert result.is_small
        assert result.inverse_area == 150.0
        assert result.delta == pytest.approx(RAW_L100[150], abs=1e-12)
        assert (math.log(150) / math.log(100)) ** 2 == pytest.approx(1.18384329, abs=1e-8)

    def test_gate_zeroes_delta_below_threshold(self):
        # inverse area exactly 100 < tau=150, despite tanh(1) ~ 0.76
        mask = np.zeros((30, 30), dtype=np.uint8)
        mask[0, :9] = 1
        cfg = DifficultyConfig(log_base=100.0, threshold=150.0, regime="whole_mask")
        result = difficulty_factor(mask, cfg)
        assert result.inverse_area == 100.0
        assert not result.is_small
        assert result.delta == 0.0

    def test_high_scale_config_at_threshold(self):
        # l=1000, tau=1000, inverse area exactly 1000 -> tanh(1)
        mask = np.zeros((100, 100), dtype=np.uint8)
        mask[0, :10] = 1
        cfg = DifficultyConfig(log_base=1000.0, threshold=1000.0, regime="whole_mask")
        result = difficulty_factor(mask, cfg)
        assert result.is_small
        assert result.delta == pytest.approx(TANH_ONE, abs=1e-12)

    def test_empty_mask_scores_zero(self):
        for regime in ("whole_mask", "blob_split"):
            cfg = DifficultyConfig(log_base=100.0, threshold=150.0, regime=regime)
            result = difficulty_factor(np.zeros((16, 16), dtype=np.uint8), cfg)
            assert result.inverse_area is None
            assert not result.is_small
            assert result.delta == 0.0

    @given(small_masks, st.floats(2.0, 1000.0), st.floats(1.0, 50.0))
    def test_delta_bounds_and_gate(self, mask, log_base, threshold):
        cfg = DifficultyConfig(log_base=log_base, threshold=threshold, regime="whole_mask")
        result = difficulty_factor(mask, cfg)
        assert 0.0 <= result.delta < 1.0
        if not result.is_small:
            assert result.delta == 0.0

    def test_monotone_in_inverse_area_above_threshold(self):
        values = [delta_from_inverse_area(a, 100.0, 150.0)[1] for a in np.geomspace(150, 1e6, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_deceleration_on_doubling_grid(self):
        # increments shrink as the inverse area doubles (verified against the
        # 50-digit oracle before freezing)
        grid = [150 * 2**k for k in range(13)]
        assert grid[-1] == 614_400
        values = [raw_difficulty(a, 100.0) for a in grid]
        increments = [b - a for a, b in zip(values, values[1:])]
        assert all(v > 0 for v in increments)
        assert all(later < earlier for earlier, later in zip(increments, increments[1:]))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DifficultyConfig(log_base=1.0)
        with pytest.raises(ValueError):
            DifficultyConfig(threshold=0.5)
        with pytest.raises(ValueError):
            DifficultyConfig(connectivity=6)
        with pytest.raises(ValueError):
            DifficultyConfig(regime="diagonal")


class TestBatchScaling:
    def test_no_small_lesions_gives_one(self):
        assert batch_scaling_factor([0.0, 0.0, 0.0, 0.0], 4) == 1.0

    def test_single_small_sample(self):
        assert batch_scaling_factor([0.8, 0.0, 0.0, 0.0], 4) == pytest.approx(1.4)

    def test_three_small_samples_score_much_higher(self):
        assert batch_scaling_factor([0.8, 0.8, 0.8, 0.0], 4) == pytest.approx(2.2)

    def test_length_mismatch(self):
        with pytest.raises(BadBatchError):
            batch_scaling_factor([0.5, 0.5], 4)

    def test_delta_out_of_range(self):
        with pytest.raises(BadBatchError):
            batch_scaling_factor([1.0], 1)
        with pytest.raises(BadBatchError):
            batch_scaling_factor([-0.1], 1)

    @given(st.lists(st.floats(0.0, 0.999999), min_size=1, max_size=8))
    def test_bounds(self, deltas):
        eta = batch_scaling_factor(deltas, len(deltas))
        assert 1.0 <= eta < 3.0
        if all(d == 0.0 for d in deltas):
            assert eta == 1.0


class TestBlobVsWholeMask:
    def test_attached_small_lesion_only_blob_split_sees_it(self):
        # large disk and small disk joined by a 1px bridge: one 8-connected
        # component, so the whole-mask inverse area is dominated by the large
        # lesion, while erosion severs the bridge and exposes the small one
        mask = build_attached_pair()
        whole = DifficultyConfig(log_base=100.0, threshold=150.0, regime="whole_mask")
        blob = blob_cfg()
        assert label_components(mask, 8).n_components == 1
        assert not difficulty_factor(mask, whole).is_small
        assert difficulty_factor(mask, blob).is_small


def build_attached_pair(height=256, width=256) -> np.ndarray:
    big = rasterize_disk(height, width, 128, 90, 15)
    small = rasterize_disk(height, width, 128, 130, 4)
    mask = (big | small).astype(np.uint8)
    mask[128, 90:131] = 1  # 1px-wide bridge, erodible
    return mask


@settings(max_examples=30)
@given(small_masks)
def test_dilate_is_extensive(mask):
    out = dilate(mask, "square3", 1)
    assert ((mask == 1) <= (out == 1)).all()
