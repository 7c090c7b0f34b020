import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgs_sim import masks
from fedgs_sim.harness import emit_difficulty_curve
from fedgs_sim.masks import (
    DifficultyConfig,
    batch_scaling_factor,
    difficulty_factor,
    raw_difficulty,
    validate_mask,
)
from oracles import (
    EIGHT_NEIGHBORS,
    FOUR_NEIGHBORS,
    flood_fill_components,
    rasterize_disk,
    reference_difficulty,
    shift_dilate,
    shift_erode,
    smallest_lesion_estimate,
)

from fedgs_sim import shifts

# tanh((log_l a)^2) computed with mpmath at 50 digits before the build
TANH_ONE = 0.7615941559557649
RAW_L100 = {
    150: 0.8286596448838733,
    1_000: 0.9780261147388136,
    10_000: 0.9993292997390670,
    1_000_000: 0.9999999695400410,
}

small_masks = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=st.integers(0, 1))


@st.composite
def mask_stacks(draw, max_n=6, max_side=14):
    """(N, H, W) uint8 stacks whose masks are empty, pixel noise, or unions of rectangles.

    Noise gives many one-pixel components (area ties, and masks that
    erosion empties); rectangles give lesions that survive erosion, equal
    sizes that tie after it, and lesions touching the border.
    """
    n, height, width = draw(st.integers(1, max_n)), draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    stack = np.zeros((n, height, width), dtype=np.uint8)
    for mask in stack:
        kind = draw(st.sampled_from(["empty", "noise", "rectangles"]))
        if kind == "noise":
            mask[...] = draw(arrays(np.uint8, (height, width), elements=st.integers(0, 1)))
        elif kind == "rectangles":
            for _ in range(draw(st.integers(1, 4))):
                top, left = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
                mask[top : top + draw(st.integers(1, 6)), left : left + draw(st.integers(1, 6))] = 1
    return stack


difficulty_configs = st.builds(
    DifficultyConfig,
    log_base=st.floats(1.5, 1000.0),
    threshold=st.floats(1.0, 200.0),
    regime=st.sampled_from(["whole_mask", "blob_split"]),
)


def assert_matches_reference(stack, cfg):
    """difficulty_factor of the stack, and of each mask alone, equals the earlier per-mask path bit for bit."""
    result = difficulty_factor(stack, cfg)
    assert result.inverse_area.shape == result.is_small.shape == result.delta.shape == (len(stack),)
    for i, mask in enumerate(stack):
        inverse_area, is_small, delta = reference_difficulty(mask, cfg)
        expected_area = math.nan if inverse_area is None else inverse_area
        single = difficulty_factor(mask, cfg)  # a 2D mask is a stack of one
        assert single.inverse_area.shape == single.is_small.shape == single.delta.shape == (1,)
        for scored, j in ((result, i), (single, 0)):
            got = (scored.inverse_area[j], scored.is_small[j], scored.delta[j])
            assert got[0] == expected_area or math.isnan(got[0]) and math.isnan(expected_area)
            assert got[1:] == (is_small, delta)


def blob_cfg(**kwargs) -> DifficultyConfig:
    defaults = dict(log_base=100.0, threshold=150.0, regime="blob_split")
    defaults.update(kwargs)
    return DifficultyConfig(**defaults)


WHOLE = DifficultyConfig(log_base=100.0, threshold=150.0, regime="whole_mask")


def labeling(mask):
    """(labels, component_areas) of a mask or stack by masks._label: labels 1..n, 0 the background."""
    paint, areas, _ = masks._label(mask.reshape(-1, *mask.shape[-2:]))
    labels = paint(np.arange(len(areas) + 1, dtype=np.int32)).reshape(mask.shape)
    return labels, list(enumerate(map(int, areas), start=1))


class TestInverseRelativeArea:
    def test_512_grid_1000_pixels(self):
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask.ravel()[:1000] = 1
        assert difficulty_factor(mask, WHOLE).inverse_area == pytest.approx(262.144)

    def test_full_coverage_is_one(self):
        assert difficulty_factor(np.ones((32, 32), dtype=np.uint8), WHOLE).inverse_area == 1.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            difficulty_factor(np.full((4, 4), 3, dtype=np.uint8), WHOLE)


class TestErosion:
    def test_isolated_pixel_vanishes(self):
        mask = np.zeros((7, 7), dtype=np.uint8)
        mask[3, 3] = 1
        assert masks._morph(mask, np.min).sum() == 0

    def test_three_wide_strip_becomes_one_wide(self):
        mask = np.zeros((9, 9), dtype=np.uint8)
        mask[1:8, 3:6] = 1
        out = masks._morph(mask, np.min)
        expected = np.zeros_like(mask)
        expected[2:7, 4] = 1
        assert np.array_equal(out, expected)

    @given(small_masks)
    def test_anti_extensive(self, mask):
        out = masks._morph(mask, np.min)
        assert ((out == 1) <= (mask == 1)).all()

    @given(small_masks)
    def test_matches_definition_square3(self, mask):
        assert np.array_equal(masks._morph(mask, np.min), shift_erode(mask))

    # the id keeps the square3 case's name from when the element was a parameter
    @pytest.mark.parametrize("longest", [6], ids=["square3-offsets0"])
    def test_one_pixel_wide_masks_match_definition(self, longest):
        # every 1xN and Nx1 mask up to N = longest, 1x1 included, where each
        # shift that leaves the row or column must read background
        for n in range(1, longest + 1):
            for cells in itertools.product((0, 1), repeat=n):
                row = np.array([cells], dtype=np.uint8)
                for mask in (row, row.T):
                    assert np.array_equal(masks._morph(mask, np.min), shift_erode(mask))
                    assert np.array_equal(masks._morph(mask, np.max), shift_dilate(mask))


class TestLabelComponents:
    def test_two_disjoint_blobs(self):
        mask = np.zeros((12, 12), dtype=np.uint8)
        mask[1:2, 1:6] = 1
        mask[8:9, 2:7] = 1
        _, component_areas = labeling(mask)
        assert len(component_areas) == 2
        assert sorted(area for _, area in component_areas) == [5, 5]

    def test_empty_mask(self):
        labels, component_areas = labeling(np.zeros((5, 5), dtype=np.uint8))
        assert len(component_areas) == 0
        assert labels.sum() == 0

    def test_diagonal_touch_depends_on_connectivity(self):
        # one 8-connected component, as _label counts, but two 4-connected ones
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        mask[3:5, 3:5] = 1
        assert len(labeling(mask)[1]) == 1
        assert len(flood_fill_components(mask, FOUR_NEIGHBORS)) == 2

    @given(small_masks)
    def test_areas_partition_foreground(self, mask):
        labels, component_areas = labeling(mask)
        assert sum(area for _, area in component_areas) == int(mask.sum())
        # every foreground pixel is labeled, background never is
        assert ((labels > 0) == (mask == 1)).all()
        numbers = [label for label, _ in component_areas]
        assert numbers == list(range(1, len(numbers) + 1))
        for label, area in component_areas:
            assert area >= 1
            assert int((labels == label).sum()) == area

    @given(small_masks)
    def test_matches_flood_fill(self, mask):
        # the oracle seeds its fills in raster order, so its k-th component
        # is the k-th by first pixel: labels must match it exactly
        labels, component_areas = labeling(mask)
        reference = flood_fill_components(mask, EIGHT_NEIGHBORS)
        expected = np.zeros(mask.shape, dtype=int)
        for label, component in enumerate(reference, start=1):
            for pixel in component:
                expected[pixel] = label
        assert np.array_equal(labels, expected)
        assert component_areas == [(label, len(c)) for label, c in enumerate(reference, start=1)]

    @settings(max_examples=50, deadline=None)
    @given(mask_stacks())
    def test_stack_numbers_each_image_after_the_one_before(self, stack):
        stack_labels, stack_areas = labeling(stack)
        assert stack_labels.shape == stack.shape
        offset = 0
        for mask, labels in zip(stack, stack_labels):
            alone_labels, alone_areas = labeling(mask)
            assert np.array_equal(labels, np.where(alone_labels > 0, alone_labels + offset, 0))
            assert stack_areas[offset : offset + len(alone_areas)] == [(label + offset, area) for label, area in alone_areas]
            offset += len(alone_areas)
        assert len(stack_areas) == offset

    def test_raster_order_of_first_pixel(self):
        # two runs of row 0 that meet in row 1 are one component, numbered by
        # its first pixel (0, 5); a bar that starts further left, a row lower,
        # comes second
        mask = np.zeros((6, 8), dtype=np.uint8)
        mask[0, 5] = mask[0, 7] = 1
        mask[1, 5:8] = 1
        mask[2, 0:3] = 1
        mask[4, 6] = 1
        labels, _ = labeling(mask)
        assert labels[0, 5] == labels[0, 7] == labels[1, 6] == 1
        assert labels[2, 0] == 2
        assert labels[4, 6] == 3


class TestSmallestLesion:
    def test_two_disks_uses_the_small_one(self):
        # r=50 disk plus a far-away r=5 disk on a 512x512 grid
        mask = rasterize_disk(512, 512, 200, 200, 50) | rasterize_disk(512, 512, 420, 420, 5)
        expected_area = smallest_lesion_estimate(mask)
        got = difficulty_factor(mask, blob_cfg()).inverse_area
        assert got == 512 * 512 / expected_area
        # sanity: the estimate tracks the small disk (area 81), not the big one
        assert 512 * 512 / 81 * 0.8 < got < 512 * 512 / 50

    def test_single_rectangle_matches_whole_mask_exactly(self):
        # opening with square3 recovers rectangles >= 3x3 exactly
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[10:20, 30:45] = 1
        assert difficulty_factor(mask, blob_cfg()).inverse_area == difficulty_factor(mask, WHOLE).inverse_area

    def test_erosion_wipeout_falls_back_to_raw_components(self):
        # two isolated pixels: erosion empties the mask; classify on raw blobs
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[2, 2] = 1
        mask[7, 7] = 1
        assert difficulty_factor(mask, blob_cfg()).inverse_area == 100.0

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
        _, eroded_areas = labeling(masks._morph(mask, np.min))
        assert [area for _, area in eroded_areas] == [2, 2]
        expected = 256 / (14 if diagonal_first else 12)
        assert difficulty_factor(mask, blob_cfg()).inverse_area == expected
        assert mask.size / smallest_lesion_estimate(mask) == expected

    @given(small_masks)
    def test_matches_reference_pipeline(self, mask):
        if mask.sum() == 0:
            return
        assert difficulty_factor(mask, blob_cfg()).inverse_area == mask.size / smallest_lesion_estimate(mask)


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
            assert math.isnan(result.inverse_area[0])
            assert not result.is_small[0]
            assert result.delta[0] == 0.0

    @given(small_masks, st.floats(2.0, 1000.0), st.floats(1.0, 50.0))
    def test_delta_bounds_and_gate(self, mask, log_base, threshold):
        cfg = DifficultyConfig(log_base=log_base, threshold=threshold, regime="whole_mask")
        result = difficulty_factor(mask, cfg)
        assert 0.0 <= result.delta < 1.0
        if not result.is_small:
            assert result.delta == 0.0

    def test_monotone_in_inverse_area_above_threshold(self):
        values = [point.delta for point in emit_difficulty_curve(100.0, 150.0, np.geomspace(150, 1e6, 40))]
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
            DifficultyConfig(regime="diagonal")
        with pytest.raises(ValueError, match="^log_base must be finite, got inf$"):
            DifficultyConfig(log_base=math.inf)
        with pytest.raises(ValueError, match="^threshold must be finite, got inf$"):
            DifficultyConfig(threshold=math.inf)


class TestStackPath:
    """difficulty_factor scores an (N, H, W) stack at once, bit for bit as the earlier per-mask path did."""

    @settings(max_examples=150, deadline=None)
    @given(mask_stacks(), difficulty_configs, st.integers(1, 7))
    def test_stack_equals_reference_per_mask_path(self, stack, cfg, per_chunk):
        # chunks of per_chunk masks, so that stacks cross chunk boundaries
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shifts, "KERNEL_PIXELS", per_chunk * stack[0].size)
            assert_matches_reference(stack, cfg)

    # the ids keep the one-erosion case's names from when the erosion count was a parameter
    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 100], ids=lambda n: f"1-{n}")
    def test_ties_borders_fallbacks_and_empties(self, per_chunk):
        cases = []
        for diagonal_first in (True, False):  # equal eroded areas, rebuilt to 14 and 12 pixels
            mask = np.zeros((16, 16), dtype=np.uint8)
            diagonal, bar = (1, 9) if diagonal_first else (9, 1)
            mask[diagonal : diagonal + 3, 2:5] = mask[diagonal + 1 : diagonal + 4, 3:6] = 1
            mask[bar : bar + 3, 8:12] = 1
            cases.append(mask)
        border = np.zeros((16, 16), dtype=np.uint8)
        border[:4, :5] = border[10:, 12:] = border[6:9, 6:9] = 1  # lesions in two corners and one inside
        cases.append(border)
        wipeout = np.zeros((16, 16), dtype=np.uint8)
        wipeout[2, 2] = wipeout[7, 7] = wipeout[12, 3:5] = 1  # erosion empties it: the raw components decide
        cases.append(wipeout)
        cases.append(np.zeros((16, 16), dtype=np.uint8))
        twins = np.zeros((16, 16), dtype=np.uint8)
        twins[1:5, 1:5] = twins[9:13, 9:13] = 1  # two equal squares: the first in raster order
        cases.append(twins)
        stack = np.stack(cases + cases[::-1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shifts, "KERNEL_PIXELS", per_chunk * 256)
            assert_matches_reference(stack, blob_cfg(threshold=5.0))

    @settings(max_examples=60, deadline=None)
    @given(mask_stacks())
    def test_morphology_of_a_stack_is_per_mask(self, stack):
        eroded, dilated = (masks._morph(stack, reduce) for reduce in (np.min, np.max))
        assert eroded.dtype == dilated.dtype == np.uint8 and eroded.shape == dilated.shape == stack.shape
        for mask, e, d in zip(stack, eroded, dilated):
            assert np.array_equal(e, shift_erode(mask))
            assert np.array_equal(d, shift_dilate(mask))

    def test_blob_eval_test_set_work_memory_within_kernel_figure(self, monkeypatch):
        # 240 64x64 masks, the blob_eval workload's test center, scored in
        # one call keep no more uint8 work memory than the kernel's float32
        # figure (shifts.KERNEL_PIXELS)
        rng = np.random.default_rng(0)
        stack = np.zeros((240, 64, 64), dtype=np.uint8)
        for mask in stack:
            for _ in range(2):
                mask |= rasterize_disk(64, 64, *rng.integers(10, 54, size=2), rng.uniform(2.0, 9.0))
        monkeypatch.setattr(shifts, "WORKSPACE", shifts.Workspace())
        result = difficulty_factor(stack, blob_cfg(threshold=52.0))
        assert result.delta.shape == (240,) and result.is_small.any() and not result.is_small.all()
        kept = [buffer for buffer in shifts.WORKSPACE._buffers.values()]
        assert {buffer.dtype for buffer in kept} == {np.dtype(np.uint8)}
        assert 0 < sum(buffer.nbytes for buffer in kept) <= 1.574e6

    def test_validates_the_stack_once(self, monkeypatch):
        calls = []
        validate = masks.validate_mask

        def counted(mask):
            calls.append(np.shape(mask))
            return validate(mask)

        monkeypatch.setattr(masks, "validate_mask", counted)
        stack = np.stack([build_attached_pair()] * 3)
        difficulty_factor(stack, blob_cfg())
        assert calls == [stack.shape]


class TestValidateMask:
    def test_uint8_comes_back_uncopied_and_bool_as_a_view(self):
        stack = np.zeros((3, 4, 5), dtype=np.uint8)
        assert validate_mask(stack) is stack
        flags = stack.astype(bool)
        view = validate_mask(flags)
        assert view.dtype == np.uint8 and np.shares_memory(view, flags)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_rejects_cells_other_than_0_and_1(self, dtype):
        stack = np.zeros((2, 3, 3), dtype=dtype)
        stack[1, 2, 2] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            validate_mask(stack)

    @pytest.mark.parametrize("shape", [(4,), (0, 3), (3, 0), (2, 0, 3), (1, 2, 3, 4)])
    def test_rejects_shapes_that_are_no_mask_or_stack(self, shape):
        with pytest.raises(ValueError, match="non-empty 2D grid"):
            validate_mask(np.zeros(shape, dtype=np.uint8))


class TestBatchScaling:
    def test_no_small_lesions_gives_one(self):
        assert batch_scaling_factor([0.0, 0.0, 0.0, 0.0]) == 1.0

    def test_single_small_sample(self):
        assert batch_scaling_factor([0.8, 0.0, 0.0, 0.0]) == pytest.approx(1.4)

    def test_three_small_samples_score_much_higher(self):
        assert batch_scaling_factor([0.8, 0.8, 0.8, 0.0]) == pytest.approx(2.2)

    @given(st.lists(st.floats(0.0, 0.999999), min_size=1, max_size=8))
    def test_bounds(self, deltas):
        eta = batch_scaling_factor(deltas)
        assert 1.0 <= eta < 3.0
        if all(d == 0.0 for d in deltas):
            assert eta == 1.0


class TestBlobVsWholeMask:
    def test_attached_small_lesion_only_blob_split_sees_it(self):
        # large disk and small disk joined by a 1px bridge: one 8-connected
        # component, so the whole-mask inverse area is dominated by the large
        # lesion, while erosion severs the bridge and exposes the small one
        mask = build_attached_pair()
        assert len(labeling(mask)[1]) == 1
        assert not difficulty_factor(mask, WHOLE).is_small
        assert difficulty_factor(mask, blob_cfg()).is_small


def build_attached_pair(height=256, width=256) -> np.ndarray:
    big = rasterize_disk(height, width, 128, 90, 15)
    small = rasterize_disk(height, width, 128, 130, 4)
    mask = (big | small).astype(np.uint8)
    mask[128, 90:131] = 1  # 1px-wide bridge, erodible
    return mask


@settings(max_examples=30)
@given(small_masks)
def test_dilate_is_extensive(mask):
    out = masks._morph(mask, np.max)
    assert ((mask == 1) <= (out == 1)).all()
