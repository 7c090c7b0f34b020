import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgs_sim.data import ClientData
from fedgs_sim.masks import DifficultyConfig, ShapeMismatchError, validate_mask
from fedgs_sim.metrics import dice_score, evaluate, sample_groups
from fedgs_sim.model import ArchDescriptor, forward

DIFFICULTY = DifficultyConfig(log_base=100.0, threshold=13.0, regime="whole_mask")

mask_pairs = st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(
    lambda shape: st.tuples(
        arrays(np.uint8, shape, elements=st.integers(0, 1)),
        arrays(np.uint8, shape, elements=st.integers(0, 1)),
    )
)


def passthrough_params() -> np.ndarray:
    """Parameters that make the net reproduce a {0,1} input image exactly.

    Only the center taps are set: hidden activation is relu(10x - 5), output
    logit 10*relu - 25, i.e. +-25 depending on the input pixel.
    """
    arch = ArchDescriptor(hidden_channels=4)
    params = np.zeros(arch.param_count)
    params[4] = 10.0  # k1[0, 1, 1]
    params[36] = -5.0  # b1[0]
    params[44] = 10.0  # k2[0, 1, 1]
    params[76] = -25.0  # b2
    return params


def disk_mask(radius: float, size=32) -> np.ndarray:
    rows = np.arange(size)[:, None] - size // 2
    cols = np.arange(size)[None, :] - size // 2
    return (rows * rows + cols * cols <= radius * radius).astype(np.uint8)


class TestDiceScore:
    def test_identical_masks(self):
        mask = disk_mask(5)
        assert dice_score(mask, mask) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[1, 1] = 1
        b[5, 5] = 1
        assert dice_score(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0] = a[0, 1] = 1
        b[0, 1] = b[0, 2] = 1
        assert dice_score(a, b) == 0.5

    def test_both_empty_is_perfect(self):
        assert dice_score(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8)) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dice_score(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))

    @given(mask_pairs)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        score = dice_score(a, b)
        assert score == dice_score(b, a)
        assert 0.0 <= score <= 1.0

    @given(mask_pairs)
    def test_equals_one_iff_masks_equal(self, pair):
        a, b = pair
        assert (dice_score(a, b) == 1.0) == np.array_equal(a, b)


class TestDiceStacks:
    """dice_score on two (N, H, W) stacks: one score per image, each the 2D call's."""

    @staticmethod
    def stacks(seed, n, h, w):
        rng = np.random.default_rng(seed)
        density = rng.random((n, 1, 1))
        pred = (rng.random((n, h, w)) < density).astype(np.uint8)
        gt = (rng.random((n, h, w)) < density).astype(np.uint8)
        pred[::3] = 0  # every third pair is both empty
        gt[::3] = 0
        return pred, gt

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 9), st.integers(1, 9))
    def test_equals_per_image_calls_bitwise(self, seed, n, h, w):
        pred, gt = self.stacks(seed, n, h, w)
        scores = dice_score(pred, gt)
        assert scores.shape == (n,) and scores.dtype == np.float64
        assert scores.tolist() == [dice_score(p, g) for p, g in zip(pred, gt)]
        assert scores[0] == 1.0  # both empty

    def test_bool_stacks_score_like_uint8(self):
        pred, gt = self.stacks(3, 5, 6, 4)
        assert dice_score(pred.astype(bool), gt.astype(bool)).tolist() == dice_score(pred, gt).tolist()

    def test_validates_each_stack_once(self, monkeypatch):
        from fedgs_sim import metrics

        shapes = []

        def recording_validate(mask):
            shapes.append(np.shape(mask))
            return validate_mask(mask)

        monkeypatch.setattr(metrics, "validate_mask", recording_validate)
        dice_score(*self.stacks(5, 6, 4, 3))
        assert shapes == [(24, 3), (24, 3)]  # each (N, H, W) stack as its (N*H, W) view

    @pytest.mark.parametrize("image", [0, 2, 4])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_bad_cell_in_any_image_raises(self, image, side):
        pred, gt = self.stacks(7, 5, 6, 6)
        (pred if side == "pred" else gt)[image, 5, 2] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            dice_score(pred, gt)

    @pytest.mark.parametrize("other", [(3, 4, 4), (2, 4, 5), (2, 5, 4), (4, 4)])
    def test_stacks_of_different_shapes(self, other):
        with pytest.raises(ShapeMismatchError):
            dice_score(np.zeros((2, 4, 4), dtype=np.uint8), np.zeros(other, dtype=np.uint8))


class TestEvaluate:
    def samples_for(self, *masks, images=None):
        """A test set of `masks`; image i is images[i], or mask i as floats when that is None or absent."""
        images = images or [None] * len(masks)
        return ClientData(
            images=np.stack([m.astype(np.float64) if im is None else im for m, im in zip(masks, images)]),
            masks=np.stack(masks),
            is_small=np.zeros(len(masks), dtype=bool),
            seed_offset=0,
        )

    def test_perfect_model_scores_one_everywhere(self):
        params = passthrough_params()
        small = disk_mask(2.5)  # inverse area ~ 49 >= 13
        large = disk_mask(9.0)  # inverse area ~ 4 < 13
        samples = self.samples_for(small, large)
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY))
        assert report.dice == report.dice_s == report.dice_l == 1.0
        assert (report.n_small, report.n_large, report.n_empty) == (1, 1, 0)

    def test_all_empty_masks_leave_groups_absent(self):
        params = passthrough_params()
        empty = np.zeros((16, 16), dtype=np.uint8)
        samples = self.samples_for(empty, empty)
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY))
        assert report.dice_s is None and report.dice_l is None
        assert report.dice == 1.0  # both-empty convention per sample
        assert report.n_empty == 2

    def test_partition_and_means(self):
        params = passthrough_params()
        small = disk_mask(2.5)
        large = disk_mask(9.0)
        # model segments the IMAGE; giving the large sample a blank image
        # makes its prediction empty -> dice 0 against its non-empty mask
        samples = self.samples_for(small, large, images=[None, np.zeros_like(large, dtype=np.float64)])
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY))
        assert report.dice_s == 1.0
        assert report.dice_l == 0.0
        assert report.dice == 0.5
        assert report.n_total == 2

    def test_grouping_uses_ground_truth_not_prediction(self):
        params = passthrough_params()
        small = disk_mask(2.5)
        # image shows a large disk, ground truth is small: must count as small
        sample = self.samples_for(small, images=[disk_mask(9.0).astype(np.float64)])
        report = evaluate(params, sample, sample_groups(sample, DIFFICULTY))
        assert report.n_small == 1 and report.n_large == 0

    def test_threshold_binarization(self):
        # all-zero params predict 0.5 everywhere; threshold 0.5 includes ties
        params = np.zeros(77)
        mask = np.ones((8, 8), dtype=np.uint8)
        samples = self.samples_for(mask)
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY), threshold=0.5)
        assert report.dice == 1.0
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY), threshold=0.6)
        assert report.dice == 0.0

    def test_counts_sum(self):
        params = passthrough_params()
        samples = self.samples_for(disk_mask(2.5), disk_mask(9.0), np.zeros((32, 32), dtype=np.uint8))
        report = evaluate(params, samples, sample_groups(samples, DIFFICULTY))
        assert report.n_total == report.n_small + report.n_large + report.n_empty == 3

    @pytest.mark.parametrize("size, calls", [(32, [16, 4]), (64, [4, 4, 4, 4, 4]), (200, [1] * 20)])
    def test_forward_calls_fill_the_kernel_pixel_budget(self, monkeypatch, size, calls):
        from fedgs_sim import metrics

        seen = []
        scored = []

        def recording_forward(params, images):
            seen.append(len(images))
            return forward(params, images)

        def recording_dice_score(pred, gt):
            scored.append(len(gt))
            return dice_score(pred, gt)

        monkeypatch.setattr(metrics, "forward", recording_forward)
        monkeypatch.setattr(metrics, "dice_score", recording_dice_score)
        samples = self.samples_for(*[disk_mask(4.0, size)] * 20)
        report = evaluate(passthrough_params(), samples, sample_groups(samples, DIFFICULTY))
        assert seen == calls  # KERNEL_PIXELS // (H * W) images per call, at least one
        assert scored == calls  # one dice_score call per forward chunk
        assert report.dice == 1.0

    def test_rejects_groups_of_another_length(self):
        samples = self.samples_for(disk_mask(2.5))
        with pytest.raises(ValueError, match="2 group tags for 1 test samples"):
            evaluate(passthrough_params(), samples, ["small", "small"])

    def test_sample_groups(self):
        masks = [disk_mask(2.5), np.zeros((32, 32), dtype=np.uint8), disk_mask(9.0)]
        samples = self.samples_for(*masks)
        assert sample_groups(samples, DIFFICULTY) == ["small", "empty", "large"]


def test_passthrough_params_really_reproduce_masks():
    params = passthrough_params()
    rng = np.random.default_rng(2)
    mask = (rng.random((16, 16)) > 0.7).astype(np.uint8)
    pred = (forward(params, mask.astype(np.float64)) >= 0.5).astype(np.uint8)
    assert np.array_equal(pred, mask)
