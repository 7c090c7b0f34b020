import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import conv_logits, reference_backward, reference_dice_loss, reference_forward

from fedgs_sim import fl, model, shifts
from fedgs_sim.data import ClientDataSpec, generate_client_dataset
from fedgs_sim.masks import DifficultyConfig, _morph, difficulty_factor
from fedgs_sim.model import (
    HIDDEN_CHANNELS,
    PARAM_COUNT,
    KernelOverflowError,
    OptimizerConfig,
    backward,
    forward,
    init_params,
    optimizer_step,
    unpack,
)


def logit(p):
    return np.log(p / (1.0 - p))


def smooth_fixtures(rng, count, h, size=(12, 12)):
    """(params, image, mask) triples where central differences are valid.

    Rejects draws whose hidden pre-activations sit within reach of the ReLU
    kink under an h-perturbation, or whose output logits saturate the sigmoid.
    """
    fixtures = []
    seed = 0
    while len(fixtures) < count:
        params = init_params(seed)
        seed += 1
        image = rng.normal(0.0, 1.0, size)
        mask = (rng.random(size) > 0.7).astype(np.uint8)
        z1, z2 = conv_logits(params, image)
        if np.abs(z1).min() > 100 * h and np.abs(z2).max() < 8.0:
            fixtures.append((params, image, mask))
    return fixtures


class TestInit:
    def test_deterministic(self):
        assert np.array_equal(init_params(42), init_params(42))

    def test_seeds_differ(self):
        assert not np.array_equal(init_params(1), init_params(2))

    def test_param_count_hidden4(self):
        assert HIDDEN_CHANNELS == 4
        assert PARAM_COUNT == (9 * 4 + 4) + (9 * 4 + 1) == 77
        assert init_params(0).shape == (77,)

    def test_biases_start_at_zero(self):
        _, b1, _, b2 = unpack(init_params(5))
        assert (b1 == 0).all() and b2 == 0.0



class TestForward:
    def test_zero_params_give_half_everywhere(self):
        params = np.zeros(77)
        prob = forward(params, np.random.default_rng(0).normal(size=(9, 11)))
        assert np.allclose(prob, 0.5)

    def test_shape_preserved(self):
        params = init_params(3)
        prob = forward(params, np.zeros((13, 7)))
        assert prob.shape == (13, 7)
        assert ((prob > 0) & (prob < 1)).all()

    def test_head_bias_shifts_all_logits_equally(self):
        params = init_params(8)
        image = np.random.default_rng(8).normal(size=(10, 10))
        base = logit(forward(params, image))
        shifted_params = params.copy()
        shifted_params[-1] += 1.5
        shifted = logit(forward(shifted_params, image))
        assert np.allclose(shifted - base, 1.5, atol=1e-9)



class TestDiceLoss:
    def test_exact_match_is_zero(self):
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert reference_dice_loss(mask.astype(np.float64), mask) == 0.0

    def test_empty_mask_zero_pred_is_zero(self):
        assert reference_dice_loss(np.zeros((4, 4)), np.zeros((4, 4), dtype=np.uint8)) == 0.0

    def test_all_ones_pred_two_pixel_mask(self):
        mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        assert reference_dice_loss(np.ones((2, 2)), mask) == pytest.approx(2.0 / 7.0)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = rng.random((6, 6))
            mask = (rng.random((6, 6)) > 0.5).astype(np.uint8)
            assert 0.0 <= reference_dice_loss(pred, mask) < 1.0


class TestBackward:
    def test_gradient_length(self):
        params = init_params(0)
        grad = backward(params, np.zeros((8, 8)), np.zeros((8, 8), dtype=np.uint8))
        assert grad.shape == params.shape

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        worst = 0.0
        for params, image, mask in smooth_fixtures(rng, count=5, h=h):
            grad = backward(params, image, mask)
            for i in rng.choice(params.size, size=10, replace=False):
                plus, minus = params.copy(), params.copy()
                plus[i] += h
                minus[i] -= h
                fd = (reference_dice_loss(forward(plus, image), mask) - reference_dice_loss(forward(minus, image), mask)) / (2 * h)
                scale = max(abs(fd), abs(grad[i]), 1e-12)
                worst = max(worst, abs(fd - grad[i]) / scale)
        assert worst < 1e-4

    def test_finite_for_empty_mask_and_confident_negative_pred(self):
        # drive predictions toward 0 via a large negative head bias; the
        # smoothing term keeps the gradient finite
        params = np.zeros(77)
        params[-1] = -12.0
        grad = backward(params, np.ones((8, 8)), np.zeros((8, 8), dtype=np.uint8))
        assert np.isfinite(grad).all()

    @pytest.mark.parametrize("head_bias, saturated", [(-1e4, 0.0), (1e4, 1.0)])
    def test_saturated_sigmoid_is_exact_and_silent(self, head_bias, saturated):
        # exp(-z2) overflows for z2 < -709: that is the sigmoid's saturation,
        # not an error, so it must neither warn nor leave anything but 0 or 1
        params, images, masks = stack_fixture(3)
        params[-1] = head_bias
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = forward(params, images)
            grad = backward(params, images, masks)
        assert (prob == saturated).all()
        # p * (1 - p) is exactly 0 at saturation, so no gradient flows back
        assert (grad == 0.0).all()


def stack_fixture(n, seed=0, size=(12, 12)):
    """(params, images, masks) with biases moved off zero and sample 0's mask empty."""
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    _, b1, _, _ = unpack(params)
    b1[:] = rng.normal(0.0, 0.1, b1.size)
    params[-1] = 0.2
    images = rng.normal(0.0, 1.0, (n, *size))
    masks = (rng.random((n, *size)) > 0.7).astype(np.uint8)
    masks[0] = 0
    return params, images, masks


def edge_fixture(n, size, seed=0):
    """(params, images, masks) with bright pixels and mask cells on every image's border rows and columns.

    Every other image is all zeros beside a bright one, so that a shift that
    wrapped across a row or an image boundary would read a value far from
    the zero padding it should read.
    """
    params, images, masks = stack_fixture(n, seed=seed, size=size)
    images *= 0.5
    for edge in (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1]):
        images[edge] += 2.5
        masks[edge] = 1
    images[1::2] = 0.0
    return params, images, masks


EDGE_SIZES = [(3, 3), (3, 7), (9, 3), (12, 13)]


class TestImageEdges:
    """The kernel's shifts read zeros, never a neighbouring row or image, outside each image."""

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_forward_matches_oracle(self, size):
        # forward is the sigmoid of the oracle's logits, image by image of a stack
        params, images, _ = edge_fixture(3, size, seed=1)
        for image, prob in zip(images, forward(params, images)):
            _, z2 = conv_logits(params, image)
            assert np.abs(prob - 1.0 / (1.0 + np.exp(-z2))).max() <= 1e-12

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_stack_forward_equals_solo_calls(self, size):
        params, images, _ = edge_fixture(5, size, seed=2)
        images[2::2] *= 40.0
        for stack in (images, images.astype(np.float32)):
            for image, prob in zip(stack, forward(params, stack)):
                assert np.array_equal(forward(params, image), prob)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    @pytest.mark.parametrize("clients", [2, 5])
    def test_backward_rows_equal_solo_calls(self, size, clients):
        batch = 2
        params, images, masks = edge_fixture(clients * batch, size, seed=clients)
        rows = np.stack([params + 0.01 * k for k in range(clients)])
        for stack in (images, images.astype(np.float32)):
            grad = backward(rows, stack, masks)
            for k in range(clients):
                group = slice(k * batch, (k + 1) * batch)
                assert np.array_equal(grad[k], backward(rows[k], stack[group], masks[group]))


class TestReferenceKernel:
    """forward and backward are bit for bit the group-major shift-and-add kernel of tests/oracles.py."""

    @staticmethod
    def assert_same_bits(result, reference):
        assert result.dtype == reference.dtype and result.shape == reference.shape
        assert np.array_equal(result, reference)
        assert result.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", EDGE_SIZES + [(8, 5)])
    @pytest.mark.parametrize("groups", [1, 4, 64])
    @pytest.mark.parametrize("hidden", [HIDDEN_CHANNELS])
    def test_kernel_equals_reference(self, dtype, size, groups, hidden):
        batch = 2
        _, images, masks = edge_fixture(groups * batch, size, seed=groups + hidden)
        images[2::3] *= 40.0  # saturates some sigmoids
        rng = np.random.default_rng(hidden)
        rows = np.stack([init_params(k) for k in range(groups)])
        rows += rng.normal(0.0, 0.2, rows.shape)
        stack = images.astype(dtype)
        self.assert_same_bits(backward(rows, stack, masks), reference_backward(rows, stack, masks))
        # forward runs the stack in kernel calls of at most KERNEL_PIXELS pixels,
        # and a float32 pixel can round differently in another call's matmul
        per_call = shifts.images_per_call(*size)
        chunks = [reference_forward(rows[0], stack[i : i + per_call]) for i in range(0, len(stack), per_call)]
        self.assert_same_bits(forward(rows[0], stack), np.concatenate(chunks))
        if groups == 1:  # flat parameters and a single image
            self.assert_same_bits(backward(rows[0], stack, masks), reference_backward(rows[0], stack, masks))
            self.assert_same_bits(backward(rows[0], stack[0], masks[0]), reference_backward(rows[0], stack[0], masks[0]))
            self.assert_same_bits(forward(rows[0], stack[0]), reference_forward(rows[0], stack[0]))

    def test_each_shift_stack_is_built_once(self, monkeypatch):
        # backward builds x's shifts (read by conv1 and by the first kernel's
        # gradient) and g2's flipped shifts; forward builds x's shifts alone
        built = []
        cut = shifts.cut_shifts

        def counting(stack, planes, flip=False):
            built.append((stack.interior.shape, planes.role, flip))
            return cut(stack, planes, flip)

        monkeypatch.setattr(shifts, "cut_shifts", counting)
        params, images, masks = stack_fixture(8, size=(9, 11))
        rows = np.stack([params, params + 0.01])
        for stack in (images, images.astype(np.float32)):
            for p in (params, rows):
                built.clear()
                backward(p, stack, masks)
                assert built == [((8, 9, 11), "x nine", False), ((8, 9, 11), "nine", True)]
            built.clear()
            forward(params, stack)
            assert built == [((8, 9, 11), "nine", False)]


THRESHOLDS = [0.5, 0.6, 1e-3, 1 - 1e-3, 0.0, 1.0, -0.5, 1.5, np.nan]


class TestThresholdedForward:
    """forward(params, x, t) is bitwise forward(params, x) >= t."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(THRESHOLDS),
        st.sampled_from([0.0, 1e-7, 1e-3, 1.0]),
        st.sampled_from([0.0, 1e-6, -1e-6, None]),
        st.integers(1, 6),
        st.sampled_from([(3, 3), (7, 5), (12, 13), (64, 64)]),
    )
    def test_equals_thresholded_probabilities(self, seed, dtype, threshold, scale, offset, n, size):
        # kernels of `scale` around a head bias of logit(t) + offset: zero
        # kernels put every logit exactly on it (all-zero parameters give
        # logits of exactly 0, ties at t = 0.5), tiny ones spread the logits
        # within about 1e-6 of it; offset None draws the head bias at random
        rng = np.random.default_rng(seed)
        params = init_params(seed % 1000) * scale
        if offset is None or not 0.0 < threshold < 1.0:
            params[-1] = rng.normal(0.0, 2.0)
        else:
            params[-1] = logit(threshold) + offset
        images = rng.normal(0.0, 1.0, (n, *size)).astype(dtype)
        result = forward(params, images, threshold)
        assert result.dtype == bool and result.shape == images.shape
        assert np.array_equal(result, forward(params, images) >= threshold)
        assert np.array_equal(forward(params, images[0], threshold), result[0])

    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_overflow_in_the_last_kernel_call_raises(self, threshold):
        # zero images give logits of exactly b2 = 0: only the third call, of
        # image 8, overflows float32
        params = init_params(0) * 1e20
        stack = np.zeros((9, 64, 64), dtype=np.float32)
        stack[8] = np.random.default_rng(0).normal(0.0, 1.0, (64, 64))
        forward(params, stack[:8], threshold)  # the first two calls alone are finite
        with pytest.raises(KernelOverflowError, match="overflows float32"):
            forward(params, stack, threshold)

    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_kernel_calls_and_work_memory_stay_within_one_call(self, monkeypatch, threshold):
        # a 240x64x64 stack in one forward call: every kernel call within the
        # pixel budget, and work memory within the figure documented for it
        monkeypatch.setattr(shifts, "WORKSPACE", shifts.Workspace())
        forward_stack, calls = model._forward_stack, []

        def recording(parts, x, role):
            calls.append(x.size)
            return forward_stack(parts, x, role)

        monkeypatch.setattr(model, "_forward_stack", recording)
        stack = np.random.default_rng(0).normal(0.0, 1.0, (240, 64, 64)).astype(np.float32)
        forward(init_params(0), stack, threshold)
        assert calls == [shifts.KERNEL_PIXELS] * 60
        kept = sum(buffer.nbytes for buffer in shifts.WORKSPACE._buffers.values())
        assert 0 < kept <= 1.574e6


def reference_shifts(x, flip=False):
    """The (9, N*H*W) shifts of an (N, H, W) stack, from a zero-padded copy."""
    n, height, width = x.shape
    padded = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1)))
    planes = [padded[:, di : di + height, dj : dj + width].reshape(-1) for di in range(3) for dj in range(3)]
    return np.stack(planes[::-1] if flip else planes)


def cut_of(x, flip):
    """shift_stack(x), or with flip the flipped shifts cut_shifts cuts from x in the guarded role, as backward cuts g2's."""
    if not flip:
        return shifts.shift_stack(x)
    stack = shifts.guarded("guarded", *x.shape, x.dtype)
    stack.interior[...] = x
    return shifts.cut_shifts(stack, shifts.nine_planes("nine", *x.shape, x.dtype, 1), flip=True)


def in_workspace(x):
    return any(np.may_share_memory(x, buffer) for buffer in shifts.WORKSPACE._buffers.values())


class TestShiftStack:
    @pytest.mark.parametrize("flip", [False, True])
    def test_stack_in_the_workspace_gives_its_own_shifts(self, flip):
        # a stack built in the guarded interior, and views that overlap it
        # or the planes' role, are read before anything overwrites them
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(4, 5, 6))
        views = {
            "interior": lambda interior: interior,
            "later images": lambda interior: interior[1:],
            "earlier images": lambda interior: interior[:3],
            "inner columns": lambda interior: interior[:, :, 1:-1],
            "reversed rows": lambda interior: interior[:, ::-1],
        }
        for name, view in views.items():
            _, interior, _ = shifts.guarded("guarded", 4, 5, 6, stack.dtype)
            interior[...] = stack
            x = view(interior)
            expected = reference_shifts(x.copy(), flip)
            assert np.array_equal(cut_of(x, flip), expected), name
        planes = shifts.WORKSPACE.array("nine", 9, 4, 5, 6, dtype=stack.dtype)
        planes[...] = stack
        assert np.array_equal(cut_of(planes[3], flip), reference_shifts(stack, flip))

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.float32, np.float64, np.uint8]),
        st.booleans(),
        st.integers(1, 6),
        st.integers(3, 17),
        st.integers(3, 17),
    )
    def test_one_copy_cut_equals_the_padded_shifts(self, seed, dtype, flip, n, height, width):
        # the work memory is poisoned first: stale guards must not leak in
        rng = np.random.default_rng(seed)
        if dtype == np.uint8:
            stack = rng.integers(0, 256, (n, height, width)).astype(np.uint8)
        else:
            stack = rng.normal(size=(n, height, width)).astype(dtype)
        for buffer in shifts.WORKSPACE._buffers.values():
            buffer.fill(np.nan if buffer.dtype.kind == "f" else 0xFF)
        planes = cut_of(stack, flip)
        assert planes.dtype == stack.dtype and planes.shape == (9, stack.size)
        assert np.array_equal(planes, reference_shifts(stack, flip))

    def test_float32_stack_gives_float32_planes_in_the_workspace(self):
        stack = np.random.default_rng(5).normal(size=(2, 4, 3)).astype(np.float32)
        assert not in_workspace(stack)
        planes = shifts.shift_stack(stack)
        assert planes.dtype == np.float32 and in_workspace(planes)
        assert np.array_equal(planes, reference_shifts(stack).astype(np.float32))


# float32 keeps 24 bits of mantissa (eps 1.2e-7). The float32 pass rounds
# every input pixel and every intermediate, and its reductions run over up to
# 16 * 32 * 32 pixels. The bounds allow about 80 eps of the row's gradient
# norm per gradient entry and 8 eps per probability; the largest errors on
# these fixtures are about 1.5 eps and 1 eps.
GRAD_RTOL_FLOAT32 = 1e-5
PROB_ATOL_FLOAT32 = 1e-6


class TestFloat32Kernel:
    """A float32 stack computes in float32 and stays close to the float64 call on the same stack."""

    @pytest.mark.parametrize("n, size", [(1, (8, 8)), (4, (12, 13)), (16, (32, 32))])
    @pytest.mark.parametrize("rows", [False, True], ids=["flat", "rows"])
    def test_backward_matches_float64_within_tolerance(self, n, size, rows):
        params, images, masks = stack_fixture(n, seed=n, size=size)
        if rows:  # one row per client, up to 4 clients
            params = np.stack([params + 0.01 * k for k in range(min(4, n))])
        exact = backward(params, images, masks)
        grad = backward(params, images.astype(np.float32), masks)
        assert grad.dtype == np.float64 and grad.shape == params.shape
        for row, exact_row in zip(grad.reshape(-1, params.shape[-1]), exact.reshape(-1, params.shape[-1])):
            assert np.abs(row - exact_row).max() <= GRAD_RTOL_FLOAT32 * np.linalg.norm(exact_row)

    @pytest.mark.parametrize("n, size", [(1, (8, 8)), (4, (12, 13)), (16, (32, 32))])
    def test_forward_matches_float64_within_tolerance(self, n, size):
        params, images, _ = stack_fixture(n, seed=n, size=size)
        prob = forward(params, images.astype(np.float32))
        assert prob.dtype == np.float32 and prob.shape == images.shape
        assert np.abs(prob - forward(params, images)).max() <= PROB_ATOL_FLOAT32

    def test_parameters_beyond_float32_range_raise_naming_the_row(self):
        # 1e39 is finite in float64 but casts to inf in float32, and the
        # logits it gives are not finite
        params, images, masks = stack_fixture(2, size=(8, 8))
        params[0] = 1e39
        stack = images.astype(np.float32)
        message = "overflows float32 in the kernel: its logits are not finite"
        with pytest.raises(KernelOverflowError, match=rf"^parameter row 0 {message}$"):
            backward(params, stack, masks)
        with pytest.raises(KernelOverflowError, match=message):
            forward(params, stack)
        rows = np.stack([params, params])
        rows[0, 0] = 0.5
        with pytest.raises(KernelOverflowError, match=rf"^parameter row 1 {message}$"):
            backward(rows, stack, masks)
        # a float64 stack holds them
        assert np.isfinite(backward(params, images, masks)).all()

    def test_parameters_that_overflow_inside_the_kernel_raise_naming_float32(self):
        # 1e20 times the initial parameters is far inside float32's range,
        # but the logits of the second convolution are not: without the
        # check, forward returned NaN probabilities that score as background
        params = init_params(0) * 1e20
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 8, 8))
        masks = (rng.random((2, 8, 8)) < 0.3).astype(np.uint8)
        stack = images.astype(np.float32)
        message = r"^parameter row 0 overflows float32 in the kernel: its logits are not finite$"
        with pytest.raises(KernelOverflowError, match=message):
            forward(params, stack)
        with pytest.raises(KernelOverflowError, match=message):
            backward(params, stack, masks)
        rows = np.stack([params / 1e20, params])
        with pytest.raises(KernelOverflowError, match=r"^parameter row 1 overflows float32") as raised:
            backward(rows, np.concatenate([stack, stack]), np.concatenate([masks, masks]))
        assert isinstance(raised.value, ValueError) and raised.value.row == 1
        # the float64 stack holds them
        assert np.isfinite(forward(params, images)).all()
        assert np.isfinite(backward(params, images, masks)).all()

    def test_images_of_other_dtypes_compute_in_float64(self):
        params, images, masks = stack_fixture(2)
        ints = np.rint(images * 4).astype(np.int16)
        assert forward(params, ints).dtype == np.float64
        assert np.array_equal(backward(params, ints, masks), backward(params, ints.astype(np.float64), masks))


class TestStackedKernel:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_backward_is_mean_of_per_image_gradients(self, n):
        params, images, masks = stack_fixture(n, seed=n)
        per_image = [backward(params, image, mask) for image, mask in zip(images, masks)]
        assert np.abs(backward(params, images, masks) - np.mean(per_image, axis=0)).max() <= 1e-15

    @pytest.mark.parametrize("clients", [1, 3, 4, 5])
    def test_backward_of_parameter_rows_equals_per_row_calls(self, clients):
        # client k's batch is group k of the stack and trains row k
        batch = 2
        params, images, masks = stack_fixture(clients * batch, seed=clients)
        rows = np.stack([params + 0.01 * k for k in range(clients)])
        grad = backward(rows, images, masks)
        assert grad.shape == rows.shape
        for k in range(clients):
            group = slice(k * batch, (k + 1) * batch)
            assert np.array_equal(grad[k], backward(rows[k], images[group], masks[group]))

    def test_forward_stack_equals_per_image(self):
        params, images, _ = stack_fixture(4)
        stacked = forward(params, images)
        assert stacked.shape == images.shape
        for image, prob in zip(images, stacked):
            assert np.array_equal(forward(params, image), prob)

    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_bad_mask_cell_in_any_sample_raises(self, index):
        params, images, masks = stack_fixture(4)
        masks[index, 5, 7] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            backward(params, images, masks)

    def test_reused_work_memory_gives_the_same_results(self, monkeypatch):
        # shapes that grow, shrink and return, in both dtypes, with the kept
        # work memory of every (role, dtype) poisoned before each call: stale
        # values must never leak in. (8, (20, 20)) grows every role between
        # two calls of (4, (12, 12)): the views kept for the earlier shapes
        # must go with the buffers they view. The masks' blob_split difficulty
        # and dilation run on the uint8 work memory between kernel calls;
        # integer buffers are poisoned with 0xFF, since NaN has no integer value
        shapes = [(4, (12, 12)), (2, (16, 9)), (1, (5, 5)), (4, (12, 12)), (8, (20, 20)), (4, (12, 12))]
        cases = []
        for dtype in (np.float64, np.float32, np.float64, np.float32):
            for n, size in shapes:
                params, images, masks = stack_fixture(n, seed=n, size=size)
                cases.append((params, images.astype(dtype), masks))

        blob = DifficultyConfig(regime="blob_split", threshold=4.0)

        def results_of(params, images, masks):
            for buffer in shifts.WORKSPACE._buffers.values():
                buffer.fill(np.nan if buffer.dtype.kind == "f" else 0xFF)
            deltas = difficulty_factor(masks, blob).delta
            return backward(params, images, masks), forward(params, images), deltas, _morph(masks, np.max)

        def kept_arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from kept_arrays(item)

        # each case alone, in a new workspace with empty work memory
        alone = []
        for case in cases:
            with monkeypatch.context() as patch:
                patch.setattr(shifts, "WORKSPACE", shifts.Workspace())
                alone.append(results_of(*case))
        assert all(deltas[1:].all() for _, _, deltas, _ in alone)

        # every case in turn in one new workspace, which grows every role of
        # the stack's dtype at the first (8, (20, 20)) call of that dtype
        with monkeypatch.context() as patch:
            patch.setattr(shifts, "WORKSPACE", shifts.Workspace())
            in_turn = []
            for index, case in enumerate(cases):
                held = dict(shifts.WORKSPACE._buffers)
                in_turn.append(results_of(*case))
                dropped = {key: buffer for key, buffer in held.items() if shifts.WORKSPACE._buffers[key] is not buffer}
                if index in (4, len(shapes) + 4):  # the first (8, (20, 20)) call of each float dtype
                    assert {key for key in held if key[1] == case[1].dtype} <= set(dropped)
                    assert len({role for role, _ in dropped}) == 5
                for view in kept_arrays(tuple(shifts.WORKSPACE.views.values())):
                    assert not any(np.may_share_memory(view, buffer) for buffer in dropped.values())
            assert np.dtype(np.uint8) in {buffer.dtype for buffer in shifts.WORKSPACE._buffers.values()}

        # and in the module's workspace, as kept by every test before this one
        reused = [results_of(*case) for case in cases]
        for run in (in_turn, reused):
            for got, expected in zip(run, alone, strict=True):
                for value, alone_value in zip(got, expected):
                    assert value.dtype == alone_value.dtype and value.tobytes() == alone_value.tobytes()

    def test_work_memory_within_documented_figure(self, monkeypatch):
        # the figures in the comment on shifts.KERNEL_PIXELS, for calls of that
        # size: float64 and float32 stacks each keep work memory of their own
        monkeypatch.setattr(shifts, "WORKSPACE", shifts.Workspace())
        params = init_params(0)
        for dtype in (np.float64, np.float32):
            for rows, shape in [(params, (4, 64, 64)), (np.stack([params] * 4), (16, 32, 32))]:
                assert math.prod(shape) == shifts.KERNEL_PIXELS
                backward(rows, np.ones(shape, dtype=dtype), np.zeros(shape, dtype=np.uint8))
        kept = {np.dtype(np.float64): 0, np.dtype(np.float32): 0}
        for buffer in shifts.WORKSPACE._buffers.values():
            kept[buffer.dtype] += buffer.nbytes
        assert 0 < kept[np.dtype(np.float64)] <= 3.148e6
        assert 0 < kept[np.dtype(np.float32)] <= 1.574e6

    def test_forward_rejects_non_finite_params(self):
        params, images, _ = stack_fixture(2)
        params[3] = np.nan
        with pytest.raises(ValueError, match="params"):
            forward(params, images)

    def test_short_final_batch_keeps_step_count(self, monkeypatch):
        # 7 samples in batches of 3: two full batches and one of 1 per epoch
        dataset = generate_client_dataset(
            ClientDataSpec(n_samples=7, image_size=(16, 16), small_radius_range=(1.5, 2.0), large_radius_range=(4.0, 5.0)),
            0,
        )
        seen = []

        def recording_backward(params, images, masks):
            seen.append(len(images))
            return backward(params, images, masks)

        monkeypatch.setattr(fl, "backward", recording_backward)
        epochs, batch = 2, 3
        result = fl.run_client_round(
            init_params(0),
            [dataset],
            fl.StrategyConfig(kind="fedavg", batch_size=batch, local_epochs=epochs),
            OptimizerConfig(learning_rate=0.01),
            [np.random.default_rng(0)],
            [None],
        )
        assert result.steps[0] == math.ceil(len(dataset) / batch) * epochs == 6
        assert seen == [3, 3, 1] * epochs


def zero_moments(n):
    return np.zeros(n), np.zeros(n)


class TestOptimizer:
    def test_adamw_zero_grad_no_decay_is_fixed_point(self):
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0)
        params = np.array([1.0, -2.0, 3.0])
        new_params, (m, v) = optimizer_step(cfg, 1, params, np.zeros(3), zero_moments(3))
        assert np.array_equal(new_params, params)
        assert not m.any() and not v.any()

    def test_adamw_zero_grad_decays_existing_moments(self):
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0)
        m, v = np.array([0.5, 0.1, -0.2]), np.array([0.3, 0.2, 0.1])
        new_params, (new_m, new_v) = optimizer_step(cfg, 3, np.zeros(3), np.zeros(3), (m, v))
        assert np.allclose(new_m, 0.9 * m)
        assert np.allclose(new_v, 0.999 * v)
        # bias-corrected at step 3; the given moments are left as they were
        m_hat, v_hat = new_m / (1.0 - 0.9**3), new_v / (1.0 - 0.999**3)
        assert np.allclose(new_params, -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps), rtol=0, atol=1e-15)
        assert m.tolist() == [0.5, 0.1, -0.2] and v.tolist() == [0.3, 0.2, 0.1]

    def test_adamw_first_step_is_sign_like(self):
        cfg = OptimizerConfig(learning_rate=0.01, weight_decay=0.0)
        grad = np.array([0.5, -2.0, 1e-9, 0.0])
        params = np.zeros(4)
        new_params, _ = optimizer_step(cfg, 1, params, grad, zero_moments(4))
        expected = -cfg.learning_rate * grad / (np.abs(grad) + cfg.eps)
        assert np.allclose(new_params, expected, rtol=0, atol=1e-15)

    def test_decoupled_weight_decay_shrinks_params(self):
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.5)
        new_params, _ = optimizer_step(cfg, 1, np.array([2.0]), np.zeros(1), zero_moments(1))
        assert new_params == pytest.approx([2.0 - 0.1 * 0.5 * 2.0])



def test_one_sgd_step_decreases_loss():
    # at least one of the probe learning rates must strictly decrease the loss
    rng = np.random.default_rng(23)
    params = init_params(9)
    image = rng.normal(0.0, 1.0, (16, 16))
    mask = (rng.random((16, 16)) > 0.8).astype(np.uint8)
    before = reference_dice_loss(forward(params, image), mask)
    grad = backward(params, image, mask)
    decreased = []
    for lr in (1e-2, 1e-3, 1e-4):
        after = reference_dice_loss(forward(params - lr * grad, image), mask)
        decreased.append(after < before)
    assert any(decreased)

