import math
import warnings

import numpy as np
import pytest
from oracles import conv_logits, reference_backward, reference_forward

from fedgs_sim import fl, model, shifts
from fedgs_sim.data import ClientDataSpec, generate_client_dataset
from fedgs_sim.masks import DifficultyConfig, ShapeMismatchError, difficulty_factor, dilate
from fedgs_sim.model import (
    ArchDescriptor,
    KernelOverflowError,
    OptimizerConfig,
    backward,
    dice_loss,
    forward,
    infer_arch,
    init_params,
    optimizer_step,
)


def logit(p):
    return np.log(p / (1.0 - p))


def smooth_fixtures(rng, arch, count, h, size=(12, 12)):
    """(params, image, mask) triples where central differences are valid.

    Rejects draws whose hidden pre-activations sit within reach of the ReLU
    kink under an h-perturbation, or whose output logits saturate the sigmoid.
    """
    fixtures = []
    seed = 0
    while len(fixtures) < count:
        params = init_params(arch, seed)
        seed += 1
        image = rng.normal(0.0, 1.0, size)
        mask = (rng.random(size) > 0.7).astype(np.uint8)
        z1, z2 = conv_logits(params, image)
        if np.abs(z1).min() > 100 * h and np.abs(z2).max() < 8.0:
            fixtures.append((params, image, mask))
    return fixtures


class TestInit:
    def test_deterministic(self):
        arch = ArchDescriptor()
        assert np.array_equal(init_params(arch, 42), init_params(arch, 42))

    def test_seeds_differ(self):
        arch = ArchDescriptor()
        assert not np.array_equal(init_params(arch, 1), init_params(arch, 2))

    def test_param_count_hidden4(self):
        arch = ArchDescriptor(hidden_channels=4)
        assert arch.param_count == (9 * 4 + 4) + (9 * 4 + 1) == 77
        assert init_params(arch, 0).shape == (77,)

    def test_biases_start_at_zero(self):
        arch = ArchDescriptor(hidden_channels=3)
        params = init_params(arch, 5)
        _, b1, _, b2 = arch.unpack(params)
        assert (b1 == 0).all() and b2 == 0.0

    def test_infer_arch_roundtrip(self):
        for c in (1, 2, 4, 7):
            arch = ArchDescriptor(hidden_channels=c)
            assert infer_arch(init_params(arch, 0)) == arch
        with pytest.raises(ValueError):
            infer_arch(np.zeros(78))


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        params = np.zeros(77)
        prob = forward(params, np.random.default_rng(0).normal(size=(9, 11)))
        assert np.allclose(prob, 0.5)

    def test_shape_preserved(self):
        params = init_params(ArchDescriptor(), 3)
        prob = forward(params, np.zeros((13, 7)))
        assert prob.shape == (13, 7)
        assert ((prob > 0) & (prob < 1)).all()

    def test_head_bias_shifts_all_logits_equally(self):
        arch = ArchDescriptor()
        params = init_params(arch, 8)
        image = np.random.default_rng(8).normal(size=(10, 10))
        base = logit(forward(params, image))
        shifted_params = params.copy()
        shifted_params[-1] += 1.5
        shifted = logit(forward(shifted_params, image))
        assert np.allclose(shifted - base, 1.5, atol=1e-9)

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            forward(init_params(ArchDescriptor(), 0), np.zeros((2, 5)))


class TestDiceLoss:
    def test_exact_match_is_zero(self):
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert dice_loss(mask.astype(np.float64), mask) == 0.0

    def test_empty_mask_zero_pred_is_zero(self):
        assert dice_loss(np.zeros((4, 4)), np.zeros((4, 4), dtype=np.uint8)) == 0.0

    def test_all_ones_pred_two_pixel_mask(self):
        mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        assert dice_loss(np.ones((2, 2)), mask) == pytest.approx(2.0 / 7.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dice_loss(np.zeros((2, 2)), np.zeros((3, 3), dtype=np.uint8))

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = rng.random((6, 6))
            mask = (rng.random((6, 6)) > 0.5).astype(np.uint8)
            assert 0.0 <= dice_loss(pred, mask) < 1.0


class TestBackward:
    def test_gradient_length(self):
        arch = ArchDescriptor()
        params = init_params(arch, 0)
        grad = backward(params, np.zeros((8, 8)), np.zeros((8, 8), dtype=np.uint8))
        assert grad.shape == params.shape

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        arch = ArchDescriptor()
        h = 1e-5
        worst = 0.0
        for params, image, mask in smooth_fixtures(rng, arch, count=5, h=h):
            grad = backward(params, image, mask)
            for i in rng.choice(params.size, size=10, replace=False):
                plus, minus = params.copy(), params.copy()
                plus[i] += h
                minus[i] -= h
                fd = (dice_loss(forward(plus, image), mask) - dice_loss(forward(minus, image), mask)) / (2 * h)
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
    arch = ArchDescriptor()
    params = init_params(arch, seed)
    _, b1, _, _ = arch.unpack(params)
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
    @pytest.mark.parametrize("hidden", [1, 4])
    def test_kernel_equals_reference(self, dtype, size, groups, hidden):
        batch = 2
        _, images, masks = edge_fixture(groups * batch, size, seed=groups + hidden)
        images[2::3] *= 40.0  # saturates some sigmoids
        rng = np.random.default_rng(hidden)
        rows = np.stack([init_params(ArchDescriptor(hidden), k) for k in range(groups)])
        rows += rng.normal(0.0, 0.2, rows.shape)
        stack = images.astype(dtype)
        self.assert_same_bits(backward(rows, stack, masks), reference_backward(rows, stack, masks))
        self.assert_same_bits(forward(rows[0], stack), reference_forward(rows[0], stack))
        if groups == 1:  # flat parameters and a single image
            self.assert_same_bits(backward(rows[0], stack, masks), reference_backward(rows[0], stack, masks))
            self.assert_same_bits(backward(rows[0], stack[0], masks[0]), reference_backward(rows[0], stack[0], masks[0]))
            self.assert_same_bits(forward(rows[0], stack[0]), reference_forward(rows[0], stack[0]))

    def test_each_shift_stack_is_built_once(self, monkeypatch):
        # backward builds x's shifts (read by conv1 and by the first kernel's
        # gradient) and g2's flipped shifts; forward builds x's shifts alone
        built = []
        cut = shifts.cut_shifts

        def counting(buffer, interior, starts, role="nine", flip=False):
            built.append((interior.shape, role, flip))
            return cut(buffer, interior, starts, role, flip)

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


def reference_shifts(x, flip=False):
    """The (9, N*H*W) shifts of an (N, H, W) stack, from a zero-padded copy."""
    n, height, width = x.shape
    padded = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1)))
    planes = [padded[:, di : di + height, dj : dj + width].reshape(-1) for di in range(3) for dj in range(3)]
    return np.stack(planes[::-1] if flip else planes)


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
            assert np.array_equal(shifts.shift_stack(x, flip=flip), expected), name
        planes = shifts.WORKSPACE.array("nine", 9, 4, 5, 6, dtype=stack.dtype)
        planes[...] = stack
        assert np.array_equal(shifts.shift_stack(planes[3], flip=flip), reference_shifts(stack, flip))

    def test_float32_stack_gives_float32_planes_in_the_workspace(self):
        stack = np.random.default_rng(5).normal(size=(2, 4, 3)).astype(np.float32)
        assert not shifts.WORKSPACE.holds(stack)
        planes = shifts.shift_stack(stack)
        assert planes.dtype == np.float32 and shifts.WORKSPACE.holds(planes)
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
        params = init_params(ArchDescriptor(), 0) * 1e20
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

    def test_stack_must_split_into_equal_groups(self):
        params, images, masks = stack_fixture(5)
        with pytest.raises(ShapeMismatchError, match="5 images"):
            backward(np.stack([params, params]), images, masks)

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

    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_non_finite_pixel_in_any_sample_raises(self, index):
        params, images, masks = stack_fixture(4)
        images[index, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            backward(params, images, masks)
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, images)

    @pytest.mark.parametrize("shape", [(3, 12, 12), (4, 12, 13), (12, 12)])
    def test_mask_stack_shape_mismatch(self, shape):
        params, images, _ = stack_fixture(4)
        with pytest.raises(ShapeMismatchError):
            backward(params, images, np.zeros(shape, dtype=np.uint8))

    def test_reused_work_memory_gives_the_same_results(self, monkeypatch):
        # shapes that grow, shrink and return, in both dtypes, with the kept
        # work memory of every (role, dtype) poisoned before each call: stale
        # values must never leak in. The masks' blob_split difficulty and
        # dilation run on the uint8 work memory between kernel calls; integer
        # buffers are poisoned with 0xFF, since NaN has no integer value
        shapes = [(4, (12, 12)), (2, (16, 9)), (1, (5, 5)), (4, (12, 12))]
        cases = []
        for dtype in (np.float64, np.float32, np.float64, np.float32):
            for n, size in shapes:
                params, images, masks = stack_fixture(n, seed=n, size=size)
                cases.append((params, images.astype(dtype), masks))

        blob = DifficultyConfig(regime="blob_split", threshold=4.0)

        def results_of(params, images, masks):
            deltas = difficulty_factor(masks, blob).delta
            return backward(params, images, masks), forward(params, images), deltas, dilate(masks)

        def kernel_results():
            results = []
            for case in cases:
                for buffer in shifts.WORKSPACE._buffers.values():
                    buffer.fill(np.nan if buffer.dtype.kind == "f" else 0xFF)
                results.append(results_of(*case))
            return results

        # a new workspace starts with empty work memory
        with monkeypatch.context() as patch:
            patch.setattr(shifts, "WORKSPACE", shifts.Workspace())
            fresh = [results_of(*case) for case in cases]
            assert np.dtype(np.uint8) in {buffer.dtype for buffer in shifts.WORKSPACE._buffers.values()}
        assert len(fresh) == len(cases) and all(deltas[1:].all() for _, _, deltas, _ in fresh)
        for got, expected in zip(kernel_results(), fresh):
            for value, fresh_value in zip(got, expected):
                assert np.array_equal(value, fresh_value)

    def test_work_memory_within_documented_figure(self, monkeypatch):
        # the figures in the comment on model.KERNEL_PIXELS, for calls of that
        # size: float64 and float32 stacks each keep work memory of their own
        monkeypatch.setattr(shifts, "WORKSPACE", shifts.Workspace())
        params = init_params(ArchDescriptor(), 0)
        for dtype in (np.float64, np.float32):
            for rows, shape in [(params, (4, 64, 64)), (np.stack([params] * 4), (16, 32, 32))]:
                assert math.prod(shape) == model.KERNEL_PIXELS
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
            init_params(ArchDescriptor(), 0),
            [dataset],
            fl.StrategyConfig(kind="fedavg", batch_size=batch, local_epochs=epochs),
            OptimizerConfig(kind="sgd", learning_rate=0.01),
            [np.random.default_rng(0)],
        )
        assert result.steps_this_round[0] == math.ceil(len(dataset) / batch) * epochs == 6
        assert seen == [3, 3, 1] * epochs


def zero_moments(n):
    return np.zeros(n), np.zeros(n)


class TestOptimizer:
    def test_sgd_example(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        new_params, moments = optimizer_step(cfg, 1, np.array([1.0]), np.array([0.5]), None)
        assert new_params == pytest.approx([0.95])
        assert moments is None

    def test_adamw_zero_grad_no_decay_is_fixed_point(self):
        cfg = OptimizerConfig(kind="adamw", learning_rate=0.1, weight_decay=0.0)
        params = np.array([1.0, -2.0, 3.0])
        new_params, (m, v) = optimizer_step(cfg, 1, params, np.zeros(3), zero_moments(3))
        assert np.array_equal(new_params, params)
        assert not m.any() and not v.any()

    def test_adamw_zero_grad_decays_existing_moments(self):
        cfg = OptimizerConfig(kind="adamw", learning_rate=0.1, weight_decay=0.0)
        m, v = np.array([0.5, 0.1, -0.2]), np.array([0.3, 0.2, 0.1])
        new_params, (new_m, new_v) = optimizer_step(cfg, 3, np.zeros(3), np.zeros(3), (m, v))
        assert np.allclose(new_m, 0.9 * m)
        assert np.allclose(new_v, 0.999 * v)
        # bias-corrected at step 3; the given moments are left as they were
        m_hat, v_hat = new_m / (1.0 - 0.9**3), new_v / (1.0 - 0.999**3)
        assert np.allclose(new_params, -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps), rtol=0, atol=1e-15)
        assert m.tolist() == [0.5, 0.1, -0.2] and v.tolist() == [0.3, 0.2, 0.1]

    def test_adamw_first_step_is_sign_like(self):
        cfg = OptimizerConfig(kind="adamw", learning_rate=0.01, weight_decay=0.0)
        grad = np.array([0.5, -2.0, 1e-9, 0.0])
        params = np.zeros(4)
        new_params, _ = optimizer_step(cfg, 1, params, grad, zero_moments(4))
        expected = -cfg.learning_rate * grad / (np.abs(grad) + cfg.eps)
        assert np.allclose(new_params, expected, rtol=0, atol=1e-15)

    def test_decoupled_weight_decay_shrinks_params(self):
        cfg = OptimizerConfig(kind="adamw", learning_rate=0.1, weight_decay=0.5)
        new_params, _ = optimizer_step(cfg, 1, np.array([2.0]), np.zeros(1), zero_moments(1))
        assert new_params == pytest.approx([2.0 - 0.1 * 0.5 * 2.0])

    @pytest.mark.parametrize(
        "step, moments, message",
        [(1, None, r"adamw needs its moments \(m, v\)"), (0, zero_moments(2), "from 1, got step 0")],
    )
    def test_adamw_refuses_missing_moments_or_a_step_below_one(self, step, moments, message):
        cfg = OptimizerConfig(kind="adamw", learning_rate=0.1)
        with pytest.raises(ValueError, match=message):
            optimizer_step(cfg, step, np.ones(2), np.ones(2), moments)


def test_one_sgd_step_decreases_loss():
    # at least one of the probe learning rates must strictly decrease the loss
    rng = np.random.default_rng(23)
    arch = ArchDescriptor()
    params = init_params(arch, 9)
    image = rng.normal(0.0, 1.0, (16, 16))
    mask = (rng.random((16, 16)) > 0.8).astype(np.uint8)
    before = dice_loss(forward(params, image), mask)
    grad = backward(params, image, mask)
    decreased = []
    for lr in (1e-2, 1e-3, 1e-4):
        after = dice_loss(forward(params - lr * grad, image), mask)
        decreased.append(after < before)
    assert any(decreased)

