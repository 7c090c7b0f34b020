"""Tiny differentiable per-pixel segmentation model.

Two 3x3 convolutions with same-padding, 1 -> HIDDEN_CHANNELS = 4 -> 1 channels
(ReLU between, sigmoid head), trained with AdamW on smoothed Dice loss. Its
PARAM_COUNT = 77 parameters live in a single flat float64 vector so the
federated layer can treat models as plain vectors. AdamW's hyperparameters
other than the learning rate are fixed: BETA1, BETA2, ADAM_EPS and the
decoupled WEIGHT_DECAY. The backward pass is written out by hand and checked
against finite differences in the test suite.
forward and backward take one image or an (N, H, W) stack; backward returns
the mean of the samples' gradients, and also takes (K, P) parameter rows, one
per client, to train K clients' batches in one call. Both compute in float32
on a float32 stack (the client data's dtype) and in float64 on any other; the
parameters and the gradient stay float64 either way, as master weights do in
mixed-precision training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shifts
from .masks import validate_mask
from .rng import INIT_STREAM, reseed, stream_seeds

DICE_SMOOTHING = 1.0


class KernelOverflowError(ValueError):
    """A finite parameter row `row` overflowed `dtype` in the kernel or in the cast to it: its logits are not finite."""

    def __init__(self, row: int, dtype: np.dtype) -> None:
        self.row, self.dtype = row, np.dtype(dtype)
        super().__init__(f"parameter row {row} overflows {self.dtype} in the kernel: its logits are not finite")


HIDDEN_CHANNELS = 4
PARAM_COUNT = 19 * HIDDEN_CHANNELS + 1  # 77: conv1's 9C kernel entries and C biases, conv2's 9C and one bias


def unpack(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a flat vector into views (k1 (C,3,3), b1 (C,), k2 (C,3,3), b2 ()), C = HIDDEN_CHANNELS.

    (K, P) parameter rows split the same way, with a leading K axis on each part.
    """
    c = HIDDEN_CHANNELS
    lead = params.shape[:-1]
    k1 = params[..., : 9 * c].reshape(*lead, c, 3, 3)
    b1 = params[..., 9 * c : 10 * c]
    k2 = params[..., 10 * c : 19 * c].reshape(*lead, c, 3, 3)
    b2 = params[..., 19 * c]
    return k1, b1, k2, b2


def init_params(seed: int) -> np.ndarray:
    """Deterministic init from the (seed, INIT_STREAM) stream: kernels uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(0)
    reseed(rng, stream_seeds(seed, INIT_STREAM)[0])
    c = HIDDEN_CHANNELS
    bound1 = 1.0 / np.sqrt(9.0)
    bound2 = 1.0 / np.sqrt(9.0 * c)
    params = np.zeros(PARAM_COUNT, dtype=np.float64)
    params[: 9 * c] = rng.uniform(-bound1, bound1, size=9 * c)
    params[10 * c : 19 * c] = rng.uniform(-bound2, bound2, size=9 * c)
    return params


def _as_stack(images: np.ndarray) -> np.ndarray:
    """A 2-D image or an (N, H, W) stack as an (N, H, W) stack: float32 kept, anything else float64."""
    x = np.asarray(images)
    x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
    return x.reshape(-1, *x.shape[-2:])


@shifts.per_shape
def _call_views(x_role: str, n: int, height: int, width: int, groups: int, dtype: np.dtype) -> tuple:
    """The work memory's views for kernel calls of one shape; backward lists what each role holds.

    x's shifts in `x_role`, the "nine" planes, "hidden" as (K, C, N/K*H*W), the interior of "out",
    and conv2's (slice of "out", mixed plane) pairs."""
    size = n * height * width
    nine = shifts.nine_planes("nine", n, height, width, dtype, groups)
    out = shifts.guarded("out", n, height, width, dtype)
    starts = [di * width + dj for di in range(3) for dj in range(3)][::-1]  # plane s lands at shift 8 - s
    landing = tuple((out.buffer[start : start + size], plane) for start, plane in zip(starts, nine.flat))
    x_planes = shifts.nine_planes(x_role, n, height, width, dtype, groups)
    hidden = shifts.WORKSPACE.array("hidden", groups, HIDDEN_CHANNELS, size // groups, dtype=dtype)
    return x_planes, nine, hidden, out.interior, landing


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) in `out`, or in a new array: negate, exp, +1, reciprocal.

    Below z of about -709 (-88 in float32), exp(-z) overflows to inf and the
    result is exactly 0.0; above about 37 (17) it is exactly 1.0. The overflow
    is the intended saturation, so it warns of nothing.
    """
    p = np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def _forward_stack(parts: tuple[np.ndarray, ...], x: np.ndarray, views: tuple) -> np.ndarray:
    """Output logits z2 (N, H, W) of a stack, in the work memory of `views`, _call_views of x's shape.

    Group k of the stack goes through row k of `parts`, the unpacked (K, P) rows in the stack's dtype.
    x's shifts stay in their planes, and a1 = relu(z1), all that backward needs of z1, in "hidden":
    group-major, then channel-major, so that each group's channel is one row of the matmuls.
    z2 at (h, w) sums k2[:, s] . a1 at (h + di - 1, w + dj - 1) over the shifts s = (di, dj). Mixing
    the channels first gives one shift-major plane per shift, in "nine"; plane s, added at shift 8 - s
    of a guarded flat accumulator that starts at b2, lands on those positions. The cells that would
    land outside their image are zeroed first, so they add an exact zero to the neighbouring row or
    image; no interior cell reads the guards.
    """
    k1, b1, k2, b2 = parts
    x_planes, nine, a1, z2, landing = views
    groups, c = k1.shape[:2]
    shifts.shift_stack(x, x_planes.role)
    np.matmul(k1.reshape(groups, c, 9), x_planes.per_group, out=a1)
    a1 += b1[:, :, None]
    np.maximum(a1, 0.0, out=a1)
    np.matmul(k2.reshape(groups, c, 9).transpose(0, 2, 1), a1, out=nine.per_group)
    for edge in nine.edges[True]:
        edge.fill(0)
    z2.reshape(groups, -1)[...] = b2[:, None]
    for into, plane in landing:
        into += plane
    return z2


def _check_logits(z2: np.ndarray, rows: np.ndarray) -> None:
    """Raise KernelOverflowError if a finite parameter row gave non-finite logits z2 (N, H, W).

    One isfinite pass checks every logit. The kernel runs with numpy's overflow reports off, so an overflow
    surfaces here by name, not as NaN probabilities that score as background. Non-finite rows are no
    overflow: they are the caller's.
    """
    if np.isfinite(z2).all():
        return
    overflowed = ~np.isfinite(z2).reshape(len(rows), -1).all(axis=1) & np.isfinite(rows).all(axis=1)
    if overflowed.any():
        raise KernelOverflowError(int(np.argmax(overflowed)), z2.dtype)


def forward(params: np.ndarray, images: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Per-pixel foreground probabilities, shaped like the input (H x W, or N x H x W).

    They are float32 for a float32 input and float64 for any other; with a
    threshold, the bool stack forward(params, images) >= threshold. The
    stack runs in kernel calls of shifts.images_per_call(H, W) images. Rejects
    non-finite parameters, and parameters that overflow the input's dtype in
    the kernel raise KernelOverflowError: a diverged model would otherwise
    score as all background, since NaN never clears a threshold.
    """
    if not np.isfinite(params).all():
        raise ValueError("params contain non-finite values")
    x = _as_stack(images)
    out = np.empty(x.shape, dtype=x.dtype if threshold is None else bool)
    per_call = shifts.images_per_call(*x.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        parts = unpack(params[None].astype(x.dtype, copy=False))
        for start in range(0, len(x), per_call):
            pred, chunk = out[start : start + per_call], x[start : start + per_call]
            z2 = _forward_stack(parts, chunk, _call_views("nine", *chunk.shape, 1, x.dtype))
            _check_logits(z2, params[None])
            if threshold is None:
                _sigmoid(z2, out=pred)
            else:  # z2 is the kernel's work memory, free to hold the probabilities
                np.greater_equal(_sigmoid(z2, out=z2), threshold, out=pred)
    return out.reshape(np.shape(images))


def backward(params: np.ndarray, images: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Analytic gradient w.r.t. params of the smoothed Dice loss of forward(params, image) against mask.

    The loss is 1 - (2*sum(p*m) + eps) / (sum(p) + sum(m) + eps), eps =
    DICE_SMOOTHING = 1, which keeps it and its gradient defined for empty
    masks; it lies in [0, 1).

    Takes one image and mask, or (N, H, W) stacks of them, and returns the
    mean over the stack of each sample's own Dice-loss gradient. Parameters
    may also be K rows, (K, P), for K clients at once: the stack is then K
    equal groups of consecutive images, group k is client k's batch, and row
    k of the (K, P) result is bitwise what a call on row k and group k alone
    returns. Flat (P,) parameters are the K = 1 case. The masks of the whole
    stack are validated in one call. The pass computes in the stack's dtype,
    float32 or float64, with the rows cast to it once; the gradient is
    float64. Finite rows whose logits overflow the stack's dtype raise
    KernelOverflowError; non-finite rows give a non-finite gradient.

    Work memory is the shared shifts.WORKSPACE, in the stack's dtype, whose
    five roles are each overwritten in place as the pass goes on; a role is
    taken again only once nothing reads what it held. Each nine-plane role
    is shift-major, (9, N*H*W), and each stack of shifts is cut once, in one
    copy from a guarded buffer's shift window:
      "x nine"  x's shifts: read by conv1 and again by gk1
      "nine"    the channel-mixed planes (conv2), then g2's flipped shifts
                (gk2 and dz1)
      "guarded" the guarded flat copy of x, then the masks m, built in place
                into g2, from which g2's flipped shifts are cut
      "hidden"  z1, overwritten by a1 = relu(z1), then by dz1
      "out"     the guarded flat accumulator of z2, then prob * m
    A call reuses the views of them kept for its shape (N, H, W, K, dtype).
    prob and the gradient are arrays of their own.
    """
    x = _as_stack(images)
    rows = params.reshape(-1, params.shape[-1])
    groups = len(rows)
    n, height, width = x.shape
    valid = validate_mask(masks)
    c = HIDDEN_CHANNELS
    x_planes, nine, a1, _, _ = views = _call_views("x nine", n, height, width, groups, x.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = unpack(rows.astype(x.dtype, copy=False))
        z2 = _forward_stack(parts, x, views)
        _check_logits(z2, rows)
        prob = _sigmoid(z2)
        # z2 is read: its accumulator now takes prob * m, and the guarded copy
        # of x, whose shifts are cut, takes m
        stack = shifts.guarded("guarded", n, height, width, x.dtype)
        m = stack.interior
        m[...] = valid.reshape(x.shape)

        product = np.multiply(prob, m, out=z2)
        intersection = product.sum(axis=(1, 2))[:, None, None]
        denom = (prob.sum(axis=(1, 2)) + m.sum(axis=(1, 2)) + DICE_SMOOTHING)[:, None, None]
        # d(loss)/dp per sample: quotient rule on (2I + eps)/(sums + eps),
        # then through the sigmoid; built in place in m's memory
        g2 = m
        g2 *= -2.0 / denom
        g2 += (2.0 * intersection + DICE_SMOOTHING) / denom**2
        g2 *= prob
        g2 *= 1.0 - prob

        k2 = parts[2]
        # both the second kernel's gradient and the hidden gradient read g2 at
        # shift (2-di, 2-dj): the flipped shift stack, cut where g2 was built
        shifts.cut_shifts(stack, nine, flip=True)
        g2_shifts = nine.per_group
        gk2 = a1 @ g2_shifts.transpose(0, 2, 1)
        active = a1 > 0.0
        dz1 = np.matmul(k2.reshape(groups, c, 9), g2_shifts, out=a1)  # a1 is not read again
        dz1 *= active

        grad = np.empty((groups, PARAM_COUNT))
        grad[:, : 9 * c] = (dz1 @ x_planes.per_group.transpose(0, 2, 1)).reshape(groups, -1)
        grad[:, 9 * c : 10 * c] = dz1.sum(axis=2)
        grad[:, 10 * c : 19 * c] = gk2.reshape(groups, -1)
        grad[:, 19 * c] = g2.reshape(groups, -1).sum(axis=1)
        grad /= n // groups
    return grad.reshape(params.shape)


BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class OptimizerConfig:
    """AdamW's one configurable hyperparameter; its moments are rows of the round's fl.ClientState."""

    learning_rate: float = 0.0001

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


Moments = tuple[np.ndarray, np.ndarray]


def optimizer_step(
    cfg: OptimizerConfig, step: int, params: np.ndarray, grad: np.ndarray, moments: Moments
) -> tuple[np.ndarray, Moments]:
    """AdamW's local step `step` (from 1); returns (new params, new moments), in new arrays.

    The moments (m, v), of the parameters' shape, (P,) or (K, P), are updated and
    bias-corrected at `step`; decoupled weight decay applies directly to the parameters.
    """
    m = BETA1 * moments[0] + (1.0 - BETA1) * grad
    v = BETA2 * moments[1] + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    update = m_hat / (np.sqrt(v_hat) + ADAM_EPS) + WEIGHT_DECAY * params
    return params - cfg.learning_rate * update, (m, v)
