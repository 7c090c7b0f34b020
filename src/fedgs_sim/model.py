"""Tiny differentiable per-pixel segmentation model.

Two 3x3 convolutions with same-padding (ReLU between, sigmoid head), trained
with smoothed Dice loss. Parameters live in a single flat float64 vector so the
federated layer can treat models as plain vectors. The backward pass is written
out by hand and checked against finite differences in the test suite. forward
and backward take one image or an (N, H, W) stack; backward returns the mean
of the samples' gradients, and also takes (K, P) parameter rows, one per
client, to train K clients' batches in one call. Both compute in float32 on a
float32 stack (the client data's dtype) and in float64 on any other; the
parameters and the gradient stay float64 either way, as master weights do in
mixed-precision training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import shifts
from .masks import ShapeMismatchError, validate_mask
from .rng import INIT_STREAM, substream

DICE_SMOOTHING = 1.0


class KernelOverflowError(ValueError):
    """A finite parameter row `row` overflowed `dtype` in the kernel or in the cast to it: its logits are not finite."""

    def __init__(self, row: int, dtype: np.dtype) -> None:
        self.row, self.dtype = row, np.dtype(dtype)
        super().__init__(f"parameter row {row} overflows {self.dtype} in the kernel: its logits are not finite")


@dataclass(frozen=True)
class ArchDescriptor:
    """Shape of the model: 1 -> hidden_channels -> 1 channels, 3x3 kernels."""

    hidden_channels: int = 4

    def __post_init__(self) -> None:
        if self.hidden_channels < 1:
            raise ValueError("hidden_channels must be >= 1")

    @property
    def param_count(self) -> int:
        c = self.hidden_channels
        return (9 * c + c) + (9 * c + 1)

    def unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split a flat vector into views (k1 (C,3,3), b1 (C,), k2 (C,3,3), b2 ()).

        (K, P) parameter rows split the same way, with a leading K axis on
        each part.
        """
        c = self.hidden_channels
        if params.ndim not in (1, 2) or params.shape[-1] != self.param_count:
            raise ValueError(f"expected {self.param_count} parameters per row, got shape {params.shape}")
        lead = params.shape[:-1]
        k1 = params[..., : 9 * c].reshape(*lead, c, 3, 3)
        b1 = params[..., 9 * c : 10 * c]
        k2 = params[..., 10 * c : 19 * c].reshape(*lead, c, 3, 3)
        b2 = params[..., 19 * c]
        return k1, b1, k2, b2


def infer_arch(params: np.ndarray) -> ArchDescriptor:
    """Recover the architecture from a parameter vector's length (19*C + 1 entries).

    For (K, P) parameter rows, the length of a row.
    """
    n = params.shape[-1]
    c = (n - 1) // 19
    if c < 1 or 19 * c + 1 != n:
        raise ValueError(f"no architecture has {n} parameters")
    return ArchDescriptor(hidden_channels=c)


def init_params(arch: ArchDescriptor, seed: int) -> np.ndarray:
    """Deterministic init: kernels uniform in +-1/sqrt(fan_in), biases zero."""
    rng = substream(seed, INIT_STREAM)
    c = arch.hidden_channels
    bound1 = 1.0 / np.sqrt(9.0)
    bound2 = 1.0 / np.sqrt(9.0 * c)
    params = np.zeros(arch.param_count, dtype=np.float64)
    params[: 9 * c] = rng.uniform(-bound1, bound1, size=9 * c)
    params[10 * c : 19 * c] = rng.uniform(-bound2, bound2, size=9 * c)
    return params


# Pixels per kernel call that callers fill their stacks up to: four 64x64
# images. The kernel's work memory holds 24 planes per stacked image at the
# default 4 hidden channels (two nine-plane shift stacks, the hidden layer
# and two guarded planes), and no pad cells, so a call of this size keeps at
# most 3.148 MB of it on a float64 stack and 1.574 MB on a float32 one.
KERNEL_PIXELS = 16384


def _as_stack(images: np.ndarray) -> np.ndarray:
    """A 2-D image or an (N, H, W) stack as a validated (N, H, W) stack: float32 kept, anything else float64."""
    x = np.asarray(images)
    x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
    if x.ndim not in (2, 3) or x.size == 0 or x.shape[-2] < 3 or x.shape[-1] < 3:
        raise ValueError(f"image must be 2D or an (N, H, W) stack, at least 3x3, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("image contains non-finite values")
    return x.reshape(-1, *x.shape[-2:])


def _per_group(planes: np.ndarray, groups: int) -> np.ndarray:
    """The (K, 9, M) view, one nine-row matrix per group, of shift-major (9, K*M) planes."""
    return planes.reshape(9, groups, -1).transpose(1, 0, 2)


def _conv1(k1: np.ndarray, b1: np.ndarray, planes: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    """Hidden pre-activations z1 (K, C, N/K, H, W) from the (9, N*H*W) shifts of an (N, H, W) stack, in the "hidden" role.

    Group k of the stack goes through row k of the (K, C, 3, 3) kernels and
    (K, C) biases, which are in the stack's dtype. The hidden layer is
    group-major, then channel-major, so that each group's channel is one
    contiguous row of the matmuls.
    """
    groups, c = k1.shape[:2]
    n, height, width = x_shape
    z1 = shifts.WORKSPACE.array("hidden", groups, c, n // groups, height, width, dtype=planes.dtype)
    np.matmul(k1.reshape(groups, c, 9), _per_group(planes, groups), out=z1.reshape(groups, c, -1))
    z1 += b1[:, :, None, None, None]
    return z1


def _conv2(k2: np.ndarray, b2: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Output logits z2 (N, H, W) from hidden activations a1 (K, C, N/K, H, W), in the "out" role.

    z2 at (h, w) sums k2[:, s] . a1 at (h + di - 1, w + dj - 1) over the
    shifts s = (di, dj). Mixing the channels first gives one shift-major
    plane per shift, in the "nine" role; plane s, added at shift 8 - s of a
    guarded flat accumulator that starts at b2, lands on those positions.
    The cells that would land outside their image, on one edge row and/or
    column of the plane, are zeroed first, so they add an exact zero to the
    neighbouring row or image.
    """
    groups, c, per_group, height, width = a1.shape
    mixed = shifts.WORKSPACE.array("nine", 9, groups * per_group, height, width, dtype=a1.dtype)
    flat = mixed.reshape(9, -1)
    np.matmul(k2.reshape(groups, c, 9).transpose(0, 2, 1), a1.reshape(groups, c, -1), out=_per_group(flat, groups))
    shifts.zero_edges(mixed, -1, 0)
    out, z2, starts = shifts.guarded("out", groups * per_group, height, width, a1.dtype)
    z2.reshape(groups, -1)[...] = b2[:, None]
    for s, start in enumerate(starts[::-1]):
        out[start : start + z2.size] += flat[s]
    return z2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) in a new array: negate, exp, +1, reciprocal.

    Below z of about -709 (-88 in float32), exp(-z) overflows to inf and the
    result is exactly 0.0; above about 37 (17) it is exactly 1.0. The overflow
    is the intended saturation, so it warns of nothing.
    """
    p = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def _forward_stack(parts: tuple[np.ndarray, ...], x: np.ndarray, role: str):
    """Output logits z2 (N, H, W), hidden activations a1 (K, C, N/K, H, W) and x's shifts (9, N*H*W) of a stack.

    `parts` are the unpacked (K, P) rows. All three results live in the
    workspace: x's shifts in `role`, a1 in the "hidden" role, where the ReLU
    overwrote z1: backward needs only a1 and where it is positive.
    """
    k1, b1, k2, b2 = parts
    planes = shifts.shift_stack(x, role)
    a1 = _conv1(k1, b1, planes, x.shape)
    np.maximum(a1, 0.0, out=a1)
    return _conv2(k2, b2, a1), a1, planes


def _check_logits(z2: np.ndarray, rows: np.ndarray) -> None:
    """Raise KernelOverflowError if a finite parameter row gave non-finite logits z2 (N, H, W).

    One isfinite pass checks every logit. The kernel runs with overflow warnings off, so an overflow
    surfaces here by name, not as NaN probabilities that score as background. Non-finite rows are no
    overflow: they are the caller's.
    """
    if np.isfinite(z2).all():
        return
    overflowed = ~np.isfinite(z2).reshape(len(rows), -1).all(axis=1) & np.isfinite(rows).all(axis=1)
    if overflowed.any():
        raise KernelOverflowError(int(np.argmax(overflowed)), z2.dtype)


def forward(params: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Per-pixel foreground probabilities, shaped like the input (H x W, or N x H x W).

    They are float32 for a float32 input and float64 for any other. Rejects
    non-finite parameters: a diverged model would otherwise score as an
    all-background prediction, since NaN never clears a threshold. For the
    same reason, parameters that overflow the input's dtype inside the
    kernel raise KernelOverflowError.
    """
    arch = infer_arch(params)
    if not np.isfinite(params).all():
        raise ValueError("params contain non-finite values")
    x = _as_stack(images)
    rows = params.reshape(-1, params.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        z2, _, _ = _forward_stack(arch.unpack(rows.astype(x.dtype, copy=False)), x, "nine")
    _check_logits(z2, rows)
    return _sigmoid(z2).reshape(np.shape(images))


def dice_loss(pred: np.ndarray, mask: np.ndarray) -> float:
    """Smoothed Dice loss 1 - (2*sum(p*m) + eps) / (sum(p) + sum(m) + eps).

    The smoothing term (eps = 1) keeps the loss and its gradient defined for
    empty masks. Values lie in [0, 1).
    """
    p = np.asarray(pred, dtype=np.float64)
    m = validate_mask(mask).astype(np.float64)
    if p.shape != m.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != mask shape {m.shape}")
    intersection = float((p * m).sum())
    total = float(p.sum() + m.sum())
    return 1.0 - (2.0 * intersection + DICE_SMOOTHING) / (total + DICE_SMOOTHING)


def backward(params: np.ndarray, images: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Analytic gradient of dice_loss(forward(params, image), mask) w.r.t. params.

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
    is shift-major, (9, N*H*W), and each stack of shifts is built once:
      "x nine"  x's shifts: read by conv1 and again by gk1
      "nine"    the channel-mixed planes (conv2), then g2's flipped shifts
                (gk2 and dz1)
      "guarded" the guarded flat copy of x, then the masks m, built in place
                into g2, from which g2's flipped shifts are cut
      "hidden"  z1, overwritten by a1 = relu(z1), then by dz1
      "out"     the guarded flat accumulator of z2, then prob * m
    prob and the gradient are arrays of their own.
    """
    arch = infer_arch(params)
    x = _as_stack(images)
    rows = params.reshape(-1, params.shape[-1])
    groups = len(rows)
    masks = np.asarray(masks)
    if masks.shape != np.shape(images):
        raise ShapeMismatchError(f"image shape {np.shape(images)} != mask shape {masks.shape}")
    n, height, width = x.shape
    if n % groups:
        raise ShapeMismatchError(f"a stack of {n} images does not split into {groups} equal groups")
    valid = validate_mask(masks)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = arch.unpack(rows.astype(x.dtype, copy=False))
        z2, a1, x_shifts = _forward_stack(parts, x, "x nine")
        _check_logits(z2, rows)
        prob = _sigmoid(z2)
        # z2 is read: its accumulator now takes prob * m, and the guarded copy
        # of x, whose shifts are built, takes m
        buffer, m, starts = shifts.guarded("guarded", n, height, width, x.dtype)
        m[...] = valid.reshape(x.shape)

        product = np.multiply(prob, m, out=shifts.WORKSPACE.array("out", *x.shape, dtype=x.dtype))
        intersection = product.sum(axis=(1, 2))[:, None, None]
        denom = (prob.sum(axis=(1, 2)) + m.sum(axis=(1, 2)) + DICE_SMOOTHING)[:, None, None]
        # d(dice_loss)/dp per sample: quotient rule on (2I + eps)/(sums + eps),
        # then through the sigmoid; built in place in m's memory
        g2 = m
        g2 *= -2.0 / denom
        g2 += (2.0 * intersection + DICE_SMOOTHING) / denom**2
        g2 *= prob
        g2 *= 1.0 - prob

        c = arch.hidden_channels
        k2 = parts[2]
        a1 = a1.reshape(groups, c, -1)
        # both the second kernel's gradient and the hidden gradient read g2 at
        # shift (2-di, 2-dj): the flipped shift stack, cut where g2 was built
        g2_shifts = _per_group(shifts.cut_shifts(buffer, g2, starts, "nine", flip=True), groups)
        gk2 = a1 @ g2_shifts.transpose(0, 2, 1)
        active = a1 > 0.0
        dz1 = np.matmul(k2.reshape(groups, c, 9), g2_shifts, out=a1)  # a1 is not read again
        dz1 *= active

        grad = np.empty((groups, arch.param_count))
        grad[:, : 9 * c] = (dz1 @ _per_group(x_shifts, groups).transpose(0, 2, 1)).reshape(groups, -1)
        grad[:, 9 * c : 10 * c] = dz1.sum(axis=2)
        grad[:, 10 * c : 19 * c] = gk2.reshape(groups, -1)
        grad[:, 19 * c] = g2.reshape(groups, -1).sum(axis=1)
        grad /= n // groups
    return grad.reshape(params.shape)


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters only; AdamW's moments are rows of the round's fl.ClientState."""

    kind: Literal["sgd", "adamw"] = "adamw"
    learning_rate: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")


Moments = tuple[np.ndarray, np.ndarray]


def optimizer_step(
    cfg: OptimizerConfig, step: int, params: np.ndarray, grad: np.ndarray, moments: Moments | None
) -> tuple[np.ndarray, Moments | None]:
    """Local step `step` (from 1) of the optimizer; returns (new params, new moments), in new arrays.

    SGD: params - lr * grad, with no moments. AdamW: the moments (m, v), of
    the parameters' shape, (P,) or (K, P), updated and bias-corrected at
    `step`, with decoupled weight decay applied directly to the parameters.
    """
    if params.shape != grad.shape:
        raise ShapeMismatchError(f"params shape {params.shape} != grad shape {grad.shape}")
    if cfg.kind == "sgd":
        return params - cfg.learning_rate * grad, None
    if moments is None:
        raise ValueError("adamw needs its moments (m, v)")
    if step < 1:
        raise ValueError(f"adamw counts steps from 1, got step {step}")

    m = cfg.beta1 * moments[0] + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * moments[1] + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1**step)
    v_hat = v / (1.0 - cfg.beta2**step)
    update = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * params
    return params - cfg.learning_rate * update, (m, v)
