"""Binary mask analysis: lesion size, small-lesion classification, difficulty factors.

Masks are 2D numpy arrays with values in {0, 1} (uint8 or bool), and
validate_mask and difficulty_factor also take (N, H, W) stacks of them: a 2D
mask is the N = 1 case of one stack path, and scores as (1,) arrays. The
difficulty factor of a mask is computed from its inverse relative area, i.e.
total pixel count divided by foreground pixel count: small lesions have large inverse areas.
Batches of difficulty factors combine into a gradient scaling factor eta >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .shifts import images_per_call, shift_stack

Regime = Literal["whole_mask", "blob_split"]


@dataclass(frozen=True)
class DifficultyConfig:
    """Settings for small-lesion classification and difficulty estimation.

    log_base: base of the squared logarithm applied to the inverse area (> 1).
    threshold: inverse-area value at or above which a mask counts as small (>= 1).
    regime: "whole_mask" compares the whole-mask inverse area against the
        threshold; "blob_split" erodes once by the 3x3 square, separates
        8-connected blobs, and classifies on the smallest one, dilated back
        (for small lesions attached to large ones).
    """

    log_base: float = 100.0
    threshold: float = 150.0
    regime: Regime = "blob_split"

    def __post_init__(self) -> None:
        if not self.log_base > 1.0:
            raise ValueError(f"log_base must be > 1, got {self.log_base}")
        if not self.threshold >= 1.0:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        for name, value in (("log_base", self.log_base), ("threshold", self.threshold)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.regime not in ("whole_mask", "blob_split"):
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class DifficultyResult:
    """Outcome of difficulty estimation for an (N, H, W) stack of masks: (N,) arrays, entry i for mask i.

    inverse_area is NaN where a mask is empty. delta is 0 wherever is_small
    is False and always lies in [0, 1). A 2D mask is a stack of one and
    gives (1,) arrays.
    """

    inverse_area: np.ndarray
    is_small: np.ndarray
    delta: np.ndarray


def validate_mask(mask: np.ndarray) -> np.ndarray:
    """Check that `mask` is a 2D {0,1} grid, or an (N, H, W) stack of them; returns it as uint8.

    A uint8 mask comes back uncopied and a bool one as a uint8 view of it;
    a mask of any other dtype is converted.
    """
    arr = np.asarray(mask)
    if arr.ndim not in (2, 3) or 0 in arr.shape:
        raise ValueError(f"mask must be a non-empty 2D grid or (N, H, W) stack, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.view(np.uint8)
    if arr.max() > 1 if arr.dtype == np.uint8 else not ((arr == 0) | (arr == 1)).all():
        raise ValueError("mask cells must all be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _whole_mask_areas(stack: np.ndarray) -> np.ndarray:
    """H*W over each mask's foreground count, for a valid (N, H, W) stack; NaN where a mask is empty."""
    counts = np.count_nonzero(stack.view(bool), axis=(1, 2))
    return np.where(counts > 0, stack[0].size / np.maximum(counts, 1), np.nan)


def _morph(arr: np.ndarray, reduce: Callable) -> np.ndarray:
    """A new array: `reduce` (min: erode, max: dilate) over the 3x3 square, the nine shifts of a valid mask or stack.

    The shifts are zero outside each image: erosion eats into the border, dilation adds nothing there.
    """
    return reduce(shift_stack(arr.reshape(-1, *arr.shape[-2:])), axis=0).reshape(arr.shape)


def _label(stack: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray, np.ndarray]:
    """Run-based two-scan 8-connected labeling of a valid (N, H, W) stack (He, Chao & Suzuki, IEEE TIP 17(5), 2008).

    Returns `paint`, each component's area and each component's image;
    paint(table) is the (N, H, W) stack of table[label], label 0 being the
    background. The images are labelled as one raster with a zero row after
    each, so no component spans two images and each image's components are
    a contiguous range of labels. A run is a maximal horizontal stretch of
    foreground in one row. Runs are found in raster order and joined by
    union-find with the runs of the row above whose columns overlap theirs
    or touch them diagonally.
    Every set is rooted at its first run, i.e. at its first pixel in raster
    order, so numbering the roots in order numbers each image's components
    as scipy.ndimage.label does.
    """
    n, height, width = stack.shape
    stride = width + 2  # one zero column on each side keeps every run inside its row
    padded = np.zeros((n, height + 1, stride), dtype=np.uint8)
    padded[:, :height, 1:-1] = stack
    flat = padded.reshape(-1)
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = changes[0::2], changes[1::2]  # flat positions; ends are one past a run
    # the runs of the row above that touch run r, diagonals included, are the contiguous range first[r]:stop[r]
    first = np.searchsorted(ends, starts - (stride + 1), side="right").tolist()
    stop = np.searchsorted(starts, ends - (stride - 1), side="left").tolist()
    parent = list(range(len(first)))
    for run in range(len(parent)):
        for touched in range(first[run], stop[run]):
            a, b = touched, run
            while parent[a] != a:  # find, halving the path
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[a if a > b else b] = b if a > b else a  # the later root joins the earlier one
    # roots number the components in order; a parent comes earlier, so its label is known
    run_labels: list[int] = []
    roots: list[int] = []
    for run, up in enumerate(parent):
        if up == run:
            roots.append(run)
        run_labels.append(len(roots) if up == run else run_labels[up])
    lengths, run_labels = ends - starts, np.array(run_labels, dtype=np.intp)

    def paint(table: np.ndarray) -> np.ndarray:
        out = np.full(flat.size, table[0], dtype=table.dtype)
        out[flat.view(bool)] = np.repeat(table[run_labels], lengths)  # the runs cover the foreground in raster order
        return out.reshape(n, height + 1, stride)[:, :height, 1:-1]

    areas = np.bincount(run_labels, weights=lengths, minlength=len(roots) + 1)[1:]
    images = starts[roots] // (stride * (height + 1))  # each component's image, from its first run
    return paint, areas, images


def _smallest_lesion_areas(stack: np.ndarray) -> np.ndarray:
    """Inverse area of each mask's smallest distinct lesion, for a valid (N, H, W) stack; NaN where a mask is empty.

    One erosion by the 3x3 square detaches lesions joined by thin bridges;
    the smallest 8-connected eroded component, the first in raster order
    among equal areas, is dilated back by the same square and intersected
    with the mask. A mask that erosion empties is scored on its un-eroded
    components, so that tiny lesions are not dropped.

    The stack is scored images_per_call(H, W) masks at a time, a kernel
    call's worth: one erosion, one labelling and one reconstruction per chunk.
    """
    n, height, width = stack.shape
    estimated = np.full(n, np.nan)
    per_chunk = images_per_call(height, width)
    for begin in range(0, n, per_chunk):
        arr = stack[begin : begin + per_chunk]
        base = _morph(arr, np.min)
        fallback = ~base.any(axis=(1, 2))  # erosion emptied the mask (or it was empty)
        base[fallback] = arr[fallback]
        paint, areas, images = _label(base)
        # each image's smallest component, the lowest label among equal areas: first of a stable sort by (image, area)
        order = np.lexsort((areas, images))
        smallest = order[np.flatnonzero(np.diff(images[order], prepend=-1))]
        estimated[begin + images[smallest]] = areas[smallest]
        rebuild = smallest[~fallback[images[smallest]]]
        if len(rebuild):
            # dilate each smallest eroded component back and keep what lies in the mask
            chosen = np.zeros(len(areas) + 1, dtype=np.uint8)
            chosen[rebuild + 1] = 1
            reconstructed = _morph(paint(chosen), np.max)
            reconstructed &= arr
            counts = np.count_nonzero(reconstructed.view(bool), axis=(1, 2))
            estimated[begin + images[rebuild]] = counts[images[rebuild]]
    return height * width / estimated


_BELOW_ONE = math.nextafter(1.0, 0.0)


def raw_difficulty(inverse_area: float, log_base: float) -> float:
    """Ungated difficulty: tanh of the squared log-base-l of the inverse area.

    tanh of a finite argument is strictly below 1, but float64 rounds it to
    1.0 for arguments beyond ~19; those cases round down to the largest double
    below 1 so the value always stays inside [0, 1).
    """
    log_value = math.log(inverse_area) / math.log(log_base)
    # inverse areas are >= 1 by construction, so the log is never negative
    assert log_value >= 0.0, f"inverse area {inverse_area} < 1"
    return min(math.tanh(log_value * log_value), _BELOW_ONE)


def difficulty_factor(masks: np.ndarray, cfg: DifficultyConfig) -> DifficultyResult:
    """Difficulty of segmenting each mask of an (N, H, W) stack, in [0, 1); empty masks score 0.

    The inverse area is taken from the whole mask or from the smallest
    separated lesion depending on cfg.regime. An empty mask has no lesion and
    therefore no small-lesion difficulty. The stack is validated once; a 2D
    mask is scored as a stack of one and gives (1,) arrays.
    """
    arr = validate_mask(masks)
    stack = arr.reshape(-1, *arr.shape[-2:])
    inverse_area = _whole_mask_areas(stack) if cfg.regime == "whole_mask" else _smallest_lesion_areas(stack)
    is_small = inverse_area >= cfg.threshold  # False where empty: NaN compares False
    gated = zip(inverse_area.tolist(), is_small.tolist())
    delta = np.array([raw_difficulty(a, cfg.log_base) if small else 0.0 for a, small in gated])
    return DifficultyResult(inverse_area, is_small, delta)


def batch_scaling_factor(deltas: Sequence[float]) -> float:
    """Scaling factor eta = 1 + (2/N) * sum(deltas) for a batch of N = len(deltas) >= 1 deltas in [0, 1).

    The sum (rather than a mean) makes eta sensitive to HOW MANY samples in the
    batch are small: three small-lesion samples score markedly higher than one.
    eta is 1 exactly when no sample in the batch is small, and < 3 always.
    """
    return 1.0 + (2.0 / len(deltas)) * float(sum(deltas))
