"""Binary mask analysis: lesion size, small-lesion classification, difficulty factors.

Masks are 2D numpy arrays with values in {0, 1} (uint8 or bool). The difficulty
factor of a mask is computed from its inverse relative area, i.e. total pixel
count divided by foreground pixel count: small lesions have large inverse areas.
Batches of difficulty factors combine into a gradient scaling factor eta >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .shifts import shift_stack

StructuringElement = Literal["square3", "cross3"]
Regime = Literal["whole_mask", "blob_split"]


class EmptyMaskError(ValueError):
    """Mask has no foreground pixels; inverse relative area is undefined."""


class BadBatchError(ValueError):
    """Batch of difficulty factors is inconsistent with the stated batch size."""


class ShapeMismatchError(ValueError):
    """Two grids that must share a shape do not."""


# Each element's members among the nine 3x3 shifts, s = 3*di + dj.
_ELEMENTS = {"square3": slice(None), "cross3": [1, 3, 4, 5, 7]}


@dataclass(frozen=True)
class DifficultyConfig:
    """Settings for small-lesion classification and difficulty estimation.

    log_base: base of the squared logarithm applied to the inverse area (> 1).
    threshold: inverse-area value at or above which a mask counts as small (>= 1).
    regime: "whole_mask" compares the whole-mask inverse area against the
        threshold; "blob_split" erodes, separates blobs, and classifies on the
        smallest one (for small lesions attached to large ones).
    """

    log_base: float = 100.0
    threshold: float = 150.0
    regime: Regime = "blob_split"
    erosion_iterations: int = 1
    structuring_element: StructuringElement = "square3"
    connectivity: int = 8

    def __post_init__(self) -> None:
        if not self.log_base > 1.0:
            raise ValueError(f"log_base must be > 1, got {self.log_base}")
        if not self.threshold >= 1.0:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.regime not in ("whole_mask", "blob_split"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.erosion_iterations < 0:
            raise ValueError("erosion_iterations must be >= 0")
        if self.structuring_element not in _ELEMENTS:
            raise ValueError(f"unknown structuring element {self.structuring_element!r}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {self.connectivity}")


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component labeling of a mask.

    labels: H x W int array, 0 = background, components numbered 1..n.
    component_areas: (label, pixel count) pairs, one per component.
    """

    labels: np.ndarray
    component_areas: list[tuple[int, int]]

    @property
    def n_components(self) -> int:
        return len(self.component_areas)


@dataclass(frozen=True)
class DifficultyResult:
    """Outcome of difficulty estimation for one mask.

    inverse_area is None for empty masks. delta is 0 whenever is_small is False
    and always lies in [0, 1).
    """

    inverse_area: float | None
    is_small: bool
    delta: float


def validate_mask(mask: np.ndarray) -> np.ndarray:
    """Check that `mask` is a 2D {0,1} grid; returns it as a uint8 array."""
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2D grid, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("mask cells must all be 0 or 1")
    return arr.astype(np.uint8)


def inverse_relative_area(mask: np.ndarray) -> float:
    """Total pixel count divided by foreground pixel count; always >= 1.

    Raises EmptyMaskError when the mask has no foreground (the ratio would
    divide by zero); callers decide how to handle empty masks.
    """
    arr = validate_mask(mask)
    foreground = int(arr.sum())
    if foreground == 0:
        raise EmptyMaskError("mask has no foreground pixels")
    return arr.size / foreground


def _morph(arr: np.ndarray, element: StructuringElement, iterations: int, reduce: Callable) -> np.ndarray:
    """`iterations` rounds of `reduce` (min: erode, max: dilate) over the element's shifts of a valid mask."""
    if element not in _ELEMENTS:
        raise ValueError(f"unknown structuring element {element!r}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    out = arr
    for _ in range(iterations):
        # zero outside the image: erosion eats into the border, dilation adds nothing there
        out = reduce(shift_stack(out[None])[_ELEMENTS[element]], axis=0).reshape(arr.shape)
    return out.astype(np.uint8)


def erode(mask: np.ndarray, element: StructuringElement = "square3", iterations: int = 1) -> np.ndarray:
    """Standard binary erosion, `iterations` times. 0 iterations is the identity.

    A pixel survives iff every shift in the element lands on foreground.
    Pixels outside the image count as background, so foreground touching the
    border erodes. Output foreground is always a subset of the input's.
    """
    return _morph(validate_mask(mask), element, iterations, np.min)


def dilate(mask: np.ndarray, element: StructuringElement = "square3", iterations: int = 1) -> np.ndarray:
    """Binary dilation, the adjoint of `erode`. 0 iterations is the identity."""
    return _morph(validate_mask(mask), element, iterations, np.max)


def _label(arr: np.ndarray, connectivity: int) -> ComponentLabeling:
    """Run-based two-scan labeling of a valid mask (He, Chao & Suzuki, IEEE TIP 17(5), 2008).

    A run is a maximal horizontal stretch of foreground in one row. Runs are
    found in raster order and joined by union-find with the runs of the row
    above whose columns overlap theirs (widened by one for 8-connectivity).
    Every set is rooted at its first run, i.e. at its first pixel in raster
    order, so numbering the roots in order numbers the components as
    scipy.ndimage.label does.
    """
    height, width = arr.shape
    stride = width + 2  # one zero column on each side keeps every run inside its row
    padded = np.zeros((height, stride), dtype=np.uint8)
    padded[:, 1:-1] = arr
    flat = padded.reshape(-1)
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = changes[0::2], changes[1::2]  # flat positions; ends are one past a run
    # the runs of the row above that touch run r are the contiguous range first[r]:stop[r]
    reach = connectivity == 8
    first = np.searchsorted(ends, starts - (stride + reach), side="right").tolist()
    stop = np.searchsorted(starts, ends - (stride - reach), side="left").tolist()
    parent = list(range(len(first)))
    for run in range(len(parent)):
        for touched in range(first[run], stop[run]):
            a, b = touched, run
            while parent[a] != a:  # find, halving the path
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[max(a, b)] = min(a, b)
    # roots number the components in order; a parent comes earlier, so its label is known
    run_labels: list[int] = []
    n = 0
    for run, up in enumerate(parent):
        n += up == run
        run_labels.append(n if up == run else run_labels[up])
    labels = np.zeros(flat.size, dtype=np.int32)
    for start, end, label in zip(starts.tolist(), ends.tolist(), run_labels):
        labels[start:end] = label
    areas = np.bincount(run_labels, weights=ends - starts, minlength=n + 1).tolist()
    component_areas = [(label, int(areas[label])) for label in range(1, n + 1)]
    return ComponentLabeling(labels=labels.reshape(height, stride)[:, 1:-1], component_areas=component_areas)


def label_components(mask: np.ndarray, connectivity: int = 8) -> ComponentLabeling:
    """Label connected foreground components under 4- or 8-connectivity.

    Every foreground pixel gets exactly one label in 1..n; background stays
    0. Components are numbered in raster order of their first pixel.
    """
    arr = validate_mask(mask)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    return _label(arr, connectivity)


def smallest_lesion_inverse_area(mask: np.ndarray, cfg: DifficultyConfig) -> float:
    """Inverse area of the smallest distinct lesion after separating attached ones.

    Erodes the mask (detaching lesions joined by thin bridges), labels the
    eroded components, and takes the smallest. Its pre-erosion area is estimated
    by dilating that component once per erosion iteration with the same element
    and intersecting with the original mask. If erosion empties the mask
    entirely, classification falls back to the components of the un-eroded mask
    so that tiny lesions are not dropped.

    Raises EmptyMaskError for an empty input mask.
    """
    arr = validate_mask(mask)
    if arr.sum() == 0:
        raise EmptyMaskError("mask has no foreground pixels")

    eroded = _morph(arr, cfg.structuring_element, cfg.erosion_iterations, np.min)
    use_fallback = eroded.sum() == 0
    base = arr if use_fallback else eroded

    labeling = _label(base, cfg.connectivity)
    smallest_label, smallest_area = min(labeling.component_areas, key=lambda la: la[1])

    if use_fallback or cfg.erosion_iterations == 0:
        estimated_area = smallest_area
    else:
        component = (labeling.labels == smallest_label).astype(np.uint8)
        reconstructed = _morph(component, cfg.structuring_element, cfg.erosion_iterations, np.max)
        estimated_area = int((reconstructed & arr).sum())
    return arr.size / estimated_area


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


def delta_from_inverse_area(inverse_area: float, log_base: float, threshold: float) -> tuple[bool, float]:
    """Map an inverse area to (is_small, difficulty delta).

    is_small is True iff inverse_area >= threshold; delta is the raw difficulty
    gated by is_small, so it lies in [0, 1) and is 0 for non-small masks.
    """
    is_small = inverse_area >= threshold
    delta = raw_difficulty(inverse_area, log_base) if is_small else 0.0
    return is_small, delta


def difficulty_factor(mask: np.ndarray, cfg: DifficultyConfig) -> DifficultyResult:
    """Difficulty of segmenting `mask`, in [0, 1); empty masks score 0.

    The inverse area is taken from the whole mask or from the smallest
    separated lesion depending on cfg.regime. An empty mask has no lesion and
    therefore no small-lesion difficulty.
    """
    try:
        if cfg.regime == "whole_mask":
            inverse_area = inverse_relative_area(mask)
        else:
            inverse_area = smallest_lesion_inverse_area(mask, cfg)
    except EmptyMaskError:
        return DifficultyResult(inverse_area=None, is_small=False, delta=0.0)
    is_small, delta = delta_from_inverse_area(inverse_area, cfg.log_base, cfg.threshold)
    return DifficultyResult(inverse_area=inverse_area, is_small=is_small, delta=delta)


def batch_scaling_factor(deltas: Sequence[float], batch_size: int) -> float:
    """Scaling factor eta = 1 + (2/N) * sum(deltas) for a batch of N samples.

    The sum (rather than a mean) makes eta sensitive to HOW MANY samples in the
    batch are small: three small-lesion samples score markedly higher than one.
    eta is 1 exactly when no sample in the batch is small, and < 3 always.
    """
    if batch_size < 1:
        raise BadBatchError(f"batch size must be >= 1, got {batch_size}")
    if len(deltas) != batch_size:
        raise BadBatchError(f"got {len(deltas)} deltas for batch size {batch_size}")
    for d in deltas:
        if not 0.0 <= d < 1.0:
            raise BadBatchError(f"difficulty factor {d} outside [0, 1)")
    return 1.0 + (2.0 / batch_size) * float(sum(deltas))
