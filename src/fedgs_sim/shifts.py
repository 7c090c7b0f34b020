"""The package's one 3x3 shift primitive: edge-masked flat shifts, and the work memory they live in.

The model's convolutions and the masks module's erosion and dilation all
read the nine shifts (h + di - 1, w + dj - 1), (di, dj) in {0, 1, 2}^2, of
an (N, H, W) stack, with zero outside each image. The nine are cut in one
copy, from a strided window over the stack's guarded buffer. The views that
calls of one shape take of the work memory are kept for that shape until a
buffer grows, so that a call builds none of them.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


class Workspace:
    """Work memory that the shift primitive and the model's kernel reuse across calls.

    One kernel call over four 64x64 images needs a few megabytes of
    temporaries. Allocated afresh on every call, they come back from the
    operating system as new pages each time, and the page faults cost more
    than the arithmetic on them. model.backward lists which role holds what.
    Each role keeps one buffer per dtype: float32 stacks take float32 memory,
    uint8 mask stacks uint8 memory, and a stack of any other dtype float64
    memory. A buffer that grows drops every view in `views` (see per_shape).
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.views: dict[tuple, object] = {}

    def array(self, role: str, *shape: int, dtype: np.dtype) -> np.ndarray:
        """An uninitialised float32, uint8 or float64 array of `shape`, in the memory kept for (`role`, dtype).

        Memory grows to the largest shape asked of it, and every array taken
        from it overlaps the previous one.
        """
        key = (role, np.dtype(dtype if dtype in (np.float32, np.uint8) else np.float64))
        size = math.prod(shape)
        if key not in self._buffers or self._buffers[key].size < size:
            self.views.clear()
            self._buffers.pop(key, None)  # free the smaller buffer before allocating its successor
            self._buffers[key] = np.empty(size, key[1])
        return self._buffers[key][:size].reshape(shape)


# Kernel calls and morphology calls never nest, so one workspace serves them all.
WORKSPACE = Workspace()

# Pixels per call that the model's kernel and blob_split's morphology fill
# their stacks up to: four 64x64 images. The kernel's work memory holds 24
# planes per stacked image at the model's 4 hidden channels (two nine-plane
# shift stacks, the hidden layer and two guarded planes), and no pad cells,
# so a call of this size keeps at most 3.148 MB of it on a float64 stack and
# 1.574 MB on a float32 one. Morphology keeps 10 bytes of uint8 work memory
# per pixel (a guarded copy and nine shift planes), 0.16 MB per call; four
# times as many pixels scored blob_eval's 240 test masks a few ms faster,
# but raised the sweep's peak memory by about 0.5 MB.
KERNEL_PIXELS = 16384


def images_per_call(height: int, width: int) -> int:
    return max(1, KERNEL_PIXELS // (height * width))  # H x W images per call, at least one


def per_shape(build: Callable) -> Callable:
    """`build`, its result kept per call shape in WORKSPACE.views; it takes each role's memory in one array call."""

    def kept(*shape):
        views = WORKSPACE.views.get((build, *shape))
        if views is None:
            views = WORKSPACE.views[(build, *shape)] = build(*shape)
        return views

    return functools.update_wrapper(kept, build)


class Guarded(NamedTuple):
    """A role's flat buffer for an (N, H, W) stack, its interior between W + 1 guard cells, and two windows.

    Shift (di, dj), (h + di - 1, w + dj - 1) of every pixel, is the slice of
    the buffer at di * W + dj; on one edge row and/or column of each image it
    wraps onto the next row or image, or onto a guard. windows[0] is the
    read-only (3, 3, N*H*W) window whose [di, dj] is that slice; windows[1] is it flipped.
    """

    buffer: np.ndarray
    interior: np.ndarray
    windows: tuple[np.ndarray, np.ndarray]


@per_shape
def guarded(role: str, n: int, height: int, width: int, dtype: np.dtype) -> Guarded:
    size = n * height * width
    buffer = WORKSPACE.array(role, size + 2 * (width + 1), dtype=dtype)
    step = buffer.strides[0]
    window = as_strided(buffer, (3, 3, size), (width * step, step, step), writeable=False)
    return Guarded(buffer, buffer[width + 1 : width + 1 + size].reshape(n, height, width), (window, window[::-1, ::-1]))


class Planes(NamedTuple):
    """A role's shift-major views for an (N, H, W) stack of K equal groups of consecutive images.

    Row s of `flat`, (9, N*H*W), is shift s = 3*di + dj; `cube` is it as (3, 3, N*H*W) and `per_group` as
    (K, 9, N/K*H*W). edges[flip] are the cells that wrap: plane s loses row `first` if di = 0, row `last` if
    di = 2, column `first` if dj = 0 and column `last` if dj = 2; (first, last) is (0, -1), or (-1, 0) with flip.
    """

    role: str
    cube: np.ndarray
    flat: np.ndarray
    per_group: np.ndarray
    edges: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]


@per_shape
def nine_planes(role: str, n: int, height: int, width: int, dtype: np.dtype, groups: int) -> Planes:
    grid = WORKSPACE.array(role, 9, n, height, width, dtype=dtype)
    flat = grid.reshape(9, -1)
    edges = tuple(
        (grid[:3, :, first, :], grid[6:, :, last, :], grid[::3, :, :, first], grid[2::3, :, :, last])
        for first, last in ((0, -1), (-1, 0))
    )
    return Planes(role, flat.reshape(3, 3, -1), flat, flat.reshape(9, groups, -1).transpose(1, 0, 2), edges)


def cut_shifts(stack: Guarded, planes: Planes, flip: bool = False) -> np.ndarray:
    """The nine shifts of the filled `stack` in `planes`, another role's, cut in one copy; returns planes.flat.

    With flip, row s holds shift 8 - s, (2-di, 2-dj), the order in which the
    transposed convolution reads its input, and so wraps on the opposite
    edges. The cells that wrap, every cell that read a guard among them, are zeroed.
    """
    np.copyto(planes.cube, stack.windows[flip])
    for edge in planes.edges[flip]:
        edge.fill(0)
    return planes.flat


def shift_stack(x: np.ndarray, role: str = "nine") -> np.ndarray:
    """The nine shifts of an (N, H, W) stack, zero outside each image, as one shift-major (9, N*H*W) array.

    The stack fills the "guarded" role, and the planes are cut into `role`:
    float32 or uint8 planes for a stack of that dtype, float64 for any other.
    """
    stack = guarded("guarded", *x.shape, x.dtype)
    stack.interior[...] = x  # the assignment resolves any overlap of x with the work memory
    return cut_shifts(stack, nine_planes(role, *x.shape, x.dtype, 1))
