"""The package's one 3x3 shift primitive: edge-masked flat shifts, and the work memory they live in.

The model's convolutions and the masks module's erosion and dilation all
read the nine shifts (h + di - 1, w + dj - 1), (di, dj) in {0, 1, 2}^2, of
an (N, H, W) stack, with zero outside each image.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Work memory that the shift primitive and the model's kernel reuse across calls.

    One kernel call over four 64x64 images needs a few megabytes of
    temporaries. Allocated afresh on every call, they come back from the
    operating system as new pages each time, and the page faults cost more
    than the arithmetic on them. model.backward lists which role holds what.
    Each role keeps one buffer per dtype: float32 stacks take float32 memory,
    and a stack of any other dtype takes float64 memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def array(self, role: str, *shape: int, dtype: np.dtype) -> np.ndarray:
        """An uninitialised float32 or float64 array of `shape`, in the memory kept for (`role`, dtype).

        Memory grows to the largest shape asked of it, and every array taken
        from it overlaps the previous one.
        """
        key = (role, np.dtype(np.float32 if dtype == np.float32 else np.float64))
        size = math.prod(shape)
        if key not in self._buffers or self._buffers[key].size < size:
            self._buffers.pop(key, None)  # free the smaller buffer before allocating its successor
            self._buffers[key] = np.empty(size, key[1])
        return self._buffers[key][:size].reshape(shape)


# Kernel calls and morphology calls never nest, so one workspace serves them all.
WORKSPACE = Workspace()


def guarded(role: str, n: int, height: int, width: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """A flat buffer for an (N, H, W) stack of `dtype`, its interior, and the nine shift starts.

    The interior has W + 1 zeros on each side. Shift s = (di, dj), i.e.
    (h + di - 1, w + dj - 1) of every pixel, is the contiguous slice at start
    s, offset (di - 1) * W + (dj - 1) from the interior. It reads true
    neighbours except on one edge row and/or column of each image, where it
    wraps onto the next row or image.
    """
    guard = width + 1
    buffer = WORKSPACE.array(role, n * height * width + 2 * guard, dtype=dtype)
    buffer[:guard] = buffer[-guard:] = 0.0
    return buffer, buffer[guard:-guard], [guard + (di - 1) * width + (dj - 1) for di in range(3) for dj in range(3)]


def zero_edges(planes: np.ndarray, first: int, last: int) -> None:
    """Zero, in place, the cells of a (K, 9, N/K, H, W) shift stack that wrap across a row or image.

    Plane s = 3*di + dj loses row `first` if di = 0, row `last` if di = 2,
    column `first` if dj = 0 and column `last` if dj = 2.
    """
    planes[:, :3, :, first, :] = planes[:, 6:, :, last, :] = 0.0
    planes[:, ::3, :, :, first] = planes[:, 2::3, :, :, last] = 0.0


def shift_stack(x: np.ndarray, groups: int = 1, flip: bool = False) -> np.ndarray:
    """The nine shifts of an (N, H, W) stack of K groups, zero outside each image, as one (K, 9, N/K*H*W) array.

    A group is N/K consecutive images. Row s of group k holds shift s of
    that group's images; with flip, row s holds shift 8 - s, i.e.
    (2-di, 2-dj), the order in which the transposed convolution reads its
    input, and so wraps on the opposite edges. The stack lives in the
    workspace's "nine" role, in float32 for a float32 stack and in float64
    for any other.
    """
    n, height, width = x.shape
    buffer, interior, starts = guarded("guarded", n, height, width, x.dtype)
    interior[...] = x.reshape(-1)
    out = WORKSPACE.array("nine", groups, 9, n // groups, height, width, dtype=x.dtype)
    flat = out.reshape(groups, 9, -1)
    for s, start in enumerate(starts[::-1] if flip else starts):
        flat[:, s] = buffer[start : start + x.size].reshape(groups, -1)
    zero_edges(out, *((-1, 0) if flip else (0, -1)))
    return flat
