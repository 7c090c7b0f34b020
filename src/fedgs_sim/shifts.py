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
    uint8 mask stacks uint8 memory, and a stack of any other dtype float64
    memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def array(self, role: str, *shape: int, dtype: np.dtype) -> np.ndarray:
        """An uninitialised float32, uint8 or float64 array of `shape`, in the memory kept for (`role`, dtype).

        Memory grows to the largest shape asked of it, and every array taken
        from it overlaps the previous one.
        """
        key = (role, np.dtype(dtype if dtype in (np.float32, np.uint8) else np.float64))
        size = math.prod(shape)
        if key not in self._buffers or self._buffers[key].size < size:
            self._buffers.pop(key, None)  # free the smaller buffer before allocating its successor
            self._buffers[key] = np.empty(size, key[1])
        return self._buffers[key][:size].reshape(shape)

    def holds(self, x: np.ndarray) -> bool:
        """Whether x shares memory with any of the workspace's buffers."""
        return any(np.may_share_memory(x, buffer) for buffer in self._buffers.values())


# Kernel calls and morphology calls never nest, so one workspace serves them all.
WORKSPACE = Workspace()


def guarded(role: str, n: int, height: int, width: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """A flat buffer for an (N, H, W) stack of `dtype`, its interior as an (N, H, W) view, and the nine shift starts.

    The interior has W + 1 zeros on each side. Shift s = (di, dj), i.e.
    (h + di - 1, w + dj - 1) of every pixel, is the contiguous slice at start
    s, offset (di - 1) * W + (dj - 1) from the interior. It reads true
    neighbours except on one edge row and/or column of each image, where it
    wraps onto the next row or image.
    """
    guard = width + 1
    buffer = WORKSPACE.array(role, n * height * width + 2 * guard, dtype=dtype)
    buffer[:guard] = buffer[-guard:] = 0.0
    interior = buffer[guard:-guard].reshape(n, height, width)
    return buffer, interior, [guard + (di - 1) * width + (dj - 1) for di in range(3) for dj in range(3)]


def zero_edges(planes: np.ndarray, first: int, last: int) -> None:
    """Zero, in place, the cells of a shift-major (9, N, H, W) shift stack that wrap across a row or image.

    Plane s = 3*di + dj loses row `first` if di = 0, row `last` if di = 2,
    column `first` if dj = 0 and column `last` if dj = 2.
    """
    planes[:3, :, first, :] = planes[6:, :, last, :] = 0.0
    planes[::3, :, :, first] = planes[2::3, :, :, last] = 0.0


def shift_stack(x: np.ndarray, role: str = "nine", flip: bool = False) -> np.ndarray:
    """The nine shifts of an (N, H, W) stack, zero outside each image, as one shift-major (9, N*H*W) array.

    The stack is copied into the workspace's "guarded" role and cut_shifts
    cuts the planes from there, into `role`: float32 or uint8 planes for a
    stack of that dtype and float64 ones for any other. A stack that lies
    in the workspace's own memory is copied out first, since the guards and
    the planes may overwrite it.
    """
    if WORKSPACE.holds(x):
        x = x.copy()
    buffer, interior, starts = guarded("guarded", *x.shape, x.dtype)
    interior[...] = x
    return cut_shifts(buffer, interior, starts, role, flip)


def cut_shifts(
    buffer: np.ndarray, interior: np.ndarray, starts: list[int], role: str = "nine", flip: bool = False
) -> np.ndarray:
    """The nine shifts of the (N, H, W) stack in a guarded buffer, as shift-major (9, N*H*W) planes in `role`.

    `buffer`, `interior` and `starts` are what guarded returns, with the
    stack written into the interior, and `role` is another role than the
    buffer's. Row s holds shift s of every image; with flip, row s holds
    shift 8 - s, i.e. (2-di, 2-dj), the order in which the transposed
    convolution reads its input, and so wraps on the opposite edges. The
    planes are in the interior's dtype. A group of N/K consecutive images
    is columns [k*M, (k+1)*M) of every row, M = N/K*H*W, so
    reshape(9, K, M).transpose(1, 0, 2) is the (K, 9, M) view per group.
    """
    out = WORKSPACE.array(role, 9, *interior.shape, dtype=interior.dtype)
    flat = out.reshape(9, -1)
    for s, start in enumerate(starts[::-1] if flip else starts):
        flat[s] = buffer[start : start + interior.size]
    zero_edges(out, *((-1, 0) if flip else (0, -1)))
    return flat
