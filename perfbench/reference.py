"""A fixed reference computation that gauges how fast this machine runs right now.

The benchmark was defined on a shared VM whose speed drifts: the same sweep
took 31% longer twenty minutes later. Each run times this kernel before and
after every sweep, and each set-up probe right after its set-up, and reports
every timing scaled by NOMINAL_S over the kernel time next to it, so that
runs made at different machine speeds compare.

The kernel has the shape of the simulator's hot path (a Python loop over
small numpy operations on 32x32 and 64x64 images: padding, shifted
multiply-adds, reductions, a membership test) but does not import fedgs_sim,
so a change to the program never changes the reference.
"""

from __future__ import annotations

import time

import numpy as np

# Typical time of REPS repetitions on the machine that defined the benchmark
# (2-vCPU VM, Intel Xeon, Python 3.11.7, numpy 2.4.6). Scaled timings are
# seconds at that machine's typical speed.
NOMINAL_S = 0.5
REPS = 600

# Repetitions a set-up probe times: about 0.1 s, next to a 0.4 s set-up.
PROBE_REPS = 120


def _inputs(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(size)
    image = rng.normal(size=(size, size))
    kernels = rng.normal(size=(4, 3, 3))
    mask = (rng.random((size, size)) > 0.8).astype(np.uint8)
    return image, kernels, mask


_INPUTS = [_inputs(size) for size in (32, 64)]


def _step(image: np.ndarray, kernels: np.ndarray, mask: np.ndarray) -> float:
    height, width = image.shape
    padded = np.pad(image[None], ((0, 0), (1, 1), (1, 1)))
    hidden = np.zeros((4, height, width))
    for di in range(3):
        for dj in range(3):
            hidden += np.einsum("oc,chw->ohw", kernels[:, None, di, dj], padded[:, di : di + height, dj : dj + width])
    hidden = np.maximum(hidden, 0.0)
    grad = np.zeros((4, 3, 3))
    padded_hidden = np.pad(hidden, ((0, 0), (1, 1), (1, 1)))
    for di in range(3):
        for dj in range(3):
            grad[:, di, dj] = np.einsum("chw,hw->c", padded_hidden[:, di : di + height, dj : dj + width], image)
    if not np.isin(mask, (0, 1)).all():
        raise ValueError("reference mask is not binary")
    return float(grad.sum() + (hidden.sum(axis=0) * mask).sum())


def sample(reps: int = REPS) -> float:
    """Seconds REPS repetitions of the reference kernel take now, timed over reps of them."""
    for image, kernels, mask in _INPUTS:  # untimed: first calls pay numpy's one-off costs
        _step(image, kernels, mask)
    start = time.perf_counter()
    for _ in range(reps):
        for image, kernels, mask in _INPUTS:
            _step(image, kernels, mask)
    return (time.perf_counter() - start) * REPS / reps
