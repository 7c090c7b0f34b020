"""Independent reference implementations used only to verify the library.

Everything here is written from the definitions (shift-stacks, flood fill,
central differences) rather than calling the code paths under test, so the
tests compare two genuinely different routes to the same answer. The one
exception, TrajectoryRecorder, observes the code under test without
changing what it computes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from fedgs_sim import fl
from fedgs_sim.rng import DATA_STREAM, substream

SQUARE3_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
CROSS3_OFFSETS = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
FOUR_NEIGHBORS = [(-1, 0), (1, 0), (0, -1), (0, 1)]
EIGHT_NEIGHBORS = [o for o in SQUARE3_OFFSETS if o != (0, 0)]


def rasterize_disk(height: int, width: int, cy: int, cx: int, radius: float) -> np.ndarray:
    rows = np.arange(height)[:, None] - cy
    cols = np.arange(width)[None, :] - cx
    return (rows * rows + cols * cols <= radius * radius).astype(np.uint8)


def shift_erode(mask: np.ndarray, offsets=SQUARE3_OFFSETS, iterations: int = 1) -> np.ndarray:
    """Erosion by definition: a pixel survives iff every offset lands on foreground."""
    out = mask.astype(bool)
    height, width = mask.shape
    for _ in range(iterations):
        padded = np.pad(out, 1, constant_values=False)
        survives = np.ones((height, width), dtype=bool)
        for di, dj in offsets:
            survives &= padded[1 + di : 1 + di + height, 1 + dj : 1 + dj + width]
        out = survives
    return out.astype(np.uint8)


def shift_dilate(mask: np.ndarray, offsets=SQUARE3_OFFSETS, iterations: int = 1) -> np.ndarray:
    """Dilation by definition: any offset landing on foreground marks the pixel."""
    out = mask.astype(bool)
    height, width = mask.shape
    for _ in range(iterations):
        padded = np.pad(out, 1, constant_values=False)
        hits = np.zeros((height, width), dtype=bool)
        for di, dj in offsets:
            hits |= padded[1 + di : 1 + di + height, 1 + dj : 1 + dj + width]
        out = hits
    return out.astype(np.uint8)


def flood_fill_components(mask: np.ndarray, neighbors=EIGHT_NEIGHBORS) -> list[set[tuple[int, int]]]:
    """Connected components via BFS over foreground pixels."""
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for si in range(height):
        for sj in range(width):
            if mask[si, sj] and not seen[si, sj]:
                group = set()
                queue = deque([(si, sj)])
                seen[si, sj] = True
                while queue:
                    i, j = queue.popleft()
                    group.add((i, j))
                    for di, dj in neighbors:
                        ni, nj = i + di, j + dj
                        if 0 <= ni < height and 0 <= nj < width and mask[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            queue.append((ni, nj))
                components.append(group)
    return components


def smallest_lesion_estimate(mask: np.ndarray, offsets=SQUARE3_OFFSETS, iterations: int = 1) -> int:
    """Reference pipeline: erode, pick the smallest component, reconstruct, count."""
    eroded = shift_erode(mask, offsets, iterations) if iterations else mask.copy()
    if eroded.sum() == 0:
        return min(len(c) for c in flood_fill_components(mask))
    components = flood_fill_components(eroded)
    smallest = min(components, key=len)
    comp_mask = np.zeros_like(mask)
    for i, j in smallest:
        comp_mask[i, j] = 1
    if iterations == 0:
        return int(comp_mask.sum())
    reconstructed = shift_dilate(comp_mask, offsets, iterations)
    return int((reconstructed.astype(bool) & mask.astype(bool)).sum())


def conv_logits(params: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden pre-activations z1 (C, H, W) and output logits z2 (H, W) of the two-conv model.

    By definition: zero-pad by one pixel, then add the nine shifted products
    per channel, z[h, w] = b + sum over (di, dj) of k[di, dj] * x[h + di - 1, w + dj - 1].
    The flat parameters are k1 (C, 3, 3), b1 (C,), k2 (C, 3, 3) and b2.
    """
    c = (params.size - 1) // 19
    k1, b1 = params[: 9 * c].reshape(c, 3, 3), params[9 * c : 10 * c]
    k2, b2 = params[10 * c : 19 * c].reshape(c, 3, 3), params[19 * c]
    height, width = image.shape
    padded = np.pad(image, 1)
    z1 = np.empty((c, height, width))
    for ch in range(c):
        z1[ch] = b1[ch]
        for di in range(3):
            for dj in range(3):
                z1[ch] += k1[ch, di, dj] * padded[di : di + height, dj : dj + width]
    hidden = np.pad(np.maximum(z1, 0.0), ((0, 0), (1, 1), (1, 1)))
    z2 = np.full((height, width), b2)
    for ch in range(c):
        for di in range(3):
            for dj in range(3):
                z2 += k2[ch, di, dj] * hidden[ch, di : di + height, dj : dj + width]
    return z1, z2


def replayed_images(spec, experiment_seed: int) -> np.ndarray:
    """A client's (n, H, W) images in float64, by replaying the generator's documented draw order.

    Per sample: the small-or-large coin, the lesion count, then radius,
    centre row and centre column per lesion, then the noise field, to which
    the lesion intensity is added on the union of the disks.
    """
    height, width = spec.image_size
    images = np.empty((spec.n_samples, height, width))
    for index in range(spec.n_samples):
        rng = substream(experiment_seed, DATA_STREAM, spec.seed_offset, index)
        small = rng.random() < spec.small_fraction
        r_lo, r_hi = spec.small_radius_range if small else spec.large_radius_range
        foreground = np.zeros((height, width), dtype=bool)
        for _ in range(int(rng.integers(spec.lesions_per_image[0], spec.lesions_per_image[1] + 1))):
            radius = float(rng.uniform(r_lo, r_hi))
            margin = int(np.ceil(radius))
            cy = int(rng.integers(margin, height - margin))
            cx = int(rng.integers(margin, width - margin))
            foreground |= rasterize_disk(height, width, cy, cx, radius).astype(bool)
        images[index] = rng.normal(0.0, spec.noise_std, size=(height, width))
        images[index][foreground] += spec.lesion_intensity
    return images


def weighted_rows(rows: np.ndarray, weights) -> np.ndarray:
    """A weighted mean by definition: from zeros, add (w_k / sum(w)) * row_k for each row in order."""
    total = sum(weights)
    out = np.zeros(rows.shape[1])
    for row, weight in zip(rows, weights):
        out += (weight / total) * row
    return out


class TrajectoryRecorder:
    """Each client's local parameter trajectory, seen through the fedgs_sim.fl.local_iteration seam.

    After every local_iteration call it keeps (picks, state.params.copy()).
    Client k's trajectory is row k of the snapshots whose picks[k] is not
    None: its parameters after each of its own local steps.
    """

    def __init__(self, monkeypatch) -> None:
        self.steps: list[tuple[list, np.ndarray]] = []
        step = fl.local_iteration

        def recording(state, datasets, picks, *rest):
            state = step(state, datasets, picks, *rest)
            self.steps.append((list(picks), state.params.copy()))
            return state

        monkeypatch.setattr(fl, "local_iteration", recording)

    def take(self) -> list[list[np.ndarray]]:
        """Each client's trajectory over the steps recorded since the last take, which it clears."""
        steps, self.steps = self.steps, []
        clients = len(steps[0][0]) if steps else 0
        return [[params[k] for picks, params in steps if picks[k] is not None] for k in range(clients)]
