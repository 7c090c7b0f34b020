"""Synthetic heterogeneous lesion datasets.

Each client draws images of rasterized disk lesions on Gaussian background
noise. A sample is either a "small" sample (all its disks come from the small
radius range) or a "large" one (all from the large range), drawn with the
client's small_fraction. Because the ranges are disjoint, per-client
small_fractions control how under-represented small lesions are across the
federation, and a threshold placed between the two area regimes classifies
samples exactly.

Generation is deterministic: sample i of client c uses the stream keyed by
(experiment_seed, DATA_STREAM, c, i), with a fixed draw order (small-or-large
coin, lesion count, then radius/center-row/center-col per lesion, then the
noise field).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .masks import ShapeMismatchError
from .pgm import write_gray_pgm, write_mask_pgm
from .rng import DATA_STREAM, substream


class InfeasibleSpecError(ValueError):
    """Requested disk radii cannot fit inside the image frame."""


@dataclass(frozen=True)
class ClientDataSpec:
    """Recipe for one client's local dataset."""

    n_samples: int
    image_size: tuple[int, int] = (32, 32)
    lesions_per_image: tuple[int, int] = (1, 2)
    small_fraction: float = 0.1
    small_radius_range: tuple[float, float] = (2.0, 3.0)
    large_radius_range: tuple[float, float] = (6.0, 9.0)
    noise_std: float = 0.3
    lesion_intensity: float = 1.0
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.image_size[0] < 1 or self.image_size[1] < 1:
            raise ValueError("image_size must be positive")
        lo, hi = self.lesions_per_image
        if not 1 <= lo <= hi:
            raise ValueError(f"bad lesions_per_image range {self.lesions_per_image}")
        if not 0.0 <= self.small_fraction <= 1.0:
            raise ValueError("small_fraction must lie in [0, 1]")
        for name, (r_lo, r_hi) in (
            ("small_radius_range", self.small_radius_range),
            ("large_radius_range", self.large_radius_range),
        ):
            if not 0.0 < r_lo <= r_hi:
                raise ValueError(f"bad {name} {(r_lo, r_hi)}")
        if not self.small_radius_range[1] < self.large_radius_range[0]:
            raise ValueError("small and large radius regimes must be disjoint")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.seed_offset < 0:
            raise ValueError("seed_offset must be >= 0")


@dataclass(frozen=True)
class ClientData:
    """One client's samples: row i of each array is sample i.

    Construction checks the stacks and makes both read-only: the δ and group
    tables a run builds once, and every kernel call, rely on data that is
    well formed and never changes.
    """

    images: np.ndarray  # (n, H, W) float64, n >= 1, H and W >= 3, finite
    masks: np.ndarray  # (n, H, W) uint8 of 0s and 1s
    is_small: np.ndarray  # (n,) bool, the construction-time ground truth
    seed_offset: int

    def __post_init__(self) -> None:
        images, masks, client = self.images, self.masks, f"client {self.seed_offset}"
        if images.dtype != np.float64 or images.ndim != 3 or not len(images) or min(images.shape[1:]) < 3:
            raise ValueError(
                f"{client}: images must be a non-empty (n, H, W) float64 stack with H and W >= 3, "
                f"got {images.dtype} of shape {images.shape}"
            )
        # NaN propagates through min and max: two scalars check every pixel
        # without a temporary of the stack's size
        if not np.isfinite([images.min(), images.max()]).all():
            raise ValueError(f"{client}: images contain non-finite values")
        if masks.shape != images.shape:
            raise ShapeMismatchError(f"{client}: mask stack {masks.shape} != image stack {images.shape}")
        if masks.dtype != np.uint8 or masks.max() > 1:
            raise ValueError(f"{client}: masks must be a uint8 stack of 0s and 1s, got {masks.dtype}")
        if self.is_small.shape != (len(images),):
            raise ShapeMismatchError(f"{client}: is_small of shape {self.is_small.shape} for {len(images)} samples")
        images.flags.writeable = False
        masks.flags.writeable = False

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class Federation:
    """Training clients plus the held-out test center (which never trains)."""

    clients: list[ClientData]
    test_set: ClientData


def _check_feasible(spec: ClientDataSpec) -> None:
    height, width = spec.image_size
    max_radius = max(spec.small_radius_range[1], spec.large_radius_range[1])
    margin = math.ceil(max_radius)
    if margin > height - 1 - margin or margin > width - 1 - margin:
        raise InfeasibleSpecError(
            f"disk radius {max_radius} cannot fit fully inside a {height}x{width} image"
        )


def _stamp_disk(mask: np.ndarray, cy: int, cx: int, radius: float) -> None:
    height, width = mask.shape
    rows = np.arange(height)[:, None] - cy
    cols = np.arange(width)[None, :] - cx
    mask[rows * rows + cols * cols <= radius * radius] = 1


def generate_client_dataset(spec: ClientDataSpec, experiment_seed: int) -> ClientData:
    """Generate the client's samples; bit-identical across runs for the same inputs."""
    _check_feasible(spec)
    height, width = spec.image_size
    images = np.empty((spec.n_samples, height, width))
    masks = np.zeros((spec.n_samples, height, width), dtype=np.uint8)
    is_small = np.empty(spec.n_samples, dtype=bool)
    bad_pixels = 0
    foreground_pixels = 0
    for index in range(spec.n_samples):
        rng = substream(experiment_seed, DATA_STREAM, spec.seed_offset, index)
        is_small[index] = rng.random() < spec.small_fraction
        r_lo, r_hi = spec.small_radius_range if is_small[index] else spec.large_radius_range
        n_lesions = int(rng.integers(spec.lesions_per_image[0], spec.lesions_per_image[1] + 1))

        mask = masks[index]
        for _ in range(n_lesions):
            radius = float(rng.uniform(r_lo, r_hi))
            margin = math.ceil(radius)
            cy = int(rng.integers(margin, height - margin))
            cx = int(rng.integers(margin, width - margin))
            _stamp_disk(mask, cy, cx, radius)

        image = images[index]
        image[:] = rng.normal(0.0, spec.noise_std, size=(height, width))
        fg = mask == 1
        image[fg] += spec.lesion_intensity
        foreground_pixels += int(fg.sum())
        bad_pixels += int((image[fg] < spec.lesion_intensity - 5.0 * spec.noise_std).sum())

    # Sanity flag, not a failure: lesion pixels should essentially always sit
    # above intensity - 5 sigma; more than 0.1% violations suggests a bad spec.
    if foreground_pixels and bad_pixels / foreground_pixels > 0.001:
        warnings.warn(
            f"client {spec.seed_offset}: {bad_pixels}/{foreground_pixels} lesion pixels "
            "fall below lesion_intensity - 5*noise_std",
            stacklevel=2,
        )
    return ClientData(images=images, masks=masks, is_small=is_small, seed_offset=spec.seed_offset)


def build_federation(specs: list[ClientDataSpec], experiment_seed: int) -> Federation:
    """Generate all clients; the LAST spec becomes the held-out test center.

    Each client's stream is keyed by its own seed_offset, so reordering the
    training specs never changes what any single client sees.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 specs: training clients plus a test center")
    datasets = [generate_client_dataset(spec, experiment_seed) for spec in specs]
    return Federation(clients=datasets[:-1], test_set=datasets[-1])


def dump_samples(out_dir: str | Path, dataset: ClientData) -> None:
    """Write img_####.pgm / msk_####.pgm pairs plus manifest.txt.

    Manifest lines are "<sample id> <client> <is_small 0|1>". Images are
    clamped to [0, 1] for the 8-bit dump; masks round-trip exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (image, mask, is_small) in enumerate(zip(dataset.images, dataset.masks, dataset.is_small)):
        write_gray_pgm(out / f"img_{i:04d}.pgm", image)
        write_mask_pgm(out / f"msk_{i:04d}.pgm", mask)
        lines.append(f"{i:04d} {dataset.seed_offset} {int(is_small)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def dump_federation(out_dir: str | Path, federation: Federation) -> None:
    """Dump every client to client_<offset>/ and the test center to test/."""
    out = Path(out_dir)
    for dataset in federation.clients:
        dump_samples(out / f"client_{dataset.seed_offset}", dataset)
    dump_samples(out / "test", federation.test_set)
