"""Synthetic heterogeneous lesion datasets.

Each client draws images of rasterized disk lesions on Gaussian background
noise. A sample is either a "small" sample (all its disks come from the small
radius range) or a "large" one (all from the large range), drawn with the
client's small_fraction. Because the ranges are disjoint, per-client
small_fractions control how under-represented small lesions are across the
federation, and a threshold placed between the two area regimes classifies
samples exactly. Each sample holds LESIONS_PER_IMAGE = 1 or 2 disks, whose
pixels are LESION_INTENSITY = 1.0 brighter than the noise, so noise_std alone
sets the contrast.

Generation is deterministic: sample i of client c uses the stream keyed by
(experiment_seed, DATA_STREAM, c, i), with a fixed draw order (small-or-large
coin, lesion count, then radius/center-row/center-col per lesion, then the
noise field). Each image is drawn in float64 and stored as float32, the dtype
the model's kernel computes in.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import DATA_STREAM, reseed, stream_seeds

LESIONS_PER_IMAGE = (1, 2)  # inclusive range of a sample's disk count
LESION_INTENSITY = 1.0  # added to the noise on lesion pixels


@dataclass(frozen=True)
class ClientDataSpec:
    """Recipe for one client's local dataset."""

    n_samples: int
    image_size: tuple[int, int] = (32, 32)
    small_fraction: float = 0.1
    small_radius_range: tuple[float, float] = (2.0, 3.0)
    large_radius_range: tuple[float, float] = (6.0, 9.0)
    noise_std: float = 0.3
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.image_size[0] < 1 or self.image_size[1] < 1:
            raise ValueError("image_size must be positive")
        if not 0.0 <= self.small_fraction <= 1.0:
            raise ValueError("small_fraction must lie in [0, 1]")
        for name, (r_lo, r_hi) in (
            ("small_radius_range", self.small_radius_range),
            ("large_radius_range", self.large_radius_range),
        ):
            if not 0.0 < r_lo <= r_hi < math.inf:
                raise ValueError(f"bad {name} {(r_lo, r_hi)}")
        if not self.small_radius_range[1] < self.large_radius_range[0]:
            raise ValueError("small and large radius regimes must be disjoint")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"bad noise_std {self.noise_std}: must be finite and >= 0")
        if not 0 <= self.seed_offset < 2**32:
            raise ValueError(f"seed_offset must lie in [0, 2**32), got {self.seed_offset}")
        height, width = self.image_size
        max_radius = self.large_radius_range[1]  # the regimes are disjoint: no small radius is larger
        if 2 * math.ceil(max_radius) + 1 > min(height, width):  # a disk's center stays ceil(r) from each edge
            raise ValueError(f"disk radius {max_radius} cannot fit fully inside a {height}x{width} image")


@dataclass(frozen=True)
class ClientData:
    """One client's samples: row i of each array is sample i.

    Construction checks the stacks and makes both read-only: the δ and group
    tables a run builds once, and every kernel call, rely on data that is
    well formed and never changes.
    """

    images: np.ndarray  # (n, H, W) float32, n >= 1, H and W >= 3, finite
    masks: np.ndarray  # (n, H, W) uint8 of 0s and 1s
    is_small: np.ndarray  # (n,) bool, the construction-time ground truth
    seed_offset: int

    def __post_init__(self) -> None:
        images, masks, client = self.images, self.masks, f"client {self.seed_offset}"
        if images.dtype != np.float32 or images.ndim != 3 or not len(images) or min(images.shape[1:]) < 3:
            raise ValueError(
                f"{client}: images must be a non-empty (n, H, W) float32 stack with H and W >= 3, "
                f"got {images.dtype} of shape {images.shape}"
            )
        # NaN propagates through min and max: two scalars check every pixel
        # without a temporary of the stack's size
        if not np.isfinite([images.min(), images.max()]).all():
            raise ValueError(f"{client}: images contain non-finite values")
        if masks.shape != images.shape:
            raise ValueError(f"{client}: mask stack {masks.shape} != image stack {images.shape}")
        if masks.dtype != np.uint8 or masks.max() > 1:
            raise ValueError(f"{client}: masks must be a uint8 stack of 0s and 1s, got {masks.dtype}")
        if self.is_small.shape != (len(images),):
            raise ValueError(f"{client}: is_small of shape {self.is_small.shape} for {len(images)} samples")
        images.flags.writeable = False
        masks.flags.writeable = False

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class Federation:
    """Training clients plus the held-out test center (which never trains)."""

    clients: list[ClientData]
    test_set: ClientData


@functools.cache
def _disk_table(reach: int, width: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Every offset within `reach` rows and columns of a centre, nearest first.

    Returns their squared distances and, in the same order, their offsets in
    a row-major frame `width` pixels wide. The offsets are read-only, since
    every caller shares them.
    """
    dy, dx = np.mgrid[-reach : reach + 1, -reach : reach + 1].reshape(2, -1)
    d2 = dy * dy + dx * dx
    order = np.argsort(d2, kind="stable")
    offsets = (dy * width + dx)[order]
    offsets.flags.writeable = False
    return tuple(d2[order].tolist()), offsets


def _stamp_disk(mask: np.ndarray, cy: int, cx: int, radius: float, reach: int) -> None:
    """Set the pixels of the C-contiguous (H, W) `mask` within `radius` of (cy, cx).

    The disk must lie inside the frame, as the generator's margins keep it,
    and `radius` below reach + 1.
    """
    d2, offsets = _disk_table(reach, mask.shape[1])
    mask.reshape(-1)[offsets[: bisect_right(d2, radius * radius)] + (cy * mask.shape[1] + cx)] = 1


def generate_client_dataset(spec: ClientDataSpec, experiment_seed: int, seeds: np.ndarray | None = None) -> ClientData:
    """Generate the client's samples; bit-identical across runs for the same inputs.

    `seeds` holds stream_seeds(experiment_seed, DATA_STREAM, spec.seed_offset,
    i) for each sample i, as build_federation computes them for every client
    at once; without it the client seeds its own samples.
    """
    height, width = spec.image_size
    if seeds is None:
        seeds = stream_seeds(experiment_seed, DATA_STREAM, spec.seed_offset, np.arange(spec.n_samples))
    reach = math.floor(spec.large_radius_range[1])  # the regimes are disjoint: no small radius is larger
    images = np.empty((spec.n_samples, height, width), dtype=np.float32)
    masks = np.zeros((spec.n_samples, height, width), dtype=np.uint8)
    is_small = np.empty(spec.n_samples, dtype=bool)
    rng = np.random.default_rng(0)  # reseeded before each sample's first draw
    for index, row in enumerate(seeds.tolist()):
        reseed(rng, row)
        is_small[index] = rng.random() < spec.small_fraction
        r_lo, r_hi = spec.small_radius_range if is_small[index] else spec.large_radius_range
        n_lesions = int(rng.integers(LESIONS_PER_IMAGE[0], LESIONS_PER_IMAGE[1] + 1))

        mask = masks[index]
        for _ in range(n_lesions):
            radius = float(rng.uniform(r_lo, r_hi))
            margin = math.ceil(radius)
            cy = int(rng.integers(margin, height - margin))
            cx = int(rng.integers(margin, width - margin))
            _stamp_disk(mask, cy, cx, radius, reach)

        image = rng.normal(0.0, spec.noise_std, size=(height, width))
        np.add(image, LESION_INTENSITY, out=image, where=mask.view(bool))
        images[index] = image
    return ClientData(images=images, masks=masks, is_small=is_small, seed_offset=spec.seed_offset)


def build_federation(specs: list[ClientDataSpec], experiment_seed: int) -> Federation:
    """Generate all clients; the LAST spec becomes the held-out test center.

    Each client's stream is keyed by its own seed_offset, so reordering the
    training specs never changes what any single client sees. The seeds of
    every sample of every client come from one stream_seeds pass.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 specs: training clients plus a test center")
    sizes = [spec.n_samples for spec in specs]
    starts = np.cumsum([0] + sizes)
    seeds = stream_seeds(
        experiment_seed,
        DATA_STREAM,
        np.repeat([spec.seed_offset for spec in specs], sizes),
        np.arange(starts[-1]) - np.repeat(starts[:-1], sizes),
    )
    datasets = [
        generate_client_dataset(spec, experiment_seed, seeds[start:stop])
        for spec, start, stop in zip(specs, starts, starts[1:])
    ]
    return Federation(clients=datasets[:-1], test_set=datasets[-1])


def _write_pgm(path: Path, raster: np.ndarray) -> None:
    """Write an (H, W) uint8 raster as binary PGM (P5).

    The file is three header lines, "P5", "W H" and "255", each ended by one
    newline, followed by the W*H raster bytes.
    """
    height, width = raster.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + raster.tobytes())


def dump_samples(out_dir: str | Path, dataset: ClientData) -> None:
    """Write img_####.pgm / msk_####.pgm pairs plus manifest.txt.

    Manifest lines are "<sample id> <client> <is_small 0|1>". Masks are
    written as exactly {0, 255} and round-trip exactly. Images are clamped to
    [0, 1] and quantized to 8 bits in float64, which is lossy and meant for
    inspection only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (image, mask, is_small) in enumerate(zip(dataset.images, dataset.masks, dataset.is_small)):
        gray = np.clip(np.rint(image.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
        _write_pgm(out / f"img_{i:04d}.pgm", gray)
        _write_pgm(out / f"msk_{i:04d}.pgm", mask * np.uint8(255))
        lines.append(f"{i:04d} {dataset.seed_offset} {int(is_small)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def dump_federation(out_dir: str | Path, federation: Federation) -> None:
    """Dump every client to client_<offset>/ and the test center to test/."""
    out = Path(out_dir)
    for dataset in federation.clients:
        dump_samples(out / f"client_{dataset.seed_offset}", dataset)
    dump_samples(out / "test", federation.test_set)
