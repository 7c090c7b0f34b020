"""Binary PGM (P5) writing for masks and grayscale images.

Every file is three header lines, "P5", "W H" and "255", each ended by one
newline, followed by the W*H raster bytes. Masks are written as exactly
{0, 255}. Grayscale dumps clamp real values to [0, 1] before quantizing to
8 bits, which is lossy and intended for inspection only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .masks import validate_mask


def _write_pgm(path: str | Path, gray: np.ndarray) -> None:
    height, width = gray.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.astype(np.uint8).tobytes())


def write_mask_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Write a {0,1} mask as P5 with foreground 255 and background 0."""
    arr = validate_mask(mask)
    _write_pgm(path, arr * np.uint8(255))


def write_gray_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a real-valued image as P5, clamping to [0, 1] and scaling to 255."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {arr.shape}")
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    _write_pgm(path, quantized)
