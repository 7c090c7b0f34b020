"""Dice score and its small/large decomposition over a test set.

Samples are grouped by their GROUND-TRUTH masks: empty, small (per the
difficulty classifier), or large. The overall Dice averages every sample;
DiceS and DiceL average only their group, and empty-mask samples are excluded
from both. A both-empty prediction/target pair scores 1.0 (correct absence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ClientData
from .masks import DifficultyConfig, ShapeMismatchError, difficulty_factor, validate_mask
from .model import KERNEL_PIXELS, forward


@dataclass(frozen=True)
class EvalReport:
    dice: float
    dice_s: float | None
    dice_l: float | None
    n_total: int
    n_small: int
    n_large: int
    n_empty: int


def _validated(masks: np.ndarray) -> np.ndarray:
    """A mask, or an (N, H, W) stack validated in one call on its (N*H, W) view, as bool."""
    arr = np.asarray(masks)
    return validate_mask(arr.reshape(-1, arr.shape[-1]) if arr.ndim == 3 else arr).reshape(arr.shape).astype(bool)


def dice_score(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float | np.ndarray:
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty.

    Two (N, H, W) stacks score image by image: entry i of the (N,) result is
    dice_score(pred_mask[i], gt_mask[i]).
    """
    p, g = _validated(pred_mask), _validated(gt_mask)
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    total = p.sum(axis=(-2, -1)) + g.sum(axis=(-2, -1))
    scores = np.where(total == 0, 1.0, 2.0 * (p & g).sum(axis=(-2, -1)) / np.maximum(total, 1))
    return float(scores) if p.ndim == 2 else scores


def sample_groups(test_set: ClientData, difficulty: DifficultyConfig) -> list[str]:
    """Tag each sample "empty", "small" or "large" by its ground-truth mask.

    Masks never change during a run, so a run tags its test set once and
    passes the tags to every evaluate call.
    """
    groups = []
    for mask in test_set.masks:
        if mask.sum() == 0:
            groups.append("empty")
        elif difficulty_factor(mask, difficulty).is_small:
            groups.append("small")
        else:
            groups.append("large")
    return groups


def evaluate(
    params: np.ndarray,
    test_set: ClientData,
    groups: Sequence[str],
    threshold: float = 0.5,
) -> EvalReport:
    """Binarize model predictions at `threshold` and score against ground truth.

    `groups` is sample_groups(test_set, difficulty). The test set is
    forwarded KERNEL_PIXELS // (H*W) images at a time (at least one), so a
    call's work memory is no larger than a training step's; each chunk's
    predictions are scored in one dice_score call.
    """
    if len(groups) != len(test_set):
        raise ValueError(f"{len(groups)} group tags for {len(test_set)} test samples")

    chunk_size = max(1, KERNEL_PIXELS // test_set.images[0].size)
    scores = []
    for start in range(0, len(test_set), chunk_size):
        chunk = slice(start, start + chunk_size)
        preds = (forward(params, test_set.images[chunk]) >= threshold).astype(np.uint8)
        scores.append(dice_score(preds, test_set.masks[chunk]))

    values = np.concatenate(scores)
    tags = np.asarray(groups)
    small = values[tags == "small"]
    large = values[tags == "large"]
    return EvalReport(
        dice=float(values.mean()),
        dice_s=float(small.mean()) if small.size else None,
        dice_l=float(large.mean()) if large.size else None,
        n_total=len(test_set),
        n_small=int(small.size),
        n_large=int(large.size),
        n_empty=int((tags == "empty").sum()),
    )
