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

from .data import Sample
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


def dice_score(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty."""
    p = validate_mask(pred_mask).astype(bool)
    g = validate_mask(gt_mask).astype(bool)
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    total = int(p.sum()) + int(g.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / total


def sample_groups(test_set: Sequence[Sample], difficulty: DifficultyConfig) -> list[str]:
    """Tag each sample "empty", "small" or "large" by its ground-truth mask.

    Masks never change during a run, so a run tags its test set once and
    passes the tags to every evaluate call.
    """
    groups = []
    for sample in test_set:
        if sample.mask.sum() == 0:
            groups.append("empty")
        elif difficulty_factor(sample.mask, difficulty).is_small:
            groups.append("small")
        else:
            groups.append("large")
    return groups


def evaluate(
    params: np.ndarray,
    test_set: Sequence[Sample],
    groups: Sequence[str],
    threshold: float = 0.5,
) -> EvalReport:
    """Binarize model predictions at `threshold` and score against ground truth.

    `groups` is sample_groups(test_set, difficulty). The test set is
    forwarded KERNEL_PIXELS // (H*W) images at a time (at least one), so a
    call's work memory is no larger than a training step's; each chunk is
    scored and its probabilities dropped before the next one.
    """
    if not test_set:
        raise ValueError("test set must be non-empty")
    if len(groups) != len(test_set):
        raise ValueError(f"{len(groups)} group tags for {len(test_set)} test samples")

    chunk_size = max(1, KERNEL_PIXELS // test_set[0].image.size)
    scores: list[float] = []
    for start in range(0, len(test_set), chunk_size):
        chunk = test_set[start : start + chunk_size]
        prob = forward(params, np.stack([sample.image for sample in chunk]))
        preds = (prob >= threshold).astype(np.uint8)
        del prob
        for sample, pred in zip(chunk, preds):
            scores.append(dice_score(pred, sample.mask))

    values = np.asarray(scores)
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
