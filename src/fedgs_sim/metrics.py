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
from .masks import DifficultyConfig, difficulty_factor, validate_mask
from .model import forward
from .shifts import images_per_call

# Kernel calls' worth of test images that evaluate forwards and scores at a time: enough to
# spread each call's overhead, few enough that a block's predictions add little to peak memory.
EVAL_BLOCK_CALLS = 8


@dataclass(frozen=True)
class EvalReport:
    dice: float
    dice_s: float | None
    dice_l: float | None


def dice_score(pred_mask: np.ndarray, gt_mask: np.ndarray) -> np.ndarray:
    """2|P∩G| / (|P|+|G|) as a float64 array; 1.0 where both masks are empty.

    Two (N, H, W) stacks score image by image: entry i of the (N,) result is
    dice_score(pred_mask[i], gt_mask[i]), and two 2D masks give a 0-d array.
    p + g, 0, 1 or 2 per pixel, sums to |P| + |G| and, halved, to |P ∩ G|:
    uint8 cells summed into uint32, exact below 2**31 pixels.
    """
    p, g = validate_mask(pred_mask), validate_mask(gt_mask)
    if p.shape != g.shape:
        raise ValueError(f"pred shape {p.shape} != gt shape {g.shape}")
    counts = p + g
    total = counts.sum(axis=(-2, -1), dtype=np.uint32)
    counts >>= 1
    return np.where(total == 0, 1.0, 2.0 * counts.sum(axis=(-2, -1), dtype=np.uint32) / np.maximum(total, 1))


def sample_groups(test_set: ClientData, difficulty: DifficultyConfig) -> list[str]:
    """Tag each sample "empty", "small" or "large" by its ground-truth mask.

    Masks never change during a run, so a run tags its test set once, in
    one difficulty_factor call, and passes the tags to every evaluate call.
    """
    result = difficulty_factor(test_set.masks, difficulty)
    return np.where(np.isnan(result.inverse_area), "empty", np.where(result.is_small, "small", "large")).tolist()


def evaluate(params: np.ndarray, test_set: ClientData, groups: Sequence[str]) -> EvalReport:
    """Binarize model predictions at probability 0.5 and score against ground truth.

    `groups` is sample_groups(test_set, difficulty). The test set goes in blocks of
    EVAL_BLOCK_CALLS kernel calls' worth of images, one thresholded forward call and one
    dice_score call each: whole kernel calls, so forward's calls cover the same images.
    """
    if len(groups) != len(test_set):
        raise ValueError(f"{len(groups)} group tags for {len(test_set)} test samples")

    block = EVAL_BLOCK_CALLS * images_per_call(*test_set.images.shape[1:])
    blocks = [slice(start, start + block) for start in range(0, len(test_set), block)]
    values = np.concatenate([dice_score(forward(params, test_set.images[b], 0.5), test_set.masks[b]) for b in blocks])
    tags = np.asarray(groups)
    small, large = values[tags == "small"], values[tags == "large"]
    return EvalReport(
        dice=float(values.mean()),
        dice_s=float(small.mean()) if small.size else None,
        dice_l=float(large.mean()) if large.size else None,
    )
