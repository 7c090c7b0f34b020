"""Independent reference implementations used only to verify the library.

Everything here is written from the definitions (shift-stacks, flood fill,
central differences) rather than calling the code paths under test, so the
tests compare two genuinely different routes to the same answer. Four
exceptions: TrajectoryRecorder observes the code under test without
changing what it computes; reference_experiment takes its federation and
initial parameters from the package's generator and init_params, which
other tests pin by replaying their draws; reference_forward and
reference_backward keep the earlier group-major layout of the model's
shift-and-add kernel, with buffers of their own, so that the kernel's
results stay bit for bit what they were; and reference_difficulty keeps
the earlier mask-at-a-time difficulty path (its labeling copied as it was,
its erosion and dilation the definitions above), so that every delta,
inverse area and small-lesion tag of the stack path stays bit for bit what
it was.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from fedgs_sim import fl
from fedgs_sim.data import build_federation
from fedgs_sim.harness import ResultRow
from fedgs_sim.masks import DifficultyConfig
from fedgs_sim.model import ArchDescriptor, init_params
from fedgs_sim.rng import DATA_STREAM, SHUFFLE_STREAM, substream

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


def _reference_validate(mask: np.ndarray) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2D grid, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("mask cells must all be 0 or 1")
    return arr.astype(np.uint8)


def _reference_morph(arr: np.ndarray, element: str, iterations: int, reduce) -> np.ndarray:
    offsets = {"square3": SQUARE3_OFFSETS, "cross3": CROSS3_OFFSETS}[element]
    return (shift_erode if reduce is np.min else shift_dilate)(arr, offsets, iterations)


def _reference_label(arr: np.ndarray, connectivity: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The earlier one-mask run-based labeling: (labels, [(label, area), ...])."""
    height, width = arr.shape
    stride = width + 2  # one zero column on each side keeps every run inside its row
    padded = np.zeros((height, stride), dtype=np.uint8)
    padded[:, 1:-1] = arr
    flat = padded.reshape(-1)
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = changes[0::2], changes[1::2]  # flat positions; ends are one past a run
    # the runs of the row above that touch run r are the contiguous range first[r]:stop[r]
    reach = connectivity == 8
    first = np.searchsorted(ends, starts - (stride + reach), side="right").tolist()
    stop = np.searchsorted(starts, ends - (stride - reach), side="left").tolist()
    parent = list(range(len(first)))
    for run in range(len(parent)):
        for touched in range(first[run], stop[run]):
            a, b = touched, run
            while parent[a] != a:  # find, halving the path
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[max(a, b)] = min(a, b)
    # roots number the components in order; a parent comes earlier, so its label is known
    run_labels: list[int] = []
    n = 0
    for run, up in enumerate(parent):
        n += up == run
        run_labels.append(n if up == run else run_labels[up])
    labels = np.zeros(flat.size, dtype=np.int32)
    for start, end, label in zip(starts.tolist(), ends.tolist(), run_labels):
        labels[start:end] = label
    areas = np.bincount(run_labels, weights=ends - starts, minlength=n + 1).tolist()
    component_areas = [(label, int(areas[label])) for label in range(1, n + 1)]
    return labels.reshape(height, stride)[:, 1:-1], component_areas


def reference_inverse_relative_area(mask: np.ndarray) -> float | None:
    """The earlier whole-mask inverse area of one mask; None for an empty mask."""
    arr = _reference_validate(mask)
    foreground = int(arr.sum())
    if foreground == 0:
        return None
    return arr.size / foreground


def reference_smallest_lesion_inverse_area(mask: np.ndarray, cfg: DifficultyConfig) -> float | None:
    """The earlier blob_split inverse area of one mask; None for an empty mask."""
    arr = _reference_validate(mask)
    if arr.sum() == 0:
        return None

    eroded = _reference_morph(arr, cfg.structuring_element, cfg.erosion_iterations, np.min)
    use_fallback = eroded.sum() == 0
    base = arr if use_fallback else eroded

    labels, component_areas = _reference_label(base, cfg.connectivity)
    smallest_label, smallest_area = min(component_areas, key=lambda la: la[1])

    if use_fallback or cfg.erosion_iterations == 0:
        estimated_area = smallest_area
    else:
        component = (labels == smallest_label).astype(np.uint8)
        reconstructed = _reference_morph(component, cfg.structuring_element, cfg.erosion_iterations, np.max)
        estimated_area = int((reconstructed & arr).sum())
    return arr.size / estimated_area


def reference_difficulty(mask: np.ndarray, cfg: DifficultyConfig) -> tuple[float | None, bool, float]:
    """The earlier per-mask difficulty_factor: (inverse area or None if empty, is_small, delta)."""
    if cfg.regime == "whole_mask":
        inverse_area = reference_inverse_relative_area(mask)
    else:
        inverse_area = reference_smallest_lesion_inverse_area(mask, cfg)
    if inverse_area is None:
        return None, False, 0.0
    is_small = inverse_area >= cfg.threshold
    if not is_small:
        return inverse_area, False, 0.0
    log_value = math.log(inverse_area) / math.log(cfg.log_base)
    return inverse_area, True, min(math.tanh(log_value * log_value), math.nextafter(1.0, 0.0))


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


def _group_shifts(x: np.ndarray, groups: int, flip: bool = False) -> np.ndarray:
    """Group-major (K, 9, N/K*H*W) shifts of an (N, H, W) stack, zero outside each image, in new arrays.

    Each shift is a slice of a flat copy of the stack guarded by W + 1 zeros
    on each side, with the row and column that wrap across an image zeroed.
    With flip, row s holds shift 8 - s.
    """
    n, height, width = x.shape
    guard = width + 1
    buffer = np.zeros(x.size + 2 * guard, x.dtype)
    buffer[guard:-guard] = x.reshape(-1)
    starts = [guard + (di - 1) * width + (dj - 1) for di in range(3) for dj in range(3)]
    planes = np.empty((groups, 9, n // groups, height, width), x.dtype)
    flat = planes.reshape(groups, 9, -1)
    for s, start in enumerate(starts[::-1] if flip else starts):
        flat[:, s] = buffer[start : start + x.size].reshape(groups, -1)
    _zero_group_edges(planes, *((-1, 0) if flip else (0, -1)))
    return flat


def _zero_group_edges(planes: np.ndarray, first: int, last: int) -> None:
    planes[:, :3, :, first, :] = planes[:, 6:, :, last, :] = 0.0
    planes[:, ::3, :, :, first] = planes[:, 2::3, :, :, last] = 0.0


def _reference_logits(rows: np.ndarray, x: np.ndarray):
    """Output logits z2 (N, H, W) and hidden activations a1 (K, C, N/K*H*W) of the group-major kernel."""
    groups, c = len(rows), (rows.shape[1] - 1) // 19
    k1, b1 = rows[:, : 9 * c].reshape(groups, c, 9), rows[:, 9 * c : 10 * c]
    k2, b2 = rows[:, 10 * c : 19 * c].reshape(groups, c, 9), rows[:, 19 * c]
    n, height, width = x.shape
    a1 = np.matmul(k1, _group_shifts(x, groups))
    a1 += b1[:, :, None]
    np.maximum(a1, 0.0, out=a1)
    mixed = np.matmul(k2.transpose(0, 2, 1), a1).reshape(groups, 9, n // groups, height, width)
    _zero_group_edges(mixed, -1, 0)
    flat = mixed.reshape(groups, 9, -1)
    guard = width + 1
    out = np.zeros(x.size + 2 * guard, x.dtype)
    z2 = out[guard:-guard]
    z2.reshape(groups, -1)[...] = b2[:, None]
    starts = [guard + (di - 1) * width + (dj - 1) for di in range(3) for dj in range(3)]
    for s, start in enumerate(starts[::-1]):
        out[start : start + z2.size].reshape(groups, -1)[...] += flat[:, s]
    return z2.reshape(n, height, width), a1


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    p = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def _reference_stack(images: np.ndarray) -> np.ndarray:
    x = np.asarray(images)
    x = x if x.dtype == np.float32 else x.astype(np.float64)
    return x.reshape(-1, *x.shape[-2:])


def reference_forward(params: np.ndarray, images: np.ndarray) -> np.ndarray:
    """model.forward as the group-major shift-and-add kernel computed it, for valid input.

    The kernel computes in float32 on a float32 stack and in float64 on any
    other, with the parameters cast once.
    """
    x = _reference_stack(images)
    z2, _ = _reference_logits(params.reshape(1, -1).astype(x.dtype), x)
    return _reference_sigmoid(z2).reshape(np.shape(images))


def reference_backward(params: np.ndarray, images: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """model.backward as the group-major shift-and-add kernel computed it, for valid input.

    (P,) or (K, P) parameters; group k of the stack's K equal groups trains
    row k. Every intermediate is a new array, so this shares no work memory
    with the package.
    """
    x = _reference_stack(images)
    rows = params.reshape(-1, params.shape[-1]).astype(x.dtype)
    groups, c = len(rows), (rows.shape[1] - 1) // 19
    k2 = rows[:, 10 * c : 19 * c].reshape(groups, c, 9)
    n = len(x)
    m = np.asarray(masks).reshape(x.shape).astype(x.dtype)
    z2, a1 = _reference_logits(rows, x)
    prob = _reference_sigmoid(z2)

    intersection = (prob * m).sum(axis=(1, 2))[:, None, None]
    denom = (prob.sum(axis=(1, 2)) + m.sum(axis=(1, 2)) + 1.0)[:, None, None]
    g2 = m
    g2 *= -2.0 / denom
    g2 += (2.0 * intersection + 1.0) / denom**2
    g2 *= prob
    g2 *= 1.0 - prob

    g2_shifts = _group_shifts(g2, groups, flip=True)
    gk2 = a1 @ g2_shifts.transpose(0, 2, 1)
    active = a1 > 0.0
    dz1 = np.matmul(k2, g2_shifts)
    dz1 *= active

    grad = np.empty((groups, rows.shape[1]))
    grad[:, : 9 * c] = (dz1 @ _group_shifts(x, groups).transpose(0, 2, 1)).reshape(groups, -1)
    grad[:, 9 * c : 10 * c] = dz1.sum(axis=2)
    grad[:, 10 * c : 19 * c] = gk2.reshape(groups, -1)
    grad[:, 19 * c] = g2.reshape(groups, -1).sum(axis=1)
    grad /= n // groups
    return grad.reshape(params.shape)


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


def reference_round(global_params, datasets, strategy, optimizer_cfg, rngs):
    """fl.run_round by its documented semantics, client by client and batch by batch.

    Each client starts from the global parameters with zero moments and, per
    epoch, takes its batches of at most B samples from rngs[k].permutation.
    Per batch: the reference gradient, SGD or AdamW written out, the
    decrement (before - after), and eta = 1 + (2/N) * (sum of the batch's
    per-mask reference_difficulty deltas, left to right) under fedgs, 1
    under fedavg. FedGS
    subtracts the step-weighted mean of the eta-scaled decrement sums;
    FedAvg takes the sample-weighted mean of the final parameters.
    Returns (new global parameters, steps_total, mean eta, max eta).
    """
    opt, size = optimizer_cfg, strategy.batch_size
    finals, cumulative, steps, etas = [], [], [], []
    for dataset, rng in zip(datasets, rngs):
        if strategy.kind == "fedgs":
            deltas = [reference_difficulty(mask, strategy.difficulty)[2] for mask in dataset.masks]
        params = np.array(global_params, dtype=np.float64)
        m, v = np.zeros_like(params), np.zeros_like(params)
        cum = np.zeros_like(params)
        t = 0
        for _ in range(strategy.local_epochs):
            order = rng.permutation(len(dataset))
            for start in range(0, len(order), size):
                batch = order[start : start + size]
                grad = reference_backward(params, dataset.images[batch], dataset.masks[batch])
                if opt.kind == "sgd":
                    new_params = params - opt.learning_rate * grad
                else:
                    t += 1
                    m = opt.beta1 * m + (1.0 - opt.beta1) * grad
                    v = opt.beta2 * v + (1.0 - opt.beta2) * grad * grad
                    m_hat = m / (1.0 - opt.beta1**t)
                    v_hat = v / (1.0 - opt.beta2**t)
                    update = m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * params
                    new_params = params - opt.learning_rate * update
                eta = 1.0
                if strategy.kind == "fedgs":
                    total = 0.0
                    for i in batch:
                        total += deltas[i]
                    eta = 1.0 + (2.0 / len(batch)) * total
                cum += eta * (params - new_params)
                params = new_params
                etas.append(eta)
        finals.append(params)
        cumulative.append(cum)
        steps.append(strategy.local_epochs * -(-len(dataset) // size))
    if strategy.kind == "fedgs":
        new_global = global_params - weighted_rows(np.array(cumulative), steps)
    else:
        new_global = weighted_rows(np.array(finals), [len(dataset) for dataset in datasets])
    return new_global, sum(steps), float(np.mean(etas)), max(etas)


def reference_dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice by definition: 2|P and G| / (|P| + |G|), and 1.0 when both masks are empty."""
    p, g = pred.astype(bool), gt.astype(bool)
    total = int(p.sum()) + int(g.sum())
    return 1.0 if total == 0 else 2.0 * int((p & g).sum()) / total


def reference_experiment(cfg) -> list[ResultRow]:
    """harness.run_experiment's rows from reference parts, with wall_ms 0.0.

    Per seed: the federation, reference_difficulty's tag of each test mask
    (empty, small or large), and per strategy the seed's initial parameters.
    Per round: reference_round on the round's shuffle streams, then each
    test image forwarded alone by reference_forward, thresholded at 0.5 and
    scored by reference_dice. Dice is the mean over every sample, DiceS and
    DiceL the means over their group, or None for an empty group.
    """
    rows = []
    for seed in cfg.seeds:
        federation = build_federation(list(cfg.client_specs), seed)
        test = federation.test_set
        tags = []
        for mask in test.masks:
            inverse_area, is_small, _ = reference_difficulty(mask, cfg.difficulty)
            tags.append("empty" if inverse_area is None else "small" if is_small else "large")
        for kind in cfg.strategies:
            strategy = cfg.strategy(kind)
            params = init_params(ArchDescriptor(cfg.hidden_channels), seed)
            for round_index in range(cfg.rounds):
                streams = [substream(seed, SHUFFLE_STREAM, round_index, c) for c in range(len(federation.clients))]
                params, steps_total, mean_eta, max_eta = reference_round(
                    params, federation.clients, strategy, cfg.optimizer, streams
                )
                predictions = [reference_forward(params, image) >= 0.5 for image in test.images]
                scores = np.array([reference_dice(pred, mask) for pred, mask in zip(predictions, test.masks)])
                means = {}
                for group in ("small", "large"):
                    chosen = scores[[tag == group for tag in tags]]
                    means[group] = float(chosen.mean()) if chosen.size else None
                rows.append(
                    ResultRow(
                        seed=seed,
                        strategy=kind,
                        round=round_index,
                        dice=float(scores.mean()),
                        dice_s=means["small"],
                        dice_l=means["large"],
                        mean_eta=mean_eta,
                        max_eta=max_eta,
                        steps_total=steps_total,
                        wall_ms=0.0,
                    )
                )
    rows.sort(key=lambda r: (r.seed, r.strategy, r.round))
    return rows


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
