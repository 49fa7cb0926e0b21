"""Anchor grids, anchor-to-ground-truth matching, box coding, and the detector loss.

The training loss for one image sums, over anchors, an objectness binary
cross-entropy, plus (for positive anchors only) a focal masked/unmasked
classification term and a smooth-L1 box regression term. Only evaluation is
implemented; gradients of this loss are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import allocating_grid, check_grid, check_number
from .fusion import level_shape, level_stride
from .geometry import LABEL_CODES, Annotation, FaceLabel, face_arrays, iou_pairs

DEFAULT_LEVELS: tuple[int, ...] = (3, 4, 5, 6, 7)
DEFAULT_RATIOS: tuple[float, ...] = (0.5, 1.0, 2.0)  # width:height

# per-anchor probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] to keep logs finite
PROB_EPS = 1e-7

# assignment codes in MatchResult.assignment (non-negative values are gt indices)
NEGATIVE = -1
IGNORE = -2


def default_scales(levels: Sequence[int] = DEFAULT_LEVELS) -> dict[int, tuple[float, ...]]:
    """One base size per level, twice its stride: 16 px at level 3 doubling up to 256 px at level 7."""
    return {level: (2.0 * level_stride(level),) for level in levels}


@dataclass(frozen=True)
class AnchorSet:
    """Materialized anchors: (N, 4) ltrb boxes with the pyramid level of each."""

    boxes: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return self.boxes.shape[0]


def _level_grids(image_w, image_h, levels, scales, ratios) -> list:
    """generate_anchors' checks; per level, (level, (grid_h, grid_w), (A, 2) sizes as (w, h), name)."""
    check_number(image_w, "image_w", integer=True, lo=1)
    check_number(image_h, "image_h", integer=True, lo=1)
    levels = list(levels)
    if not levels:
        raise ValueError("at least one pyramid level is required")
    if scales is None:
        scales = default_scales(levels)
    if not isinstance(scales, Mapping):
        scales = {level: tuple(scales) for level in levels}
    ratios = [float(check_number(r, "aspect ratio", lo=0, lo_open=True)) for r in ratios]
    if not ratios:
        raise ValueError("at least one aspect ratio is required")
    grids = []
    for level in levels:
        level_scales = [float(check_number(s, f"scale for level {level}", lo=0, lo_open=True))
                        for s in scales.get(level, ())]
        if not level_scales:
            raise ValueError(f"at least one scale is required for level {level}")
        name = f"pyramid level {level} of a {image_w} x {image_h} frame"
        shape = check_grid(*level_shape(image_w, image_h, level), name)
        sizes = np.array(
            [(s * math.sqrt(r), s / math.sqrt(r)) for s in level_scales for r in ratios],
            dtype=np.float64,
        )
        grids.append((level, shape, sizes, name))
    return grids


def anchor_count(image_w: int, image_h: int, levels=DEFAULT_LEVELS, scales=None, ratios=DEFAULT_RATIOS) -> int:
    """How many anchors generate_anchors tiles for the same arguments, after its checks; builds none."""
    grids = _level_grids(image_w, image_h, levels, scales, ratios)
    return sum(grid_h * grid_w * len(sizes) for _, (grid_h, grid_w), sizes, _ in grids)


def generate_anchors(
    image_w: int,
    image_h: int,
    levels: Sequence[int] = DEFAULT_LEVELS,
    scales: Mapping[int, Sequence[float]] | Sequence[float] | None = None,
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> AnchorSet:
    """Tile anchors over every feature-map cell of the requested pyramid levels.

    Each level tiles the cells of its fusion.level_shape grid, fusion.level_stride
    apart; every cell gets one anchor per (scale, ratio) pair, centered on the
    cell. A ratio r (width:height) produces width = size * sqrt(r) and
    height = size / sqrt(r), preserving the anchor area. Every argument is
    checked before anything is allocated; a level whose anchors do not fit in
    memory raises ValueError naming the level.
    """
    all_boxes = []
    all_levels = []
    for level, (grid_h, grid_w), sizes, name in _level_grids(image_w, image_h, levels, scales, ratios):
        with allocating_grid(grid_h, grid_w, name):
            # (cells, A, 2): the cells row-major, each holding its A anchors
            cells = np.stack(np.meshgrid(np.arange(grid_w), np.arange(grid_h)), axis=-1).reshape(-1, 1, 2)
            centres, sizes = np.broadcast_arrays((cells + 0.5) * level_stride(level), sizes)
            boxes = _corners(centres.reshape(-1, 2), sizes.reshape(-1, 2))
        all_boxes.append(boxes)
        all_levels.append(np.full(boxes.shape[0], level, dtype=np.int64))
    return AnchorSet(np.concatenate(all_boxes), np.concatenate(all_levels))


@dataclass(frozen=True)
class MatchResult:
    """Per-anchor assignment and training targets.

    assignment: gt index for positives, NEGATIVE (-1) or IGNORE (-2) otherwise.
    objectness_target: 1.0 for positives, 0.0 for negatives (unused at ignores).
    class_target: 1.0 for masked-face positives, 0.0 otherwise (only meaningful
    at positives). box_target: encoded offsets, zeros at non-positives.
    """

    assignment: np.ndarray
    objectness_target: np.ndarray
    class_target: np.ndarray
    box_target: np.ndarray

    @property
    def positive_mask(self) -> np.ndarray:
        return self.assignment >= 0

    @property
    def negative_mask(self) -> np.ndarray:
        return self.assignment == NEGATIVE

    @property
    def ignore_mask(self) -> np.ndarray:
        return self.assignment == IGNORE

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.positive_mask))

    def __len__(self) -> int:
        return self.assignment.shape[0]


def match_anchors(
    anchors: AnchorSet | np.ndarray,
    gts: Sequence[Annotation],
    pos_iou: float = 0.5,
    neg_iou: float = 0.3,
) -> MatchResult:
    """Assign each anchor to Positive / Negative / Ignore against the ground truth.

    An anchor is positive when its best IoU is >= pos_iou (assigned to the
    argmax gt, ties to the lowest gt index), negative when the best IoU is
    below neg_iou, and ignored in between. Anchors whose best-overlapping gt
    is UNKNOWN with IoU >= neg_iou are ignored: unknown faces are ignore
    regions, never training targets. Finally each known gt forces its
    highest-IoU anchor positive (IoU > 0 required, ties to the lowest anchor
    index); when that anchor was already claimed by an earlier gt the next
    best unclaimed anchor is taken, so no overlapped face is left without a
    positive anchor.
    """
    check_number(neg_iou, "neg_iou", lo=0, hi=1)
    check_number(pos_iou, "pos_iou", lo=neg_iou, hi=1)
    boxes = anchors.boxes if isinstance(anchors, AnchorSet) else np.asarray(anchors)
    n = boxes.shape[0]
    assignment = np.full(n, NEGATIVE, dtype=np.int64)
    box_target = np.zeros((n, 4), dtype=np.float64)
    class_target = np.zeros(n, dtype=np.float64)

    if gts:
        gt_boxes, gt_labels, _ = face_arrays(gts)
        unknown = gt_labels == LABEL_CODES[FaceLabel.UNKNOWN]
        masked = gt_labels == LABEL_CODES[FaceLabel.MASKED]
        # every anchor-face pair whose IoU is above 0 (the least positive float)
        a, g, ious = iou_pairs(boxes, np.zeros(n), 5e-324, gt_boxes, np.zeros(len(gts)))

        # each anchor's best face: its highest IoU, ties to the lowest face; on no face, face 0 at IoU 0
        best_iou, best_gt = np.zeros(n), np.full(n, len(gts))
        np.maximum.at(best_iou, a, ious)
        top = ious == best_iou[a]
        np.minimum.at(best_gt, a[top], g[top])
        best_gt[best_iou == 0] = 0

        assignment[best_iou >= neg_iou] = IGNORE
        positive = (best_iou >= pos_iou) & ~unknown[best_gt]
        assignment[positive] = best_gt[positive]

        # forced matches: in face order, each known face takes its highest-IoU unclaimed anchor
        by_face, claimed = np.argsort(g, kind="stable"), np.zeros(n, bool)
        for j, k in enumerate(np.split(by_face, np.searchsorted(g[by_face], np.arange(1, len(gts))))):
            k = k[~claimed[a[k]]]
            if len(k) and not unknown[j]:
                i = a[k][ious[k] == ious[k].max()].min()  # ties to the lowest anchor
                claimed[i], assignment[i] = True, j

        pos = assignment >= 0
        if np.any(pos):
            box_target[pos] = encode_boxes(boxes[pos], gt_boxes[assignment[pos]])
            class_target[pos] = masked[assignment[pos]].astype(np.float64)

    objectness_target = (assignment >= 0).astype(np.float64)
    return MatchResult(assignment, objectness_target, class_target, box_target)


def _centre_size(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centres, sizes) of (N, 4) ltrb boxes: two (N, 2) arrays of (x, y) and (w, h)."""
    return (boxes[:, :2] + boxes[:, 2:]) / 2.0, boxes[:, 2:] - boxes[:, :2]


def _corners(centres: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(N, 4) ltrb boxes of (N, 2) centres and sizes; inverts _centre_size."""
    return np.concatenate([centres - sizes / 2.0, centres + sizes / 2.0], axis=1)


def encode_boxes(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Encode gt boxes relative to anchors: center offsets over anchor size, log size ratios."""
    ac, asz = _centre_size(np.asarray(anchors, dtype=np.float64).reshape(-1, 4))
    gc, gsz = _centre_size(np.asarray(gts, dtype=np.float64).reshape(-1, 4))
    return np.concatenate([(gc - ac) / asz, np.log(gsz / asz)], axis=1)


def decode_boxes(anchors: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Invert encode_boxes back to absolute ltrb boxes."""
    ac, asz = _centre_size(np.asarray(anchors, dtype=np.float64).reshape(-1, 4))
    t = np.asarray(t, dtype=np.float64).reshape(-1, 4)
    if not np.all(np.isfinite(t)):
        raise ValueError("box offsets must be finite")
    return _corners(t[:, :2] * asz + ac, np.exp(t[:, 2:]) * asz)


def binary_cross_entropy(p, target):
    """Elementwise BCE with probabilities clamped away from 0 and 1."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    target = np.asarray(target, dtype=np.float64)
    out = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    return float(out) if out.ndim == 0 else out


def focal_loss(p, target, alpha: float = 0.25, gamma: float = 2.0):
    """Focal binary cross-entropy; reduces to alpha-weighted BCE at gamma = 0.

    For target 1: -alpha * (1-p)**gamma * log(p); for target 0:
    -(1-alpha) * p**gamma * log(1-p). Probabilities are clamped like BCE.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    target = np.asarray(target, dtype=np.float64)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
    out = np.where(target >= 0.5, pos, neg)
    return float(out) if out.ndim == 0 else out


def smooth_l1(x):
    """Elementwise smooth L1: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.where(x < 1.0, 0.5 * x * x, x - 0.5)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LossConfig:
    """Weights and options of the multi-task loss."""

    alpha: float = 0.25
    gamma: float = 2.0
    # divide every component by the positive-anchor count instead of raw sums
    normalize_by_positives: bool = False

    def __post_init__(self) -> None:
        # focal loss weighs the classes by alpha and 1 - alpha, and down-weights by p**gamma
        check_number(self.alpha, "alpha", lo=0, hi=1)
        check_number(self.gamma, "gamma", lo=0)


@dataclass(frozen=True)
class LossBreakdown:
    objectness: float
    classification: float
    box: float

    @property
    def total(self) -> float:
        return self.objectness + self.classification + self.box


def check_predictions(
    n: int, objectness_probs: np.ndarray, class_probs: np.ndarray, box_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The predictions as float64 arrays (n,), (n,) and (n, 4), if they cover n anchors and are finite."""
    p_obj = np.asarray(objectness_probs, dtype=np.float64).reshape(-1)
    p_cls = np.asarray(class_probs, dtype=np.float64).reshape(-1)
    t = np.asarray(box_offsets, dtype=np.float64).reshape(-1, 4)
    if p_obj.shape[0] != n or p_cls.shape[0] != n or t.shape[0] != n:
        raise ValueError(
            f"predictions must cover all {n} anchors, got "
            f"{p_obj.shape[0]}/{p_cls.shape[0]}/{t.shape[0]}"
        )
    for name, values in (("objectness", p_obj), ("class", p_cls), ("box", t)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} predictions must be finite")
    return p_obj, p_cls, t


def multitask_loss(
    objectness_probs: np.ndarray,
    class_probs: np.ndarray,
    box_offsets: np.ndarray,
    match: MatchResult,
    config: LossConfig = LossConfig(),
) -> LossBreakdown:
    """Evaluate the detector loss for one image's predictions against a match.

    Objectness BCE sums over positive and negative anchors; the focal
    classification term and the smooth-L1 box term (summed over the 4 offsets)
    gate on positive anchors only. Ignored anchors contribute nothing.
    """
    p_obj, p_cls, t = check_predictions(len(match), objectness_probs, class_probs, box_offsets)
    scored = ~match.ignore_mask
    objectness = float(
        np.sum(binary_cross_entropy(p_obj[scored], match.objectness_target[scored]))
    )
    pos = match.positive_mask
    classification = float(
        np.sum(
            focal_loss(p_cls[pos], match.class_target[pos], config.alpha, config.gamma)
        )
    )
    box = float(np.sum(smooth_l1(t[pos] - match.box_target[pos])))

    if config.normalize_by_positives:
        denom = max(1, match.n_positive)
        objectness /= denom
        classification /= denom
        box /= denom
    return LossBreakdown(objectness, classification, box)
