"""Detection AP/mAP with size buckets, counting MAE, and Pearson correlation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import check_number
from .geometry import (
    LABEL_CODES,
    SIZE_BUCKETS,
    Annotation,
    Detection,
    FaceLabel,
    SizeBucket,
    face_arrays,
    iou_pairs,
    size_buckets,
)
from .geometry import iou_matrix  # noqa: F401  (unused; perfbench's tracer counts its calls)
from .ratio import RatioReport, check_thresholds


# the size buckets eval-det reports, in report order
BUCKETS: tuple[SizeBucket, ...] = (SizeBucket.L, SizeBucket.M, SizeBucket.S)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs: match IoU and the small-image ratio filter."""

    iou_thr: float = 0.4
    min_faces_per_image: int = 5

    def __post_init__(self) -> None:
        check_thresholds(self.iou_thr)
        check_number(self.min_faces_per_image, "min_faces_per_image", integer=True, lo=0)


_DISCARDED, _TP, _FP = range(3)  # a detection's outcome (see _match_image)


def average_precision(
    detections: Mapping[str, Sequence[Detection]],
    annotations: Mapping[str, Sequence[Annotation]],
    label: FaceLabel,
    bucket: SizeBucket | None = None,
    cfg: EvalConfig = EvalConfig(),
) -> float | None:
    """Average precision of one class, optionally restricted to one size bucket.

    All detections of the class are ranked by confidence (ties keep input
    order) and greedily matched to the unmatched in-scope ground truth of
    their image with the highest IoU >= cfg.iou_thr. In-scope ground truths
    are those of the class whose bucket matches (or any non-excluded bucket
    when bucket is None). UNKNOWN faces, same-class faces of other buckets,
    and excluded-size faces are ignore regions: a detection is discarded from
    both counts when an ignore region overlaps it at the threshold more
    strongly than any available in-scope ground truth (so an out-of-bucket
    face's detection is dropped rather than stealing a weaker in-scope
    match). AP is the area under the precision envelope over recall
    (all-point interpolation). Returns None when no ground truth is in scope.

    Faces are a record or value objects (see face_arrays); scope and ignore are
    masks over label and size-bucket codes. As in COCOeval, each image is matched
    on its own: all images at once, from the pairs of a detection and a face of its
    image whose IoU reaches cfg.iou_thr (geometry.iou_pairs; the IoUs are iou's
    float expression, so every decision is bit-identical). A detection whose
    candidate faces no other detection of its image wants takes its best one at
    once; the others go through _match_image. One stable sort of all confidences
    (image order, then row order) ranks the outcomes.
    """
    if label is FaceLabel.UNKNOWN:
        raise ValueError("AP is defined for the masked/unmasked classes only")
    if bucket is SizeBucket.EXCLUDED:
        raise ValueError("the excluded bucket is never evaluated")
    code, unknown = LABEL_CODES[label], LABEL_CODES[FaceLabel.UNKNOWN]
    # in_bucket[c]: whether a face of the class in size bucket c is in scope
    in_bucket = np.array([b in (BUCKETS if bucket is None else (bucket,)) for b in SIZE_BUCKETS])

    # every image's in-scope and ignore faces, image by image, and the index of their image
    boxes, labels, image = _stack(annotations.values(), range(len(annotations)), 2)
    own = labels == code
    scope = own & in_bucket[size_buckets(boxes)]
    n_pos = int(np.count_nonzero(scope))
    if n_pos == 0:
        return None
    kept = own | (labels == unknown)  # scope, and the ignore regions
    faces, face_image, scope = boxes[kept], image[kept], scope[kept]

    # the class's detections, image by image; an image without an annotation entry is -1
    index = {image_id: k for k, image_id in enumerate(annotations)}
    boxes, labels, conf, image = _stack(
        detections.values(), (index.get(image_id, -1) for image_id in detections), 3)
    own = labels == code
    boxes, conf, image = boxes[own], conf[own], image[own]

    # best_ignore meets only iou_thr and IoUs >= iou_thr, so one under iou_thr acts as -1.0
    i, j, ious = iou_pairs(boxes, image, cfg.iou_thr, faces, face_image)
    ignore = ~scope[j]
    best_ignore = np.full(len(conf), -1.0)
    np.maximum.at(best_ignore, i[ignore], ious[ignore])
    i, j, ious = i[~ignore], j[~ignore], ious[~ignore]

    outcomes = np.where(best_ignore >= cfg.iou_thr, _DISCARDED, _FP).astype(np.int8)
    # detections that want a face some other detection wants are matched greedily
    contested = np.zeros(len(conf), dtype=bool)
    contested[i[np.bincount(j, minlength=len(faces))[j] > 1]] = True
    for k in sorted(set(image[contested].tolist())):
        rows = np.flatnonzero(contested & (image == k))
        cols = np.flatnonzero(scope & (face_image == k))
        pairs = contested[i] & (image[i] == k)
        scope_ious = np.zeros((len(rows), len(cols)))
        scope_ious[np.searchsorted(rows, i[pairs]), np.searchsorted(cols, j[pairs])] = ious[pairs]
        outcomes[rows] = _match_image(conf[rows], scope_ious, best_ignore[rows], cfg.iou_thr)
    # the rest take their best candidate, which no other detection wants
    best = np.full(len(conf), -1.0)
    np.maximum.at(best, i[~contested[i]], ious[~contested[i]])
    outcomes[(best >= cfg.iou_thr) & (best >= best_ignore)] = _TP

    ranked = outcomes[np.argsort(-conf, kind="stable")]
    ctp, cfp = np.cumsum(ranked == _TP), np.cumsum(ranked == _FP)
    keep = (ctp + cfp) > 0  # drop the discarded ranks before the first counted one
    ctp, cfp = ctp[keep], cfp[keep]
    envelope = np.maximum.accumulate((ctp / (ctp + cfp))[::-1])[::-1]
    deltas = np.diff(np.concatenate(([0.0], ctp / n_pos)))
    return float(np.sum(deltas * envelope))


# the empty boxes, labels and confidences that _stack starts each column from
_EMPTY = (np.zeros((0, 4)), np.zeros(0, np.int8), np.zeros(0))


def _stack(records, images, columns: int) -> tuple[np.ndarray, ...]:
    """The first `columns` arrays of face_arrays (boxes, labels, conf) over all records,
    row after row, then each row's entry of images, which holds one per record."""
    arrays = [face_arrays(r) for r in records]
    image = np.repeat(np.fromiter(images, np.intp, len(arrays)), [len(a[1]) for a in arrays])
    return *(np.concatenate([empty, *(a[k] for a in arrays)])
             for k, empty in enumerate(_EMPTY[:columns])), image


def _match_image(conf, scope_ious, best_ignore, iou_thr: float) -> np.ndarray:
    """One image's greedy match of a class's detections: an int8 outcome per row, in row order.

    scope_ious (n, m) holds IoUs with the in-scope faces, best_ignore (n,) the best
    with an ignore region (-1.0 if none). By descending conf, ties in row order, each
    takes the free face of highest IoU (lowest index on a tie) if that reaches iou_thr
    and best_ignore; else it is discarded if best_ignore does.
    """
    outcome = np.full(len(conf), _FP, dtype=np.int8)
    outcome[best_ignore >= iou_thr] = _DISCARDED  # unless matched below
    free = np.ones(scope_ious.shape[1], dtype=bool)
    order = np.argsort(-conf, kind="stable")
    for row in order[(scope_ious >= iou_thr).any(axis=1)[order]].tolist():  # rows that can match
        ious = np.where(free, scope_ious[row], -1.0)
        j = ious.argmax()
        if ious[j] >= iou_thr and ious[j] >= best_ignore[row]:
            free[j] = False
            outcome[row] = _TP
    return outcome


def mean_ap(aps: Sequence[float | None]) -> float:
    """Unweighted mean over the defined AP cells; errors if every cell is undefined."""
    defined = [a for a in aps if a is not None]
    if not defined:
        raise ValueError("mean_ap needs at least one defined AP cell")
    return float(np.mean(defined))


def _series(c, c_gt, n_min: int, need: str) -> tuple[np.ndarray, np.ndarray]:
    """Both series as float64 arrays; ValueError unless 1-D, of equal length and >= n_min long."""
    c, c_gt = np.asarray(c, dtype=np.float64), np.asarray(c_gt, dtype=np.float64)
    if c.shape != c_gt.shape or c.ndim != 1 or c.shape[0] < n_min:
        raise ValueError(f"{need}, got {c.shape} and {c_gt.shape}")
    return c, c_gt


def mae(c: Sequence[float], c_gt: Sequence[float]) -> float:
    """Mean absolute error between predicted and ground-truth values."""
    c, c_gt = _series(c, c_gt, 1, "mae needs two equal-length non-empty series")
    return float(np.mean(np.abs(c - c_gt)))


def pearson(c: Sequence[float], c_gt: Sequence[float]) -> float | None:
    """Pearson correlation coefficient; None when either series has zero variance.

    Clipped to [-1, 1]: on nearly collinear series the rounding of the sums
    can otherwise land a few ulps outside it.
    """
    c, c_gt = _series(c, c_gt, 2, "pearson needs two equal-length series of >= 2 values")
    dc = c - c.mean()
    dg = c_gt - c_gt.mean()
    denom = np.sqrt(np.sum(dc * dc)) * np.sqrt(np.sum(dg * dg))
    if denom == 0.0:
        return None
    return float(np.clip(np.sum(dc * dg) / denom, -1.0, 1.0))


def ratio_pairs(
    estimated: Mapping[str, RatioReport],
    ground_truth: Mapping[str, RatioReport],
    cfg: EvalConfig = EvalConfig(),
) -> list[tuple[str, float, float]]:
    """(image_id, gt_ratio, est_ratio) for every image surviving the filters.

    Images are dropped when their ground truth has fewer faces than
    cfg.min_faces_per_image or when either ratio is undefined (an image
    missing from the estimates counts as undefined). Sorted by image id.
    """
    pairs = []
    for image_id in sorted(ground_truth):
        gt = ground_truth[image_id]
        if gt.total < cfg.min_faces_per_image or (gt_ratio := gt.ratio) is None:
            continue
        est = estimated.get(image_id)
        if est is None or (est_ratio := est.ratio) is None:
            continue
        pairs.append((image_id, gt_ratio, est_ratio))
    return pairs


def ratio_correlation(
    estimated: Mapping[str, RatioReport],
    ground_truth: Mapping[str, RatioReport],
    cfg: EvalConfig = EvalConfig(),
) -> float | None:
    """Pearson correlation of estimated vs ground-truth ratios after filtering.

    None when fewer than two images survive or when a series is constant.
    """
    pairs = ratio_pairs(estimated, ground_truth, cfg)
    if len(pairs) < 2:
        return None
    return pearson([p[2] for p in pairs], [p[1] for p in pairs])
