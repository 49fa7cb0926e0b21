"""Mask-wearing ratios from detections or density counts, plus aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, TypeVar

import numpy as np

from .errors import check_number
from .geometry import LABEL_CODES, FaceLabel, face_arrays, overlap_pairs, pair_iou
from .geometry import iou  # noqa: F401  (unused; perfbench's tracer wraps ratio.iou)


class Condition(Enum):
    """Capture condition of a frame."""

    DAYTIME = "DT"
    NIGHTTIME = "NT"


class CovidPeriod(Enum):
    BEFORE = "before"
    DURING = "during"


@dataclass(frozen=True, slots=True)
class ImageMeta:
    """Which video a frame came from and under which conditions."""

    video_id: str
    condition: Condition
    covid_period: CovidPeriod | None = None

    def __post_init__(self) -> None:
        if not self.video_id:
            raise ValueError("video_id must be non-empty")


@dataclass(frozen=True, slots=True)
class RatioReport:
    """Masked/unmasked counts for one image and the ratio they imply.

    The ratio is masked_count / total and is None (undefined) when the image
    has no counted faces; undefined ratios are never coerced to 0.
    """

    masked_count: float
    unmasked_count: float

    def __post_init__(self) -> None:
        for v in (self.masked_count, self.unmasked_count):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"counts must be finite and non-negative, got {v}")

    @property
    def total(self) -> float:
        return self.masked_count + self.unmasked_count

    @property
    def ratio(self) -> float | None:
        return self.masked_count / self.total if self.total > 0.0 else None

    @property
    def unmasked_ratio(self) -> float | None:
        return self.unmasked_count / self.total if self.total > 0.0 else None


_MASKED, _UNMASKED = LABEL_CODES[FaceLabel.MASKED], LABEL_CODES[FaceLabel.UNMASKED]

# candidates settled per step of nms: a crowded frame at once (the benchmark's frames
# hold 370-430, and 2,000 scattered boxes settle in two blocks). A block of more than
# _NMS_PAIRS overlapping pairs (a pile) is cut to 64 boxes, whose at most 2,016 pairs
# always fit, so that the pile's first kept box drops the rest of it before their pairs
# are made
_NMS_BLOCK = 1024
_NMS_PAIRS = 1 << 15


def check_thresholds(iou_thr: float | None = None, conf_thr: float | None = None) -> None:
    """Raise ValueError unless iou_thr is in (0, 1] and conf_thr in [0, 1]; None skips a check."""
    if iou_thr is not None:
        check_number(iou_thr, "iou_thr", lo=0, hi=1, lo_open=True)
    if conf_thr is not None:
        check_number(conf_thr, "conf_thr", lo=0, hi=1)


def nms(dets, iou_thr: float = 0.4):
    """Greedy class-wise non-maximum suppression.

    Detections are visited in descending confidence (ties keep input order);
    one is kept iff its IoU with every kept detection of the same class is
    below iou_thr. Kept detections are returned in input order.

    dets is a sequence of Detection, whose kept objects are returned as a list, or
    a detection record (see face_arrays), whose kept rows are returned as a record
    of the same image_id and meta, sliced from its arrays. The candidates are settled
    in confidence order, a block at a time, from the IoUs of the box pairs of a class
    that overlap (geometry.overlap_pairs): a block settles among itself, then its kept
    boxes drop every later candidate of their class that they overlap at iou_thr or
    more. pair_iou is iou's float expression, so every keep/drop decision is
    bit-identical to comparing one pair at a time.
    """
    check_thresholds(iou_thr)
    boxes, labels, conf = face_arrays(dets)
    keep = np.zeros(len(dets), dtype=bool)
    idx = np.argsort(-conf, kind="stable")  # one order for both classes: no pair mixes them
    size = _NMS_BLOCK
    while idx.size:
        block, rest = idx[:size], idx[size:]
        alive = _settle(boxes[block], labels[block], iou_thr)
        if alive is None:
            size = max(size // 16, 1)
            continue
        size = _NMS_BLOCK
        kept = block[alive]
        keep[kept] = True
        if rest.size:
            rest = rest[~_covered(boxes[kept], labels[kept], boxes[rest], labels[rest], iou_thr)]
        idx = rest
    rows = np.flatnonzero(keep)
    if hasattr(dets, "labels"):
        return type(dets)(dets.image_id, dets.meta,
                          boxes=boxes[rows], labels=labels[rows], conf=conf[rows])
    return [dets[i] for i in rows]


def _settle(boxes: np.ndarray, labels: np.ndarray, iou_thr: float) -> np.ndarray | None:
    """Which of boxes, in rank order, greedy NMS keeps among themselves; None if more
    than _NMS_PAIRS pairs of them overlap."""
    count, chunks = overlap_pairs(boxes, labels)
    if count > _NMS_PAIRS:
        return None
    firsts, laters = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for i, j in chunks:
        over = pair_iou(boxes, boxes, i, j) >= iou_thr
        firsts.append(np.minimum(i[over], j[over]))
        laters.append(np.maximum(i[over], j[over]))
    first, later = np.concatenate(firsts), np.concatenate(laters)
    alive = np.ones(len(boxes), dtype=bool)
    # a box that no earlier box overlaps at iou_thr is kept, and drops every later one it does
    suppressed = np.zeros(len(boxes), dtype=bool)
    suppressed[later] = True
    alive[later[~suppressed[first]]] = False
    # the rest are settled pair by pair, by rank of the earlier box
    rest = np.flatnonzero(suppressed[first] & alive[first])
    if rest.size:
        rest = rest[np.argsort(first[rest], kind="stable")]
        dead = set(np.flatnonzero(~alive).tolist())
        for i, j in zip(first[rest].tolist(), later[rest].tolist()):
            if i not in dead:
                dead.add(j)
        alive[list(dead)] = False
    return alive


def _covered(kept, kept_labels, rest, rest_labels, iou_thr: float) -> np.ndarray:
    """Which boxes of rest overlap a kept box of their class at iou_thr or more."""
    out = np.zeros(len(rest), dtype=bool)
    for i, j in overlap_pairs(kept, kept_labels, rest, rest_labels)[1]:
        out[j[pair_iou(kept, rest, i, j) >= iou_thr]] = True
    return out


def _label_counts(labels: np.ndarray) -> RatioReport:
    counts = np.bincount(labels, minlength=len(LABEL_CODES))
    return RatioReport(float(counts[_MASKED]), float(counts[_UNMASKED]))


def detection_ratio(dets, conf_thr: float = 0.5) -> RatioReport:
    """Count detections at or above the confidence threshold by label.

    dets is a sequence of Detection or a detection record (see face_arrays).
    """
    check_thresholds(conf_thr=conf_thr)
    _, labels, conf = face_arrays(dets)
    return _label_counts(labels[conf >= conf_thr])


def annotation_ratio(annotations) -> RatioReport:
    """Ground-truth counts for one image; UNKNOWN faces are not counted.

    annotations is a sequence of Annotation or a record (see face_arrays).
    """
    return _label_counts(face_arrays(annotations)[1])


def density_ratio(count_total: float, count_unmasked: float) -> RatioReport:
    """Ratio from two regressed counts: masked = total - unmasked.

    The unmasked count is clamped into [0, count_total] before subtracting, so
    noisy regressors cannot produce negative masked counts or ratios above 1.
    """
    if not (math.isfinite(count_total) and math.isfinite(count_unmasked)):
        raise ValueError("counts must be finite")
    if count_total < 0.0:
        raise ValueError(f"count_total must be >= 0, got {count_total}")
    unmasked = min(max(count_unmasked, 0.0), count_total)
    return RatioReport(count_total - unmasked, unmasked)


@dataclass(frozen=True, slots=True)
class VideoAggregate:
    """Per-video summary: image count and the mean of the defined image ratios."""

    video_id: str
    n_images: int
    n_defined: int
    mean_ratio: float | None


def aggregate_by_video(
    per_image: Iterable[tuple[ImageMeta, RatioReport]]
) -> list[VideoAggregate]:
    """Unweighted mean of defined per-image ratios per video, sorted by video id.

    A video whose images all have undefined ratios reports None. When every
    defined ratio is identical the mean returns that value exactly.
    """
    groups: dict[str, list[RatioReport]] = {}
    for meta, report in per_image:
        groups.setdefault(meta.video_id, []).append(report)
    out = []
    for video_id in sorted(groups):
        reports = groups[video_id]
        ratios = [r.ratio for r in reports if r.ratio is not None]
        if not ratios:
            mean = None
        elif min(ratios) == max(ratios):
            mean = ratios[0]
        else:
            mean = math.fsum(ratios) / len(ratios)
        out.append(VideoAggregate(video_id, len(reports), len(ratios), mean))
    return out


T = TypeVar("T")


def group_by_condition(
    per_image: Iterable[tuple[ImageMeta, T]]
) -> dict[Condition, list[tuple[ImageMeta, T]]]:
    """Partition items by capture condition, preserving input order."""
    groups: dict[Condition, list[tuple[ImageMeta, T]]] = {
        Condition.DAYTIME: [],
        Condition.NIGHTTIME: [],
    }
    for meta, item in per_image:
        groups[meta.condition].append((meta, item))
    return groups
