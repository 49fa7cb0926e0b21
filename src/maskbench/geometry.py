"""Face boxes, labels, and the geometric primitives shared by every pipeline."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class FaceLabel(Enum):
    """Per-face label.

    UNKNOWN marks faces whose mask state could not be determined; they never
    contribute to ratio numerators or denominators and act as ignore regions
    during detection evaluation and anchor matching.
    """

    MASKED = "masked"
    UNMASKED = "unmasked"
    UNKNOWN = "unknown"


# a label array holds each face's index into FACE_LABELS, as int8
FACE_LABELS: tuple[FaceLabel, ...] = tuple(FaceLabel)
LABEL_CODES = {lab: i for i, lab in enumerate(FACE_LABELS)}


class SizeBucket(Enum):
    """Size stratification of a face box.

    S: both dimensions in [8, 16] px; L: both dimensions > 32 px;
    EXCLUDED: any dimension < 8 px; M: everything else.
    """

    S = "S"
    M = "M"
    L = "L"
    EXCLUDED = "excluded"


# a size-bucket array holds each box's index into SIZE_BUCKETS, as int8
SIZE_BUCKETS: tuple[SizeBucket, ...] = tuple(SizeBucket)
_S, _M, _L, _EXCLUDED = range(len(SIZE_BUCKETS))


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in image coordinates (left, top, right, bottom).

    Coordinates are continuous (sub-pixel allowed). Zero or negative width or
    height is rejected at construction.
    """

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self) -> None:
        coords = (self.left, self.top, self.right, self.bottom)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if not (self.right > self.left and self.bottom > self.top):
            raise ValueError(
                f"box must have positive width and height, got {coords}"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.left + self.right) / 2.0, (self.top + self.bottom) / 2.0


@dataclass(frozen=True, slots=True)
class Annotation:
    """A ground-truth face: box plus one of the three labels."""

    box: BBox
    label: FaceLabel


@dataclass(frozen=True, slots=True)
class Detection:
    """A detector output: box, masked/unmasked label, confidence in [0, 1]."""

    box: BBox
    label: FaceLabel
    confidence: float

    def __post_init__(self) -> None:
        if self.label is FaceLabel.UNKNOWN:
            raise ValueError("detections cannot carry the UNKNOWN label")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    return float(iou_matrix(boxes_to_array((a,)), boxes_to_array((b,)))[0, 0])


def size_bucket(box: BBox) -> SizeBucket:
    """Assign a box to its size bucket (see SizeBucket for the partition)."""
    return SIZE_BUCKETS[size_buckets(boxes_to_array((box,)))[0]]


def size_buckets(boxes: np.ndarray) -> np.ndarray:
    """The (N,) int8 size-bucket codes (see SIZE_BUCKETS) of (N, 4) ltrb boxes."""
    w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    out = np.full(len(boxes), _M, dtype=np.int8)
    out[(w <= 16.0) & (h <= 16.0)] = _S
    out[(w > 32.0) & (h > 32.0)] = _L
    out[(w < 8.0) | (h < 8.0)] = _EXCLUDED
    return out


def boxes_to_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) float64 array of (left, top, right, bottom)."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes], np.float64).reshape(-1, 4)


def face_arrays(faces) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(boxes, labels, conf) of a record, or of a sequence of Annotation or of Detection.

    boxes is (N, 4) float64 ltrb, labels (N,) int8 codes (see FACE_LABELS), conf (N,)
    float64 or None for annotations. A record gives its own arrays; nothing else
    turns value objects into arrays.
    """
    if hasattr(faces, "labels"):
        return faces.boxes, faces.labels, getattr(faces, "conf", None)
    faces = tuple(faces)
    labels = np.fromiter((LABEL_CODES[f.label] for f in faces), dtype=np.int8, count=len(faces))
    detections = not faces or hasattr(faces[0], "confidence")
    conf = np.array([f.confidence for f in faces], dtype=np.float64) if detections else None
    return boxes_to_array(f.box for f in faces), labels, conf


# the inverse of face_arrays: one checked value object per row of a record's arrays
def build_annotations(boxes: np.ndarray, labels: np.ndarray) -> tuple[Annotation, ...]:
    return tuple(
        Annotation(BBox(*box), FACE_LABELS[code])
        for box, code in zip(boxes.tolist(), labels.tolist())
    )


def build_detections(
    boxes: np.ndarray, labels: np.ndarray, conf: np.ndarray
) -> tuple[Detection, ...]:
    return tuple(
        Detection(BBox(*box), FACE_LABELS[code], c)
        for box, code, c in zip(boxes.tolist(), labels.tolist(), conf.tolist())
    )


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) arrays of ltrb boxes."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return _iou(a.T[:, :, None], b.T[:, None, :])


def pair_iou(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """IoU of boxes a[i[k]] and b[j[k]] for each k: the iou_matrix cell of each pair, bit for bit."""
    return _iou(np.take(a, i, axis=0).T, np.take(b, j, axis=0).T)


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes whose ltrb coordinates run along the first axis of a and b, broadcast.

    The one home of the IoU float expression. min, max, + and * commute, so a pair's
    value does not depend on which box comes first. A pair whose largest coordinate
    magnitude reaches 2**510 is first scaled by the power of two that brings it into
    [2**509, 2**510), so no side, area or union overflows; the ratio cancels the exact
    scaling, and every other pair is computed as it is.
    """
    if max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)) >= 2.0**510:
        top = np.maximum(np.abs(a).max(axis=0), np.abs(b).max(axis=0))
        shift = np.where(top >= 2.0**510, 510 - np.frexp(top)[1], 0)
        a, b = np.ldexp(a, shift), np.ldexp(b, shift)
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


# x-sweep pairs per box above which iou_pairs counts the y sweep too: a crowded 1280x720
# frame gives at most about 7, a column of n boxes n / 2
_Y_COUNT_ABOVE = 16


def iou_pairs(a: np.ndarray, group_a: np.ndarray, iou_thr: float, b: np.ndarray | None = None,
              group_b: np.ndarray | None = None, limit: int | None = None):
    """(i, j, iou) arrays of the box pairs a[i], b[j] of equal group whose IoU is iou_thr or
    more, or None when more than limit pairs overlap; with b None, a's pairs, each once.

    The pairs of overlap_pairs are scored by pair_iou a chunk at a time. Where the x sweep
    finds more than _Y_COUNT_ABOVE pairs per box, the boxes with their axes swapped (a y
    sweep) are counted too, and the sweep with fewer pairs makes the chunks, so a column
    of boxes costs what a row does. limit compares with the count of the sweep used.
    """
    count, chunks = overlap_pairs(a, group_a, b, group_b)
    if count > _Y_COUNT_ABOVE * (len(a) + (0 if b is None else len(b))):
        y = [None if s is None else s[:, [1, 0, 3, 2]] for s in (a, b)]  # ltrb as tlbr
        count, chunks = min((count, chunks), overlap_pairs(y[0], group_a, y[1], group_b),
                            key=lambda sweep: sweep[0])
    if limit is not None and count > limit:
        return None
    found = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for i, j in chunks:
        ious = pair_iou(a, a if b is None else b, i, j)
        over = ious >= iou_thr
        found.append((i[over], j[over], ious[over]))
    return tuple(np.concatenate(column) for column in zip(*found))


# overlap_pairs gives at most _PAIR_BLOCK pairs at a time (or the pairs of one box),
# so the arrays of a chunk and its IoUs take a few MiB however many boxes overlap
_PAIR_BLOCK = 1 << 15


def overlap_pairs(a: np.ndarray, group_a: np.ndarray, b: np.ndarray | None = None,
                  group_b: np.ndarray | None = None):
    """(count, chunks): how many box pairs a[i], b[j] of equal group have x-extents
    that overlap with positive width (a.left < b.right and b.left < a.right), and an
    iterator of (i, j) index arrays over them, at most _PAIR_BLOCK pairs at a time or
    the pairs of one box.

    Every other pair has IoU 0. With b None, the pairs are those of a with itself,
    i != j, each once in one of its two orders. Boxes need positive width.

    One stable sort and a sweep: every right edge, then every left edge of a, then of
    b, sorted by group and position, so that where positions tie, rights come before
    a's lefts before b's lefts. A box of a pairs with the boxes of b whose left edges
    lie in [its left, its right), and a box of b with the boxes of a whose left edges
    lie in (its left, its right), so a pair with equal left edges is found once.
    """
    sets = [a] if b is None else [a, b]
    groups = [group_a] if b is None else [group_a, group_b]
    n = sum(len(s) for s in sets)
    order = np.lexsort((np.concatenate([s[:, 2] for s in sets] + [s[:, 0] for s in sets]),
                        np.concatenate(groups * 2)))
    # per set: how many of its left edges sort before each edge, and its boxes in
    # left-edge order
    before, by_left, offset = [], [], n
    for s in sets:
        is_left = (order >= offset) & (order < offset + len(s))
        count = np.empty(2 * n, dtype=np.intp)
        count[order] = np.cumsum(is_left) - is_left
        before.append(count)
        by_left.append(order[is_left] - offset)
        offset += len(s)
    if b is None:
        sweeps = [(before[0][n:] + 1, before[0][:n], by_left[0], False)]
    else:
        na = len(a)
        sweeps = [(before[1][n:n + na], before[1][:na], by_left[1], False),
                  (before[0][n + na:], before[0][na:n], by_left[0], True)]
    # each box's partners are partner[start:stop]; a box of no width has none
    sweeps = [(start, np.maximum(stop - start, 0), partner, swap)
              for start, stop, partner, swap in sweeps]
    return sum(int(c.sum()) for _, c, _, _ in sweeps), _chunks(sweeps)


def _chunks(sweeps):
    """Yield the (i, j) pairs of overlap_pairs' sweeps, _PAIR_BLOCK at most or one box's."""
    for start, counts, partner, swap in sweeps:
        ends = np.cumsum(counts)
        bounds = ends.tolist()
        k = 0
        while k < len(bounds):
            base = bounds[k - 1] if k else 0
            k1 = max(bisect.bisect_right(bounds, base + _PAIR_BLOCK), k + 1)
            n = counts[k:k1]
            own = np.repeat(np.arange(k, k1), n)
            other = partner[np.arange(base, bounds[k1 - 1])
                            + np.repeat(start[k:k1] - ends[k:k1] + n, n)]
            if own.size:
                yield (other, own) if swap else (own, other)
            k = k1
