"""Face boxes, labels, and the geometric primitives shared by every pipeline."""

from __future__ import annotations

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
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out
