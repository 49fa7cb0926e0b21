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
_LABEL_CODES = {lab: i for i, lab in enumerate(FACE_LABELS)}


class SizeBucket(Enum):
    """Size stratification of a face box.

    S: both dimensions in [8, 16] px; L: both dimensions > 32 px;
    EXCLUDED: any dimension < 8 px; M: everything else.
    """

    S = "S"
    M = "M"
    L = "L"
    EXCLUDED = "excluded"


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
    w, h = box.width, box.height
    if w < 8.0 or h < 8.0:
        return SizeBucket.EXCLUDED
    if w <= 16.0 and h <= 16.0:
        return SizeBucket.S
    if w > 32.0 and h > 32.0:
        return SizeBucket.L
    return SizeBucket.M


def boxes_to_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) float64 array of (left, top, right, bottom)."""
    data = [(b.left, b.top, b.right, b.bottom) for b in boxes]
    if not data:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray(data, dtype=np.float64)


def labels_to_array(labels: Iterable[FaceLabel]) -> np.ndarray:
    """The (N,) int8 label array of labels (see FACE_LABELS)."""
    return np.fromiter((_LABEL_CODES[lab] for lab in labels), dtype=np.int8)


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
