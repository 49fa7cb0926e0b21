import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maskbench.geometry import (
    SIZE_BUCKETS,
    Annotation,
    BBox,
    Detection,
    FaceLabel,
    SizeBucket,
    boxes_to_array,
    face_arrays,
    iou,
    iou_matrix,
    size_bucket,
    size_buckets,
)

from oracles import bucket_of, iou_scalar

# box sides on and just past the size-bucket edges
BUCKET_EDGES = (7.999, 8.0, 16.0, 16.001, 32.0, 32.001)


def box_strategy(lo=-100, hi=100):
    coord = st.integers(lo, hi)
    return st.tuples(coord, coord, st.integers(1, 50), st.integers(1, 50)).map(
        lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3])
    )


def float_box_strategy():
    coord = st.floats(-100, 100)
    side = st.floats(0.01, 50)
    return st.tuples(coord, coord, side, side).map(
        lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3])
    )


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(5, 0, 4, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            BBox(0, math.nan, 10, 10)

    def test_derived_quantities(self):
        b = BBox(1, 2, 5, 10)
        assert b.width == 4 and b.height == 8 and b.area == 32
        assert b.center == (3.0, 6.0)


class TestDetection:
    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            Detection(BBox(0, 0, 1, 1), FaceLabel.UNKNOWN, 0.5)

    def test_rejects_bad_confidence(self):
        for conf in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                Detection(BBox(0, 0, 1, 1), FaceLabel.MASKED, conf)


class TestIoU:
    def test_identity(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-15)

    @given(box_strategy(), box_strategy())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(box_strategy(), box_strategy(), st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_translation_invariant(self, a, b, dx, dy):
        # integer lattice keeps the arithmetic exact
        a2 = BBox(a.left + dx, a.top + dy, a.right + dx, a.bottom + dy)
        b2 = BBox(b.left + dx, b.top + dy, b.right + dx, b.bottom + dy)
        assert iou(a, b) == iou(a2, b2)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        boxes = []
        for _ in range(40):
            l, t = rng.uniform(0, 50, 2)
            boxes.append(BBox(l, t, l + rng.uniform(1, 30), t + rng.uniform(1, 30)))
        m = iou_matrix(boxes_to_array(boxes), boxes_to_array(boxes))
        for i in range(len(boxes)):
            for j in range(len(boxes)):
                assert m[i, j] == iou_scalar(boxes[i], boxes[j])

    @given(
        st.one_of(box_strategy(), float_box_strategy()),
        st.one_of(box_strategy(), float_box_strategy()),
    )
    @example(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30))  # disjoint
    @example(BBox(0, 0, 10, 10), BBox(10, 0, 20, 10))  # edges touch
    @example(BBox(0, 0, 10, 10), BBox(10, 10, 20, 20))  # corners touch
    @example(BBox(0.1, 0.2, 0.7, 0.9), BBox(0.7, 0.2, 1.3, 0.9))  # float edges touch
    def test_scalar_equals_oracle(self, a, b):
        # the scalar iou is iou_matrix on one pair: the same float expression
        assert iou(a, b) == iou_scalar(a, b)


class TestSizeBucket:
    @pytest.mark.parametrize(
        "w,h,expected",
        [
            (10, 12, SizeBucket.S),
            (40, 50, SizeBucket.L),
            (7, 100, SizeBucket.EXCLUDED),
            (20, 20, SizeBucket.M),
            (8, 8, SizeBucket.S),  # boundary: 8 belongs to S
            (16, 16, SizeBucket.S),  # boundary: 16 belongs to S
            (32, 32, SizeBucket.M),  # boundary: 32 belongs to M
            (33, 33, SizeBucket.L),
            (10, 40, SizeBucket.M),  # mixed dims with min >= 8
            (100, 7.5, SizeBucket.EXCLUDED),
        ],
    )
    def test_cases(self, w, h, expected):
        assert size_bucket(BBox(0, 0, w, h)) is expected

    @given(st.floats(0.5, 200), st.floats(0.5, 200))
    def test_partition(self, w, h):
        # every valid box lands in exactly one bucket
        assert size_bucket(BBox(0, 0, w, h)) in SizeBucket

    def test_size_buckets_equal_the_scalar_oracle_at_the_edges(self):
        boxes = [BBox(x, y, x + w, y + h) for w in BUCKET_EDGES for h in BUCKET_EDGES
                 for x, y in ((0.0, 0.0), (3.7, 101.3))]
        codes = size_buckets(boxes_to_array(boxes))
        assert codes.dtype == np.int8
        assert [SIZE_BUCKETS[c] for c in codes.tolist()] == [bucket_of(b) for b in boxes]
        assert [size_bucket(b) for b in boxes] == [bucket_of(b) for b in boxes]
        assert size_buckets(boxes_to_array([])).shape == (0,)


class TestFaceArrays:
    def test_value_objects(self):
        dets = [Detection(BBox(1, 2, 3, 4), FaceLabel.UNMASKED, 0.25),
                Detection(BBox(0, 0, 9, 9.5), FaceLabel.MASKED, 1.0)]
        boxes, labels, conf = face_arrays(dets)
        assert boxes.tolist() == [[1, 2, 3, 4], [0, 0, 9, 9.5]]
        assert labels.dtype == np.int8 and labels.tolist() == [1, 0]
        assert conf.dtype == np.float64 and conf.tolist() == [0.25, 1.0]
        boxes, labels, conf = face_arrays(iter([Annotation(BBox(1, 2, 3, 4), FaceLabel.UNKNOWN)]))
        assert boxes.shape == (1, 4) and labels.tolist() == [2] and conf is None

    def test_empty(self):
        boxes, labels, conf = face_arrays([])
        assert boxes.shape == (0, 4) and labels.shape == (0,) and conf.shape == (0,)

    def test_record_arrays_pass_through(self):
        from maskbench.dataset import DetectionRecord, ImageRecord
        from maskbench.ratio import Condition, ImageMeta

        meta = ImageMeta("v", Condition.DAYTIME)
        rec = DetectionRecord("a", meta, [Detection(BBox(1, 2, 3, 4), FaceLabel.MASKED, 0.5)])
        boxes, labels, conf = face_arrays(rec)
        assert boxes is rec.boxes and labels is rec.labels and conf is rec.conf
        rec = ImageRecord("a", meta, 9, 9, [Annotation(BBox(1, 2, 3, 4), FaceLabel.MASKED)])
        boxes, labels, conf = face_arrays(rec)
        assert boxes is rec.boxes and labels is rec.labels and conf is None
