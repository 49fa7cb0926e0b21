import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskbench.dataset import DetectionRecord
from maskbench.geometry import Annotation, BBox, Detection, FaceLabel
from maskbench.ratio import (
    Condition,
    CovidPeriod,
    ImageMeta,
    RatioReport,
    aggregate_by_video,
    annotation_ratio,
    density_ratio,
    detection_ratio,
    group_by_condition,
    nms,
)

from oracles import iou_scalar, nms_scalar


def det(l, t, r, b, label=FaceLabel.MASKED, conf=0.9):
    return Detection(BBox(l, t, r, b), label, conf)


class TestRatioReport:
    def test_ratio_and_total(self):
        r = RatioReport(5.0, 15.0)
        assert r.total == 20.0
        assert r.ratio == 0.25
        assert r.unmasked_ratio == 0.75

    def test_undefined_when_empty(self):
        r = RatioReport(0.0, 0.0)
        assert r.ratio is None and r.unmasked_ratio is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RatioReport(-1.0, 0.0)

    def test_complement(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = RatioReport(rng.uniform(0, 10), rng.uniform(0.1, 10))
            assert r.ratio + r.unmasked_ratio == pytest.approx(1.0, abs=1e-12)


class TestImageMeta:
    def test_requires_video_id(self):
        with pytest.raises(ValueError):
            ImageMeta("", Condition.DAYTIME)

    def test_period_optional(self):
        meta = ImageMeta("v1", Condition.NIGHTTIME)
        assert meta.covid_period is None


class TestNms:
    def test_single_detection_kept(self):
        d = det(0, 0, 10, 10)
        assert nms([d]) == [d]

    def test_suppresses_lower_confidence(self):
        hi = det(0, 0, 10, 10, conf=0.9)
        lo = det(0, 2, 10, 12, conf=0.6)  # IoU = 8/12 = 0.667
        assert nms([lo, hi], iou_thr=0.5) == [hi]

    def test_classwise_keeps_other_class(self):
        a = det(0, 0, 10, 10, FaceLabel.MASKED, 0.9)
        b = det(0, 0, 10, 10, FaceLabel.UNMASKED, 0.8)
        assert nms([a, b], iou_thr=0.5) == [a, b]

    def test_tie_prefers_earlier_input(self):
        a = det(0, 0, 10, 10, conf=0.7)
        b = det(0, 1, 10, 11, conf=0.7)
        assert nms([a, b], iou_thr=0.5) == [a]
        assert nms([b, a], iou_thr=0.5) == [b]

    def test_output_subset_and_separation(self):
        rng = np.random.default_rng(1)
        dets = []
        for _ in range(60):
            l, t = rng.uniform(0, 40, 2)
            dets.append(
                det(
                    l, t, l + rng.uniform(4, 20), t + rng.uniform(4, 20),
                    FaceLabel.MASKED if rng.random() < 0.5 else FaceLabel.UNMASKED,
                    float(rng.uniform(0, 1)),
                )
            )
        kept = nms(dets, iou_thr=0.4)
        assert all(k in dets for k in kept)
        from maskbench.geometry import iou

        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.label is b.label:
                    assert iou(a.box, b.box) < 0.4

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        dets = []
        for _ in range(40):
            l, t = rng.uniform(0, 30, 2)
            dets.append(det(l, t, l + 10, t + 10, conf=float(rng.uniform(0, 1))))
        last = 0
        for thr in (0.2, 0.4, 0.6, 0.8, 1.0):
            n = len(nms(dets, iou_thr=thr))
            assert n >= last
            last = n

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([], iou_thr=0.0)
        with pytest.raises(ValueError):
            nms([], iou_thr=1.5)


def _clustered(rng, n_faces, per_face=5, labels=(FaceLabel.MASKED, FaceLabel.UNMASKED),
               tie_prob=0.0):
    """Raw detector output: a cluster of candidates on each of n_faces faces.

    Coordinates are integers so that exact IoU values (and so IoU == thr)
    occur; tie_prob draws that share of confidences from three fixed values.
    """
    dets = []
    for _ in range(n_faces):
        l, t = (int(v) for v in rng.integers(0, 400, 2))
        w, h = (int(v) for v in rng.integers(6, 40, 2))
        for _ in range(int(rng.integers(1, per_face + 1))):
            dl, dt, dr, db = (int(v) for v in rng.integers(-3, 4, 4))
            r, b = max(l + w + dr, l + dl + 1), max(t + h + db, t + dt + 1)
            conf = (float(rng.choice([0.3, 0.6, 0.9])) if rng.random() < tie_prob
                    else float(rng.uniform(0, 1)))
            label = labels[int(rng.integers(0, len(labels)))]
            dets.append(det(l + dl, t + dt, r, b, label, conf))
    rng.shuffle(dets)
    return dets


def _assert_same_detections(got, want):
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


class TestNmsMatchesScalarOracle:
    """nms keeps exactly the scalar loop's detections, as the same objects in the same order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_clustered_detections(self, seed):
        rng = np.random.default_rng(seed)
        # up to ~500 candidates: several blocks per class
        dets = _clustered(rng, n_faces=int(rng.integers(1, 160)))
        for thr in (0.3, 0.4, 0.5, 0.7, 1.0):
            _assert_same_detections(nms(dets, thr), nms_scalar(dets, thr))

    def test_tied_confidences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dets = _clustered(rng, n_faces=40, tie_prob=1.0)
            assert len({d.confidence for d in dets}) <= 3
            _assert_same_detections(nms(dets, 0.4), nms_scalar(dets, 0.4))

    def test_iou_exactly_at_threshold_suppresses(self):
        hi = det(0, 0, 10, 10, conf=0.9)
        lo = det(0, 0, 10, 5, conf=0.8)  # IoU = 50 / 100 = 0.5 exactly
        assert nms([lo, hi], iou_thr=0.5) == nms_scalar([lo, hi], 0.5) == [hi]
        # the same pair split by 100 disjoint boxes of middle confidence
        fillers = [det(20 * i, 50, 20 * i + 10, 60, conf=0.85) for i in range(100)]
        assert nms([lo, *fillers, hi], iou_thr=0.5) == [*fillers, hi]
        rng = np.random.default_rng(12)
        for _ in range(10):
            dets = _clustered(rng, n_faces=30, tie_prob=0.3)
            # thresholds that equal the IoU of some same-class pair
            pairs = [(a, b) for a in dets[:20] for b in dets[:20]
                     if a is not b and a.label is b.label]
            thrs = {iou_scalar(a.box, b.box) for a, b in pairs} - {0.0}
            for thr in sorted(thrs)[:8]:
                _assert_same_detections(nms(dets, thr), nms_scalar(dets, thr))

    def test_single_class_images(self):
        rng = np.random.default_rng(13)
        for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
            dets = _clustered(rng, n_faces=60, labels=(label,), tie_prob=0.2)
            _assert_same_detections(nms(dets, 0.4), nms_scalar(dets, 0.4))

    def test_empty_image(self):
        assert nms([], 0.4) == nms_scalar([], 0.4) == []


META = ImageMeta("v", Condition.DAYTIME)
LABEL_SETS = ((FaceLabel.MASKED,), (FaceLabel.UNMASKED,), (FaceLabel.MASKED, FaceLabel.UNMASKED))


def _nms_record(rec, thr):
    """nms(rec, thr), checked to be a record of rec's image_id and meta."""
    kept = nms(rec, thr)
    assert isinstance(kept, DetectionRecord)
    assert (kept.image_id, kept.meta) == (rec.image_id, rec.meta)
    return kept


def test_nms_on_records_over_several_blocks():
    # a record holds the same rows as its objects; nms keeps them as a record
    rng = np.random.default_rng(14)
    for _ in range(4):
        dets = _clustered(rng, n_faces=150, tie_prob=0.3)
        rec = DetectionRecord("im", META, dets)
        for thr in (0.3, 0.5):
            assert list(_nms_record(rec, thr)) == nms_scalar(dets, thr)


@st.composite
def nms_scenes(draw):
    """(detections, iou_thr): clusters of candidates on integer coordinates.

    Confidences take three values, so ties are common; a scene may hold one
    class only, or nothing. In half the scenes with a same-class pair of
    nonzero IoU, the threshold is that pair's exact IoU.
    """
    labels = draw(st.sampled_from(LABEL_SETS))
    coord, side, shift = st.integers(0, 200), st.integers(6, 40), st.integers(-3, 3)
    copy = st.tuples(shift, shift, shift, shift, st.sampled_from((0.3, 0.6, 0.9)),
                     st.sampled_from(labels))
    dets = []
    for l, t, w, h in draw(st.lists(st.tuples(coord, coord, side, side), max_size=25)):
        for dl, dt, dr, db, conf, label in draw(st.lists(copy, min_size=1, max_size=6)):
            dets.append(det(l + dl, t + dt, max(l + w + dr, l + dl + 1),
                            max(t + h + db, t + dt + 1), label, conf))
    thrs = {iou_scalar(a.box, b.box) for a in dets[:20] for b in dets[:20]
            if a is not b and a.label is b.label} - {0.0}
    if thrs and draw(st.booleans()):
        return dets, draw(st.sampled_from(sorted(thrs)))
    return dets, draw(st.sampled_from((0.3, 0.4, 0.5, 1.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nms_scenes())
def test_nms_on_a_record_equals_object_lists_and_the_scalar_oracle(scene):
    dets, thr = scene
    rec = DetectionRecord("im", META, dets)
    want = nms_scalar(dets, thr)
    _assert_same_detections(nms(dets, thr), want)
    assert len(rec) == len(dets)
    assert list(_nms_record(rec, thr)) == nms(list(rec.detections), thr) == want


class TestDetectionRatio:
    def test_basic_counts(self):
        dets = [det(0, 0, 10, 10, FaceLabel.MASKED, 0.9)] * 5
        dets += [det(0, 0, 10, 10, FaceLabel.UNMASKED, 0.8)] * 15
        r = detection_ratio(dets, 0.5)
        assert (r.masked_count, r.unmasked_count) == (5.0, 15.0)
        assert r.ratio == 0.25

    def test_all_below_threshold(self):
        dets = [det(0, 0, 10, 10, conf=0.4)] * 3
        r = detection_ratio(dets, 0.5)
        assert r.total == 0.0 and r.ratio is None

    def test_threshold_inclusive(self):
        r = detection_ratio([det(0, 0, 10, 10, conf=0.5)], 0.5)
        assert r.masked_count == 1.0

    def test_dense_scene_ratio(self):
        dets = [det(0, 0, 10, 10, FaceLabel.MASKED, 1.0)] * 70
        dets += [det(0, 0, 10, 10, FaceLabel.UNMASKED, 1.0)] * 5
        assert detection_ratio(dets).ratio == pytest.approx(70 / 75, abs=1e-12)

    def test_order_and_subthreshold_invariance(self):
        rng = np.random.default_rng(3)
        dets = [
            det(0, 0, 10, 10, FaceLabel.MASKED if rng.random() < 0.5 else FaceLabel.UNMASKED,
                float(rng.uniform(0, 1)))
            for _ in range(30)
        ]
        base = detection_ratio(dets)
        shuffled = list(dets)
        rng.shuffle(shuffled)
        extra = shuffled + [det(0, 0, 10, 10, conf=0.49)] * 7
        again = detection_ratio(extra)
        assert (base.masked_count, base.unmasked_count) == (
            again.masked_count,
            again.unmasked_count,
        )


class TestAnnotationRatio:
    def test_unknown_never_counts(self):
        annos = [
            Annotation(BBox(0, 0, 10, 10), FaceLabel.MASKED),
            Annotation(BBox(0, 0, 10, 10), FaceLabel.UNKNOWN),
            Annotation(BBox(0, 0, 10, 10), FaceLabel.UNMASKED),
        ]
        r = annotation_ratio(annos)
        assert r.total == 2.0 and r.ratio == 0.5


class TestDensityRatio:
    def test_basic(self):
        r = density_ratio(20.0, 15.0)
        assert r.masked_count == 5.0 and r.ratio == 0.25

    def test_clamps_excess_unmasked(self):
        r = density_ratio(10.0, 12.0)
        assert r.masked_count == 0.0 and r.ratio == 0.0

    def test_clamps_negative_unmasked(self):
        r = density_ratio(10.0, -2.0)
        assert r.unmasked_count == 0.0 and r.ratio == 1.0

    def test_zero_total_undefined(self):
        assert density_ratio(0.0, 0.0).ratio is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            density_ratio(-1.0, 0.0)
        with pytest.raises(ValueError):
            density_ratio(math.nan, 0.0)


def meta(video, cond=Condition.DAYTIME):
    return ImageMeta(video, cond, CovidPeriod.DURING)


class TestAggregateByVideo:
    def test_mean(self):
        rows = [(meta("v1"), RatioReport(2, 8)), (meta("v1"), RatioReport(4, 6))]
        (agg,) = aggregate_by_video(rows)
        assert agg.video_id == "v1"
        assert agg.n_images == 2
        assert agg.mean_ratio == pytest.approx(0.3, abs=1e-15)

    def test_all_undefined_video(self):
        rows = [(meta("v1"), RatioReport(0, 0)), (meta("v1"), RatioReport(0, 0))]
        (agg,) = aggregate_by_video(rows)
        assert agg.mean_ratio is None and agg.n_defined == 0

    def test_grouping_and_sorting(self):
        rows = [
            (meta("vb"), RatioReport(1, 1)),
            (meta("va"), RatioReport(1, 3)),
            (meta("vb"), RatioReport(3, 1)),
        ]
        aggs = aggregate_by_video(rows)
        assert [a.video_id for a in aggs] == ["va", "vb"]
        assert aggs[0].mean_ratio == 0.25
        assert aggs[1].mean_ratio == 0.625

    def test_identical_ratios_exact(self):
        # 0.1 is not exactly representable; the mean must still return it bit-for-bit
        rows = [(meta("v"), RatioReport(1, 9))] * 3
        (agg,) = aggregate_by_video(rows)
        assert agg.mean_ratio == RatioReport(1, 9).ratio

    def test_undefined_excluded_not_zeroed(self):
        rows = [(meta("v"), RatioReport(1, 1)), (meta("v"), RatioReport(0, 0))]
        (agg,) = aggregate_by_video(rows)
        assert agg.mean_ratio == 0.5  # the undefined image does not drag it to 0.25
        assert agg.n_images == 2 and agg.n_defined == 1


class TestGroupByCondition:
    def test_partition_sizes(self):
        rows = [
            (ImageMeta("v", Condition.DAYTIME), 1),
            (ImageMeta("v", Condition.NIGHTTIME), 2),
            (ImageMeta("v", Condition.DAYTIME), 3),
        ]
        groups = group_by_condition(rows)
        assert len(groups[Condition.DAYTIME]) + len(groups[Condition.NIGHTTIME]) == 3

    def test_all_daytime(self):
        rows = [(ImageMeta("v", Condition.DAYTIME), i) for i in range(4)]
        groups = group_by_condition(rows)
        assert groups[Condition.NIGHTTIME] == []

    def test_stable_order(self):
        rows = [(ImageMeta("v", Condition.DAYTIME), i) for i in range(5)]
        groups = group_by_condition(rows)
        assert [item for _, item in groups[Condition.DAYTIME]] == [0, 1, 2, 3, 4]
