import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskbench.geometry import Annotation, BBox, Detection, FaceLabel, SizeBucket, iou
from maskbench.metrics import (
    BUCKETS,
    EvalConfig,
    average_precision,
    mae,
    mean_ap,
    pearson,
    ratio_correlation,
    ratio_pairs,
)
from maskbench.ratio import Condition, ImageMeta, RatioReport

from maskbench.dataset import DetectionRecord, ImageRecord, SynthParams, synth_scene

from oracles import brute_force_ap, brute_force_matches, envelope_ap


def anno(l, t, r, b, label=FaceLabel.MASKED):
    return Annotation(BBox(l, t, r, b), label)


def det(l, t, r, b, conf, label=FaceLabel.MASKED):
    return Detection(BBox(l, t, r, b), label, conf)


CFG = EvalConfig()


class TestAveragePrecision:
    def test_perfect_single(self):
        gts = {"a": [anno(0, 0, 20, 20)]}
        dets = {"a": [det(0, 0, 20, 20, 0.9)]}
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 1.0

    def test_extra_low_conf_fp_keeps_ap_one(self):
        gts = {"a": [anno(0, 0, 20, 20)]}
        dets = {"a": [det(0, 0, 20, 20, 0.9), det(100, 100, 120, 120, 0.2)]}
        # PR points (recall, precision): (1, 1) then (1, 0.5); envelope area 1
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 1.0

    def test_missed_gt_caps_recall(self):
        gts = {"a": [anno(0, 0, 20, 20), anno(100, 0, 120, 20)]}
        dets = {"a": [det(0, 0, 20, 20, 0.9)]}
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 0.5

    def test_no_gt_in_scope_is_undefined(self):
        gts = {"a": [anno(0, 0, 20, 20, FaceLabel.UNMASKED)]}
        dets = {"a": [det(0, 0, 20, 20, 0.9)]}
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) is None

    def test_no_detections_zero_ap(self):
        gts = {"a": [anno(0, 0, 20, 20)]}
        assert average_precision({"a": []}, gts, FaceLabel.MASKED, None, CFG) == 0.0

    def test_unknown_gt_absorbs_detection(self):
        gts = {"a": [anno(0, 0, 20, 20), anno(100, 0, 130, 30, FaceLabel.UNKNOWN)]}
        dets = {
            "a": [det(0, 0, 20, 20, 0.9), det(100, 0, 130, 30, 0.8)]
        }
        # the unknown-matched detection is discarded, not an FP
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 1.0

    def test_out_of_bucket_detection_discarded(self):
        # an L-bucket face's perfect detection must not pollute the S bucket
        gts = {"a": [anno(0, 0, 12, 12), anno(50, 50, 90, 90)]}
        dets = {"a": [det(0, 0, 12, 12, 0.9), det(50, 50, 90, 90, 0.95)]}
        ap_s = average_precision(dets, gts, FaceLabel.MASKED, SizeBucket.S, CFG)
        assert ap_s == 1.0

    def test_excluded_faces_dropped(self):
        gts = {"a": [anno(0, 0, 6, 6), anno(20, 20, 40, 40)]}
        dets = {"a": [det(0, 0, 6, 6, 0.9), det(20, 20, 40, 40, 0.8)]}
        # the sub-8px face is out of scope for the unstratified run as well
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 1.0

    def test_wrong_class_detection_is_fp(self):
        gts = {"a": [anno(0, 0, 20, 20, FaceLabel.MASKED)]}
        dets = {
            "a": [
                det(0, 0, 20, 20, 0.9, FaceLabel.UNMASKED),
                det(0, 0, 20, 20, 0.8, FaceLabel.MASKED),
            ]
        }
        # the unmasked det is evaluated in the unmasked class where it is FP
        assert average_precision(dets, gts, FaceLabel.MASKED, None, CFG) == 1.0
        assert average_precision(dets, gts, FaceLabel.UNMASKED, None, CFG) is None

    def test_monotone_confidence_transform_invariance(self):
        rng = np.random.default_rng(0)
        gts, dets = _random_instance(rng, n_images=5, max_dets=12)
        base = average_precision(dets, gts, FaceLabel.MASKED, None, CFG)
        squashed = {
            iid: [det(d.box.left, d.box.top, d.box.right, d.box.bottom,
                      d.confidence**3, d.label) for d in ds]
            for iid, ds in dets.items()
        }
        assert average_precision(squashed, gts, FaceLabel.MASKED, None, CFG) == base

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(200):
            gts, dets = _random_instance(rng)
            label = FaceLabel.MASKED if rng.random() < 0.5 else FaceLabel.UNMASKED
            bucket = (None, SizeBucket.S, SizeBucket.M, SizeBucket.L)[rng.integers(0, 4)]
            got = average_precision(dets, gts, label, bucket, CFG)
            want = brute_force_ap(dets, gts, label, bucket, CFG.iou_thr)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)
                checked += 1
        assert checked > 50  # the generator must produce mostly non-degenerate cases


    @pytest.mark.parametrize("seed", range(4))
    def test_equals_brute_force_decisions_exactly_on_synth_scenes(self, seed):
        # unknown faces, sizes across the excluded/S/M/L buckets, jitter,
        # drops, flips and false positives; every cell equal to the last bit
        scene = synth_scene(
            SynthParams(seed=seed, n_images=10, faces_min=5, faces_max=50,
                        unknown_probability=0.15, face_size_min=6.0, face_size_max=60.0,
                        jitter_sigma=2.5, drop_rate=0.1, flip_rate=0.1,
                        false_positive_rate=4.0),
            include_density=False,
        )
        dets = {rec.image_id: list(rec.detections) for rec in scene.detections}
        gts = {rec.image_id: list(rec.annotations) for rec in scene.manifest.images}
        assert any(a.label is FaceLabel.UNKNOWN for annos in gts.values() for a in annos)
        for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
            for bucket in (None, SizeBucket.S, SizeBucket.M, SizeBucket.L):
                matches = brute_force_matches(dets, gts, label, bucket, CFG.iou_thr)
                assert matches is not None
                assert {True, False, None} <= set(matches[0])  # TPs, FPs and ignores occur
                got = average_precision(dets, gts, label, bucket, CFG)
                assert got == envelope_ap(*matches)


def _random_instance(rng, n_images=None, max_dets=20):
    """Random annotations and correlated detections, with ties and ignore cases."""
    n_images = n_images or int(rng.integers(1, 9))
    gts, dets = {}, {}
    for i in range(n_images):
        iid = f"im{i}"
        annos = []
        for _ in range(int(rng.integers(0, 7))):
            l, t = rng.uniform(0, 80, 2)
            w, h = rng.uniform(4, 50, 2)
            label = (FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN)[
                rng.integers(0, 3) if rng.random() < 0.3 else rng.integers(0, 2)
            ]
            annos.append(anno(l, t, l + w, t + h, label))
        gts[iid] = annos
        ds = []
        for _ in range(int(rng.integers(0, max_dets + 1))):
            if annos and rng.random() < 0.7:
                src = annos[rng.integers(0, len(annos))].box
                jitter = rng.normal(0, 3, 4)
                l = src.left + jitter[0]
                t = src.top + jitter[1]
                r = max(src.right + jitter[2], l + 1)
                b = max(src.bottom + jitter[3], t + 1)
            else:
                l, t = rng.uniform(0, 80, 2)
                r, b = l + rng.uniform(4, 40), t + rng.uniform(4, 40)
            conf = float(rng.choice([0.25, 0.5, 0.75]) if rng.random() < 0.3 else rng.uniform(0, 1))
            label = FaceLabel.MASKED if rng.random() < 0.5 else FaceLabel.UNMASKED
            ds.append(det(l, t, r, b, conf, label))
        dets[iid] = ds
    return gts, dets


# box sides on and just past the size-bucket edges, and some in between
SIDES = (7.999, 8.0, 16.0, 16.001, 32.0, 32.001, 10.0, 20.0, 40.0)
LABELS = (FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN)
CONFIDENCES = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so many ties


@st.composite
def scenes(draw):
    """(detections, annotations, iou_thr): object lists per image.

    Images may be empty or have no detection entry at all. Detections copy a
    face's box, shifted a little or not, or lie anywhere. In half the scenes
    with such a copy, the IoU threshold is the exact IoU of one copy with its
    face, so that a match decision falls on the threshold itself.
    """
    coord = st.integers(0, 60).map(float)
    face = st.tuples(coord, coord, st.sampled_from(SIDES), st.sampled_from(SIDES),
                     st.sampled_from(LABELS))
    annotations, detections, pairs = {}, {}, []
    for i in range(draw(st.integers(1, 5))):
        faces = [Annotation(BBox(x, y, x + w, y + h), lab)
                 for x, y, w, h, lab in draw(st.lists(face, max_size=6))]
        annotations[f"im{i}"] = faces
        if draw(st.booleans()) and i:
            continue  # no detection entry for this image
        dets = []
        for _ in range(draw(st.integers(0, 6))):
            label = draw(st.sampled_from(LABELS[:2]))
            conf = draw(st.sampled_from(CONFIDENCES))
            if faces and draw(st.booleans()):
                src = draw(st.sampled_from(faces)).box
                dx, dy = draw(st.sampled_from((0.0, 1.0, 2.5))), draw(st.sampled_from((0.0, 3.0)))
                box = BBox(src.left + dx, src.top + dy, src.right + dx, src.bottom + dy)
                pairs.append((box, src))
            else:
                x, y = draw(coord), draw(coord)
                box = BBox(x, y, x + draw(st.sampled_from(SIDES)), y + draw(st.sampled_from(SIDES)))
            dets.append(Detection(box, label, conf))
        detections[f"im{i}"] = dets
    thr = 0.4
    if pairs and draw(st.booleans()):
        thr = iou(*draw(st.sampled_from(pairs)))
    return detections, annotations, thr


META = ImageMeta("v", Condition.DAYTIME)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenes())
def test_ap_on_records_equals_object_lists_and_brute_force_decisions(scene):
    detections, annotations, thr = scene
    det_records = {i: DetectionRecord(i, META, d) for i, d in detections.items()}
    gt_records = {i: ImageRecord(i, META, 100, 100, a) for i, a in annotations.items()}
    cfg = EvalConfig(iou_thr=thr)
    for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
        for bucket in (None, *BUCKETS):
            got = average_precision(det_records, gt_records, label, bucket, cfg)
            assert got == average_precision(detections, annotations, label, bucket, cfg)
            matches = brute_force_matches(detections, annotations, label, bucket, thr)
            assert got == (None if matches is None else envelope_ap(*matches))


@st.composite
def scenes_with_misses(draw):
    """scenes() plus, per image, rows that reach no in-scope face at the threshold.

    They lie far from every face, copy an unknown face (an ignore region only),
    or copy a face of the other class; the matcher skips such rows.
    """
    detections, annotations, thr = draw(scenes())
    miss = st.tuples(st.sampled_from(("far", "unknown", "other")), st.sampled_from(LABELS[:2]),
                     st.sampled_from(CONFIDENCES))
    for image_id, faces in annotations.items():
        rows = list(detections.get(image_id, ()))
        for kind, label, conf in draw(st.lists(miss, min_size=1, max_size=12)):
            if kind == "unknown":
                pool = [a.box for a in faces if a.label is FaceLabel.UNKNOWN]
            elif kind == "other":
                pool = [a.box for a in faces if a.label not in (label, FaceLabel.UNKNOWN)]
            else:
                pool = []
            box = draw(st.sampled_from(pool)) if pool else BBox(300.0, 300.0, 320.0, 330.0)
            rows.insert(draw(st.integers(0, len(rows))), Detection(box, label, conf))
        detections[image_id] = rows
    return detections, annotations, thr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenes_with_misses())
def test_ap_equals_brute_force_when_many_rows_reach_no_face(scene):
    detections, annotations, thr = scene
    det_records = {i: DetectionRecord(i, META, d) for i, d in detections.items()}
    gt_records = {i: ImageRecord(i, META, 400, 400, a) for i, a in annotations.items()}
    cfg = EvalConfig(iou_thr=thr)
    for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
        for bucket in (None, *BUCKETS):
            got = average_precision(det_records, gt_records, label, bucket, cfg)
            assert got == average_precision(detections, annotations, label, bucket, cfg)
            matches = brute_force_matches(detections, annotations, label, bucket, thr)
            assert got == (None if matches is None else envelope_ap(*matches))
            want = brute_force_ap(detections, annotations, label, bucket, thr)
            assert got == (None if want is None else pytest.approx(want, abs=1e-9))


class TestMeanAp:
    def test_all_ones(self):
        assert mean_ap([1.0, 1.0, 1.0]) == 1.0

    def test_published_row_aggregation(self):
        cells = [0.865, 0.693, 0.282, 0.912, 0.771, 0.317]
        assert mean_ap(cells) * 100 == pytest.approx(64.2, abs=0.5)

    def test_skips_undefined_cells(self):
        assert mean_ap([1.0, None, 0.5]) == 0.75

    def test_all_undefined_errors(self):
        with pytest.raises(ValueError):
            mean_ap([None, None])


class TestMae:
    def test_identity(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert mae([3.0, 5.0], [1.0, 6.0]) == pytest.approx(1.5, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 10, 20), rng.uniform(0, 10, 20)
        assert mae(a, b) == mae(b, a)

    def test_perfect_pair_never_increases(self):
        rng = np.random.default_rng(5)
        a, b = list(rng.uniform(0, 10, 15)), list(rng.uniform(0, 10, 15))
        base = mae(a, b)
        assert mae(a + [3.0], b + [3.0]) <= base

    def test_errors(self):
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])


class TestPearson:
    def test_identity_series(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5.0, 5.0, 5.0]) is None

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(0, 10, 30)
        g = rng.uniform(0, 10, 30)
        base = pearson(c, g)
        assert pearson(2.0 * c + 1.0, g) == pytest.approx(base, abs=1e-12)
        assert pearson(c, 0.5 * g - 3.0) == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])


class TestRatioCorrelation:
    def _reports(self, pairs):
        # pairs of (gt_masked, gt_unmasked, est_masked, est_unmasked)
        gt = {f"i{k}": RatioReport(m, u) for k, (m, u, _, _) in enumerate(pairs)}
        est = {f"i{k}": RatioReport(m, u) for k, (_, _, m, u) in enumerate(pairs)}
        return est, gt

    def test_small_images_excluded(self):
        est, gt = self._reports(
            [
                (3, 1, 0, 4),  # 4 faces: filtered at k=5
                (5, 5, 5, 5),
                (2, 8, 2, 8),
                (9, 1, 9, 1),
            ]
        )
        pairs = ratio_pairs(est, gt, EvalConfig())
        assert [p[0] for p in pairs] == ["i1", "i2", "i3"]

    def test_perfect_estimates(self):
        est, gt = self._reports([(5, 5, 5, 5), (2, 8, 2, 8), (9, 1, 9, 1)])
        assert ratio_correlation(est, gt, EvalConfig()) == pytest.approx(1.0, abs=1e-12)

    def test_undefined_estimate_skipped(self):
        est, gt = self._reports([(5, 5, 0, 0), (2, 8, 2, 8), (9, 1, 9, 1)])
        pairs = ratio_pairs(est, gt, EvalConfig())
        assert [p[0] for p in pairs] == ["i1", "i2"]

    def test_missing_estimate_skipped(self):
        est, gt = self._reports([(5, 5, 5, 5), (2, 8, 2, 8), (9, 1, 9, 1)])
        del est["i0"]
        assert len(ratio_pairs(est, gt, EvalConfig())) == 2

    def test_fewer_than_two_pairs_undefined(self):
        est, gt = self._reports([(5, 5, 5, 5)])
        assert ratio_correlation(est, gt, EvalConfig()) is None

    def test_order_independent(self):
        rng = np.random.default_rng(7)
        pairs = [
            (float(rng.integers(0, 10)), float(rng.integers(1, 10)),
             float(rng.integers(0, 10)), float(rng.integers(1, 10)))
            for _ in range(30)
        ]
        est, gt = self._reports(pairs)
        base = ratio_correlation(est, gt, EvalConfig())
        shuffled_est = dict(sorted(est.items(), key=lambda kv: hash(kv[0])))
        shuffled_gt = dict(sorted(gt.items(), key=lambda kv: hash(kv[0])))
        assert ratio_correlation(shuffled_est, shuffled_gt, EvalConfig()) == base


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.iou_thr == 0.4
        assert cfg.min_faces_per_image == 5
        assert BUCKETS == (SizeBucket.L, SizeBucket.M, SizeBucket.S)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thr=0.0)
        with pytest.raises(ValueError):
            EvalConfig(min_faces_per_image=-1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"min_faces_per_image": 2.5}, "min_faces_per_image must be an integer >= 0, got 2.5"),
        ({"min_faces_per_image": True}, "min_faces_per_image must be an integer >= 0, got True"),
        ({"min_faces_per_image": -1}, "min_faces_per_image must be an integer >= 0, got -1"),
        ({"iou_thr": True}, "iou_thr must be a finite number in (0, 1], got True"),
        ({"iou_thr": 0.0}, "iou_thr must be a finite number in (0, 1], got 0.0"),
        ({"iou_thr": 10**400}, "iou_thr must be a finite number in (0, 1], got "
                               "100000000000000000...0000000000000000000"),
    ], ids=["fractional-min-faces", "bool-min-faces", "negative-min-faces", "bool-iou",
            "zero-iou", "huge-iou"])
    def test_validation_names_the_field_and_its_domain(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            EvalConfig(**kwargs)
        assert str(exc.value) == message


@st.composite
def scenes_with_an_unannotated_image(draw):
    """scenes() plus one image that has detections but no annotation entry.

    Its detections copy faces of the other images, so that a matcher keyed to
    the wrong image would find a face for them.
    """
    detections, annotations, thr = draw(scenes())
    faces = [a.box for annos in annotations.values() for a in annos]
    orphans = []
    for _ in range(draw(st.integers(1, 6))):
        box = draw(st.sampled_from(faces)) if faces else BBox(0.0, 0.0, 20.0, 20.0)
        orphans.append(Detection(box, draw(st.sampled_from(LABELS[:2])),
                                 draw(st.sampled_from(CONFIDENCES))))
    return {**detections, "orphan": orphans}, annotations, thr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenes_with_an_unannotated_image())
def test_detections_of_an_unannotated_image_are_false_positives(scene):
    detections, annotations, thr = scene
    det_records = {i: DetectionRecord(i, META, d) for i, d in detections.items()}
    gt_records = {i: ImageRecord(i, META, 100, 100, a) for i, a in annotations.items()}
    cfg = EvalConfig(iou_thr=thr)
    alone = {"orphan": detections["orphan"]}
    for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
        n_orphans = sum(d.label is label for d in alone["orphan"])
        for bucket in (None, *BUCKETS):
            got = average_precision(det_records, gt_records, label, bucket, cfg)
            assert got == average_precision(detections, annotations, label, bucket, cfg)
            matches = brute_force_matches(detections, annotations, label, bucket, thr)
            assert got == (None if matches is None else envelope_ap(*matches))
            if matches is None:
                continue
            # the same as an empty annotation entry, and no match on their own
            assert got == average_precision(detections, {**annotations, "orphan": []},
                                            label, bucket, cfg)
            assert average_precision(alone, annotations, label, bucket, cfg) == 0.0
            # each of the image's detections of the class adds one false positive
            without = brute_force_matches({i: d for i, d in detections.items() if i != "orphan"},
                                          annotations, label, bucket, thr)
            assert matches[0].count(False) == without[0].count(False) + n_orphans
            assert matches[0].count(True) == without[0].count(True)


@pytest.mark.parametrize("label, bucket, message", [
    (FaceLabel.UNKNOWN, None, "AP is defined for the masked/unmasked classes only"),
    (FaceLabel.MASKED, SizeBucket.EXCLUDED, "the excluded bucket is never evaluated"),
], ids=["unknown-class", "excluded-bucket"])
def test_ap_refuses_a_cell_it_never_scores(label, bucket, message):
    with pytest.raises(ValueError) as exc:
        average_precision({}, {}, label, bucket)
    assert str(exc.value) == message
