import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskbench.anchors import (
    IGNORE,
    NEGATIVE,
    LossBreakdown,
    LossConfig,
    binary_cross_entropy,
    decode_boxes,
    default_scales,
    encode_boxes,
    focal_loss,
    generate_anchors,
    match_anchors,
    multitask_loss,
    smooth_l1,
)
from maskbench.geometry import Annotation, BBox, FaceLabel

from oracles import match_anchors_dense


class TestGenerateAnchors:
    def test_grid_count(self):
        # 32x32 image, level 3 (stride 8): 4x4 grid, 1 scale, 3 ratios
        anchors = generate_anchors(32, 32, levels=[3], scales=[16.0])
        assert len(anchors) == 48

    def test_total_count_formula(self):
        anchors = generate_anchors(100, 60, levels=[3, 4], scales=[16.0, 24.0])
        expected = 0
        for level in (3, 4):
            gw = math.ceil(100 / 2**level)
            gh = math.ceil(60 / 2**level)
            expected += gw * gh * 2 * 3
        assert len(anchors) == expected

    def test_unit_ratio_shape(self):
        anchors = generate_anchors(8, 8, levels=[3], scales=[16.0], ratios=[1.0])
        b = anchors.boxes[0]
        assert b[2] - b[0] == pytest.approx(16.0)
        assert b[3] - b[1] == pytest.approx(16.0)

    def test_ratio_preserves_area(self):
        anchors = generate_anchors(8, 8, levels=[3], scales=[16.0], ratios=[0.5])
        b = anchors.boxes[0]
        w, h = b[2] - b[0], b[3] - b[1]
        assert w == pytest.approx(16 / math.sqrt(2), abs=1e-9)
        assert h == pytest.approx(16 * math.sqrt(2), abs=1e-9)
        assert w * h == pytest.approx(256.0, abs=1e-9)

    def test_centers_on_stride_grid(self):
        anchors = generate_anchors(64, 64, levels=[4], scales=[32.0])
        cx = (anchors.boxes[:, 0] + anchors.boxes[:, 2]) / 2
        offsets = cx / 16.0 - 0.5
        np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-9)

    def test_default_scales(self):
        assert default_scales([3, 4, 5, 6, 7]) == {
            3: (16.0,),
            4: (32.0,),
            5: (64.0,),
            6: (128.0,),
            7: (256.0,),
        }

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_anchors(32, 32, levels=[])
        with pytest.raises(ValueError):
            generate_anchors(32, 32, levels=[3], scales=[])
        with pytest.raises(ValueError):
            generate_anchors(32, 32, levels=[3], scales=[16], ratios=[])

    @pytest.mark.parametrize("kwargs, message", [
        ({"image_w": 0, "image_h": 8}, "image_w must be an integer >= 1, got 0"),
        ({"levels": [-1100], "scales": [8.0]},
         "pyramid level must be an integer in [-1074, 1023], got -1100"),
        ({"levels": [3, 2000], "scales": {3: [8.0], 2000: [8.0]}},
         "pyramid level must be an integer in [-1074, 1023], got 2000"),
        # the default scales are twice the stride, so they name the level too
        ({"levels": [2000]}, "pyramid level must be an integer in [-1074, 1023], got 2000"),
        ({"levels": [-1100]}, "pyramid level must be an integer in [-1074, 1023], got -1100"),
    ], ids=["zero-side", "tiny-stride", "huge-stride", "huge-default-scale", "tiny-default-scale"])
    def test_rejects_a_frame_or_level_with_no_grid(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            generate_anchors(**{"image_w": 8, "image_h": 8, **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [1e400, math.nan], ids=["1e400", "nan"])
    def test_rejects_non_finite_ratios_and_scales(self, bad):
        ratio = re.escape(f"aspect ratio must be a finite number > 0, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{ratio}$"):
            generate_anchors(32, 32, levels=[3], scales=[16], ratios=[0.5, bad])
        scale = re.escape(f"scale for level 3 must be a finite number > 0, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{scale}$"):
            generate_anchors(32, 32, levels=[3], scales=[16, bad])
        with pytest.raises(ValueError, match=f"^{scale}$"):
            generate_anchors(32, 32, levels=[3], scales={3: [bad]})


class TestBoxCoding:
    def test_identity(self):
        a = [(0, 0, 10, 10)]
        assert tuple(encode_boxes(a, a)[0]) == pytest.approx((0, 0, 0, 0), abs=1e-12)

    def test_hand_case(self):
        anchor = [(0, 0, 10, 10)]  # 10x10 at (5, 5)
        gt = [(0, -5, 20, 15)]  # 20x20 at (10, 5)
        t = tuple(encode_boxes(anchor, gt)[0])
        assert t == pytest.approx((0.5, 0.0, math.log(2), math.log(2)), abs=1e-12)

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(0)
        n = 100_000
        al = rng.uniform(-50, 50, n)
        at = rng.uniform(-50, 50, n)
        anchors = np.stack([al, at, al + rng.uniform(1, 40, n), at + rng.uniform(1, 40, n)], axis=1)
        gl = rng.uniform(-50, 50, n)
        gt_ = rng.uniform(-50, 50, n)
        gts = np.stack([gl, gt_, gl + rng.uniform(1, 40, n), gt_ + rng.uniform(1, 40, n)], axis=1)
        back = decode_boxes(anchors, encode_boxes(anchors, gts))
        assert np.abs(back - gts).max() <= 1e-9

    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
        st.floats(0.5, 60),
        st.floats(0.5, 60),
        st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
        st.floats(0.5, 60),
        st.floats(0.5, 60),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, ac, aw, ah, gc, gw, gh):
        anchor = [(ac[0], ac[1], ac[0] + aw, ac[1] + ah)]
        gt = (gc[0], gc[1], gc[0] + gw, gc[1] + gh)
        back = decode_boxes(anchor, encode_boxes(anchor, [gt]))[0]
        for got, want in zip(back, gt):
            assert got == pytest.approx(want, abs=1e-9)

    def test_decode_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decode_boxes([(0, 0, 1, 1)], (0, 0, math.inf, 0))


def _anno(l, t, r, b, label=FaceLabel.MASKED):
    return Annotation(BBox(l, t, r, b), label)


class TestMatchAnchors:
    def test_empty_gts_all_negative(self):
        anchors = generate_anchors(32, 32, levels=[3], scales=[16.0])
        match = match_anchors(anchors, [])
        assert (match.assignment == NEGATIVE).all()
        assert (match.objectness_target == 0).all()

    def test_perfect_anchor_positive(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0], [100.0, 100.0, 116.0, 116.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16, FaceLabel.MASKED)])
        assert match.assignment[0] == 0
        assert match.objectness_target[0] == 1.0
        assert match.class_target[0] == 1.0
        assert match.assignment[1] == NEGATIVE

    def test_unmasked_class_target(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16, FaceLabel.UNMASKED)])
        assert match.assignment[0] == 0 and match.class_target[0] == 0.0

    def test_threshold_band_is_ignore(self):
        # second gt far away becomes the forced match of... itself; anchor 0
        # overlaps gt 0 with IoU 0.4, inside [0.3, 0.5)
        anchor = np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 100.0, 110.0, 110.0]])
        gt = [_anno(0, 0, 10, 4 + 10 / 7)]  # iou vs anchor0 = (10*40/7)/(100+100/7... )
        # choose a clean construction instead: shifted box with known iou
        gt = [_anno(0, 2.5, 10, 12.5), _anno(100, 100, 110, 110)]
        # iou(anchor0, gt0) = 75/125 = 0.6 -> positive; shift further for band
        gt_band = [_anno(0, 4.5, 10, 14.5), _anno(100, 100, 110, 110)]
        # iou = (10*5.5)/(100+100-55) = 55/145 = 0.379 -> band [0.3, 0.5) once
        # the forced rule is taken by anchor 0 unless another anchor is best.
        match = match_anchors(anchor, gt_band, pos_iou=0.5, neg_iou=0.3)
        # anchor 0 is gt 0's best anchor, so the forced rule promotes it
        assert match.assignment[0] == 0
        # remove the forced promotion by adding a better anchor for gt 0
        anchor3 = np.array(
            [[0.0, 0.0, 10.0, 10.0], [0.0, 4.5, 10.0, 14.5], [100.0, 100.0, 110.0, 110.0]]
        )
        match = match_anchors(anchor3, gt_band, pos_iou=0.5, neg_iou=0.3)
        assert match.assignment[1] == 0  # exact overlap, positive
        assert match.assignment[0] == IGNORE  # band without forced promotion
        assert match.assignment[2] == 1

    def test_unknown_gts_are_ignore_regions(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16, FaceLabel.UNKNOWN)])
        assert match.assignment[0] == IGNORE
        assert match.n_positive == 0

    def test_forced_match_low_iou_gt(self):
        # gt overlaps the anchor below pos_iou but is its best anchor
        boxes = np.array([[0.0, 0.0, 20.0, 20.0], [50.0, 50.0, 70.0, 70.0]])
        match = match_anchors(boxes, [_anno(0, 0, 8, 8)], pos_iou=0.5, neg_iou=0.1)
        assert match.assignment[0] == 0

    def test_every_overlapped_gt_gets_a_positive(self):
        rng = np.random.default_rng(12)
        anchors = generate_anchors(64, 64, levels=[3, 4], scales={3: [12.0], 4: [28.0]})
        for _ in range(20):
            gts = []
            for _ in range(rng.integers(1, 8)):
                l = rng.uniform(0, 50)
                t = rng.uniform(0, 50)
                gts.append(_anno(l, t, l + rng.uniform(4, 14), t + rng.uniform(4, 14)))
            match = match_anchors(anchors, gts)
            from maskbench.geometry import boxes_to_array, iou_matrix

            ious = iou_matrix(anchors.boxes, boxes_to_array([g.box for g in gts]))
            for j in range(len(gts)):
                if ious[:, j].max() > 0:
                    assert (match.assignment == j).any()

    def test_pos_below_neg_rejected(self):
        with pytest.raises(ValueError):
            match_anchors(np.array([[0.0, 0.0, 1.0, 1.0]]), [], pos_iou=0.2, neg_iou=0.3)


# ---------------------------------------------------------------------------
# match_anchors reads only the pairs of positive IoU; the dense oracle reads every cell


def assert_matches_the_dense_oracle(anchors, gts, pos_iou, neg_iou):
    with np.errstate(all="ignore"):  # an anchor of no width or height encodes to inf or NaN
        got = match_anchors(anchors, gts, pos_iou=pos_iou, neg_iou=neg_iou)
        want = match_anchors_dense(anchors, gts, pos_iou=pos_iou, neg_iou=neg_iou)
    for field in ("assignment", "objectness_target", "class_target", "box_target"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


_GRID = generate_anchors(64, 48, levels=[3, 4], scales={3: [12.0, 16.0], 4: [24.0]}).boxes
# anchors with no width, a negative width, or neither width nor height
_DEGENERATE = np.array([[8.0, 8.0, 8.0, 24.0], [20.0, 4.0, 12.0, 20.0], [10.0, 10.0, 10.0, 10.0],
                        [0.0, 0.0, 16.0, 16.0], [4.0, 12.0, 20.0, 12.0], [16.0, 16.0, 0.0, 0.0]])
M, U, K = FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN


@pytest.mark.parametrize("anchors, faces, pos_iou, neg_iou", [
    (_GRID, [(0, 0, 16, 16, M), (0, 0, 16, 16, U), (4, 4, 20, 20, M)], 0.5, 0.3),
    (np.concatenate([_GRID, _GRID[::2]]), [(8, 8, 24, 24, M), (30, 6, 42, 30, U)], 0.5, 0.3),
    (_GRID, [(5, 5, 15, 15, M), (6, 5, 16, 15, U), (5, 6, 15, 16, M)], 0.7, 0.3),
    (_GRID, [(0, 0, 16, 16, K), (2, 2, 18, 18, M), (40, 20, 52, 36, K)], 0.5, 0.3),
    (_GRID, [(500, 500, 520, 520, M), (0, 0, 12, 12, U)], 0.5, 0.0),
    (_GRID, [(500, 500, 520, 520, K), (0, 0, 12, 12, U)], 0.5, 0.0),
    (_GRID, [(3, 3, 17, 15, M), (30, 20, 44, 34, U), (31, 21, 45, 35, K)], 0.4, 0.4),
    (_GRID, [(100, 100, 120, 120, M), (-40, -40, -20, -20, U)], 0.5, 0.3),
    (_DEGENERATE, [(8, 8, 24, 24, M), (0, 0, 16, 16, U), (4, 4, 12, 12, K)], 0.5, 0.3),
    (_DEGENERATE, [(100, 100, 120, 120, K)], 0.5, 0.0),
    (np.round(_GRID).astype(np.int64), [(5, 5, 15, 15, M), (20, 8, 36, 30, U)], 0.5, 0.3),
], ids=["tied-ious", "duplicate-anchors", "shared-best-anchor", "unknown-faces",
        "neg-iou-0-known-face-0", "neg-iou-0-unknown-face-0", "pos-equals-neg",
        "off-every-anchor", "degenerate-anchors", "degenerate-neg-iou-0", "integer-anchors"])
def test_match_anchors_equals_the_dense_oracle(anchors, faces, pos_iou, neg_iou):
    gts = [_anno(l, t, r, b, label) for l, t, r, b, label in faces]
    assert_matches_the_dense_oracle(anchors, gts, pos_iou, neg_iou)


@st.composite
def _match_scenes(draw):
    """Anchors on a grid snapped to 4 px (so IoUs tie), repeated, or degenerate; faces
    that repeat, overlap no anchor or are unknown; thresholds from 0 to 1, pos >= neg."""
    kind = draw(st.sampled_from(["grid", "snapped", "degenerate"]))
    if kind == "degenerate":
        corners = st.tuples(*[st.integers(-4, 60)] * 2, *[st.integers(-12, 24)] * 2)
        anchors = np.array([(l, t, l + w, t + h) for l, t, w, h in
                            draw(st.lists(corners, min_size=1, max_size=30))], np.float64)
    else:
        anchors = _GRID if kind == "grid" else np.round(np.concatenate([_GRID, _GRID[::3]]) / 4) * 4
    box = st.tuples(st.integers(-16, 120), st.integers(-16, 90), st.integers(1, 40),
                    st.integers(1, 40), st.sampled_from([M, U, K]))
    faces = draw(st.lists(box, max_size=10))
    faces += draw(st.lists(st.sampled_from(faces), max_size=4)) if faces else []
    neg_iou = draw(st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]))
    pos_iou = draw(st.sampled_from([neg_iou, max(neg_iou, 0.5), 1.0]))
    return anchors, [_anno(l, t, l + w, t + h, lab) for l, t, w, h, lab in faces], pos_iou, neg_iou


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_match_scenes())
def test_match_anchors_equals_the_dense_oracle_on_drawn_scenes(scene):
    assert_matches_the_dense_oracle(*scene)


class TestPointwiseLosses:
    def test_bce_basics(self):
        assert binary_cross_entropy(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)
        assert binary_cross_entropy(1.0, 1.0) == pytest.approx(-math.log(1 - 1e-7), abs=1e-15)

    def test_focal_hand_value(self):
        # p = 0.5, target 1, alpha = 1, gamma = 2: 0.25 * ln 2
        got = focal_loss(0.5, 1.0, alpha=1.0, gamma=2.0)
        assert got == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_focal_reduces_to_half_bce(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.001, 0.999, 200)
        for target in (0.0, 1.0):
            got = focal_loss(p, np.full_like(p, target), alpha=0.5, gamma=0.0)
            want = 0.5 * binary_cross_entropy(p, np.full_like(p, target))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_focal_confident_correct_vanishes(self):
        assert focal_loss(1.0 - 1e-9, 1.0) < 1e-6

    def test_smooth_l1(self):
        assert smooth_l1(0.5) == 0.125
        assert smooth_l1(-0.5) == 0.125
        assert smooth_l1(2.0) == 1.5
        assert smooth_l1(1.0) == 0.5  # boundary uses the linear branch


class TestMultitaskLoss:
    def _perfect_setup(self):
        anchors = generate_anchors(32, 32, levels=[3], scales=[16.0])
        gts = [_anno(8, 8, 24, 24, FaceLabel.MASKED)]
        match = match_anchors(anchors, gts)
        p_obj = match.objectness_target.copy()
        p_cls = match.class_target.copy()
        t = match.box_target.copy()
        return anchors, match, p_obj, p_cls, t

    def test_perfect_predictions_near_zero(self):
        _, match, p_obj, p_cls, t = self._perfect_setup()
        out = multitask_loss(p_obj, p_cls, t, match)
        bound = len(match) * binary_cross_entropy(1.0 - 1e-7, 1.0)
        assert out.total <= bound + 1e-12
        assert out.box == 0.0

    def test_all_negative_objectness(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]] * 5) + np.arange(5)[:, None] * 100
        match = match_anchors(boxes, [])
        out = multitask_loss(
            np.full(5, 0.5), np.full(5, 0.5), np.zeros((5, 4)), match
        )
        assert out.objectness == pytest.approx(5 * math.log(2), abs=1e-9)
        assert out.classification == 0.0 and out.box == 0.0
        assert out.total == out.objectness

    def test_single_positive_box_loss(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16)])
        t = match.box_target.copy()
        t[0, 0] += 0.5
        out = multitask_loss(np.ones(1), np.ones(1), t, match)
        assert out.box == pytest.approx(0.125, abs=1e-12)

    def test_gating_ignores_negative_and_ignore_anchors(self):
        anchors = np.array(
            [[0.0, 0.0, 16.0, 16.0], [40.0, 40.0, 56.0, 56.0], [200.0, 0.0, 216.0, 16.0]]
        )
        gts = [
            _anno(0, 0, 16, 16, FaceLabel.MASKED),
            _anno(40, 40, 56, 56, FaceLabel.UNKNOWN),
        ]
        match = match_anchors(anchors, gts)
        assert match.assignment[1] == IGNORE and match.assignment[2] == NEGATIVE
        t_base = match.box_target.copy()
        base = multitask_loss(
            np.array([1.0, 0.3, 0.0]), np.array([1.0, 0.2, 0.9]), t_base, match
        )
        # perturb predictions at the ignore anchor and the negative anchor's
        # class/box channels: only objectness at the negative anchor may move
        t_moved = t_base.copy()
        t_moved[1:] += 5.0
        moved = multitask_loss(
            np.array([1.0, 0.9, 0.0]), np.array([1.0, 0.7, 0.1]), t_moved, match
        )
        assert moved.classification == base.classification
        assert moved.objectness == base.objectness
        assert moved.box == base.box == 0.0

    def test_negative_anchor_class_prediction_only_hits_objectness(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0], [200.0, 0.0, 216.0, 16.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16)])
        a = multitask_loss(np.array([1.0, 0.2]), np.array([1.0, 0.1]), np.zeros((2, 4)), match)
        b = multitask_loss(np.array([1.0, 0.2]), np.array([1.0, 0.8]), np.zeros((2, 4)), match)
        assert a.classification == b.classification
        assert a.objectness == b.objectness

    def test_additive_over_disjoint_subsets(self):
        rng = np.random.default_rng(3)
        boxes = np.concatenate(
            [
                np.array([[0.0, 0.0, 16.0, 16.0]]) + i * 50.0 for i in range(6)
            ]
        )
        gts = [_anno(i * 50.0, i * 50.0, i * 50.0 + 16, i * 50.0 + 16) for i in range(3)]
        match = match_anchors(boxes, gts)
        p_obj = rng.uniform(0.1, 0.9, 6)
        p_cls = rng.uniform(0.1, 0.9, 6)
        t = rng.normal(0, 1, (6, 4))
        whole = multitask_loss(p_obj, p_cls, t, match)
        first = match_anchors(boxes[:3], gts)
        second = match_anchors(boxes[3:], gts)
        a = multitask_loss(p_obj[:3], p_cls[:3], t[:3], first)
        b = multitask_loss(p_obj[3:], p_cls[3:], t[3:], second)
        assert whole.total == pytest.approx(a.total + b.total, abs=1e-9)

    def test_normalization_flag(self):
        boxes = np.array([[0.0, 0.0, 16.0, 16.0], [100.0, 0.0, 116.0, 16.0]])
        match = match_anchors(boxes, [_anno(0, 0, 16, 16), _anno(100, 0, 116, 16)])
        raw = multitask_loss(np.full(2, 0.7), np.full(2, 0.7), np.ones((2, 4)), match)
        norm = multitask_loss(
            np.full(2, 0.7), np.full(2, 0.7), np.ones((2, 4)), match,
            LossConfig(normalize_by_positives=True),
        )
        assert norm.total == pytest.approx(raw.total / 2, abs=1e-12)

    def test_length_mismatch(self):
        match = match_anchors(np.array([[0.0, 0.0, 1.0, 1.0]]), [])
        with pytest.raises(ValueError):
            multitask_loss(np.ones(2), np.ones(1), np.zeros((1, 4)), match)

    def test_breakdown_total(self):
        b = LossBreakdown(1.0, 2.0, 3.5)
        assert b.total == 6.5


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": -0.25}, "alpha must be a finite number in [0, 1], got -0.25"),
    ({"alpha": 1e300}, "alpha must be a finite number in [0, 1], got 1e+300"),
    ({"alpha": math.nan}, "alpha must be a finite number in [0, 1], got nan"),
    ({"alpha": True}, "alpha must be a finite number in [0, 1], got True"),
    ({"gamma": -2000}, "gamma must be a finite number >= 0, got -2000"),
    ({"gamma": math.inf}, "gamma must be a finite number >= 0, got inf"),
], ids=["negative-alpha", "huge-alpha", "nan-alpha", "bool-alpha", "negative-gamma", "inf-gamma"])
def test_focal_loss_config_refuses_a_weight_outside_its_domain(kwargs, message):
    # -2000 gave an inf loss, and alpha 1e300 a loss of 1.7e+299
    with pytest.raises(ValueError) as exc:
        LossConfig(**kwargs)
    assert str(exc.value) == message


def test_focal_loss_config_takes_each_end_of_its_domain():
    for alpha, gamma in ((0, 0), (1, 0.0), (0.0, 1e300), (-0.0, 5e-324)):
        assert LossConfig(alpha, gamma) == LossConfig(alpha=alpha, gamma=gamma)


@pytest.mark.parametrize("kwargs, message", [
    ({"pos_iou": 7}, "pos_iou must be a finite number in [0.3, 1], got 7"),
    ({"pos_iou": 0.2}, "pos_iou must be a finite number in [0.3, 1], got 0.2"),
    ({"neg_iou": -0.1}, "neg_iou must be a finite number in [0, 1], got -0.1"),
    ({"neg_iou": math.nan}, "neg_iou must be a finite number in [0, 1], got nan"),
    ({"pos_iou": True}, "pos_iou must be a finite number in [0.3, 1], got True"),
], ids=["pos-above-1", "pos-below-neg", "negative-neg", "nan-neg", "bool-pos"])
def test_matching_refuses_a_threshold_outside_its_domain(kwargs, message):
    with pytest.raises(ValueError) as exc:
        match_anchors(np.array([[0.0, 0.0, 1.0, 1.0]]), [], **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("side", [16.5, True, 2**31 + 0.0, "16"])
def test_anchor_frame_sides_are_integers(side):
    with pytest.raises(ValueError) as exc:
        generate_anchors(side, 16, levels=[3], scales=[8.0])
    assert str(exc.value) == f"image_w must be an integer >= 1, got {side!r}"


@pytest.mark.parametrize("w, h, level", [(16, 16, -40), (16, 16, -1074)])
def test_a_level_grid_above_the_bound_is_refused_before_anything_is_allocated(w, h, level):
    # -40 asked for 2**44 cells a side and -1074 overflowed ceil; a grid below the bound that
    # does not fit in memory is left to test_errors, which runs it under a bounded address space
    with pytest.raises(ValueError) as exc:
        generate_anchors(w, h, levels=[level], scales=[8.0])
    assert str(exc.value) == f"pyramid level {level} of a {w} x {h} frame needs a grid of more than 2**53 cells"
