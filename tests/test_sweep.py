"""IoU only where boxes overlap: geometry.overlap_pairs and pair_iou, and the NMS and AP
built on them, against brute force, the dense-matrix forms and the scalar oracles."""

import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maskbench.geometry as geometry
import maskbench.ratio as ratio
from maskbench.dataset import DetectionRecord, ImageRecord
from maskbench.geometry import (
    Annotation,
    BBox,
    Detection,
    FaceLabel,
    boxes_to_array,
    iou,
    iou_matrix,
    overlap_pairs,
    pair_iou,
)
from maskbench.metrics import BUCKETS, EvalConfig, average_precision
from maskbench.ratio import Condition, ImageMeta, nms

from oracles import (
    average_precision_per_image,
    brute_force_ap,
    brute_force_matches,
    envelope_ap,
    iou_scalar,
    nms_dense_blocks,
    nms_scalar,
)

META = ImageMeta("v", Condition.DAYTIME)
THRESHOLDS = (0.3, 0.4, 0.7, 1.0)
CONFIDENCES = (0.2, 0.5, 0.5, 0.9)  # repeated values, so many ties
KINDS = ("pile", "chain", "equal-left", "touching", "nested", "scatter", "huge")


@contextmanager
def constants():
    yield


@contextmanager
def small_blocks():
    """NMS blocks of 4 boxes, cut at 6 pairs, and chunks of 3 pairs: every path runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratio, "_NMS_BLOCK", 4)
        mp.setattr(ratio, "_NMS_PAIRS", 6)
        mp.setattr(geometry, "_PAIR_BLOCK", 3)
        yield


SIZES = [constants, small_blocks]


@st.composite
def boxes_of(draw, kind: str, n: int) -> list[BBox]:
    """n boxes laid out as kind: identical piles, chains each overlapping the next, equal
    left edges, edges that only touch, nested boxes, a scatter, or x near 1e300."""
    ints = st.integers(0, 40).map(float)
    side = st.integers(1, 12).map(float)
    out = []
    for k in range(n):
        if kind == "pile":
            x, y = draw(st.sampled_from((0.0, 0.0, 1.0))), draw(st.sampled_from((0.0, 2.0)))
            out.append(BBox(x, y, x + 10.0, y + 10.0))
        elif kind == "chain":
            x = 3.0 * k
            out.append(BBox(x, 0.0, x + 10.0, 10.0 + draw(st.sampled_from((0.0, 1.0)))))
        elif kind == "equal-left":
            y = draw(ints)
            out.append(BBox(5.0, y, 5.0 + draw(side), y + draw(side)))
        elif kind == "touching":
            x, y = 8.0 * draw(st.integers(0, 4)), 8.0 * draw(st.integers(0, 2))
            out.append(BBox(x, y, x + 8.0, y + 8.0))
        elif kind == "nested":
            d = float(draw(st.integers(0, 9)))
            out.append(BBox(d, d, 20.0 - d, 20.0 - d + draw(st.sampled_from((0.0, 0.5)))))
        elif kind == "scatter":
            x, y = draw(ints), draw(ints)
            out.append(BBox(x, y, x + draw(side), y + draw(side)))
        else:  # far right, with areas that stay finite
            x = 1e300 + 1e299 * draw(st.integers(0, 5))
            y = float(draw(st.integers(0, 5)))
            out.append(BBox(x, y, x + 1e299 * draw(st.integers(1, 3)), y + draw(side)))
    return out


def _threshold(draw, boxes) -> float:
    """A listed threshold, or now and then one pair's exact IoU, so a decision falls on it."""
    exact = sorted({iou_scalar(a, b) for a in boxes[:12] for b in boxes[:12] if a is not b}
                   - {0.0})
    if exact and draw(st.booleans()):
        return draw(st.sampled_from(exact))
    return draw(st.sampled_from(THRESHOLDS))


@st.composite
def nms_scenes(draw):
    kind = draw(st.sampled_from(KINDS))
    boxes = draw(boxes_of(kind, draw(st.integers(0, 30))))
    labels = st.sampled_from((FaceLabel.MASKED, FaceLabel.UNMASKED))
    dets = [Detection(b, draw(labels), draw(st.sampled_from(CONFIDENCES))) for b in boxes]
    return dets, _threshold(draw, boxes)


def _pairs(chunks) -> list[tuple[int, int]]:
    return [(i, j) for a, b in chunks for i, j in zip(a.tolist(), b.tolist())]


class TestOverlapPairs:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS), st.sampled_from(KINDS), st.data())
    def test_two_sets_give_every_overlapping_pair_of_a_group_once(self, kind_a, kind_b, data):
        a = boxes_to_array(data.draw(boxes_of(kind_a, data.draw(st.integers(0, 15)))))
        b = boxes_to_array(data.draw(boxes_of(kind_b, data.draw(st.integers(0, 15)))))
        ga = np.array(data.draw(st.lists(st.integers(-1, 2), min_size=len(a), max_size=len(a))))
        gb = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(b), max_size=len(b))))
        want = {(i, j) for i in range(len(a)) for j in range(len(b))
                if ga[i] == gb[j] and a[i, 0] < b[j, 2] and b[j, 0] < a[i, 2]}
        for size in SIZES:
            with size():
                count, chunks = overlap_pairs(a, ga, b, gb)
                got = _pairs(chunks)
            assert len(got) == count == len(set(got))
            assert set(got) == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS), st.data())
    def test_one_set_gives_each_pair_once_in_one_order(self, kind, data):
        a = boxes_to_array(data.draw(boxes_of(kind, data.draw(st.integers(0, 20)))))
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a))))
        want = {(i, j) for i in range(len(a)) for j in range(i + 1, len(a))
                if g[i] == g[j] and a[i, 0] < a[j, 2] and a[j, 0] < a[i, 2]}
        count, chunks = overlap_pairs(a, g)
        got = [(min(p), max(p)) for p in _pairs(chunks)]
        assert len(got) == count == len(set(got))
        assert set(got) == want

    def test_touching_and_equal_left_edges(self):
        a = np.array([[0.0, 0, 10, 10], [10, 0, 20, 10], [0, 0, 5, 10], [0, 20, 10, 30]])
        count, chunks = overlap_pairs(a, np.zeros(4, np.int8))
        # 0-1 only touch; 0, 2 and 3 share a left edge, and 3 lies below them
        assert sorted(tuple(sorted(p)) for p in _pairs(chunks)) == [(0, 2), (0, 3), (2, 3)]
        assert count == 3

    def test_chunks_hold_at_most_the_block_or_one_box(self, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 5)
        a = np.tile([0.0, 0.0, 10.0, 10.0], (9, 1))  # box k has 8 - k later partners
        count, chunks = overlap_pairs(a, np.zeros(9, np.int8))
        chunks = [i for i, _ in chunks]
        assert count == sum(map(len, chunks)) == 36
        assert all(len(i) <= 5 or len(set(i.tolist())) == 1 for i in chunks)
        assert max(map(len, chunks)) == 8

    def test_no_boxes(self):
        empty = np.zeros((0, 4))
        count, chunks = overlap_pairs(empty, np.zeros(0, np.int8), empty, np.zeros(0, np.int8))
        assert (count, list(chunks)) == (0, [])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.data())
def test_pair_iou_is_the_iou_matrix_cell_and_the_scalar_iou(kind, data):
    boxes = data.draw(boxes_of(kind, data.draw(st.integers(1, 12))))
    a = boxes_to_array(boxes)
    i, j = np.divmod(np.arange(len(a) ** 2), len(a))
    got = pair_iou(a, a, i, j)
    assert np.array_equal(got, iou_matrix(a, a).ravel())
    assert got.tolist() == [iou(boxes[p], boxes[q]) for p, q in zip(i, j)]
    assert got.tolist() == [iou_scalar(boxes[p], boxes[q]) for p, q in zip(i, j)]


@pytest.mark.parametrize("size", SIZES, ids=["constants", "small-blocks"])
@settings(max_examples=250, deadline=None, derandomize=True)
@given(scene=nms_scenes())
def test_nms_keeps_what_the_dense_blocks_and_the_scalar_loop_keep(size, scene):
    dets, thr = scene
    want = nms_scalar(dets, thr)
    with size():
        got = nms(dets, thr)
        kept = nms(DetectionRecord("im", META, dets), thr)
    assert [id(d) for d in got] == [id(d) for d in want]
    assert [id(d) for d in nms_dense_blocks(dets, thr)] == [id(d) for d in want]
    assert list(kept) == want


@pytest.mark.parametrize("n", [2000, 600])
def test_nms_on_piles_chains_and_scatters_equals_the_dense_blocks(n):
    rng = np.random.default_rng(n)
    meta, x = META, 3.0 * np.arange(n)
    left, top = rng.uniform(0, 1260, n), rng.uniform(0, 700, n)
    side = rng.uniform(6, 30, n)
    scenes = {
        "pile": np.tile([10.0, 10.0, 30.0, 30.0], (n, 1)),
        "chain": np.stack([x, np.zeros(n), x + 10.0, np.full(n, 10.0)], 1),
        "scatter": np.stack([left, top, left + side, top + side], 1),
    }
    for boxes in scenes.values():
        labels = rng.integers(0, 2, n).astype(np.int8)
        rec = DetectionRecord("im", meta, boxes=boxes, labels=labels,
                              conf=rng.choice(CONFIDENCES, n))
        for thr in THRESHOLDS:
            got, want = nms(rec, thr), nms_dense_blocks(rec, thr)
            assert np.array_equal(got.boxes, want.boxes)
            assert np.array_equal(got.conf, want.conf)


def test_nms_on_a_pile_of_20000_runs_in_bounded_memory():
    # a dense matrix of the pile would take 3 GiB; the run gets a 1-GiB address space
    code = ("import numpy as np\n"
            "from maskbench.dataset import DetectionRecord\n"
            "from maskbench.ratio import Condition, ImageMeta, nms\n"
            "n = 20000\n"
            "rec = DetectionRecord('im', ImageMeta('v', Condition.DAYTIME),\n"
            "    boxes=np.tile([1.0, 1.0, 9.0, 9.0], (n, 1)), labels=np.arange(n) % 2,\n"
            "    conf=np.linspace(1.0, 0.0, n))\n"
            "kept = nms(rec, 0.4)\n"
            "print(len(kept), kept.conf.tolist())\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(ratio.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, preexec_fn=limit, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"2 {[1.0, float(np.linspace(1.0, 0.0, 20000)[1])]}\n"


@st.composite
def ap_scenes(draw):
    """(detections, annotations, iou_thr) object lists per image, some with no annotation
    entry and some with no detection entry; detections copy faces, several at a time, so
    that detections of an image compete for a face."""
    labels = st.sampled_from((FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN))
    det_labels = st.sampled_from((FaceLabel.MASKED, FaceLabel.UNMASKED))
    annotations, detections, boxes = {}, {}, []
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(KINDS))
        faces = [Annotation(b, draw(labels))
                 for b in draw(boxes_of(kind, draw(st.integers(0, 8))))]
        if draw(st.integers(0, 4)):
            annotations[f"im{k}"] = faces
        if draw(st.integers(0, 4)) == 0:
            continue  # no detection entry
        dets = [Detection(b, draw(det_labels), draw(st.sampled_from(CONFIDENCES)))
                for b in draw(boxes_of(kind, draw(st.integers(0, 6))))]
        for face in faces:
            for _ in range(draw(st.integers(0, 2))):
                dx = draw(st.sampled_from((0.0, 0.0, 1.0, 2.5)))
                b = face.box
                dets.append(Detection(BBox(b.left + dx, b.top, b.right + dx, b.bottom),
                                      draw(det_labels), draw(st.sampled_from(CONFIDENCES))))
        detections[f"im{k}"] = dets
        boxes += [f.box for f in faces] + [d.box for d in dets]
    if not annotations:
        annotations["empty"] = []
    return detections, annotations, _threshold(draw, boxes)


@pytest.mark.parametrize("size", SIZES, ids=["constants", "small-blocks"])
@settings(max_examples=250, deadline=None, derandomize=True)
@given(scene=ap_scenes())
def test_ap_equals_the_per_image_form_and_the_brute_force_decisions(size, scene):
    detections, annotations, thr = scene
    det_records = {i: DetectionRecord(i, META, d) for i, d in detections.items()}
    gt_records = {i: ImageRecord(i, META, 10**9, 10**9, a) for i, a in annotations.items()}
    cfg = EvalConfig(iou_thr=thr)
    for label in (FaceLabel.MASKED, FaceLabel.UNMASKED):
        for bucket in (None, *BUCKETS):
            with size():
                got = average_precision(det_records, gt_records, label, bucket, cfg)
                objects = average_precision(detections, annotations, label, bucket, cfg)
            assert got == objects
            assert got == average_precision_per_image(det_records, gt_records, label, bucket, cfg)
            matches = brute_force_matches(detections, annotations, label, bucket, thr)
            assert got == (None if matches is None else envelope_ap(*matches))
            want = brute_force_ap(detections, annotations, label, bucket, thr)
            assert got == (None if want is None else pytest.approx(want, abs=1e-9))


def test_ap_matches_competing_detections_greedily():
    # two detections want face 0; the stronger takes it, the weaker takes face 1
    faces = {"a": [Annotation(BBox(0, 0, 10, 10), FaceLabel.MASKED),
                   Annotation(BBox(2, 0, 12, 10), FaceLabel.MASKED)]}
    dets = {"a": [Detection(BBox(1, 0, 11, 10), FaceLabel.MASKED, 0.5),
                  Detection(BBox(0, 0, 10, 10), FaceLabel.MASKED, 0.9)],
            "no-faces": [Detection(BBox(0, 0, 10, 10), FaceLabel.MASKED, 0.7)]}
    for thr in THRESHOLDS:
        cfg = EvalConfig(iou_thr=thr)
        got = average_precision(dets, faces, FaceLabel.MASKED, None, cfg)
        assert got == average_precision_per_image(dets, faces, FaceLabel.MASKED, None, cfg)
        assert got == envelope_ap(*brute_force_matches(dets, faces, FaceLabel.MASKED, None, thr))
