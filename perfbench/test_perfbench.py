"""Tests of the benchmark itself, at a tiny size.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload's checks must pass on the program as it is, and each check must
fail on a report corrupted in the way it exists to catch.
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
FRAMES = 3


def _round(tmp_path_factory, workload: str, trace: bool):
    tmp = tmp_path_factory.mktemp(workload)
    truth = inputs.generate(workload, tmp / "in", 5, FRAMES)
    out = tmp / "out"
    out.mkdir()
    result = run.run_round(ROOT, tmp, run.command_lines(workload, tmp / "in", out), trace)
    return workload, truth, out, result


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """rounds(workload, trace) -> (workload, truth, out, result), one round per key."""
    cache = {}

    def get(workload: str, trace: bool = False):
        if (workload, trace) not in cache:
            cache[workload, trace] = _round(tmp_path_factory, workload, trace)
        return cache[workload, trace]

    return get


def _checkers(workload):
    return [check for _, check in run.WORKLOADS[workload][1]]


def _assert_checks_pass(workload, truth, out, result):
    assert [c["code"] for c in result["commands"]] == [0] * len(_checkers(workload))
    for cmd, check in zip(result["commands"], _checkers(workload)):
        assert check(truth, out, cmd) == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_check_passes_on_the_program(rounds, workload):
    _assert_checks_pass(*rounds(workload))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_round_passes_and_reports_every_per_layer_metric(rounds, workload):
    _assert_checks_pass(*rounds(workload, trace=True))
    _, _, _, result = rounds(workload, trace=True)
    assert result["unmeasured"] == []
    assert set(result["trace"]) == set(tracer.metric_units())
    # every command loads the annotations once
    assert result["trace"]["dataset.images_loaded"] == FRAMES * len(result["commands"])


def test_crowd_trace_counts_match_the_truth_record(rounds):
    _, truth, _, result = rounds("det_crowd", trace=True)
    t = result["trace"]
    images = truth["images"]
    kept = sum(len(im["kept"]) for im in images)
    assert t["ratio.nms_kept"] == 2 * kept  # eval-det and eval-ratio
    assert t["metrics.ap_cells"] == 6
    assert t["geometry.iou_calls"] > 0 and t["geometry.iou_matrix_calls"] > 0
    tiny = sum(1 for im in images for f in im["faces"]
               if min(f["box"][2] - f["box"][0], f["box"][3] - f["box"][1]) < 10.0)
    assert t["dataset.small_face_warnings"] == 2 * tiny


def test_density_trace_counts_match_the_truth_record(rounds):
    _, truth, _, result = rounds("density_route", trace=True)
    t = result["trace"]
    images = truth["images"]
    faces = sum(im["gt"][0] + 2 * im["gt"][1] for im in images)  # total + unmasked maps
    assert t["density.faces_rendered"] == faces
    map_bytes = 16 + 4 * int(np.prod(inputs.map_shape()))
    assert t["density.nfmd_bytes_written"] == 2 * FRAMES * map_bytes
    assert t["density.nfmd_bytes_read"] == 2 * 2 * FRAMES * map_bytes


def _rewrite_table(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report["report"]["rows"])
    path.write_text(json.dumps(report))


def _corrupted(done, tmp_path, name, edit):
    """A copy of a round's output directory, with one report edited when name is given."""
    workload, truth, out, result = done
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    if name is not None:
        _rewrite_table(bad / name, edit)
    return truth, bad, result


def test_changed_ap_cell_fails(rounds, tmp_path):
    done = rounds("det_crowd")

    def edit(rows):
        rows[1][2] += 1e-9

    truth, bad, result = _corrupted(done, tmp_path, "eval_det.json", edit)
    assert checks.check_eval_det(truth, bad, result["commands"][0])


def test_extra_kept_detection_fails(rounds, tmp_path):
    done = rounds("det_crowd")
    cmd = copy.deepcopy(done[3]["commands"][0])
    cmd["nms_kept"][0][1] += 1
    assert checks.check_eval_det(done[1], done[2], cmd)


def test_changed_crowd_ratio_row_fails(rounds, tmp_path):
    done = rounds("det_crowd")

    def edit(rows):
        rows[0][2] += 1e-9  # masked-count MAE

    truth, bad, result = _corrupted(done, tmp_path, "eval_ratio.json", edit)
    assert checks.check_crowd_ratio(truth, bad, result["commands"][1])


def test_dropped_scatter_row_fails(rounds, tmp_path):
    done = rounds("det_ratio")
    truth, bad, result = _corrupted(done, tmp_path, None, None)
    lines = (bad / "scatter.csv").read_text().splitlines(keepends=True)
    (bad / "scatter.csv").write_text("".join(lines[:-1]))
    assert checks.check_sparse_ratio(truth, bad, result["commands"][0])


def test_changed_video_mean_fails(rounds, tmp_path):
    done = rounds("det_ratio")

    def edit(rows):
        row = next(r for r in rows if r[2] is not None)
        row[2] += 1e-9  # a video's mean gt ratio

    truth, bad, result = _corrupted(done, tmp_path, "report_video.json", edit)
    assert checks.check_report_video(truth, bad, result["commands"][1])


def test_dropped_condition_row_fails(rounds, tmp_path):
    done = rounds("det_ratio")
    truth, bad, result = _corrupted(done, tmp_path, "eval_ratio.json", lambda rows: rows.pop())
    assert checks.check_sparse_ratio(truth, bad, result["commands"][0])


def _rewrite_map(path: Path, edit_header=None, edit_values=None) -> None:
    data = bytearray(path.read_bytes())
    header = list(np.frombuffer(bytes(data[4:16]), dtype="<u4"))
    values = np.frombuffer(bytes(data[16:]), dtype="<f4").copy()
    if edit_header:
        header = edit_header(header)
    if edit_values:
        values = edit_values(values)
    path.write_bytes(b"NFMD" + np.asarray(header, dtype="<u4").tobytes() + values.astype("<f4").tobytes())


def test_map_missing_one_face_fails(rounds, tmp_path):
    done = rounds("density_route")
    truth, bad, result = _corrupted(done, tmp_path, None, None)
    im = truth["images"][0]
    count = im["gt"][0] + im["gt"][1]
    _rewrite_map(bad / "gt_maps" / f"{im['image_id']}.total.nfmd",
                 edit_values=lambda v: v * ((count - 1) / count))
    assert checks.check_gen_density(truth, bad, result["commands"][0])


def test_map_with_wrong_header_fails(rounds, tmp_path):
    done = rounds("density_route")
    truth, bad, result = _corrupted(done, tmp_path, None, None)
    im = truth["images"][-1]
    _rewrite_map(bad / "gt_maps" / f"{im['image_id']}.unmasked.nfmd",
                 edit_header=lambda h: [h[0], h[1], 4])
    assert checks.check_gen_density(truth, bad, result["commands"][0])


def test_changed_count_row_fails(rounds, tmp_path):
    done = rounds("density_route")

    def edit(rows):
        rows[2][3] = None  # total gamma

    truth, bad, result = _corrupted(done, tmp_path, "eval_count.json", edit)
    assert checks.check_eval_count(truth, bad, result["commands"][1])


def test_changed_density_ratio_row_fails(rounds, tmp_path):
    done = rounds("density_route")

    def edit(rows):
        rows[3][1] += 1  # ratio n_images

    truth, bad, result = _corrupted(done, tmp_path, "eval_ratio.json", edit)
    assert checks.check_density_ratio(truth, bad, result["commands"][2])


def test_all_point_ap_hand_case():
    # recall .25 .25 .5, precision 1 .5 2/3, envelope 1 2/3 2/3
    assert checks.all_point_ap([True, False, True], 4) == pytest.approx(0.25 + 0.25 * 2 / 3, abs=1e-15)
    assert checks.all_point_ap([], 3) == 0.0


def test_crowd_clusters_keep_their_margins(tmp_path):
    truth = inputs.generate("det_crowd", tmp_path, 9, 2)
    dets = [json.loads(line) for line in (tmp_path / "detections.jsonl").read_text().splitlines()]
    for im, rec in zip(truth["images"], dets):
        boxes = np.array([d["box"] for d in rec["detections"]])
        kept = np.array([rec["detections"][k["pos"]]["box"] for k in im["kept"]])
        iou = inputs.iou_matrix(kept, kept)
        np.fill_diagonal(iou, 0.0)
        assert iou.max() < 0.3
        # every dropped candidate overlaps some kept box of its class at >= 0.5
        kept_pos = {k["pos"] for k in im["kept"]}
        for pos, d in enumerate(rec["detections"]):
            if pos in kept_pos:
                continue
            same = [k for k in im["kept"] if k["label"] == d["label"]]
            ious = inputs.iou_matrix(boxes[[pos]], boxes[[k["pos"] for k in same]])
            assert ious.max() >= 0.5


def test_inputs_repeat_for_a_seed(tmp_path):
    for workload in run.WORKLOADS:
        a = inputs.generate(workload, tmp_path / "a" / workload, 4, 2)
        b = inputs.generate(workload, tmp_path / "b" / workload, 4, 2)
        assert a == b
        for f in (tmp_path / "a" / workload).rglob("*"):
            if f.is_file():
                assert f.read_bytes() == (tmp_path / "b" / workload / f.relative_to(tmp_path / "a" / workload)).read_bytes()


def test_tracer_restores_the_names():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        names = list(tracer.TIMED) + list(tracer.COUNTED) + [("maskbench.dataset", "warnings")]
        before = {k: getattr(importlib.import_module(k[0]), k[1]) for k in names}
        t = tracer.Tracer()
        t.install()
        assert all(getattr(importlib.import_module(m), n) is not before[(m, n)] for m, n in names)
        t.restore()
        assert all(getattr(importlib.import_module(m), n) is before[(m, n)] for m, n in names)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_exits_nonzero_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "det_crowd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
