"""The benchmark's reading of NMS must keep working on every --nms-iou command.

perfbench/worker.py wraps the name cli.nms and reads .label.value of each
detection it returns, to get the per-image kept counts that the det_crowd
check needs; NMS on a record returns a record, which iterates as its
Detections. perfbench/tracer.py counts len() of the first argument of each
call as the boxes in, and len() of the result as the boxes kept. This runs
eval-det, eval-ratio and report-video with --nms-iou under both readers, as a
benchmark round does. The two modules are loaded from their files (they
import only the standard library) and are not changed.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import maskbench.cli as cli
from maskbench.cli import main
from maskbench.dataset import SynthParams, load_detections, synth_scene, write_synth_scene
from maskbench.geometry import FaceLabel
from maskbench.ratio import nms

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_worker, _tracer = _load("worker"), _load("tracer")


@pytest.mark.parametrize("command", ["eval-det", "eval-ratio", "report-video"])
def test_nms_capture_gets_one_sized_call_per_record_in_file_order(tmp_path, monkeypatch,
                                                                   command):
    scene = tmp_path / "scene"
    write_synth_scene(synth_scene(SynthParams(seed=5, n_images=12, faces_min=0, faces_max=12,
                                              image_width=96, image_height=64,
                                              false_positive_rate=1.0)), scene)
    detections = scene / "detections.jsonl"
    records = load_detections(detections)

    calls = []  # (first argument, tracer's (boxes in, kept)) per call
    inner = cli.nms

    def recorded(dets, *args, **kwargs):
        out = inner(dets, *args, **kwargs)
        calls.append((dets, _tracer._nms_counts((dets, *args), out)))
        return out

    monkeypatch.setattr(cli, "nms", recorded)  # undone after the test, with the worker's wrap
    kept = _worker._capture_nms(cli)
    argv = [command, "--annotations", str(scene / "annotations.jsonl"),
            "--detections", str(detections), "--nms-iou", "0.4", "--out", str(tmp_path / "d.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0

    assert [dets.image_id for dets, _ in calls] == [rec.image_id for rec in records]
    assert [n_in for _, (n_in, _) in calls] == [len(rec.labels) for rec in records]
    want = [nms(rec, 0.4) for rec in records]
    assert [n for _, (_, n) in calls] == [len(k) for k in want]
    assert kept == [(sum(d.label is FaceLabel.MASKED for d in k),
                     sum(d.label is FaceLabel.UNMASKED for d in k)) for k in want]
    assert sum(n_in for _, (n_in, _) in calls) > sum(map(len, want))  # NMS dropped some
