import csv
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import maskbench.cli as cli
from maskbench.cli import main
from maskbench.dataset import DetectionRecord, load_annotations, load_detections, write_detections
from maskbench.density import DensityMap, KernelSpec, write_density
from maskbench.geometry import BBox, Detection, FaceLabel
from maskbench.metrics import EvalConfig, ratio_correlation, ratio_pairs
from maskbench.ratio import Condition, annotation_ratio, detection_ratio

from oracles import brute_force_matches, envelope_ap, nms_scalar
from test_byte_corpus import _tool as _corpus_tool


def run(args, capsys=None):
    code = main(args)
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


def synth_args(out, seed=21, images=8, extra=()):
    return [
        "synth", "--seed", str(seed), "--out", str(out), "--images", str(images),
        "--faces-min", "5", "--faces-max", "14", "--width", "64", "--height", "64",
        "--density-downscale", "8", *extra,
    ]


@pytest.fixture
def scene_dir(tmp_path):
    assert main(synth_args(tmp_path / "scene")) == 0
    return tmp_path / "scene"


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower() or True

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["synth", "--seed", "1", "--out", "x", "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(
            ["stats", "--train", str(tmp_path / "nope.jsonl"), "--test", str(tmp_path / "nope.jsonl")]
        ) == 2

    def test_malformed_jsonl_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert main(["stats", "--train", str(bad), "--test", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_help_exits_zero_everywhere(self, capsys):
        for cmd in (
            "synth", "stats", "gen-density", "eval-det", "eval-count",
            "eval-ratio", "report-video", "gradcheck", "loss-eval",
        ):
            assert main([cmd, "--help"]) == 0
            out = capsys.readouterr().out
            assert "default" in out

    def test_help_shows_reference_defaults(self, capsys):
        main(["eval-ratio", "--help"])
        out = capsys.readouterr().out
        assert "0.5" in out and "5" in out
        main(["eval-det", "--help"])
        assert "0.4" in capsys.readouterr().out
        main(["gen-density", "--help"])
        out = capsys.readouterr().out
        assert "0.3" in out and "8" in out

    @pytest.mark.parametrize(
        "header, face",
        [
            ({"condition": ["DT"]}, {"box": [5, 5, 25, 25], "label": "masked"}),
            ({}, {"box": [5, 5, 25, 25], "label": {"masked": True}}),
            ({"width": True}, {"box": [0, 0, 1, 1], "label": "masked"}),
            ({}, {"box": [10**400, 5, 25, 25], "label": "masked"}),
        ],
        ids=["list-condition", "dict-label", "bool-width", "401-digit-coordinate"],
    )
    def test_mistyped_annotation_field_is_data_error(self, tmp_path, capsys, header, face):
        rec = {"image_id": "a", "video_id": "v", "condition": "DT", "period": "during",
               "width": 64, "height": 64, "faces": [face]}
        rec.update(header)
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert main(["stats", "--train", str(path), "--test", str(path)]) == 2
        assert "a.jsonl:1" in capsys.readouterr().err


class TestSynthCli:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        assert len(files_a) == 2 + 2 * 8  # jsonl pair plus two maps per image
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_no_density_flag(self, tmp_path):
        assert main(synth_args(tmp_path / "c", extra=["--no-density"])) == 0
        assert not (tmp_path / "c" / "density").exists()
        # the same scene as a run that writes the maps
        assert main(synth_args(tmp_path / "d")) == 0
        for name in ("annotations.jsonl", "detections.jsonl"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()

    def test_infeasible_params_data_error(self, tmp_path):
        assert main(
            ["synth", "--seed", "1", "--out", str(tmp_path / "x"),
             "--faces-min", "9", "--faces-max", "3"]
        ) == 2


class TestEvalCli:
    def test_zero_noise_detection_pipeline(self, scene_dir, tmp_path, capsys):
        code, _ = run(
            ["eval-det", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(scene_dir / "detections.jsonl"),
             "--format", "json", "--out", str(tmp_path / "det.json")],
        )
        assert code == 0
        report = json.loads((tmp_path / "det.json").read_text())["report"]
        row_map = {(r[0], r[1]): r[2] for r in report["rows"]}
        assert row_map[("mAP", "")] == 1.0

        code = main(
            ["eval-ratio", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(scene_dir / "detections.jsonl"),
             "--format", "json", "--out", str(tmp_path / "ratio.json"),
             "--scatter", str(tmp_path / "scatter.csv")],
        )
        assert code == 0
        rows = {r[0]: r for r in json.loads((tmp_path / "ratio.json").read_text())["report"]["rows"]}
        assert rows["masked"][2] == 0.0
        assert rows["unmasked"][2] == 0.0
        assert rows["total"][2] == 0.0
        assert abs(rows["ratio"][3] - 1.0) <= 1e-9
        scatter = (tmp_path / "scatter.csv").read_text().strip().split("\n")
        assert scatter[0] == "image_id,gt_ratio,est_ratio"
        for line in scatter[1:]:
            _, gt_r, est_r = line.split(",")
            assert gt_r == est_r

    def test_density_pipeline_matches_gen_density(self, scene_dir, tmp_path):
        out = tmp_path / "gtmaps"
        assert main(
            ["gen-density", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--out", str(out), "--downscale", "8"]
        ) == 0
        # synthetic predictions at zero noise are exactly these ground-truth maps
        for p in sorted(out.glob("*.nfmd")):
            assert (scene_dir / "density" / p.name).read_bytes() == p.read_bytes()
        code = main(
            ["eval-count", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--density-dir", str(out), "--format", "json",
             "--out", str(tmp_path / "count.json")]
        )
        assert code == 0
        rows = {r[0]: r for r in json.loads((tmp_path / "count.json").read_text())["report"]["rows"]}
        for quantity in ("masked", "unmasked", "total"):
            assert rows[quantity][2] <= 1e-3  # f32 storage noise only

    @pytest.mark.parametrize("downscale", ["0", "-3"])
    def test_gen_density_bad_downscale_is_data_error(self, downscale, tmp_path, capsys):
        # checked before the annotations are read: this file does not exist
        out = tmp_path / "gtmaps"
        assert main(
            ["gen-density", "--annotations", str(tmp_path / "missing.jsonl"),
             "--out", str(out), "--downscale", downscale]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: downscale must be an integer in [1, 2**32), got {downscale}\n")
        assert not out.exists()

    def test_synth_bad_density_downscale_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(synth_args(out, extra=["--density-downscale", "0"])) == 2
        assert "downscale" in capsys.readouterr().err
        assert not list(out.rglob("*.nfmd"))

    @pytest.mark.parametrize("subsets", [",", " , ,", ""])
    def test_gen_density_without_subsets_is_data_error(self, subsets, scene_dir, tmp_path, capsys):
        out = tmp_path / "gtmaps"
        assert main(
            ["gen-density", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--out", str(out), "--subsets", subsets]
        ) == 2
        assert "subset" in capsys.readouterr().err
        assert not list(out.glob("*.nfmd"))

    @pytest.mark.parametrize("subsets, name", [("total,bogus", "bogus"), ("unknown", "unknown"),
                                               ("Masked,total", "Masked")])
    def test_gen_density_unknown_subset_is_data_error_before_any_input_is_read(
            self, subsets, name, tmp_path, capsys):
        out = tmp_path / "gtmaps"
        assert main(["gen-density", "--annotations", str(tmp_path / "missing.jsonl"),
                     "--out", str(out), "--subsets", subsets]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown density subset {name!r}, expected one of ('total', 'masked', 'unmasked')\n"
        )
        assert not out.exists()

    def test_eval_ratio_density_path(self, scene_dir, tmp_path):
        code = main(
            ["eval-ratio", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--density-dir", str(scene_dir / "density"), "--format", "json",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        rows = {r[0]: r for r in json.loads((tmp_path / "r.json").read_text())["report"]["rows"]}
        assert rows["ratio"][3] == pytest.approx(1.0, abs=1e-6)

    def test_missing_density_file_is_data_error(self, scene_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["eval-count", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--density-dir", str(empty)]
        ) == 2
        assert "missing density" in capsys.readouterr().err

    def test_map_that_does_not_fit_its_image_is_data_error(self, scene_dir, tmp_path, capsys):
        # the 64x64 images take 8x8 maps at downscale 8, or 4x4 at downscale 16
        maps = tmp_path / "maps"
        shutil.copytree(scene_dir / "density", maps)
        write_density(DensityMap(np.ones((4, 4)), 16), maps / "img00001.total.nfmd")
        annotations = str(scene_dir / "annotations.jsonl")
        assert main(["eval-count", "--annotations", annotations, "--density-dir", str(maps),
                     "--out", str(tmp_path / "c.csv")]) == 0
        write_density(DensityMap(np.ones((3, 3)), 8), maps / "img00000.total.nfmd")
        for command in ("eval-count", "eval-ratio", "report-video"):
            assert main([command, "--annotations", annotations, "--density-dir", str(maps)]) == 2
            assert "img00000.total.nfmd" in capsys.readouterr().err

    def test_by_condition_rows(self, scene_dir, tmp_path):
        code = main(
            ["eval-ratio", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(scene_dir / "detections.jsonl"),
             "--by-condition", "--format", "json", "--out", str(tmp_path / "bc.json")]
        )
        assert code == 0
        rows = [r[0] for r in json.loads((tmp_path / "bc.json").read_text())["report"]["rows"]]
        assert "ratio_DT" in rows and "ratio_NT" in rows

    @pytest.mark.parametrize("images", [12, 3], ids=["both-conditions", "one-nt-image"])
    def test_by_condition_rows_equal_per_condition_oracle(self, tmp_path, images):
        # videos alternate DT/NT; with 3 images NT has one pair and no gamma
        scene = tmp_path / "s"
        extra = ("--videos", "2", "--flip-rate", "0.3", "--drop-rate", "0.2")
        assert main(synth_args(scene, seed=5, images=images, extra=extra)) == 0
        out = tmp_path / "bc.json"
        assert main(
            ["eval-ratio", "--annotations", str(scene / "annotations.jsonl"),
             "--detections", str(scene / "detections.jsonl"),
             "--by-condition", "--format", "json", "--out", str(out)]
        ) == 0
        rows = {r[0]: tuple(r) for r in json.loads(out.read_text())["report"]["rows"]}
        manifest = load_annotations(scene / "annotations.jsonl")
        dets = {rec.image_id: rec.detections for rec in load_detections(scene / "detections.jsonl")}
        for condition in Condition:
            recs = [r for r in manifest.images if r.meta.condition is condition]
            est = {r.image_id: detection_ratio(dets[r.image_id], 0.5) for r in recs}
            gt = {r.image_id: annotation_ratio(r.annotations) for r in recs}
            n = len(ratio_pairs(est, gt, EvalConfig()))
            gamma = ratio_correlation(est, gt, EvalConfig())
            assert rows[f"ratio_{condition.value}"] == (f"ratio_{condition.value}", n, None, gamma)
        if images == 3:
            assert rows["ratio_NT"] == ("ratio_NT", 1, None, None)

    @pytest.mark.parametrize("field", ["video_id", "condition"])
    def test_detection_metadata_must_match_annotations(self, scene_dir, tmp_path, capsys, field):
        lines = (scene_dir / "detections.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        before = rec[field]
        rec[field] = {"video_id": "video99", "condition": "NT" if before == "DT" else "DT"}[field]
        det_path = tmp_path / "d.jsonl"
        det_path.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        annotations = str(scene_dir / "annotations.jsonl")
        for command in ("report-video", "eval-ratio", "eval-det"):
            assert main([command, "--annotations", annotations, "--detections", str(det_path)]) == 2
            err = capsys.readouterr().err
            assert repr(rec["image_id"]) in err
            assert repr(before) in err and repr(rec[field]) in err

    def test_out_of_range_confidence_is_data_error(self, scene_dir, tmp_path, capsys):
        annotations = scene_dir / "annotations.jsonl"
        head = json.loads(annotations.read_text().splitlines()[0])
        det = {"box": [1, 1, 20, 20], "label": "masked", "conf": 10**400}
        det_path = tmp_path / "huge.jsonl"
        det_path.write_text(json.dumps({**head, "detections": [det]}) + "\n")
        assert main(
            ["eval-ratio", "--annotations", str(annotations), "--detections", str(det_path)]
        ) == 2
        assert "huge.jsonl:1: detection 0" in capsys.readouterr().err

    def test_unknown_image_in_detections_rejected(self, scene_dir, tmp_path, capsys):
        det_path = tmp_path / "alien.jsonl"
        det_path.write_text(
            json.dumps({"image_id": "ghost", "video_id": "v", "condition": "DT",
                        "detections": []}) + "\n"
        )
        assert main(
            ["eval-det", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(det_path)]
        ) == 2

    def test_nms_flag_accepted(self, scene_dir, tmp_path):
        assert main(
            ["eval-det", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(scene_dir / "detections.jsonl"),
             "--nms-iou", "0.4", "--out", str(tmp_path / "n.csv")]
        ) == 0

    def test_convention_flag(self, scene_dir, tmp_path):
        for conv in ("masked", "unmasked"):
            assert main(
                ["report-video", "--annotations", str(scene_dir / "annotations.jsonl"),
                 "--detections", str(scene_dir / "detections.jsonl"),
                 "--convention", conv, "--out", str(tmp_path / f"{conv}.csv")]
            ) == 0
        masked = (tmp_path / "masked.csv").read_text().strip().split("\n")
        unmasked = (tmp_path / "unmasked.csv").read_text().strip().split("\n")
        assert masked[0] == "video_id,n_images,gt_ratio,est_ratio"
        for m_line, u_line in zip(masked[1:], unmasked[1:]):
            m_gt = float(m_line.split(",")[2])
            u_gt = float(u_line.split(",")[2])
            assert m_gt + u_gt == pytest.approx(1.0, abs=1e-9)

    def test_report_video_matches_gt_at_zero_noise(self, scene_dir, tmp_path):
        assert main(
            ["report-video", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--detections", str(scene_dir / "detections.jsonl"),
             "--out", str(tmp_path / "v.csv")]
        ) == 0
        for line in (tmp_path / "v.csv").read_text().strip().split("\n")[1:]:
            _, _, gt_r, est_r = line.split(",")
            assert gt_r == est_r

    def test_report_video_nms_iou_counts_only_kept_detections(self, scene_dir, tmp_path):
        # duplicate every masked detection one pixel off at lower confidence:
        # without NMS the masked counts, and so the video means, are inflated
        records = []
        for rec in load_detections(scene_dir / "detections.jsonl"):
            dups = [Detection(BBox(d.box.left + 1, d.box.top, d.box.right + 1, d.box.bottom),
                              d.label, d.confidence * 0.9)
                    for d in rec.detections if d.label is FaceLabel.MASKED]
            records.append(DetectionRecord(rec.image_id, rec.meta, rec.detections + tuple(dups)))
        raw = tmp_path / "raw.jsonl"
        write_detections(records, raw)

        means = {}
        for rec in records:
            kept = [d for d in nms_scalar(list(rec.detections), 0.4) if d.confidence >= 0.5]
            masked = sum(1 for d in kept if d.label is FaceLabel.MASKED)
            if kept:
                means.setdefault(rec.meta.video_id, []).append(masked / len(kept))
        want = {v: math.fsum(r) / len(r) for v, r in means.items()}

        def est_ratios(*extra):
            out = tmp_path / "v.json"
            assert main(["report-video", "--annotations", str(scene_dir / "annotations.jsonl"),
                         "--detections", str(raw), "--format", "json", "--out", str(out),
                         *extra]) == 0
            return {row[0]: row[3] for row in json.loads(out.read_text())["report"]["rows"]}

        got = est_ratios("--nms-iou", "0.4")
        assert got.keys() == want.keys()
        for video_id, mean in want.items():
            assert got[video_id] == pytest.approx(mean, abs=1e-12)
        assert est_ratios() != got

    def test_pearson_stays_within_one_on_a_collinear_scene(self, tmp_path):
        # the density predictions of this scene track the counts so closely
        # that the unclipped total correlation rounded to 1.0000000000000002
        assert main(["synth", "--seed", "3", "--out", str(tmp_path / "z"),
                     "--images", "50"]) == 0
        out = tmp_path / "c.json"
        assert main(["eval-count", "--annotations", str(tmp_path / "z" / "annotations.jsonl"),
                     "--density-dir", str(tmp_path / "z" / "density"),
                     "--format", "json", "--out", str(out)]) == 0
        rows = {r[0]: r for r in json.loads(out.read_text())["report"]["rows"]}
        assert rows["total"][3] == 1.0
        assert all(-1.0 <= r[3] <= 1.0 for r in rows.values())


def _exact_ap(dets, gts, label, bucket, cfg):
    # eval-det passes records; the scalar reference reads their value objects
    dets = {i: list(rec.detections) for i, rec in dets.items()}
    gts = {i: list(rec.annotations) for i, rec in gts.items()}
    matches = brute_force_matches(dets, gts, label, bucket, cfg.iou_thr)
    return None if matches is None else envelope_ap(*matches)


def test_detection_reports_byte_identical_to_scalar_oracles(tmp_path, monkeypatch):
    scene = tmp_path / "scene"
    assert main(synth_args(scene, seed=5, images=12, extra=(
        "--jitter-sigma", "3", "--fp-rate", "4", "--unknown-prob", "0.2",
        "--face-size-min", "6", "--no-density"))) == 0
    commands = {
        "det.csv": ["eval-det", "--nms-iou", "0.3"],
        "ratio.csv": ["eval-ratio", "--nms-iou", "0.3", "--by-condition", "--min-faces", "1"],
    }

    def reports(tag):
        out = {}
        for name, argv in commands.items():
            path = tmp_path / f"{tag}-{name}"
            assert main([*argv, "--annotations", str(scene / "annotations.jsonl"),
                         "--detections", str(scene / "detections.jsonl"),
                         "--out", str(path)]) == 0
            out[name] = path.read_bytes()
        return out

    fast = reports("fast")
    # eval-det and eval-ratio pass nms a record and keep the record it returns; the scalar
    # reference reads the record's value objects
    monkeypatch.setattr(cli, "nms", lambda rec, iou_thr: DetectionRecord(
        rec.image_id, rec.meta, nms_scalar(list(rec), iou_thr)))
    monkeypatch.setattr(cli, "average_precision", _exact_ap)
    assert reports("oracle") == fast


class TestStatsCli:
    def test_csv_directory_output(self, scene_dir, tmp_path):
        out = tmp_path / "stats"
        assert main(
            ["stats", "--train", str(scene_dir / "annotations.jsonl"),
             "--test", str(scene_dir / "annotations.jsonl"), "--out", str(out)]
        ) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert "counts.csv" in names and "per_image_averages.csv" in names

    def test_stdout_json(self, scene_dir, capsys):
        assert main(
            ["stats", "--train", str(scene_dir / "annotations.jsonl"),
             "--test", str(scene_dir / "annotations.jsonl"), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["rows"][0][0] == "Training"


class TestGradcheckCli:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        assert main(["gradcheck", "--trials", "2", "--out", str(tmp_path / "g.csv")]) == 0
        assert main(["gradcheck", "--trials", "2", "--tolerance", "1e-30",
                     "--out", str(tmp_path / "g2.csv")]) == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trial_is_data_error(self, trials, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["gradcheck", "--trials", trials, "--out", str(out)]) == 2
        assert "trials" in capsys.readouterr().err
        assert not out.exists()


class TestLossEvalCli:
    @staticmethod
    def fixture(tmp_path, n=12):
        payload = {
            "image": {"width": 32, "height": 32},
            "anchors": {"levels": [3], "scales": {"3": [16]}, "ratios": [0.5, 1.0, 2.0]},
            "ground_truth": [{"box": [8, 8, 24, 24], "label": "masked"}],
            "predictions": {
                "objectness": [0.5] * 48,
                "class": [0.5] * 48,
                "box": [[0.0, 0.0, 0.0, 0.0]] * 48,
            },
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(payload))
        return path

    def test_runs_and_reports(self, tmp_path, capsys):
        path = self.fixture(tmp_path)
        assert main(["loss-eval", "--fixture", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        row = dict(zip(report["columns"], report["rows"][0]))
        assert row["n_anchors"] == 48
        assert row["total"] == pytest.approx(
            row["objectness"] + row["classification"] + row["box"], abs=1e-12
        )

    def test_the_fixture_is_decoded_once(self, tmp_path, monkeypatch):
        # README's fixture, whose one prediction is too few for its 48 anchors
        path = tmp_path / "fixture.json"
        path.write_text(
            '{"image": {"width": 32, "height": 32},\n'
            ' "anchors": {"levels": [3], "scales": {"3": [16]}, "ratios": [0.5, 1.0, 2.0]},\n'
            ' "matching": {"pos_iou": 0.5, "neg_iou": 0.3},\n'
            ' "loss": {"alpha": 0.25, "gamma": 2.0, "normalize": false},\n'
            ' "ground_truth": [{"box": [8, 8, 24, 24], "label": "masked"}],\n'
            ' "predictions": {"objectness": [0.5], "class": [0.5], "box": [[0, 0, 0, 0]]}}\n'
        )
        raw_decode, calls = json.JSONDecoder.raw_decode, []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return raw_decode(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
        assert cli.main(["loss-eval", "--fixture", str(path)]) == 2
        assert len(calls) == 1

    def test_wrong_prediction_length_is_data_error(self, tmp_path, capsys):
        path = self.fixture(tmp_path)
        payload = json.loads(path.read_text())
        payload["predictions"]["objectness"] = [0.5] * 3
        path.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(path)]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["anchors"].update(scales={"3": 5}),
            lambda p: p["anchors"].update(scales={"4": [16]}),
            lambda p: p.update(ground_truth=[5]),
            lambda p: p["ground_truth"][0].update(box=[None, 8, 24, 24]),
            lambda p: p["ground_truth"][0].update(label=["masked"]),
            lambda p: p.update(image=5),
            lambda p: p.update(matching=[1]),
            lambda p: p["ground_truth"][0].update(box=[True, "1", 24, 24]),
            lambda p: p["ground_truth"][0].update(box=[8, True, 24, 24]),
            lambda p: p["ground_truth"][0].update(box=[8, 8, "24", 24]),
            lambda p: p["predictions"].update(box=[[0.0] * 3] * 64),
            lambda p: p["predictions"].update(box=[[0.0] * 4] * 47 + [[0.0] * 3]),
        ],
        ids=["scalar-scales", "level-without-scales", "non-object-gt", "null-coordinate",
             "list-label", "non-object-image", "list-matching", "bool-and-string-coordinates",
             "bool-coordinate", "numeric-string-coordinate", "box-rows-of-3", "ragged-box-rows"],
    )
    def test_mistyped_fixture_field_is_data_error(self, tmp_path, capsys, edit):
        path = self.fixture(tmp_path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("rows, bad", [([[0.0] * 3] * 64, 0),
                                           ([[0.0] * 4] * 47 + [[0.0] * 5], 47)],
                             ids=["rows-of-3-as-many-numbers-as-48-rows-of-4", "one-row-of-5"])
    def test_box_row_of_other_than_4_numbers_is_data_error(self, tmp_path, capsys, rows, bad):
        # 64 rows of 3 used to be read as 48 rows of 4 and give a report
        path = self.fixture(tmp_path)
        payload = json.loads(path.read_text())
        payload["predictions"]["box"] = rows
        path.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: predictions.box[{bad}] must be a list of 4 numbers, got {rows[bad]}\n")

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"width": 32', '"width": 1e400'),
            ('"3": [16]', '"3": [1' + "0" * 400 + "]"),
            ('"box": [8, 8, 24, 24]', '"box": [1' + "0" * 400 + ", 8, 24, 24]"),
        ],
        ids=["1e400-width", "401-digit-scale", "401-digit-gt-coordinate"],
    )
    def test_out_of_range_number_is_data_error(self, tmp_path, capsys, old, new):
        path = self.fixture(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["loss-eval", "--fixture", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("field, value", [("objectness", math.nan), ("class", math.nan),
                                              ("class", math.inf), ("box", math.nan)])
    def test_non_finite_prediction_is_data_error(self, tmp_path, capsys, fmt, field, value):
        path = self.fixture(tmp_path)
        payload = json.loads(path.read_text())
        if field == "box":
            payload["predictions"]["box"][5] = [0.0, value, 0.0, 0.0]
        else:
            payload["predictions"][field][5] = value
        path.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "predictions.box[5][1]" if field == "box" else f"predictions.{field}[5]"
        assert captured.err == f"error: {path}: {name} must be a finite number, got {value!r}\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"ratios": [0.5, 1.0, 2.0]', '"ratios": [0.5, 1.0, 1e400]'),
            ('"ratios": [0.5, 1.0, 2.0]', '"ratios": [0.5, NaN, 2.0]'),
            ('"3": [16]', '"3": [1e400]'),
            ('"3": [16]', '"3": [NaN]'),
        ],
        ids=["1e400-ratio", "nan-ratio", "1e400-scale", "nan-scale"],
    )
    def test_non_finite_anchor_ratio_or_scale_is_data_error(self, tmp_path, capsys, old, new):
        path = self.fixture(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["loss-eval", "--fixture", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestThreads:
    def test_outputs_identical_across_thread_counts(self, scene_dir, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            assert main(
                ["gen-density", "--annotations", str(scene_dir / "annotations.jsonl"),
                 "--out", str(out / "maps"), "--threads", threads]
            ) == 0
            assert main(
                ["eval-ratio", "--annotations", str(scene_dir / "annotations.jsonl"),
                 "--detections", str(scene_dir / "detections.jsonl"),
                 "--threads", threads, "--out", str(out / "ratio.csv")]
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "ratio.csv").read_bytes() == (b / "ratio.csv").read_bytes()
        for p in sorted((a / "maps").glob("*.nfmd")):
            assert p.read_bytes() == (b / "maps" / p.name).read_bytes()

    def test_env_var_fallback(self, scene_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MRB_THREADS", "3")
        assert main(
            ["eval-count", "--annotations", str(scene_dir / "annotations.jsonl"),
             "--density-dir", str(scene_dir / "density"), "--out", str(tmp_path / "c.csv")]
        ) == 0

    def test_bad_env_var_is_ignored(self, scene_dir, tmp_path, monkeypatch):
        argv = ["eval-count", "--annotations", str(scene_dir / "annotations.jsonl"),
                "--density-dir", str(scene_dir / "density")]
        monkeypatch.delenv("MRB_THREADS", raising=False)
        assert main([*argv, "--out", str(tmp_path / "unset.csv")]) == 0
        monkeypatch.setenv("MRB_THREADS", "many")
        assert main([*argv, "--out", str(tmp_path / "many.csv")]) == 0
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "unset.csv").read_bytes()


REPORT_ARGS = {
    "stats": lambda scene, tmp: ["stats", "--train", scene / "annotations.jsonl",
                                 "--test", scene / "annotations.jsonl"],
    "eval-det": lambda scene, tmp: ["eval-det", "--annotations", scene / "annotations.jsonl",
                                    "--detections", scene / "detections.jsonl", "--nms-iou", "0.4"],
    "eval-count": lambda scene, tmp: ["eval-count", "--annotations", scene / "annotations.jsonl",
                                      "--density-dir", scene / "density"],
    "eval-ratio": lambda scene, tmp: ["eval-ratio", "--annotations", scene / "annotations.jsonl",
                                      "--detections", scene / "detections.jsonl", "--by-condition"],
    "report-video": lambda scene, tmp: ["report-video", "--annotations", scene / "annotations.jsonl",
                                        "--density-dir", scene / "density"],
    "gradcheck": lambda scene, tmp: ["gradcheck", "--trials", "2"],
    "loss-eval": lambda scene, tmp: ["loss-eval", "--fixture", TestLossEvalCli.fixture(tmp)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(REPORT_ARGS))
def test_stdout_matches_out_file(command, fmt, scene_dir, tmp_path, capsys):
    argv = [str(a) for a in REPORT_ARGS[command](scene_dir, tmp_path)] + ["--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.is_dir() == (command == "stats" and fmt == "csv")
    if out.is_dir():
        # several CSV tables: one file each, one "# name" section each on stdout
        names = [line[2:] for line in stdout.decode().splitlines() if line.startswith("# ")]
        assert len(names) > 1
        assert sorted(names) == sorted(p.stem for p in out.iterdir())
        want = b"".join(f"# {n}\n".encode() + (out / f"{n}.csv").read_bytes() for n in names)
    else:
        want = out.read_bytes()
    assert stdout == want


def test_import_loads_no_scipy():
    # scipy.spatial alone cost about 0.2 s of a 0.3-s `import maskbench.cli`
    code = ("import sys, maskbench, maskbench.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _one_image(path, image_id, sides=(20.0, 30.0)):
    """An annotations file of one 64x64 image with one masked face per side length."""
    faces = [{"box": [2.0 + 2 * i, 2.0, 2.0 + 2 * i + side, 2.0 + side], "label": "masked"}
             for i, side in enumerate(sides)]
    path.write_text(json.dumps({"image_id": image_id, "video_id": "v", "condition": "DT",
                                "period": "during", "width": 64, "height": 64,
                                "faces": faces}) + "\n")
    return path


def _density_commands(annotations, maps):
    return {
        "gen-density": ["gen-density", "--annotations", annotations, "--out", maps],
        "eval-count": ["eval-count", "--annotations", annotations, "--density-dir", maps],
        "eval-ratio": ["eval-ratio", "--annotations", annotations, "--density-dir", maps],
        "report-video": ["report-video", "--annotations", annotations, "--density-dir", maps],
    }


@pytest.mark.parametrize("command", ["gen-density", "eval-count", "eval-ratio", "report-video"])
@pytest.mark.parametrize("kind", ["parent", "absolute", "slash", "backslash"])
def test_image_id_with_a_path_separator_names_no_density_map(kind, command, tmp_path, capsys):
    # such an id would read or write a map outside the density directory
    (tmp_path / "victim").mkdir()
    image_id = {"parent": "../x", "absolute": str(tmp_path / "victim" / "x"),
                "slash": "a/b", "backslash": "a\\b"}[kind]
    annotations = str(_one_image(tmp_path / "a.jsonl", image_id))
    maps = tmp_path / "maps" / "out"
    maps.mkdir(parents=True)
    assert main(_density_commands(annotations, str(maps))[command]) == 2
    assert capsys.readouterr().err == (
        f"error: {annotations}: image_id {image_id!r} holds a path separator, "
        "so it cannot name a density map file\n"
    )
    assert not list(tmp_path.rglob("*.nfmd"))


def test_image_id_with_dots_and_spaces_round_trips_through_density_files(tmp_path, capsys):
    annotations = str(_one_image(tmp_path / "a.jsonl", "img.1 a"))
    commands = _density_commands(annotations, str(tmp_path / "maps"))
    assert main(commands["gen-density"]) == 0
    assert sorted(p.name for p in (tmp_path / "maps").iterdir()) == [
        "img.1 a.total.nfmd", "img.1 a.unmasked.nfmd"]
    assert main([*commands["eval-count"], "--format", "json"]) == 0
    rows = {r[0]: r for r in json.loads(capsys.readouterr().out)["report"]["rows"]}
    for quantity in ("masked", "unmasked", "total"):
        assert rows[quantity][1] == 1 and rows[quantity][2] <= 1e-3


def test_detection_route_accepts_an_image_id_with_a_path_separator(tmp_path):
    annotations = str(_one_image(tmp_path / "a.jsonl", "../x"))
    detections = tmp_path / "d.jsonl"
    detections.write_text(json.dumps({"image_id": "../x", "video_id": "v", "condition": "DT",
                                      "detections": [{"box": [2, 2, 22, 22], "label": "masked",
                                                      "conf": 0.9}]}) + "\n")
    for command in ("eval-det", "eval-ratio", "report-video"):
        assert main([command, "--annotations", annotations, "--detections", str(detections),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0


def test_each_small_face_warning_is_one_stderr_line(tmp_path, capsys):
    # the line does not name the source line that loads the file, so it is the
    # same whatever code surrounds that call
    path = _one_image(tmp_path / "a.jsonl", "im", sides=(9.0, 20.0, 8.5, 9.5))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["stats", "--train", str(path), "--test", str(path)]) == 0
    err = capsys.readouterr().err
    want = [f"warning: {path}:1: face {i} ('im'): face {side:g}x{side:g} px is below the "
            "10x10 annotation protocol minimum"
            for i, side in ((0, 9.0), (2, 8.5), (3, 9.5))]
    assert err.splitlines() == want + want  # --train and --test each load the file
    assert "cli.py" not in err and "SmallFaceWarning" not in err


def test_an_image_id_holding_a_line_feed_keeps_each_message_on_one_line(tmp_path, capsys):
    path = _one_image(tmp_path / "nl.jsonl", "a\nb", sides=(4.0,))
    missing = str(tmp_path / "maps" / "a\nb.total.nfmd")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["report-video", "--annotations", str(path),
                     "--density-dir", str(tmp_path / "maps")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {path}:1: face 0 ('a\\nb'): face 4x4 px is below the 10x10 annotation "
        "protocol minimum",
        f"error: missing density prediction {missing!r}"]


@pytest.mark.parametrize("command", ["eval-ratio", "report-video"])
def test_an_empty_detections_path_is_a_path(command, tmp_path, capsys):
    # an empty path is still the detection route, not a density route with no directory
    annotations = str(_one_image(tmp_path / "a.jsonl", "im"))
    assert main([command, "--annotations", annotations, "--detections", ""]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_synth_flag_defaults_are_the_fields_of_synth_params(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "synth_scene", lambda params, include_density: seen.append(params))
    monkeypatch.setattr(cli, "write_synth_scene", lambda scene, out: None)
    assert main(["synth", "--seed", "0", "--out", str(tmp_path / "x")]) == 0
    (params,) = seen
    want = cli.SynthParams(seed=0)
    assert params == want
    for field in fields(want):  # 200 == 200.0, so the types are checked too
        assert type(getattr(params, field.name)) is type(getattr(want, field.name))


def test_gen_density_kernel_flag_defaults_are_those_of_kernel_spec():
    # synth's are checked with the rest of its SynthParams above
    args = cli.build_parser().parse_args(["gen-density", "--annotations", "a", "--out", "x"])
    assert KernelSpec(beta=args.beta, k=args.k, sigma_default=args.sigma_default,
                      truncation_radius=args.truncation) == KernelSpec()


@pytest.mark.parametrize("face, message", [
    ({"label": "masked"}, "missing required field 'box'"),
    ({"box": [1, 1, 9, 9]}, "missing required field 'label'"),
    ({"box": [1, 1, 9, 9], "label": "hat"}, "label must be masked/unmasked/unknown, got 'hat'"),
    ("masked", "expected an object"),
], ids=["no-box", "no-label", "unknown-label", "not-an-object"])
def test_loss_fixture_ground_truth_gets_the_annotation_loaders_messages(tmp_path, capsys,
                                                                        face, message):
    path = TestLossEvalCli.fixture(tmp_path)
    payload = json.loads(path.read_text())
    payload["ground_truth"].append(face)
    path.write_text(json.dumps(payload))
    assert main(["loss-eval", "--fixture", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: ground_truth[1]: {message}\n"


def _mrb(*args):
    """Run mrb in a fresh interpreter, so an uncaught exception shows as a traceback."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "maskbench.cli", *args],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)


@pytest.mark.parametrize("command", ["gen-density", "synth"])
def test_map_too_large_to_allocate_is_a_data_error(command, tmp_path):
    # a 10**9 x 10**9 frame needs a 111-PiB map at downscale 8, which fails at once
    side = str(10**9)
    annotations = tmp_path / "a.jsonl"
    annotations.write_text(json.dumps(
        {"image_id": "big", "video_id": "v", "condition": "DT", "period": "during",
         "width": 10**9, "height": 10**9,
         "faces": [{"box": [10, 10, 40, 40], "label": "masked"}]}) + "\n")
    args = {"gen-density": ["--annotations", str(annotations)],
            "synth": ["--seed", "1", "--images", "1", "--width", side, "--height", side]}[command]
    done = _mrb(command, *args, "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in done.stderr


def test_a_frame_whose_anchor_grid_would_not_fit_is_refused_before_it_is_allocated(tmp_path):
    # a 2**31 x 32 frame has 2**30 cells at level 3, which numpy was asked to allocate; under
    # a 1-GiB address space that failed with numpy's "Unable to allocate", which names no field.
    # loss-eval compares the fixture's 48 predictions with the anchor count before it builds any.
    path = TestLossEvalCli.fixture(tmp_path)
    payload = json.loads(path.read_text())
    payload["image"]["width"] = 2**31
    path.write_text(json.dumps(payload))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "maskbench.cli", "loss-eval", "--fixture", str(path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          preexec_fn=limit)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {path}: predictions must cover all 3221225472 anchors, got 48/48/48\n")


def test_matching_at_the_papers_frame_size_fits_in_a_bounded_address_space(tmp_path):
    # 129,735 anchors against 200 faces: a dense IoU matrix of them took 198 MiB, and under
    # a 1-GiB address space numpy's "Unable to allocate" ended the run with exit 2
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_corpus_tool().street_fixture()))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "maskbench.cli", "loss-eval", "--fixture", str(path),
                           "--format", "json"], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, preexec_fn=limit)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["report"]["rows"][0][0] == 129735


@pytest.mark.parametrize("limit, argv, want", [
    # the 584-MiB ground-truth map fits, its noise field does not
    (2**30, ["synth", "--seed", "1", "--images", "1", "--width", "70000", "--height", "70000",
             "--faces-min", "1", "--faces-max", "1", "--out", "{out}"],
     "a 70000 x 70000 frame at downscale 8 needs a 8750 x 8750 grid"),
    (2**30, ["gradcheck", "--trials", "1", "--max-size", "100000"],
     "pyramid level 3 of a 680501 x 509572 frame in 3 channels needs a 3 x 5418257911 grid"),
    (2**29, ["gradcheck", "--trials", "1", "--max-size", "1", "--max-channels", "100000000"],
     "pyramid level 3 of a 8 x 8 frame in 85062423 channels needs a 85062423 x 1 grid"),
], ids=["synth-noise", "gradcheck-size", "gradcheck-channels"])
def test_an_array_beyond_memory_is_a_data_error_naming_its_grid(tmp_path, limit, argv, want):
    # numpy's "Unable to allocate 584. MiB for an array with shape (8750, 8750)" named no input
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "maskbench.cli",
                           *(a.format(out=tmp_path / "out") for a in argv)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          preexec_fn=limit_memory)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {want}, more than memory holds\n")
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_the_anchor_and_fusion_code_out():
    # only loss-eval and gradcheck need them; both import them when they run
    src = str(Path(cli.__file__).parents[1])
    code = ("import sys, maskbench.cli; "
            "print(sorted(m for m in ('maskbench.anchors', 'maskbench.fusion') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _two_images(path, second_id):
    """An annotations file of image img0, then image second_id."""
    path.write_text("".join(_one_image(path, i).read_text() for i in ("img0", second_id)))
    return path


def test_gen_density_checks_every_map_path_before_it_makes_out(tmp_path, capsys):
    annotations = _two_images(tmp_path / "a.jsonl", "a/b")
    out = tmp_path / "new" / "deep"
    assert main(["gen-density", "--annotations", str(annotations), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {annotations}: image_id 'a/b' holds a path "
                                       "separator, so it cannot name a density map file\n")
    assert not (tmp_path / "new").exists()


def test_gen_density_checks_every_map_path_before_any_render(tmp_path, capsys, monkeypatch):
    def render(*_):
        raise AssertionError("rendered a map")

    monkeypatch.setattr(cli, "render_density", render)
    annotations = _two_images(tmp_path / "a.jsonl", "a/b")
    assert main(["gen-density", "--annotations", str(annotations),
                 "--out", str(tmp_path / "maps")]) == 2
    assert "holds a path separator" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [(["--width", str(2**53), "--height", "64"], "image_width"),
                                          (["--width", "64", "--height", str(2**53)], "image_height")],
                         ids=["width", "height"])
def test_synth_rejects_a_frame_its_loaders_reject(flags, field, tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--images", "2", "--no-density", *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {field} must be an integer in [8, 2**53), got {2**53}\n")
    assert not out.exists()


def test_synth_writes_the_largest_frame_its_loaders_accept(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--images", "2", "--no-density",
                 "--width", str(2**53 - 1), "--height", "64", "--out", str(out)]) == 0
    annotations = str(out / "annotations.jsonl")
    assert main(["stats", "--train", annotations, "--test", annotations,
                 "--out", str(tmp_path / "stats")]) == 0


def test_synth_clamps_a_jitter_that_overflows_without_a_warning(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--images", "2", "--no-density",
                 "--jitter-sigma", "1e308", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    boxes = np.concatenate([rec.boxes for rec in load_detections(out / "detections.jsonl")])
    assert len(boxes) and ((boxes >= 0.0) & (boxes <= 256.0)).all()


def test_synth_keeps_jittered_boxes_valid_where_floats_are_half_a_pixel_apart(tmp_path):
    # on a 2**52 px wide frame c - 0.25 and c + 0.25 can both round to c
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--images", "2", "--no-density",
                 "--width", str(2**52), "--height", "8", "--jitter-sigma", "1e15",
                 "--face-size-max", "100", "--out", str(out)]) == 0
    boxes = np.concatenate([rec.boxes for rec in load_detections(out / "detections.jsonl")])
    assert (boxes[:, 2:] > boxes[:, :2]).all() and (boxes >= 0.0).all()
    assert (boxes[:, [2, 3]] <= (2**52, 8)).all()
    annotations = str(out / "annotations.jsonl")
    assert main(["stats", "--train", annotations, "--test", annotations,
                 "--out", str(tmp_path / "stats")]) == 0


def test_gen_density_makes_out_only_after_every_render(tmp_path, capsys, monkeypatch):
    def render(*_):
        raise MemoryError("Unable to allocate the map")

    monkeypatch.setattr(cli, "render_density", render)
    annotations = _two_images(tmp_path / "a.jsonl", "img1")
    out = tmp_path / "new" / "deep"
    assert main(["gen-density", "--annotations", str(annotations), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate the map\n"
    assert not (tmp_path / "new").exists()


def test_csv_cells_with_a_carriage_return_round_trip(tmp_path):
    # a bare \r ends a row for csv.reader, so a cell holding one is quoted
    lines = [_one_image(tmp_path / "a.jsonl", f"a\rb{i}", sides=(20.0, 30.0, 12.0)).read_text()
             for i in range(2)]
    annotations = tmp_path / "a.jsonl"
    annotations.write_text("".join(line.replace('"v"', '"v\\r1"') for line in lines))
    detections = tmp_path / "d.jsonl"
    detections.write_text("".join(
        json.dumps({"image_id": f"a\rb{i}", "video_id": "v\r1", "condition": "DT",
                    "detections": [{"box": [2, 2, 22, 22], "label": "masked", "conf": 0.9},
                                   {"box": [4, 2, 34, 32], "label": "unmasked", "conf": 0.8}]})
        + "\n" for i in range(2)))
    scatter, videos = tmp_path / "scatter.csv", tmp_path / "videos.csv"
    estimates = ["--annotations", str(annotations), "--detections", str(detections)]
    assert main(["eval-ratio", *estimates, "--min-faces", "1", "--scatter", str(scatter)]) == 0
    assert main(["report-video", *estimates, "--format", "csv", "--out", str(videos)]) == 0

    def rows(path):
        with open(path, newline="", encoding="utf-8") as f:
            return list(csv.reader(f))

    assert rows(scatter) == [["image_id", "gt_ratio", "est_ratio"],
                             ["a\rb0", "1.0", "0.5"],
                             ["a\rb1", "1.0", "0.5"]]
    assert rows(videos) == [["video_id", "n_images", "gt_ratio", "est_ratio"],
                            ["v\r1", "2", "1.0", "0.5"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [
    ["eval-count", "--density-dir", "{maps}"],
    ["eval-ratio", "--density-dir", "{maps}"],
    ["eval-ratio", "--detections", "{detections}", "--by-condition"],
], ids=["eval-count", "eval-ratio-density", "eval-ratio-detections"])
def test_an_annotations_file_without_images_gives_rows_with_empty_cells(tmp_path, capsys,
                                                                        command, fmt):
    # mae needs one image and gamma two, as for a ratio row that no pair survives
    annotations, detections, maps = tmp_path / "a.jsonl", tmp_path / "d.jsonl", tmp_path / "maps"
    annotations.write_text("")
    detections.write_text("")
    maps.mkdir()
    argv = [a.format(maps=maps, detections=detections) for a in command]
    assert main([*argv, "--annotations", str(annotations), "--format", fmt]) == 0
    quantities = ["masked", "unmasked", "total"] + (["ratio"] if command[0] == "eval-ratio" else [])
    quantities += ["ratio_DT", "ratio_NT"] if "--by-condition" in command else []
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["report"]["rows"] == [[q, 0, None, None] for q in quantities]
    else:
        assert out == "quantity,n_images,mae,gamma\n" + "".join(f"{q},0,,\n" for q in quantities)


def test_eval_det_on_an_annotations_file_without_images_stays_a_data_error(tmp_path, capsys):
    (tmp_path / "a.jsonl").write_text("")
    assert main(["eval-det", "--annotations", str(tmp_path / "a.jsonl"),
                 "--detections", str(tmp_path / "a.jsonl")]) == 2
    assert capsys.readouterr().err == "error: mean_ap needs at least one defined AP cell\n"


def test_gen_density_renders_a_subset_named_twice_once(scene_dir, tmp_path, monkeypatch):
    calls, render_density = [], cli.render_density

    def render(pts, *args):
        calls.append(len(pts))
        return render_density(pts, *args)

    annotations = str(scene_dir / "annotations.jsonl")
    assert main(["gen-density", "--annotations", annotations, "--out", str(tmp_path / "once"),
                 "--subsets", "unmasked,total"]) == 0
    monkeypatch.setattr(cli, "render_density", render)
    assert main(["gen-density", "--annotations", annotations, "--out", str(tmp_path / "twice"),
                 "--subsets", "unmasked,total,unmasked, total"]) == 0
    assert len(calls) == 2 * len(load_annotations(annotations).images)
    once, twice = (sorted((p.name, p.read_bytes()) for p in (tmp_path / d).iterdir())
                   for d in ("once", "twice"))
    assert once == twice


@pytest.mark.parametrize("line", [
    {"box": "[" * 980 + "]" * 980, "label": '"masked"'},
    {"box": "[" + ", ".join(["7"] * 100_000) + "]", "label": '"masked"'},
    {"box": "[2, 2, 30, 30]", "label": '"' + "m" * 10_000 + '"'},
], ids=["980-deep-box", "100000-number-box", "10000-character-label"])
@pytest.mark.parametrize("target", ["annotations", "detections"])
def test_an_echoed_input_value_is_bounded(tmp_path, line, target):
    # a fresh interpreter: a box nested 980 deep decodes only near the bottom of the stack
    annotations = _one_image(tmp_path / "a.jsonl", "img0", sides=(20.0,))
    face = f'{{"box": {line["box"]}, "label": {line["label"]}, "conf": 0.5}}'
    if target == "annotations":
        annotations.write_text(annotations.read_text().replace('"faces": [', f'"faces": [{face}, ', 1))
    detections = tmp_path / "d.jsonl"
    detections.write_text('{"image_id": "img0", "video_id": "v", "condition": "DT", '
                          f'"detections": [{face}]}}\n')
    done = _mrb("eval-det", "--annotations", str(annotations), "--detections", str(detections))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert len(done.stderr) < 200 and "..." in done.stderr, done.stderr
