"""Run a fixed list of mrb commands and keep every byte they produce.

Usage::

    PYTHONPATH=src python3 tools/byte_corpus.py OUT
    PYTHONPATH=src python3 tools/byte_corpus.py OUT --digest tools/byte_corpus.sha256
    PYTHONPATH=src python3 tools/byte_corpus.py OUT --check tools/byte_corpus.sha256

Each command runs in a fresh process (``python -m maskbench.cli``) with OUT as
its working directory and relative paths, against whichever maskbench is
importable, so the messages hold no machine path. Run k writes
OUT/<k>-<name>/{stdout,stderr,exit_code} plus any file or directory it was told
to write (``--out``, ``--scatter``); the synth runs write the scenes that the
later runs read, and OUT/scenes also holds the scenes written here, among them
the 1920 x 1080 loss fixture of the last run. The runs of
BEYOND_MEMORY run under its limit of their address space (RLIMIT_AS). Build one
tree from each of two source trees and compare them with ``diff -r``: an empty
diff means every file, stdout, stderr and exit code is the same.

OUT must not exist, except with ``--digest`` or ``--check``, which read an
existing OUT as it is. The digest has a header line naming the Python and numpy
versions, then one line per unit: each run's directory, the loss fixtures, and
each scene and map tree that runs share, with a SHA-256 over the unit's sorted
relative file paths and bytes. ``--digest FILE`` writes it. ``--check FILE``
compares with it: exit 0 when every unit matches, 1 naming each unit that
differs, is missing or is new, and 2 without comparing when the versions differ,
since another numpy may print other float bytes. A build exits 2 without making OUT
when the runs could not import maskbench under the PYTHONPATH they are given.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

SCENES = {
    "s7": ["--seed", "7"],
    "s7-noisy": ["--seed", "7", "--images", "60", "--width", "200", "--height", "150",
                 "--jitter-sigma", "2", "--fp-rate", "3", "--unknown-prob", "0.1",
                 "--face-size-min", "6", "--flip-rate", "0.1", "--drop-rate", "0.1",
                 "--density-noise", "0.1"],
    "s21": ["--seed", "21", "--images", "40", "--faces-min", "0", "--faces-max", "10",
            "--unknown-prob", "0.2", "--face-size-min", "3", "--jitter-sigma", "2",
            "--fp-rate", "2", "--flip-rate", "0.1", "--drop-rate", "0.1",
            "--density-noise", "0.1", "--density-downscale", "4"],
    # heavy jitter on 8 x 8 frames squeezes thousands of boxes below half a pixel
    "jitter-8x8": ["--seed", "2", "--width", "8", "--height", "8", "--jitter-sigma", "40",
                   "--face-size-min", "1", "--face-size-max", "3"],
    # crowded candidates: many false positives and jittered copies on small frames
    "crowd-96x64": ["--seed", "5", "--images", "30", "--width", "96", "--height", "64",
                    "--faces-min", "10", "--faces-max", "40", "--face-size-min", "4",
                    "--face-size-max", "24", "--jitter-sigma", "6", "--fp-rate", "40",
                    "--unknown-prob", "0.1", "--density-downscale", "4"],
}
# the scenes whose detections pile up, run at every listed NMS and match threshold
CROWDED = ("jitter-8x8", "crowd-96x64")

# runs whose arrays do not fit an address space of the given size, by name: a map's
# noise field (the ground-truth map fits), and a pyramid too wide or too deep
BEYOND_MEMORY = {
    "synth-noise-beyond-memory": (2**30, ["synth", "--seed", "1", "--images", "1",
                                          "--width", "70000", "--height", "70000",
                                          "--faces-min", "1", "--faces-max", "1",
                                          "--out", "{run}/scene"]),
    "gradcheck-size-beyond-memory": (2**30, ["gradcheck", "--trials", "1",
                                             "--max-size", "100000"]),
    "gradcheck-channels-beyond-memory": (2**29, ["gradcheck", "--trials", "1", "--max-size",
                                                 "1", "--max-channels", "100000000"]),
}

# the loss fixture of README, whose one prediction is too few for its 48 anchors
README_FIXTURE = {
    "image": {"width": 32, "height": 32},
    "anchors": {"levels": [3], "scales": {"3": [16]}, "ratios": [0.5, 1.0, 2.0]},
    "matching": {"pos_iou": 0.5, "neg_iou": 0.3},
    "loss": {"alpha": 0.25, "gamma": 2.0, "normalize": False},
    "ground_truth": [{"box": [8, 8, 24, 24], "label": "masked"}],
    "predictions": {"objectness": [0.5], "class": [0.5], "box": [[0, 0, 0, 0]]},
}


def fixtures() -> dict[str, dict]:
    """README's fixture, and 48-anchor ones with predictions for every anchor."""
    out = {"readme": README_FIXTURE}
    for alpha, gamma in ((0.25, 2.0), (0, 0), (1, 3), (0.0, 0.5)):
        fixture = json.loads(json.dumps(README_FIXTURE))
        fixture["loss"].update(alpha=alpha, gamma=gamma)
        fixture["predictions"] = {
            "objectness": [round(0.02 * i, 2) for i in range(48)],
            "class": [round(1.0 - 0.02 * i, 2) for i in range(48)],
            "box": [[0.1 * (i % 5), -0.2, 0.05 * (i % 3), 0.3] for i in range(48)],
        }
        out[f"alpha{alpha}-gamma{gamma}"] = fixture
    rows_of_3 = json.loads(json.dumps(out["alpha0.25-gamma2.0"]))
    rows_of_3["predictions"]["box"] = [[0.0] * 3] * 64
    out["box-rows-of-3"] = rows_of_3
    return out


def street_fixture() -> dict:
    """A loss fixture at the paper's 1920 x 1080 frame size: the default anchors (129,735)
    with a prediction for each, and 200 faces of 8 to 60 px, every fourth unknown, some
    partly outside the frame. It pins anchor matching where a dense anchors x faces IoU
    matrix would take 198 MiB."""
    faces = []
    for k in range(200):
        x, y = k * 397 % 1900 - 10.5, k * 193 % 1060 - 4.0
        faces.append({"box": [x, y, x + 8 + k * 7 % 53, y + 8 + k * 11 % 53],
                      "label": ("masked", "unmasked", "masked", "unknown")[k % 4]})
    n = 129735
    return {"image": {"width": 1920, "height": 1080},
            "anchors": {"levels": [3, 4, 5, 6, 7]}, "ground_truth": faces,
            "predictions": {"objectness": [round(0.01 + i * 37 % 101 / 103, 4) for i in range(n)],
                            "class": [round(0.01 + i * 53 % 97 / 99, 4) for i in range(n)],
                            "box": [[0.1 * (i % 5), -0.2, 0.05 * (i % 3), 0.3] for i in range(n)]}}


def hand_scenes() -> dict[str, tuple[dict, dict]]:
    """Scenes of one frame written here, as (annotations line, detections line): two
    identical detections with sides of 1e200, whose areas overflow float64, and a column
    of faces and candidates that share their x-extents, so that nearly every pair
    overlaps along x and only neighbours along y."""
    meta = {"image_id": "f0", "video_id": "v", "condition": "DT"}
    huge = ({**meta, "period": "during", "width": 1280, "height": 720,
             "faces": [{"box": [100.0, 50.0, 132.0, 90.0], "label": "masked"}]},
            {**meta, "detections": [{"box": [0.0, 0.0, 1e200, 1e200], "label": "masked",
                                     "conf": conf} for conf in (0.9, 0.8)]})
    faces, dets = [], []
    for k in range(600):
        side, label = 16.0 + k % 9, ("masked", "unmasked", "masked", "unknown")[k % 4]
        faces.append({"box": [20.0, 12.0 * k, 20.0 + side, 12.0 * k + side], "label": label})
        # a candidate near the face, its class flipped for every seventh, and a weaker copy
        guess = "unmasked" if (label == "unmasked") != (k % 7 == 0) else "masked"
        for dy, conf in ((k % 3, 0.95 - 0.0007 * k), (k % 3 + 3, 0.5 - 0.0003 * k)):
            left, top = 20.0 + k % 2, 12.0 * k + dy
            dets.append({"box": [left, top, left + side, top + side], "label": guess,
                         "conf": round(conf, 4)})
    column = ({**meta, "period": "before", "width": 64, "height": 7250, "faces": faces},
              {**meta, "detections": dets})
    return {"huge-boxes": huge, "column": column}


def hostile_scenes() -> dict[str, dict[str, bytes]]:
    """Input files written here byte for byte, by scene: text that is not UTF-8 (after an
    error on an earlier line, alone on its line, and in a loss fixture), ids that UTF-8
    cannot encode (JSON's "\\ud800"), an image_id holding NUL, a bad face or detection
    after good ones on its line, and after small faces, an image_id holding a line feed
    on a frame with a small face, and one holding a path separator before a good frame;
    then decoder_scenes."""
    frame = {"image_id": "f0", "video_id": "v", "condition": "DT"}
    ann = {**frame, "period": "during", "width": 64, "height": 48,
           "faces": [{"box": [4, 4, 20, 22], "label": "masked"}]}
    det = {**frame, "detections": [{"box": [5, 4, 21, 22], "label": "masked", "conf": 0.9}]}

    def lines(*objs) -> bytes:
        return "".join(json.dumps(o) + "\n" for o in objs).encode()

    small = {"box": [30, 30, 36, 38], "label": "unmasked"}
    not_utf8 = b'{"image_id": "\xff"}\n'
    fixture = json.dumps(README_FIXTURE).encode().replace(b'"masked"', b'"mask\xffed"')
    return {
        "not-utf8-after-error": {"annotations.jsonl": lines({"image_id": "", "video_id": "v"})
                                 + not_utf8, "detections.jsonl": lines(det)},
        "not-utf8": {"annotations.jsonl": not_utf8, "detections.jsonl": not_utf8,
                     "fixture.json": fixture},
        "surrogate-video-id": {"annotations.jsonl": lines({**ann, "video_id": "\ud800"}),
                               "detections.jsonl": lines({**det, "video_id": "\ud800"})},
        "surrogate-image-id": {"annotations.jsonl": lines({**ann, "image_id": "i\ud800"})},
        "nul-image-id": {"annotations.jsonl": lines({**ann, "image_id": "i\x00x"}),
                         "detections.jsonl": lines({**det, "image_id": "i\x00x"})},
        "bad-after-small-face": {
            "annotations.jsonl": lines({**ann, "faces": [small]}, {
                **ann, "image_id": "f1", "faces": [*ann["faces"], small, {**small, "label": "hat"},
                                                   small]}),
            "detections.jsonl": lines(det, {**det, "image_id": "f1", "detections": [
                *det["detections"], {**det["detections"][0], "conf": 2}]}),
        },
        "line-feed-image-id": {"annotations.jsonl": lines({**ann, "image_id": "a\nb",
                                                           "faces": [small]})},
        "separator-image-id": {"annotations.jsonl": lines({**ann, "image_id": "a/b"}, ann)},
        **decoder_scenes(ann, det),
    }


# a list nested 1,000 deep, which orjson decodes and json refuses
DEEP = "[" * 1000 + "]" * 1000


def decoder_scenes(ann: dict, det: dict) -> dict[str, dict[str, bytes]]:
    """One-line files on which orjson and json differ, made from the valid lines ann and det
    by replacing text, by scene: numbers beyond 64 bits, NaN, 1e400, "\\ud800", a BOM, deep
    lists, an extra or a repeated key and a ':' in a string."""
    kinds = {"annotations": (json.dumps(ann), ", 20, 22]", json.dumps(ann["faces"])),
             "detections": (json.dumps(det), ", 21, 22]", json.dumps(det["detections"]))}

    def both(old, new):
        return {k: (old, new) for k in kinds}

    def right(new):  # a box's right side
        return {k: (box, new) for k, (_, box, _) in kinds.items()}

    cases = {
        "width-2pow64": {"annotations": ('"width": 64', '"width": 18446744073709551616')},
        "box-1e30": right(", 1000000000000000000000000000000, 22]"),
        "conf-1e20": {"detections": ('"conf": 0.9', '"conf": 100000000000000000000')},
        "nan": {"annotations": (", 20, 22]", ", NaN, 22]"), "detections": ('"conf": 0.9', '"conf": NaN')},
        "1e400": right(", 1e400, 22]"),
        "surrogate-label": both('"label": "masked"', '"label": "\\ud800"'),
        "bom": both("{", "\ufeff{"),
        "deep-faces": {k: (faces, DEEP) for k, (_, _, faces) in kinds.items()},
        "deep-extra-key": both('"condition": ', f'"x": {DEEP}, "condition": '),
        "extra-key": both('"condition": ', '"x": 1, "condition": '),
        "repeated-key": both('"video_id": ', '"video_id": "v", "video_id": '),
        "colon-in-string": both('"video_id": "v"', '"video_id": "v:1"'),
    }
    scenes = {}
    for case, changes in cases.items():
        scenes[f"decoder-{case}"] = {f"{k}.jsonl": (kinds[k][0].replace(old, new, 1) + "\n").encode()
                                     for k, (old, new) in changes.items()}
    return scenes


def runs() -> list[tuple[str, list[str]]]:
    """(name, mrb argv) of every run, in order; {run} stands for the run's directory."""
    out = [(f"synth-{s}", ["synth", *flags, "--out", f"scenes/{s}"]) for s, flags in SCENES.items()]
    out += [("synth-negative-seed", ["synth", "--seed", "-1", "--out", "{run}/scene"])]
    # the scene of synth-s7 without its maps; a jitter that overflows; boxes squeezed
    # where floats are half a pixel apart
    out += [(name, ["synth", *flags, "--out", "{run}/scene"]) for name, flags in (
        ("synth-s7-no-density", ["--seed", "7", "--no-density"]),
        ("synth-jitter-overflow", ["--seed", "1", "--images", "2", "--no-density",
                                   "--jitter-sigma", "1e308"]),
        ("synth-wide-frame", ["--seed", "1", "--images", "2", "--no-density",
                              "--width", "4503599627370496", "--height", "8",
                              "--jitter-sigma", "1e15", "--face-size-max", "100"]),
    )]
    report = []
    for s in SCENES:
        ann, det, dens = (f"scenes/{s}/annotations.jsonl", f"scenes/{s}/detections.jsonl",
                          f"scenes/{s}/density")
        on_ann = ["--annotations", ann]
        report += [
            (f"stats-{s}", ["stats", "--train", ann, "--test", ann]),
            (f"eval-det-{s}", ["eval-det", *on_ann, "--detections", det]),
            (f"eval-det-nms-{s}", ["eval-det", *on_ann, "--detections", det, "--nms-iou", "0.5"]),
            (f"eval-count-{s}", ["eval-count", *on_ann, "--density-dir", dens]),
            (f"eval-ratio-det-{s}", ["eval-ratio", *on_ann, "--detections", det,
                                     "--by-condition", "--scatter", "{run}/scatter.csv"]),
            (f"eval-ratio-det-nms-{s}", ["eval-ratio", *on_ann, "--detections", det,
                                         "--nms-iou", "0.5", "--convention", "unmasked",
                                         "--min-faces", "1"]),
            (f"eval-ratio-density-{s}", ["eval-ratio", *on_ann, "--density-dir", dens]),
            (f"report-video-det-{s}", ["report-video", *on_ann, "--detections", det]),
            (f"report-video-density-{s}", ["report-video", *on_ann, "--density-dir", dens]),
            (f"eval-count-gen-{s}", ["eval-count", *on_ann, "--density-dir", f"gen/{s}-all"]),
        ]
        out += [
            (f"gen-density-{s}", ["gen-density", *on_ann, "--out", "{run}/maps"]),
            (f"gen-density-all-{s}", ["gen-density", *on_ann, "--out", f"gen/{s}-all",
                                      "--subsets", "total,masked,unmasked", "--downscale", "4"]),
            (f"stats-dir-{s}", ["stats", "--train", ann, "--test", ann, "--out", "{run}/stats"]),
        ]
    for s in CROWDED:
        dets = ["--annotations", f"scenes/{s}/annotations.jsonl",
                "--detections", f"scenes/{s}/detections.jsonl"]
        for nms in ("0.3", "0.4", "0.7", "1"):
            on_nms = [*dets, "--nms-iou", nms]
            report += [(f"eval-det-nms{nms}-thr{thr}-{s}", ["eval-det", *on_nms, "--iou-thr", thr])
                       for thr in ("0.2", "1")]
            report += [
                (f"eval-ratio-nms{nms}-{s}", ["eval-ratio", *on_nms, "--by-condition",
                                              "--min-faces", "1"]),
                (f"report-video-nms{nms}-{s}", ["report-video", *on_nms]),
            ]
    report += [
        ("gradcheck-pass", ["gradcheck", "--trials", "3"]),
        ("gradcheck-fail", ["gradcheck", "--trials", "3", "--tolerance", "1e-30"]),
        ("gradcheck-negative-seed", ["gradcheck", "--trials", "1", "--seed", "-1"]),
    ]
    report += [(f"loss-eval-{name}", ["loss-eval", "--fixture", f"fixtures/{name}.json"])
               for name in fixtures()]
    # every report command in both formats, after the gen-density runs it reads
    out += [(f"{name}-{fmt}", [*argv, "--format", fmt]) for name, argv in report
            for fmt in ("csv", "json")]
    # runs added later come last, so that every earlier run keeps its number
    hand = []
    for s in hand_scenes():
        dets = ["--annotations", f"scenes/{s}/annotations.jsonl",
                "--detections", f"scenes/{s}/detections.jsonl"]
        hand += [(f"eval-det-{s}", ["eval-det", *dets]),
                 (f"eval-det-nms0.4-{s}", ["eval-det", *dets, "--nms-iou", "0.4"]),
                 (f"eval-ratio-nms0.4-{s}", ["eval-ratio", *dets, "--nms-iou", "0.4",
                                             "--min-faces", "0"]),
                 (f"report-video-nms0.4-{s}", ["report-video", *dets, "--nms-iou", "0.4"])]
    out += [(f"{name}-{fmt}", [*argv, "--format", fmt]) for name, argv in hand
            for fmt in ("csv", "json")]
    # each failing run is told to write a report or maps into its directory, which stays empty
    ann, det = "scenes/{}/annotations.jsonl".format, "scenes/{}/detections.jsonl".format
    report, maps = ["--out", "{run}/report.csv"], ["--out", "{run}/maps"]
    out += [
        ("stats-not-utf8-after-error", ["stats", "--train", ann("not-utf8-after-error"),
                                        "--test", ann("not-utf8-after-error"), *report]),
        ("report-video-not-utf8-after-error", ["report-video", "--annotations",
                                               ann("not-utf8-after-error"), "--detections",
                                               det("not-utf8-after-error"), *report]),
        ("stats-not-utf8", ["stats", "--train", ann("not-utf8"), "--test", ann("not-utf8"),
                            *report]),
        ("eval-det-not-utf8-detections", ["eval-det", "--annotations", ann("huge-boxes"),
                                          "--detections", det("not-utf8"), *report]),
        ("loss-eval-not-utf8", ["loss-eval", "--fixture", "scenes/not-utf8/fixture.json",
                                *report]),
        ("report-video-surrogate-video-id", ["report-video", "--annotations",
                                             ann("surrogate-video-id"), "--detections",
                                             det("surrogate-video-id"), *report]),
        ("eval-det-surrogate-video-id-detections", ["eval-det", "--annotations",
                                                    ann("huge-boxes"), "--detections",
                                                    det("surrogate-video-id"), *report]),
        ("gen-density-surrogate-image-id", ["gen-density", "--annotations",
                                            ann("surrogate-image-id"), *maps]),
        ("eval-count-surrogate-image-id", ["eval-count", "--annotations",
                                           ann("surrogate-image-id"), "--density-dir",
                                           "{run}/maps", *report]),
        ("gen-density-nul-image-id", ["gen-density", "--annotations", ann("nul-image-id"),
                                      *maps]),
        ("eval-count-nul-image-id", ["eval-count", "--annotations", ann("nul-image-id"),
                                     "--density-dir", "{run}/maps", *report]),
        # the detection route names no file after an image, so it accepts the id
        ("report-video-nul-image-id", ["report-video", "--annotations", ann("nul-image-id"),
                                       "--detections", det("nul-image-id")]),
        ("stats-bad-after-small-face", ["stats", "--train", ann("bad-after-small-face"),
                                        "--test", ann("huge-boxes"), *report]),
        ("eval-det-bad-after-good-detection", ["eval-det", "--annotations", ann("huge-boxes"),
                                               "--detections", det("bad-after-small-face"),
                                               *report]),
        ("synth-fp-rate-beyond-poisson", ["synth", "--seed", "1", "--images", "2",
                                          "--fp-rate", "1e300", "--out", "{run}/scene"]),
    ]
    # steps too small to difference in float64, and one across the weights' clamp
    out += [(f"gradcheck-step-{step}", ["gradcheck", "--trials", "3", "--step", step, *report])
            for step in ("5e-324", "1e-320", "1e-310", "1e300")]
    out += [(name, argv) for name, (_, argv) in BEYOND_MEMORY.items()]
    # the help of mrb and of each command, at the 80 columns that build sets
    out += [("help", ["--help"])] + [(f"help-{c}", [c, "--help"]) for c in (
        "synth", "stats", "gen-density", "eval-det", "eval-count", "eval-ratio", "report-video",
        "gradcheck", "loss-eval")]
    # draws beyond memory and a face size too small for any box, ids that would split a
    # stderr line or name a file outside the map directory, and an empty detections path
    synth = ["synth", "--seed", "1", "--out", "{run}/scene"]
    out += [
        ("synth-fp-rate-2pow53", [*synth, "--images", "2", "--fp-rate", "9007199254740992"]),
        ("synth-face-size-min-5e-324", [*synth, "--face-size-min", "5e-324"]),
        ("stats-line-feed-image-id", ["stats", "--train", ann("line-feed-image-id"),
                                      "--test", ann("line-feed-image-id"), *report]),
        ("report-video-line-feed-image-id", ["report-video", "--annotations",
                                             ann("line-feed-image-id"), "--density-dir",
                                             "{run}/maps", *report]),
        ("gen-density-separator-image-id", ["gen-density", "--annotations",
                                            ann("separator-image-id"), *maps]),
        ("eval-ratio-separator-image-id", ["eval-ratio", "--annotations",
                                           ann("separator-image-id"), "--density-dir",
                                           "{run}/maps", *report]),
        ("eval-ratio-empty-detections-path", ["eval-ratio", "--annotations", ann("huge-boxes"),
                                              "--detections", "", *report]),
    ]
    # each loader on inputs that orjson and json read differently
    for scene, files in hostile_scenes().items():
        if not scene.startswith("decoder-"):
            continue
        if "annotations.jsonl" in files:
            out.append((f"stats-{scene}", ["stats", "--train", ann(scene), "--test", ann(scene),
                                           *report]))
        if "detections.jsonl" in files:
            out.append((f"eval-det-{scene}", ["eval-det", "--annotations", ann("huge-boxes"),
                                              "--detections", det(scene), *report]))
    out.append(("loss-eval-street-1080p", ["loss-eval", "--fixture",
                                           "scenes/street-1080p/fixture.json", "--format", "json"]))
    return out


def build(root: Path, only: set[str] | None = None) -> None:
    """Write the inputs into root, which must not exist, and run every command there, or
    only the runs whose directory name (<k>-<name>) is in only. If the runs could not
    import maskbench, exit 2 before root is made."""
    # the runs start in root, so a relative PYTHONPATH entry is made absolute first
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    # and help text is wrapped at 80 columns whatever the terminal
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in paths if p)}
    if subprocess.run([sys.executable, "-c", "import maskbench"], env=env,
                      capture_output=True).returncode:
        print(f"maskbench does not import with PYTHONPATH={env['PYTHONPATH']!r}; nothing run")
        raise SystemExit(2)
    root.mkdir(parents=True)
    (root / "fixtures").mkdir()
    for name, fixture in fixtures().items():
        (root / "fixtures" / f"{name}.json").write_text(json.dumps(fixture))
    for name, lines in hand_scenes().items():
        (root / "scenes" / name).mkdir(parents=True)
        for kind, line in zip(("annotations", "detections"), lines):
            (root / "scenes" / name / f"{kind}.jsonl").write_text(json.dumps(line) + "\n")
    for name, files in hostile_scenes().items():
        (root / "scenes" / name).mkdir(parents=True)
        for file, data in files.items():
            (root / "scenes" / name / file).write_bytes(data)
    (root / "scenes" / "street-1080p").mkdir()
    (root / "scenes" / "street-1080p" / "fixture.json").write_text(json.dumps(street_fixture()))
    for k, (name, args) in enumerate(runs()):
        run = f"{k:03d}-{name}"
        if only is not None and run not in only:
            continue
        (root / run).mkdir()
        limit = BEYOND_MEMORY.get(name, (None,))[0]
        proc = subprocess.run([sys.executable, "-m", "maskbench.cli",
                               *(a.format(run=run) for a in args)],
                              cwd=root, env=env, capture_output=True,
                              preexec_fn=None if limit is None else functools.partial(
                                  resource.setrlimit, resource.RLIMIT_AS, (limit, limit)))
        (root / run / "stdout").write_bytes(proc.stdout)
        (root / run / "stderr").write_bytes(proc.stderr)
        (root / run / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{run}: exit {proc.returncode}", flush=True)


def digest(root: Path) -> list[str]:
    """The version header, then "<sha256>  <unit>" for each unit of root (see the module doc)."""
    units = []
    for top in sorted(root.iterdir()):
        units += sorted(top.iterdir()) if top.name in ("scenes", "gen") else [top]
    lines = [f"# python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}"]
    for unit in units:
        sha = hashlib.sha256()
        for path in sorted(p.relative_to(unit).as_posix() for p in unit.rglob("*") if p.is_file()):
            data = (unit / path).read_bytes()
            sha.update(f"{path}\0{len(data)}\0".encode() + data)
        lines.append(f"{sha.hexdigest()}  {unit.relative_to(root).as_posix()}")
    return lines


def check(lines: list[str], file: Path) -> int:
    """0 if lines equal the digest in file, 1 naming each unit that differs, 2 if the
    versions differ."""
    want = file.read_text().splitlines() or [""]
    if want[0] != lines[0]:
        print(f"versions differ: {file} has {want[0].lstrip('# ') or 'no header'}; this run "
              f"has {lines[0].lstrip('# ')}; nothing compared")
        return 2
    got, want = (dict(line.split("  ", 1)[::-1] for line in side[1:]) for side in (lines, want))
    bad = [f"{'missing' if unit not in got else 'new' if unit not in want else 'differs'}: {unit}"
           for unit in sorted(got.keys() | want.keys()) if got.get(unit) != want.get(unit)]
    print("\n".join(bad) or f"all {len(got)} units match {file}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, metavar="OUT")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--digest", type=Path, metavar="FILE", help="write OUT's digest to FILE")
    mode.add_argument("--check", type=Path, metavar="FILE", help="compare OUT's digest with FILE")
    args = parser.parse_args(argv)
    if not (args.out.exists() and (args.digest or args.check)):
        build(args.out)
    lines = digest(args.out)
    if args.digest:
        args.digest.write_text("\n".join(lines) + "\n")
    return check(lines, args.check) if args.check else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
