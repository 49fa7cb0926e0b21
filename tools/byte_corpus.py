"""Run a fixed list of mrb commands and keep every byte they produce.

Usage::

    PYTHONPATH=src python3 tools/byte_corpus.py OUT

OUT must not exist. Each command runs in a fresh process (``python -m
maskbench.cli``) with OUT as its working directory and relative paths, against
whichever maskbench is importable, so the messages hold no machine path. Run k
writes OUT/<k>-<name>/{stdout,stderr,exit_code} plus any file or directory it
was told to write (``--out``, ``--scatter``); the synth runs write the scenes
that the later runs read. Build one tree from each of two source trees and
compare them with ``diff -r``: an empty diff means every file, stdout, stderr
and exit code is the same.
"""

from __future__ import annotations

import json
import os
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
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0])
    root.mkdir(parents=True)
    (root / "fixtures").mkdir()
    for name, fixture in fixtures().items():
        (root / "fixtures" / f"{name}.json").write_text(json.dumps(fixture))
    # the runs start in root, so a relative PYTHONPATH entry is made absolute first
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in paths if p)}
    for k, (name, args) in enumerate(runs()):
        run = f"{k:03d}-{name}"
        (root / run).mkdir()
        proc = subprocess.run([sys.executable, "-m", "maskbench.cli",
                               *(a.format(run=run) for a in args)],
                              cwd=root, env=env, capture_output=True)
        (root / run / "stdout").write_bytes(proc.stdout)
        (root / run / "stderr").write_bytes(proc.stderr)
        (root / run / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{run}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
