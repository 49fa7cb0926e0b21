"""Exit-code contract under mutation: 0 for an input that loads, 2 for a data error.

Each example sets one field, at any depth, of a valid annotations file,
detections file or loss fixture to a hostile value and runs one command on it.
`main` must return 0 or 2 with an `error:` line; it must never raise or
report a usage error.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maskbench.cli import main

ANNOTATIONS = [
    {"image_id": "img0", "video_id": "v0", "condition": "DT", "period": "during",
     "width": 64, "height": 48,
     "faces": [{"box": [4, 4, 20, 22], "label": "masked"},
               {"box": [30, 10, 44, 26.5], "label": "unmasked"},
               {"box": [50, 30, 60, 40], "label": "unknown"}]},
    {"image_id": "img1", "video_id": "v1", "condition": "NT", "period": "before",
     "width": 64, "height": 48,
     "faces": [{"box": [10, 10, 30, 30], "label": "unmasked"}]},
]

DETECTIONS = [
    {"image_id": "img0", "video_id": "v0", "condition": "DT",
     "detections": [{"box": [5, 4, 21, 22], "label": "masked", "conf": 0.9},
                    {"box": [30, 11, 44, 25], "label": "masked", "conf": 0.4}]},
    {"image_id": "img1", "video_id": "v1", "condition": "NT",
     "detections": [{"box": [10, 9, 30, 31.5], "label": "unmasked", "conf": 0.8}]},
]

# a 16x16 image at level 3 has 2x2 cells of 3 anchors each
FIXTURE = {
    "image": {"width": 16, "height": 16},
    "anchors": {"levels": [3], "scales": {"3": [8]}, "ratios": [0.5, 1.0, 2.0]},
    "matching": {"pos_iou": 0.5, "neg_iou": 0.3},
    "loss": {"alpha": 0.25, "gamma": 2.0, "normalize": False},
    "ground_truth": [{"box": [2, 2, 10, 10], "label": "masked"},
                     {"box": [8, 8, 15, 14], "label": "unknown"}],
    "predictions": {"objectness": [0.1 * (i % 9) for i in range(12)],
                    "class": [0.5] * 12,
                    "box": [[0.1, -0.1, 0.0, 0.2]] * 12},
}

# json.dumps writes a float 1e400 as Infinity; this string becomes the literal
_OVERFLOW = "__1e400__"

HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["0", "1", "24", "0.5", "-3", "1e3"]),
    st.just(math.nan),
    st.just(_OVERFLOW),
    st.just(10**400),
    st.lists(st.integers(-5, 40), max_size=4),
    st.dictionaries(st.sampled_from(["box", "label", "a"]), st.integers(0, 9), max_size=2),
)


def field_paths(obj, prefix=()):
    """Every (key, ..., key) path to a dict value or list element, at any depth."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from field_paths(value, (*prefix, key))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def dumps(obj) -> str:
    return json.dumps(obj).replace(f'"{_OVERFLOW}"', "1e400")


# per target: the valid document, how it is written, and the commands it feeds
TARGETS = {
    "annotations": (ANNOTATIONS, "annotations.jsonl", [
        ["stats", "--train", "{annotations}", "--test", "{annotations}"],
        ["eval-det", "--annotations", "{annotations}", "--detections", "{detections}"],
        ["eval-ratio", "--annotations", "{annotations}", "--detections", "{detections}",
         "--min-faces", "1", "--by-condition"],
        ["report-video", "--annotations", "{annotations}", "--detections", "{detections}"],
    ]),
    "detections": (DETECTIONS, "detections.jsonl", [
        ["eval-det", "--annotations", "{annotations}", "--detections", "{detections}",
         "--nms-iou", "0.5"],
        ["eval-ratio", "--annotations", "{annotations}", "--detections", "{detections}",
         "--min-faces", "1"],
        ["report-video", "--annotations", "{annotations}", "--detections", "{detections}"],
    ]),
    "fixture": (FIXTURE, "fixture.json", [
        ["loss-eval", "--fixture", "{fixture}"],
        ["loss-eval", "--fixture", "{fixture}", "--format", "json"],
    ]),
}


def write_inputs(root, target, doc):
    files = {
        "annotations": "\n".join(dumps(r) for r in ANNOTATIONS) + "\n",
        "detections": "\n".join(dumps(r) for r in DETECTIONS) + "\n",
        "fixture": dumps(FIXTURE),
    }
    files[target] = dumps(doc) if target == "fixture" else "\n".join(dumps(r) for r in doc) + "\n"
    paths = {}
    for name, text in files.items():
        paths[name] = root / TARGETS[name][1]
        paths[name].write_text(text)
    return paths


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_valid_inputs_exit_zero(tmp_path, target):
    paths = write_inputs(tmp_path, target, TARGETS[target][0])
    for command in TARGETS[target][2]:
        assert run([a.format(**paths) for a in command]) == (0, "")


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_one_hostile_field_exits_zero_or_two(tmp_path_factory, target):
    doc, _, commands = TARGETS[target]
    root = tmp_path_factory.mktemp(target)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(field_paths(doc))), HOSTILE, st.sampled_from(commands))
    def check(path, value, command):
        paths = write_inputs(root, target, mutated(doc, path, value))
        code, err = run([a.format(**paths) for a in command])
        assert code in (0, 2), (path, value, command, err)
        if code == 2:
            assert err.startswith("error: "), err

    check()
