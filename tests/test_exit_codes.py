"""Exit-code contract under mutation: 0 for an input that loads, 2 for a data error.

Each example sets one field, at any depth, of a valid annotations file,
detections file or loss fixture to a hostile value, or drops it, and runs one
command on it. `main` must return 0 or 2; it must never raise or report a
usage error. Exit 2 prints one line, `error: <path>[:line[:col]]: ...`, that
holds none of Python's or numpy's own texts ("int too large", "cannot convert", "Unable to
allocate", "not JSON compliant", "lam value too large"). An error in a JSONL file names the mutated
line, unless it is a disagreement between the two files, which names the
detections file and the image. A JSON object that repeats a key, at any depth, exits 2 naming the
file and, in JSONL, the line. A loss-fixture value of the wrong type, a
number outside its field's domain or a pyramid level with no finite stride or
too large a grid exits 2 naming its field or level. Damaged NFMD maps exit 2 naming the map. A flag
that is non-finite, or that would overflow a map header, exits 2 naming the
parameter; an out-of-range --conf-thr, --nms-iou, --iou-thr or --min-faces does
so before any input is read, on every route. Every int option of every command is run with 0 and -1,
every float option also with nan, inf, 1e300 and 5e-324, on each route; each run exits 0 or 2
without a numpy warning, and exit 2 is one error line, or a failed gradient check's report.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import re
import reprlib
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maskbench import cli
from maskbench.cli import build_parser, main

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
    # ints beyond int32 and int64, levels past the stride range, the smallest subnormal,
    # negative zero and finite numbers far outside every field's domain
    st.sampled_from([2**31, -2**31, 2**63, 2**64, -1074, 1024, 5e-324, -0.0, 1e300, -2000]),
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


def dropped(doc, path):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
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


# Python's and numpy's own texts, which name neither a file nor a field
INTERNAL_TEXTS = ("int too large", "cannot convert", "Unable to allocate", "not JSON compliant",
                  "lam value too large")


def check_exit(paths, target, path, command):
    """Run command; exit 0, or exit 2 with one error line naming an input file.

    The line is error: <path>[:line[:col]]: ... and holds none of INTERNAL_TEXTS. An
    error in a JSONL file names the mutated line.
    """
    code, err = run([a.format(**paths) for a in command])
    assert code in (0, 2), (path, command, err)
    if code == 2:
        files = "|".join(re.escape(str(p)) for p in paths.values())
        assert re.fullmatch(rf"error: ({files})(:\d+){{0,2}}: [^\n]+\n", err), (path, err)
        assert not any(text in err for text in INTERNAL_TEXTS), (path, err)
        # a disagreement between the two files names the detections file and the image
        if target != "fixture" and not err.startswith(f"error: {paths['detections']}: detections "):
            assert err.startswith(f"error: {paths[target]}:{path[0] + 1}:"), (path, err)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_one_hostile_field_exits_zero_or_two(tmp_path_factory, target):
    doc, _, commands = TARGETS[target]
    root = tmp_path_factory.mktemp(target)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(field_paths(doc))), HOSTILE, st.sampled_from(commands))
    def check(path, value, command):
        check_exit(write_inputs(root, target, mutated(doc, path, value)), target, path, command)

    check()


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_one_dropped_field_exits_zero_or_two(tmp_path_factory, target):
    doc, _, commands = TARGETS[target]
    root = tmp_path_factory.mktemp(target)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(field_paths(doc))), st.sampled_from(commands))
    def check(path, command):
        check_exit(write_inputs(root, target, dropped(doc, path)), target, path, command)

    check()


@pytest.mark.parametrize("target, line, old, new, key", [
    ("annotations", 2, '"video_id": "v1"', '"video_id": "v1", "video_id": "v1"', "video_id"),
    ("annotations", 1, '"label": "unknown"', '"label": "unknown", "label": "masked"', "label"),
    ("detections", 1, '"condition": "DT"', '"condition": "NT", "condition": "DT"', "condition"),
    ("detections", 2, '"conf": 0.8', '"conf": 0.8, "conf": 0.8', "conf"),
    ("fixture", None, '"pos_iou": 0.5', '"pos_iou": 0.5, "pos_iou": 0.9', "pos_iou"),
    ("fixture", None, '"image": ', '"ground_truth": [], "image": ', "ground_truth"),
])
def test_repeated_key_exits_two_naming_it(tmp_path, target, line, old, new, key):
    # a repeat used to keep the last value silently
    paths = write_inputs(tmp_path, target, TARGETS[target][0])
    text = paths[target].read_text()
    assert text.count(old) == 1
    paths[target].write_text(text.replace(old, new))
    where = str(paths[target]) if line is None else f"{paths[target]}:{line}"
    for command in TARGETS[target][2]:
        code, err = run([a.format(**paths) for a in command])
        assert (code, err) == (2, f"error: {where}: repeated key {key!r}\n"), command


def _nfmd_truncated_header(data: bytes) -> bytes:
    return data[:9]


def _nfmd_short_payload(data: bytes) -> bytes:
    return data[:-4]


def _nfmd_wrong_magic(data: bytes) -> bytes:
    return b"NFMX" + data[4:]


def _nfmd_nan_cell(data: bytes) -> bytes:
    return data[:-4] + struct.pack("<f", math.nan)


def _nfmd_zero_downscale(data: bytes) -> bytes:
    return data[:12] + struct.pack("<I", 0) + data[16:]


@pytest.mark.parametrize("damage", [_nfmd_truncated_header, _nfmd_short_payload,
                                    _nfmd_wrong_magic, _nfmd_nan_cell, _nfmd_zero_downscale])
@pytest.mark.parametrize("victim", ["img0.total.nfmd", "img1.unmasked.nfmd"])
def test_damaged_density_map_exits_two_naming_it(tmp_path, damage, victim):
    paths = write_inputs(tmp_path, "annotations", ANNOTATIONS)
    maps = tmp_path / "maps"
    argv = ["gen-density", "--annotations", str(paths["annotations"]), "--out", str(maps),
            "--downscale", "4"]
    assert run(argv) == (0, "")
    count = ["eval-count", "--annotations", str(paths["annotations"]), "--density-dir", str(maps)]
    assert run(count)[0] == 0
    (maps / victim).write_bytes(damage((maps / victim).read_bytes()))
    code, err = run(count)
    assert code == 2
    assert err.startswith(f"error: {maps / victim}: "), err


@pytest.mark.parametrize("command", ["eval-count", "eval-ratio", "report-video"])
@pytest.mark.parametrize("width", [2**31, 2**52])
def test_a_frame_its_map_does_not_fit_exits_two_naming_the_map(tmp_path, command, width):
    # the map is read whole; the frame's map shape is only compared with it, never allocated
    paths = write_inputs(tmp_path, "annotations", ANNOTATIONS)
    maps = tmp_path / "maps"
    argv = ["gen-density", "--annotations", str(paths["annotations"]), "--out", str(maps),
            "--downscale", "4"]
    assert run(argv) == (0, "")
    paths = write_inputs(tmp_path, "annotations", mutated(ANNOTATIONS, (0, "width"), width))
    code, err = run([command, "--annotations", str(paths["annotations"]), "--density-dir", str(maps)])
    assert (code, err) == (2, f"error: {maps / 'img0.total.nfmd'}: 12x16 map does not fit the "
                              f"48x{width} image at downscale 4 (want 12x{width // 4})\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--sigma-default", "inf", "sigma_default must be a finite number > 0, got inf"),
    ("--truncation", "inf", "truncation_radius must be a finite number > 0, got inf"),
    ("--beta", "inf", "beta must be a finite number > 0, got inf"),
    ("--beta", "nan", "beta must be a finite number > 0, got nan"),
    ("--beta", "1e308", "beta 1e+308 makes a kernel sigma overflow to infinity"),
    ("--truncation", "1e308", "truncation_radius 1e+308 makes the radius of a kernel"),
    ("--sigma-default", "1e308", "of sigma 1e+308 overflow to infinity"),
])
def test_kernel_that_overflows_exits_two_naming_it(tmp_path, flag, value, message):
    paths = write_inputs(tmp_path, "annotations", ANNOTATIONS)
    argv = ["gen-density", "--annotations", str(paths["annotations"]),
            "--out", str(tmp_path / "maps"), flag, value]
    code, err = run(argv)
    assert code == 2 and err.startswith("error: ") and message in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("value, message", [
    ("inf", "beta must be a finite number > 0, got inf"),
    ("1e308", "beta 1e+308 makes a kernel sigma overflow to infinity"),
])
def test_synth_beta_that_overflows_exits_two_naming_it(tmp_path, value, message):
    argv = ["synth", "--seed", "3", "--out", str(tmp_path / "scene"), "--images", "2",
            "--faces-min", "3", "--faces-max", "6", "--beta", value]
    code, err = run(argv)
    assert code == 2 and err.startswith("error: ") and message in err, err


def test_width_beyond_float_range_exits_two_naming_it(tmp_path):
    # a box clamped to the int 10**400 used to escape as an OverflowError
    doc = copy.deepcopy(ANNOTATIONS)
    doc[0]["width"] = 10**400
    doc[0]["faces"][0]["box"] = [0, 4, _OVERFLOW, 22]
    paths = write_inputs(tmp_path, "annotations", doc)
    want = (f"error: {paths['annotations']}:1: width must be an integer in [1, 2**53), "
            f"got {reprlib.repr(10**400)}\n")
    for command in TARGETS["annotations"][2]:
        assert run([a.format(**paths) for a in command]) == (2, want), command


_SYNTH = ["synth", "--seed", "3", "--images", "2", "--faces-min", "1", "--faces-max", "3",
          "--width", "48", "--height", "40"]
_GRADCHECK = ["gradcheck", "--trials", "1", "--max-size", "1", "--max-channels", "1"]


@pytest.mark.parametrize("literal, value", [("Infinity", math.inf), ("-Infinity", -math.inf),
                                            ("1e400", math.inf)])
@pytest.mark.parametrize("target, face", [("annotations", "face"), ("detections", "detection")])
def test_non_finite_box_coordinate_exits_two_naming_the_face(tmp_path, target, face, literal,
                                                             value):
    # an annotation's clamp into its frame used to turn it into a finite coordinate
    doc = copy.deepcopy(TARGETS[target][0])
    box = doc[0][f"{face}s"][1]["box"]
    box[2] = _OVERFLOW
    paths = write_inputs(tmp_path, target, doc)
    paths[target].write_text(paths[target].read_text().replace("1e400", literal))
    want = f"error: {paths[target]}:1: {face} 1: box[2] must be a finite number, got {value!r}\n"
    for command in TARGETS[target][2]:
        assert run([a.format(**paths) for a in command]) == (2, want), command


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("target, line, key", [("annotations", 2, "condition"),
                                               ("detections", 2, "condition"),
                                               ("fixture", None, "image")])
def test_json_nested_past_the_recursion_limit_exits_two_naming_it(tmp_path, target, line, key):
    # it used to escape as a RecursionError traceback
    paths = write_inputs(tmp_path, target, TARGETS[target][0])
    lines = paths[target].read_text().splitlines(keepends=True)  # a fixture is one line
    k = (line or 1) - 1
    lines[k] = lines[k].replace(f'"{key}": ', f'"x": {_DEEP}, "{key}": ', 1)
    paths[target].write_text("".join(lines))
    where = paths[target] if line is None else f"{paths[target]}:{line}"
    want = f"error: {where}: invalid JSON: nested too deeply to decode\n"
    for command in TARGETS[target][2]:
        assert run([a.format(**paths) for a in command]) == (2, want), command


def test_fixture_syntax_error_names_its_line_and_column(tmp_path):
    paths = write_inputs(tmp_path, "fixture", FIXTURE)
    text = json.dumps(FIXTURE, indent=1).replace('"pos_iou": 0.5', '"pos_iou": ,')
    paths["fixture"].write_text(text)
    at = text.index('"pos_iou": ,') + len('"pos_iou": ')
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert line > 1
    want = f"error: {paths['fixture']}:{line}:{column}: invalid JSON: Expecting value\n"
    for command in TARGETS["fixture"][2]:
        assert run([a.format(**paths) for a in command]) == (2, want), command


@pytest.mark.parametrize("target", ["annotations", "detections"])
def test_json_error_at_the_end_of_a_line_names_that_line(tmp_path, target):
    # json places it past the line feed, on the next line; the message keeps it on its own
    paths = write_inputs(tmp_path, target, TARGETS[target][0])
    lines = paths[target].read_text().splitlines(keepends=True)
    lines[0] = lines[0].removesuffix("}\n") + "\n"
    paths[target].write_text("".join(lines))
    want = f"error: {paths[target]}:1:1: invalid JSON: Expecting ',' delimiter\n"
    for command in TARGETS[target][2]:
        assert run([a.format(**paths) for a in command]) == (2, want), command


@pytest.mark.parametrize("argv, message", [
    (_SYNTH + ["--face-size-max", "inf"], "face_size_max must be a finite number >= 12.0, got inf"),
    (_SYNTH + ["--fp-rate", "nan"], "false_positive_rate must be a finite number in [0, 2**53], got nan"),
    (_SYNTH + ["--jitter-sigma", "inf"], "jitter_sigma must be a finite number >= 0, got inf"),
    (_GRADCHECK + ["--step", "0"], "step must be a finite number > 0, got 0.0"),
    (_GRADCHECK + ["--step", "nan"], "step must be a finite number > 0, got nan"),
    (_GRADCHECK + ["--tolerance", "inf"], "tolerance must be a finite number >= 0, got inf"),
    (_GRADCHECK + ["--max-size", "0"], "max_size must be an integer >= 1, got 0"),
    (_GRADCHECK + ["--max-channels", "0"], "max_channels must be an integer >= 1, got 0"),
])
def test_non_finite_numeric_flag_exits_two_naming_it(tmp_path, argv, message):
    out = ["--out", str(tmp_path / "out")]
    assert run(argv + out) == (2, f"error: {message}\n")


@pytest.mark.parametrize("step", ["5e-324", "1e-320", "1e-310", "1e300"])
def test_a_step_that_float64_cannot_difference_exits_two_naming_it(tmp_path, step):
    # a NaN relative error was dropped by the running maximum, so the check passed
    code, err = run(["gradcheck", "--trials", "3", "--step", step, "--out", str(tmp_path / "out")])
    assert code == 2 and re.fullmatch(r"error: step [^\n]*\n", err), err
    assert not (tmp_path / "out").exists()


def test_a_false_positive_rate_beyond_the_poisson_sampler_exits_two_naming_it(tmp_path):
    # numpy's "lam value too large" named no flag
    out = tmp_path / "out"
    assert run(_SYNTH + ["--fp-rate", "1e300", "--out", str(out)]) == (
        2, "error: false_positive_rate must be a finite number in [0, 2**53], got 1e+300\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**1100], ids=["negative", "beyond-float-range"])
@pytest.mark.parametrize("argv", [_SYNTH, _GRADCHECK], ids=["synth", "gradcheck"])
def test_seed_outside_its_domain_exits_two_naming_it(tmp_path, argv, seed):
    # numpy's own "expected non-negative integer" used to be the message; it takes 2**1100
    out = tmp_path / "out"
    want = f"error: seed must be an integer >= 0, got {reprlib.repr(seed)}\n"
    assert run(argv + ["--seed", str(seed), "--out", str(out)]) == (2, want)
    assert not out.exists()


@pytest.mark.parametrize("path, value, message", [
    (("loss", "normalize"), "false", "loss.normalize must be true or false, got 'false'"),
    (("loss", "normalize"), 1, "loss.normalize must be true or false, got 1"),
    (("anchors", "levels"), [3.9], "anchors.levels[0] must be an integer, got 3.9"),
    (("anchors", "levels"), 3, "anchors.levels must be a list of integers, got 3"),
    (("image", "width"), 16.9, "image.width must be an integer, got 16.9"),
    (("image", "width"), "16", "image.width must be an integer, got '16'"),
    (("image", "height"), True, "image.height must be an integer, got True"),
    (("matching", "pos_iou"), "0.5", "matching.pos_iou must be a finite number, got '0.5'"),
    (("predictions", "class"), ["0.5"] * 12, "predictions.class[0] must be a finite number, got '0.5'"),
    (("predictions", "box"), [["0.1", 0, 0, 0]] * 12,
     "predictions.box[0][0] must be a finite number, got '0.1'"),
    (("predictions", "box"), [0.1, 0, 0, 0] * 12,
     "predictions.box[0] must be a list of numbers, got 0.1"),
    (("loss", "alpha"), True, "loss.alpha must be a finite number, got True"),
    (("loss", "gamma"), None, "loss.gamma must be a finite number, got None"),
    (("predictions", "objectness"), [True] * 12,
     "predictions.objectness[0] must be a finite number, got True"),
    (("anchors", "scales", "3"), [True], "anchors.scales['3'][0] must be a finite number, got True"),
    (("anchors", "ratios"), [1, "2"], "anchors.ratios[1] must be a finite number, got '2'"),
    (("ground_truth",), 5, "ground_truth must be a list, got 5"),
    (("image",), list(range(100_000)), "expected an object holding 'width', got [0, 1, 2, 3, 4, 5, ...]"),
    (("anchors", "levels"), None, "missing field 'levels'"),
])
def test_mistyped_loss_fixture_value_exits_two_naming_its_field(tmp_path, path, value, message):
    # these were converted with int(), float() and bool() and gave a report
    doc = dropped(FIXTURE, path) if message.startswith("missing") else mutated(FIXTURE, path, value)
    paths = write_inputs(tmp_path, "fixture", doc)
    for command in TARGETS["fixture"][2]:
        assert run([a.format(**paths) for a in command]) == (2, f"error: {paths['fixture']}: {message}\n")


@pytest.mark.parametrize("path, value, message", [
    (("matching", "pos_iou"), math.nan, "matching.pos_iou must be a finite number, got nan"),
    (("matching", "pos_iou"), math.inf, "matching.pos_iou must be a finite number, got inf"),
    (("matching", "neg_iou"), -math.inf, "matching.neg_iou must be a finite number, got -inf"),
    (("loss", "alpha"), math.nan, "loss.alpha must be a finite number, got nan"),
    (("loss", "gamma"), -math.inf, "loss.gamma must be a finite number, got -inf"),
    (("anchors", "scales"), {"3.0": [8]}, "anchors.scales keys must be integers, got '3.0'"),
    (("anchors",), {"levels": [-1100], "scales": {"-1100": [8]}},
     "pyramid level must be an integer in [-1074, 1023], got -1100"),
    (("anchors",), {"levels": [-1100]}, "pyramid level must be an integer in [-1074, 1023], got -1100"),
    (("anchors",), {"levels": [2000], "scales": {"2000": [8]}},
     "pyramid level must be an integer in [-1074, 1023], got 2000"),
    (("anchors",), {"levels": [2000]}, "pyramid level must be an integer in [-1074, 1023], got 2000"),
    # focal loss needs alpha in [0, 1] and gamma >= 0; matching needs IoUs in [0, 1]
    (("loss", "gamma"), -2000, "gamma must be a finite number >= 0, got -2000.0"),
    (("loss", "alpha"), 1e300, "alpha must be a finite number in [0, 1], got 1e+300"),
    (("loss", "alpha"), -0.25, "alpha must be a finite number in [0, 1], got -0.25"),
    (("matching", "pos_iou"), 7, "pos_iou must be a finite number in [0.3, 1], got 7.0"),
    (("matching", "pos_iou"), 0.2, "pos_iou must be a finite number in [0.3, 1], got 0.2"),
    (("matching", "neg_iou"), -0.5, "neg_iou must be a finite number in [0, 1], got -0.5"),
    # a level whose grid would not fit in memory, or whose stride is subnormal
    (("anchors",), {"levels": [-1074], "scales": {"-1074": [8]}},
     "pyramid level -1074 of a 16 x 16 frame needs a grid of more than 2**53 cells"),
    (("anchors",), {"levels": [-40], "scales": {"-40": [8]}},
     "pyramid level -40 of a 16 x 16 frame needs a grid of more than 2**53 cells"),
    # ints beyond float range
    (("image", "width"), 10**400, f"image.width must be an integer, got {reprlib.repr(10**400)}"),
    (("matching", "pos_iou"), 10**400,
     f"matching.pos_iou must be a finite number, got {reprlib.repr(10**400)}"),
    (("predictions", "objectness", 0), 10**400,
     f"predictions.objectness[0] must be a finite number, got {reprlib.repr(10**400)}"),
])
def test_out_of_range_loss_fixture_value_exits_two_naming_it(tmp_path, path, value, message):
    # these gave a report (in CSV; JSON refused to write nan), a traceback, or a message naming
    # neither the field nor the level
    paths = write_inputs(tmp_path, "fixture", mutated(FIXTURE, path, value))
    for command in TARGETS["fixture"][2]:
        assert run([a.format(**paths) for a in command]) == (2, f"error: {paths['fixture']}: {message}\n")


@pytest.mark.parametrize("value", [2**32, 2**63, 10**23])
@pytest.mark.parametrize("argv", [
    ["gen-density", "--annotations", "{annotations}", "--out", "{root}/maps", "--downscale"],
    _SYNTH + ["--out", "{root}/maps", "--density-downscale"],
])
def test_density_header_beyond_u32_exits_two_and_writes_no_map(tmp_path, argv, value):
    # rejected before anything is written: not even --out is made
    paths = write_inputs(tmp_path, "annotations", ANNOTATIONS)
    code, err = run([a.format(root=tmp_path, **paths) for a in argv] + [str(value)])
    assert code == 2 and f"downscale must be an integer in [1, 2**32), got {value}" in err, err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "maps").exists()


_BAD_THRESHOLDS = [
    ("--conf-thr", "nan", "conf_thr must be a finite number in [0, 1], got nan"),
    ("--conf-thr", "-0.5", "conf_thr must be a finite number in [0, 1], got -0.5"),
    ("--conf-thr", "1.5", "conf_thr must be a finite number in [0, 1], got 1.5"),
    ("--nms-iou", "nan", "iou_thr must be a finite number in (0, 1], got nan"),
    ("--nms-iou", "0", "iou_thr must be a finite number in (0, 1], got 0.0"),
    ("--nms-iou", "7", "iou_thr must be a finite number in (0, 1], got 7.0"),
]
_ESTIMATES = {
    "detections": ["--detections", "{detections}"],
    "density-dir": ["--density-dir", "{root}/maps"],
    "empty detections": ["--detections", "{root}/empty.jsonl"],
}


@pytest.mark.parametrize("command, route, flag, value, message", [
    *((command, route, *bad) for command in ("eval-ratio", "report-video")
      for route in _ESTIMATES for bad in _BAD_THRESHOLDS),
    *(("eval-det", route, flag, value, message) for route in ("detections", "empty detections")
      for flag in ("--nms-iou", "--iou-thr")
      for nms, value, message in _BAD_THRESHOLDS if nms == "--nms-iou"),
    *(("eval-ratio", route, "--min-faces", "-1", "min_faces_per_image must be an integer >= 0, got -1")
      for route in _ESTIMATES),
])
def test_bad_threshold_exits_two_before_any_input_is_read(tmp_path, command, route, flag,
                                                          value, message):
    paths = write_inputs(tmp_path, "annotations", ANNOTATIONS)
    (tmp_path / "empty.jsonl").write_text("")
    assert run(["gen-density", "--annotations", str(paths["annotations"]),
                "--out", str(tmp_path / "maps")]) == (0, "")
    argv = [command, "--annotations", "{annotations}", *_ESTIMATES[route], f"{flag}={value}"]
    argv = [a.format(root=tmp_path, **paths) for a in argv]
    assert run(argv) == (2, f"error: {message}\n")
    # the flag is reported even when an input is missing
    paths["annotations"].unlink()
    assert run(argv) == (2, f"error: {message}\n")


def _numeric_options(parser):
    """(command, option, type) of every int or float option of every subcommand."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.type in (int, float):
                yield command, action.option_strings[-1], action.type


def test_every_numeric_flag_exits_zero_or_two(tmp_path):
    scene = tmp_path / "scene"
    assert run(_SYNTH + ["--out", str(scene)])[0] == 0
    fixture = tmp_path / "fixture.json"
    fixture.write_text(dumps(FIXTURE))
    ann, det = str(scene / "annotations.jsonl"), str(scene / "detections.jsonl")
    dens = str(scene / "density")
    base = {
        "synth": [_SYNTH + ["--out", str(tmp_path / "synth")]],
        "stats": [["stats", "--train", ann, "--test", ann]],
        "gen-density": [["gen-density", "--annotations", ann, "--out", str(tmp_path / "maps")]],
        "eval-det": [["eval-det", "--annotations", ann, "--detections", det]],
        "eval-count": [["eval-count", "--annotations", ann, "--density-dir", dens]],
        "eval-ratio": [["eval-ratio", "--annotations", ann, "--detections", det],
                       ["eval-ratio", "--annotations", ann, "--density-dir", dens]],
        "report-video": [["report-video", "--annotations", ann, "--detections", det],
                         ["report-video", "--annotations", ann, "--density-dir", dens]],
        "gradcheck": [_GRADCHECK],
        "loss-eval": [["loss-eval", "--fixture", str(fixture)]],
    }
    options = list(_numeric_options(build_parser()))
    assert {c for c, _, _ in options} == set(base)
    for command, option, kind in options:
        values = ("nan", "inf", "0", "-1", "1e300", "5e-324") if kind is float else ("0", "-1")
        for value in values:
            for route in base[command]:
                argv = route + [f"{option}={value}"]
                code, err = run(argv)
                assert code in (0, 2), (argv, err)
                assert "encountered in" not in err, (argv, err)  # a numpy warning
                if code == 2 and not (command == "gradcheck" and err == ""):  # a failed check
                    assert re.fullmatch(r"error: [^\n]+\n", err), (argv, err)
                    assert not any(text in err for text in INTERNAL_TEXTS), (argv, err)


# ---------------------------------------------------------------------------
# text that is not UTF-8, and ids that no report or map file can hold

_NOT_UTF8 = {
    # the byte is in the same read as line 1's error, which wins
    "after-an-error": (b'{"image_id": "", "video_id": "v"}\n{"image_id": "\xff"}\n',
                       ":1: image_id must be a non-empty string"),
    "only-line": (b'{"image_id": "\xff"}\n', ":1:15: invalid UTF-8"),
}
_REPORT = ["--out", "{root}/report.csv"]
_DENSITY_ROUTE = [
    ["gen-density", "--annotations", "{annotations}", "--out", "{root}/maps"],
    ["eval-count", "--annotations", "{annotations}", "--density-dir", "{root}/maps", *_REPORT],
    ["eval-ratio", "--annotations", "{annotations}", "--density-dir", "{root}/maps",
     "--scatter", "{root}/scatter.csv", *_REPORT],
    ["report-video", "--annotations", "{annotations}", "--density-dir", "{root}/maps", *_REPORT],
]


def left_behind(root):
    return {"report.csv", "maps", "scatter.csv"} & {p.name for p in root.iterdir()}


def assert_exits_two_leaving_nothing(root, paths, target, line, argv, want):
    """argv exits 2 with error: want, in the located form at line (if given), and
    leaves no report, map directory or scatter file in root."""
    argv = [a.replace("{root}", str(root)) for a in argv]
    check_exit(paths, target, None if line is None else (line - 1,), argv)
    assert run([a.format(**paths) for a in argv]) == (2, f"error: {want}\n"), argv
    assert not left_behind(root), argv


@pytest.mark.parametrize("target", ["annotations", "detections"])
@pytest.mark.parametrize("case", sorted(_NOT_UTF8))
def test_a_byte_that_is_not_utf8_exits_two_at_its_line(tmp_path, target, case):
    data, want = _NOT_UTF8[case]
    paths = write_inputs(tmp_path, target, TARGETS[target][0])
    paths[target].write_bytes(data)
    for command in TARGETS[target][2]:
        assert_exits_two_leaving_nothing(tmp_path, paths, target, 1, [*command, *_REPORT],
                                         f"{paths[target]}{want}")


@pytest.mark.parametrize("indent", [None, 1], ids=["one-line", "indented"])
def test_a_byte_that_is_not_utf8_in_a_loss_fixture_exits_two_at_its_line(tmp_path, indent):
    text = json.dumps(FIXTURE, indent=indent)
    before = text[: text.index('"unknown"') + len('"unkn')].split("\n")
    paths = write_inputs(tmp_path, "fixture", FIXTURE)
    paths["fixture"].write_bytes(text.replace('"unknown"', '"unkn\udcffown"').encode(
        "utf-8", "surrogateescape"))
    for command in TARGETS["fixture"][2]:
        assert_exits_two_leaving_nothing(
            tmp_path, paths, "fixture", None, [*command, *_REPORT],
            f"{paths['fixture']}:{len(before)}:{len(before[-1]) + 1}: invalid UTF-8")


@pytest.mark.parametrize("key", ["image_id", "video_id"])
@pytest.mark.parametrize("files", [("annotations", "detections"), ("detections",)],
                         ids=["both-files", "detections-only"])
def test_an_id_that_utf8_cannot_encode_exits_two_at_its_line(tmp_path, key, files):
    # JSON's "\ud800" decodes to a lone surrogate, which no report or map name can hold
    docs = {"annotations": copy.deepcopy(ANNOTATIONS), "detections": copy.deepcopy(DETECTIONS)}
    for name in files:
        docs[name][1][key] = "i\ud800"
    paths = write_inputs(tmp_path, "annotations", docs["annotations"])
    paths["detections"].write_text("\n".join(dumps(r) for r in docs["detections"]) + "\n")
    commands = [[*c, *_REPORT] for c in TARGETS["detections"][2]]
    for command in commands + (_DENSITY_ROUTE if len(files) == 2 else []):
        assert_exits_two_leaving_nothing(
            tmp_path, paths, files[0], 2, command,
            f"{paths[files[0]]}:2: {key} 'i\\ud800' cannot be written as UTF-8")


def test_an_image_id_holding_nul_names_no_density_map(tmp_path, monkeypatch):
    def render(*_):
        raise AssertionError("rendered a map")

    monkeypatch.setattr(cli, "render_density", render)
    ann, det = copy.deepcopy(ANNOTATIONS), copy.deepcopy(DETECTIONS)
    ann[0]["image_id"] = det[0]["image_id"] = "i\x00x"
    paths = write_inputs(tmp_path, "annotations", ann)
    paths["detections"].write_text("\n".join(dumps(r) for r in det) + "\n")
    # the detection route names no file after an image
    for command in TARGETS["annotations"][2]:
        check_exit(paths, "annotations", (0,), command)
        assert run([a.format(**paths) for a in command]) == (0, "")
    # the density route refuses it before it renders, reads or writes anything; the
    # message has the unlocated form of the path-separator one
    for command in _DENSITY_ROUTE:
        argv = [a.format(root=tmp_path, **paths) for a in command]
        assert run(argv) == (2, "error: image_id 'i\\x00x' holds a NUL character, so it "
                                "cannot name a density map file\n"), argv
        assert not left_behind(tmp_path), argv
