"""The block-checked JSONL loaders against the line-at-a-time object loaders.

For every input the array loaders and the reference loaders of oracles.py
either both raise DataFormatError with the same text or both return records
whose value-object tuples compare equal; the SmallFaceWarnings emitted on the
way, with the frame they name, are the same too. The inputs are the valid
documents of test_exit_codes with one field set to a hostile value or dropped,
and documents longer than one block with the mutation past the first block.
The loaders' block fast path, which decodes with orjson, is also held to their
per-line path, on inputs that orjson and json read differently.
"""

import contextlib
import copy
import decimal
import io
import json
import math
import re
import reprlib
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maskbench import cli, dataset
from maskbench.cli import main
from maskbench.dataset import (
    SynthParams,
    load_annotations,
    load_detections,
    synth_scene,
    write_synth_scene,
)
from maskbench.errors import DataFormatError
from maskbench.geometry import FACE_LABELS, BBox, Detection, FaceLabel, boxes_to_array

from oracles import dataset_stats_loops, load_annotations_objects, load_detections_objects
from test_exit_codes import (
    ANNOTATIONS,
    DETECTIONS,
    HOSTILE,
    dropped,
    dumps,
    field_paths,
    mutated,
)

LOADERS = {
    "annotations": (load_annotations, load_annotations_objects),
    "detections": (load_detections, load_detections_objects),
}


def outcome(load, path):
    """("ok", records) or (error type, message), and the warnings as (text, category, file, line).

    The errors caught are those that mrb reports with exit code 2.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", load(path))
        except (DataFormatError, OSError, ValueError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def faces_of(kind, result):
    """Each record's header fields and its value-object tuple."""
    if kind == "annotations":
        return [((r.image_id, r.meta, r.width, r.height), r.annotations) for r in result.images]
    return [((r.image_id, r.meta), r.detections) for r in result]


def assert_equivalent(kind, path):
    load, oracle = LOADERS[kind]
    (got, got_warnings), (want, want_warnings) = outcome(load, path), outcome(oracle, path)
    assert got_warnings == want_warnings
    assert got[0] == want[0], (got, want)
    assert got[1] == want[1]
    if got[0] != "ok":
        return
    assert faces_of(kind, got[1]) == faces_of(kind, want[1])
    records = got[1].images if kind == "annotations" else got[1]
    for rec, (_, objects) in zip(records, faces_of(kind, want[1])):
        # bytes, not ==: a -0.0 coordinate must stay -0.0 for the writers
        want_boxes = boxes_to_array(o.box for o in objects)
        assert rec.boxes.shape == want_boxes.shape
        assert rec.boxes.tobytes() == want_boxes.tobytes()
        assert [FACE_LABELS[c] for c in rec.labels.tolist()] == [o.label for o in objects]
        if kind == "detections":
            assert rec.conf.tolist() == [o.confidence for o in objects]


def write_jsonl(path, doc):
    path.write_text("".join(dumps(line) + "\n" for line in doc))


SHORT = {"annotations": ANNOTATIONS, "detections": DETECTIONS}


def _long_line(kind, i):
    head = {"image_id": f"img{i}", "video_id": f"v{i % 3}", "condition": "DT" if i % 2 else "NT"}
    if kind == "annotations":
        faces = [{"box": [i % 40, 3, i % 40 + 12 + i % 7, 30], "label": "masked"},
                 {"box": [-0.0, -4, 5 + i % 11, 12.5], "label": ("unmasked", "unknown")[i % 2]},
                 {"box": [50, 40, 70.25, 90], "label": "unmasked"}]
        return {**head, "period": "during", "width": 64, "height": 48,
                "faces": (faces * 4)[: i % 12]}
    dets = [{"box": [i % 40, -0.0, i % 40 + 9.5, 14], "label": "masked", "conf": 0.5},
            {"box": [1, 2, 3, 4 + i], "label": "unmasked", "conf": i % 2},
            {"box": [-3, 5, 1e6, 7], "label": "masked", "conf": 1 / (i + 1)}]
    return {**head, "detections": (dets * 4)[: i % 12]}


def long_doc(kind, blocks=1.25):
    """About blocks loader blocks of lines, with small, clamped, -0.0 and unknown faces."""
    doc, size = [], 0
    while size < blocks * dataset._LOAD_BLOCK_CHARS:
        doc.append(_long_line(kind, len(doc)))
        size += len(dumps(doc[-1])) + 1
    return doc


def first_block_lines(doc):
    """How many of doc's lines the loaders check in their first block."""
    size = 0
    for n, line in enumerate(doc, start=1):
        size += len(dumps(line)) + 1
        if size >= dataset._LOAD_BLOCK_CHARS:
            return n
    return len(doc)


def mutation_paths(doc, first_line=0):
    return [p for p in field_paths(doc) if p[0] >= first_line]


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_documents_load_equal(tmp_path, kind):
    for name, doc in (("short", SHORT[kind]), ("long", long_doc(kind))):
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(path, doc)
        assert_equivalent(kind, path)


def test_a_width_beyond_float_precision_is_rejected(tmp_path):
    # no float64 holds the int 2**53 + 1, so the array clamp to it could not
    # match Python's; both loaders reject the header, before any box
    doc = copy.deepcopy(ANNOTATIONS)
    doc[0]["width"] = 2**53 + 1
    doc[0]["faces"][0]["box"] = [0, 4, 1e30, 22]
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    assert_equivalent("annotations", path)
    with pytest.raises(DataFormatError) as exc:
        load_annotations(path)
    assert str(exc.value) == f"{path}:1: width must be an integer in [1, 2**53), got {2**53 + 1}"


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_one_hostile_field(tmp_path_factory, kind):
    path = tmp_path_factory.mktemp(kind) / "in.jsonl"
    doc = SHORT[kind]

    @SETTINGS
    @given(st.sampled_from(list(field_paths(doc))), HOSTILE)
    def check(field, value):
        write_jsonl(path, mutated(doc, field, value))
        assert_equivalent(kind, path)

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_one_dropped_field(tmp_path_factory, kind):
    path = tmp_path_factory.mktemp(kind) / "in.jsonl"
    doc = SHORT[kind]

    @settings(SETTINGS, max_examples=60)
    @given(st.sampled_from(list(field_paths(doc))))
    def check(field):
        write_jsonl(path, dropped(doc, field))
        assert_equivalent(kind, path)

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_mutation_past_the_first_block(tmp_path_factory, kind):
    path = tmp_path_factory.mktemp(kind) / "in.jsonl"
    doc = long_doc(kind)
    paths = mutation_paths(doc, first_line=first_block_lines(doc))

    @settings(SETTINGS, max_examples=30)
    @given(st.sampled_from(paths), st.one_of(HOSTILE, st.just(dropped)))
    def check(field, value):
        write_jsonl(path, dropped(doc, field) if value is dropped else mutated(doc, field, value))
        assert_equivalent(kind, path)

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", ["first-block", "across-blocks", "second-block"])
def test_duplicate_image_id_within_and_across_blocks(tmp_path, kind, case):
    doc = long_doc(kind)
    block = first_block_lines(doc)
    first, second = {"first-block": (3, 5), "across-blocks": (3, block + 2),
                     "second-block": (block + 1, block + 9)}[case]
    doc[second]["image_id"] = doc[first]["image_id"]
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError, match=f"{path}:{second + 1}: duplicate image_id"):
        LOADERS[kind][0](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("key, value", [("image_id", "\udc00x"), ("video_id", "\ud800")])
def test_an_id_that_utf8_cannot_encode_is_refused_as_by_the_oracle(tmp_path, kind, key, value):
    doc = copy.deepcopy(SHORT[kind])
    doc[1][key] = value
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError) as exc:
        LOADERS[kind][0](path)
    assert str(exc.value) == f"{path}:2: {key} {value!r} cannot be written as UTF-8"


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("old, new, key", [
    ('"video_id": ', '"video_id": "v", "video_id": ', "video_id"),
    ('"box": ', '"label": "masked", "box": ', "label"),
    ('"video_id": ', '"x": {"a": 1, "a": 2}, "video_id": ', "a"),
    ('"video_id": ', '"video_id": "a:b", "video_id": ', "video_id"),
    ('"video_id": ', '"x": "a:b", "video_id": ', None),
], ids=["header", "face", "nested", "colon-in-string", "colon-no-repeat"])
def test_repeated_key_past_the_first_block(tmp_path, kind, old, new, key):
    # at any depth, in a block that the block loader reads, and with ':' in strings
    doc = long_doc(kind)
    lines = [dumps(line) for line in doc]
    # a line past the first block that holds faces
    lineno = next(n for n in range(first_block_lines(doc) + 2, len(doc)) if '"box": ' in lines[n - 1])
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    path = tmp_path / "in.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert_equivalent(kind, path)
    if key is None:
        LOADERS[kind][0](path)
    else:
        with pytest.raises(DataFormatError, match=f"{path}:{lineno}: repeated key {key!r}"):
            LOADERS[kind][0](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_repeated_key_comes_before_trailing_text(tmp_path, kind):
    # the object closes, and its repeat is found, before the text after it is read
    lines = [dumps(line) for line in long_doc(kind)]
    lines[0] = lines[0].replace('"video_id": ', '"video_id": "v", "video_id": ', 1) + " x"
    path = tmp_path / "in.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError, match=f"{path}:1: repeated key 'video_id'"):
        LOADERS[kind][0](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_bom_is_invalid_json(tmp_path, kind):
    lines = [dumps(line) for line in long_doc(kind)]
    path = tmp_path / "in.jsonl"
    path.write_text("\ufeff" + "".join(line + "\n" for line in lines), encoding="utf-8")
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError, match=f"{path}:1:1: invalid JSON: Unexpected UTF-8 BOM"):
        LOADERS[kind][0](path)


def assert_same_as(kind, path, plain):
    """path loads to plain's records, with the same warnings but for the file name."""
    (got, got_warnings), (want, want_warnings) = (outcome(LOADERS[kind][0], p) for p in (path, plain))
    assert got == want
    assert [(str(w[0]).replace(str(path), str(plain)), *w[1:]) for w in got_warnings] == want_warnings


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_bare_cr_inside_a_line_is_whitespace(tmp_path, kind):
    # only \n ends a line: a bare \r between tokens is JSON whitespace
    lines = [dumps(line) for line in long_doc(kind)]
    plain, path = tmp_path / "plain.jsonl", tmp_path / "in.jsonl"
    plain.write_bytes("".join(line + "\n" for line in lines).encode())
    path.write_bytes("".join(line.replace(", ", ",\r", 1) + "\n" for line in lines).encode())
    assert_equivalent(kind, path)
    assert_same_as(kind, path, plain)
    # and every later line keeps its number
    bad = len(lines) - 1
    lines[bad - 1] = "x"
    path.write_bytes("".join(line.replace(", ", ",\r", 1) + "\n" for line in lines).encode())
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError, match=f"{path}:{bad}:1: invalid JSON: Expecting value"):
        LOADERS[kind][0](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_crlf_file_loads_as_lf(tmp_path, kind):
    lines = [dumps(line) for line in long_doc(kind)]
    plain, path = tmp_path / "plain.jsonl", tmp_path / "in.jsonl"
    plain.write_bytes("".join(line + "\n" for line in lines).encode())
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert_equivalent(kind, path)
    assert_same_as(kind, path, plain)
    # an error past the first block names its own line
    bad = first_block_lines(long_doc(kind)) + 3
    lines[bad - 1] = lines[bad - 1].replace('"video_id": ', '"video_id": "", "v": ', 1)
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError, match=f"{path}:{bad}: video_id must be a non-empty string"):
        LOADERS[kind][0](path)


def test_json_error_ends_without_a_dangling_word(tmp_path):
    # the column is in the prefix, so json's trailing "at" is dropped
    path = tmp_path / "d.jsonl"
    good = dumps({"image_id": "a", "video_id": "v", "condition": "DT", "detections": []})
    path.write_text(good + "\n" + '{"image_id": "\x01"}\n')
    assert_equivalent("detections", path)
    with pytest.raises(DataFormatError) as err:
        load_detections(path)
    assert str(err.value) == f"{path}:2:15: invalid JSON: Invalid control character"


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_read_error_comes_after_the_lines_before_it(tmp_path, kind):
    # invalid UTF-8 deep in the file: the faces before it warn first, and a data
    # error in an earlier line wins, as when the file is read line by line
    doc = long_doc(kind)
    path = tmp_path / "in.jsonl"
    text = "".join(dumps(line) + "\n" for line in doc).encode()
    path.write_bytes(text + b'{"image_id": "\xff"}\n')
    assert_equivalent(kind, path)
    doc[first_block_lines(doc) + 5]["video_id"] = ""
    text = "".join(dumps(line) + "\n" for line in doc).encode()
    path.write_bytes(text + b'{"image_id": "\xff"}\n')
    assert_equivalent(kind, path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("data, want", [
    # the bad byte is in the same 8 KiB read as line 1's error, which wins
    (b'{"image_id": "", "video_id": "v"}\n{"image_id": "\xff"}\n',
     ":1: image_id must be a non-empty string"),
    (b'{"image_id": "\xff"}\n', ":1:15: invalid UTF-8"),
    # the column counts characters, as a JSON syntax error's does
    (b'\n{"image_id": "\xc3\xa9\xff"}', ":2:16: invalid UTF-8"),
    # a sequence cut short by the end of the file
    (b'{"image_id": "\xe2\x82', ":1:15: invalid UTF-8"),
    # a lone surrogate written as UTF-8 bytes is not UTF-8 either
    (b'{"image_id": "\xed\xa0\x80"}\n', ":1:15: invalid UTF-8"),
], ids=["after-an-error", "only-line", "after-a-character", "cut-short", "encoded-surrogate"])
def test_a_byte_that_is_not_utf8_is_a_data_error_at_its_line(tmp_path, kind, data, want):
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    assert_equivalent(kind, path)
    with pytest.raises(DataFormatError) as err:
        LOADERS[kind][0](path)
    assert str(err.value) == f"{path}{want}"


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_byte_that_is_not_utf8_comes_after_the_warnings_before_it(tmp_path, kind):
    # the long document's first six lines hold small faces, which warn before line 7's byte
    lines = [dumps(line).encode() for line in long_doc(kind)[:6]]
    path = tmp_path / "in.jsonl"
    path.write_bytes(b"\n".join([*lines, b'{"image_id": "\xff"}']))
    assert_equivalent(kind, path)
    got, caught = outcome(LOADERS[kind][0], path)
    assert got == ("DataFormatError", f"{path}:7:15: invalid UTF-8")
    assert (kind == "annotations") == bool(caught)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_line_of_no_break_spaces_is_blank(tmp_path, kind):
    # str.strip decides what is blank, so U+00A0 alone is skipped and line numbers hold
    lines = [dumps(line) for line in long_doc(kind, 0.05)]
    plain, path = tmp_path / "plain.jsonl", tmp_path / "in.jsonl"
    plain.write_text("\n".join(["", *lines]) + "\n", encoding="utf-8")
    path.write_text("\n".join(["\u00a0\u00a0", *lines]) + "\n", encoding="utf-8")
    assert_equivalent(kind, path)
    assert_same_as(kind, path, plain)


def test_records_are_read_only_and_compare_by_value(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, long_doc("annotations", 0.05))
    rec = load_annotations(path).images[5]
    with pytest.raises(ValueError):
        rec.boxes[0, 0] = 1.0
    with pytest.raises(AttributeError):
        rec.width = 3
    rebuilt = dataset.ImageRecord(rec.image_id, rec.meta, rec.width, rec.height, rec.annotations)
    assert rebuilt == rec and hash(rebuilt) == hash(rec)
    assert rebuilt != dataset.ImageRecord(rec.image_id, rec.meta, rec.width, rec.height)


# ---------------------------------------------------------------------------
# the commands that count faces or score detections read the arrays, never the
# value objects


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_array_paths_build_no_value_objects(tmp_path, monkeypatch):
    scene = tmp_path / "scene"
    write_synth_scene(synth_scene(SynthParams(seed=5, n_images=12, faces_min=0, faces_max=12,
                                              image_width=96, image_height=64,
                                              unknown_probability=0.2, false_positive_rate=1.0)),
                      scene)

    def refuse(*args):
        raise AssertionError("a value object was built")

    # every Annotation and Detection holds a BBox, wherever it is built
    monkeypatch.setattr(BBox, "__post_init__", refuse)
    ann, det, dens = scene / "annotations.jsonl", scene / "detections.jsonl", scene / "density"
    on_detections = [
        ["eval-ratio", "--annotations", ann, "--detections", det, "--by-condition",
         "--min-faces", "1", "--scatter", tmp_path / "scatter.csv"],
        ["report-video", "--annotations", ann, "--detections", det],
        ["eval-det", "--annotations", ann, "--detections", det],
    ]
    calls = []  # (candidates, kept) per NMS call
    nms = cli.nms

    def counted_nms(rec, iou_thr):
        kept = nms(rec, iou_thr)
        calls.append((len(rec), len(kept)))
        return kept

    monkeypatch.setattr(cli, "nms", counted_nms)
    for argv in (
        *on_detections,
        # NMS keeps records, so --nms-iou builds no Detection either
        *([*argv, "--nms-iou", "0.4"] for argv in on_detections),
        ["eval-ratio", "--annotations", ann, "--density-dir", dens, "--min-faces", "1"],
        ["report-video", "--annotations", ann, "--density-dir", dens],
        ["eval-count", "--annotations", ann, "--density-dir", dens],
        ["gen-density", "--annotations", ann, "--out", tmp_path / "maps",
         "--subsets", "total,masked,unmasked"],
    ):
        assert _run([str(a) for a in argv]) == (0, ""), argv
    n_in, n_kept = (sum(c) for c in zip(*calls))
    assert len(calls) == 3 * 12 and n_kept < n_in  # the scene has candidates that NMS drops

    # the guard itself works: reading a record's value objects trips it
    with pytest.raises(AssertionError, match="value object was built"):
        list(load_detections(det)[0])


def test_stats_builds_no_value_objects(tmp_path, monkeypatch):
    params = SynthParams(seed=6, n_images=15, faces_min=0, faces_max=20, image_width=300,
                         image_height=200, face_size_min=4.0, unknown_probability=0.2)
    write_synth_scene(synth_scene(params, include_density=False), tmp_path)
    ann = tmp_path / "annotations.jsonl"

    def refuse(*args):
        raise AssertionError("a value-object tuple was built")

    monkeypatch.setattr(dataset, "build_annotations", refuse)
    argv = ["stats", "--train", ann, "--test", ann, "--out", tmp_path / "stats.json"]
    assert _run([str(a) for a in argv]) == (0, "")
    tables = dataset.dataset_stats(load_annotations(ann), load_annotations(ann))
    monkeypatch.undo()
    manifest = load_annotations(ann)
    assert tables == dataset_stats_loops(manifest, manifest)


def test_load_then_write_gives_the_same_bytes(tmp_path):
    params = SynthParams(seed=3, n_images=9, jitter_sigma=2.0, false_positive_rate=2.0,
                         unknown_probability=0.1)
    write_synth_scene(synth_scene(params, include_density=False), tmp_path)
    ann, det = tmp_path / "annotations.jsonl", tmp_path / "detections.jsonl"
    dataset.save_annotations(load_annotations(ann), tmp_path / "ann2.jsonl")
    dataset.write_detections(load_detections(det), tmp_path / "det2.jsonl")
    assert (tmp_path / "ann2.jsonl").read_bytes() == ann.read_bytes()
    assert (tmp_path / "det2.jsonl").read_bytes() == det.read_bytes()


# ---------------------------------------------------------------------------
# one reader: each line is decoded once, and a detection object has one check


def test_a_rejected_block_decodes_each_line_once(tmp_path, monkeypatch):
    doc = [copy.deepcopy(line) for line in ANNOTATIONS + ANNOTATIONS[-1:]]
    doc[2]["image_id"] = "img2"
    doc[2]["faces"][0]["label"] = "hat"
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    decode, decoded = dataset._decode, []

    def counted(path, lineno, line):
        decoded.append(lineno)
        return decode(path, lineno, line)

    monkeypatch.setattr(dataset, "_decode", counted)
    with pytest.raises(DataFormatError, match=f"{path}:3: face 0: label must be"):
        load_annotations(path)
    assert decoded == [1, 2, 3]


@pytest.mark.parametrize("det, message", [
    ("x", "expected an object"),
    ({"label": "masked", "conf": 0.5}, "missing required field 'box'"),
    ({"box": [1, 2, 3, 4], "conf": 0.5}, "missing required field 'label'"),
    ({"box": [1, 2, 3, 4], "label": "masked"}, "missing required field 'conf'"),
    ({"box": [1, 2, 3], "label": "masked", "conf": 0.5},
     "box must be a list of 4 numbers, got [1, 2, 3]"),
    ({"box": [1, 2, 3, 4], "label": "unknown", "conf": 0.5},
     "label must be masked or unmasked, got 'unknown'"),
    ({"box": [1, 2, 3, 4], "label": ["masked"], "conf": 0.5},
     "label must be masked or unmasked, got ['masked']"),
    ({"box": [1, 2, 3, 4], "label": "masked", "conf": True},
     "conf must be a finite number in [0, 1], got True"),
    ({"box": [1, 2, 3, 4], "label": "masked", "conf": "0.5"},
     "conf must be a finite number in [0, 1], got '0.5'"),
    ({"box": [1, 2, 3, 4], "label": "masked", "conf": 1.5},
     "conf must be a finite number in [0, 1], got 1.5"),
    ({"box": [1, 2, 3, 4], "label": "masked", "conf": -1},
     "conf must be a finite number in [0, 1], got -1"),
    ({"box": [1, 2, 3, 4], "label": "masked", "conf": 10**400},
     f"conf must be a finite number in [0, 1], got {reprlib.repr(10**400)}"),
], ids=["not-an-object", "no-box", "no-label", "no-conf", "bad-box", "unknown-label",
        "list-label", "bool-conf", "string-conf", "conf-above-1", "conf-below-0", "huge-conf"])
def test_parse_detection_messages_are_the_loaders(tmp_path, det, message):
    with pytest.raises(DataFormatError) as exc:
        dataset.parse_detection(det, "here")
    assert str(exc.value) == f"here: {message}"
    doc = copy.deepcopy(DETECTIONS)
    doc[0]["detections"] = [det]
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    with pytest.raises(DataFormatError) as exc:
        load_detections(path)
    assert str(exc.value) == f"{path}:1: detection 0: {message}"


def test_parse_detection_builds_the_detection():
    det = dataset.parse_detection({"box": [-3, 2, 1e6, 4.5], "label": "unmasked", "conf": 1}, "w")
    assert det == Detection(BBox(-3.0, 2.0, 1e6, 4.5), FaceLabel.UNMASKED, 1.0)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("old, new, key", [
    ('"image_id": "img1"', '"image_id": "cam:01"', None),
    ('"video_id": "v1"', '"video_id": "v\\u003a1"', None),
    ('"video_id": ', '"x": "a:b", "y": {}, "z": [{}, {"k": "1:2"}], "video_id": ', None),
    ('"video_id": ', '"x": {"a": 1, "a": 2}, "video_id": ', "a"),
    ('"video_id": ', '"x": [{"a": 1, "a": 2}], "video_id": ', "a"),
    ('"video_id": ', '"x": [{"a": 1}, 2, {"b": {"c": 1, "c": "1:2"}}], "video_id": ', "c"),
    ('"label": "unmasked"', '"label": "unmasked", "label": "unmasked"', "label"),
    ('"label": "unmasked"', '"label": "unmasked", "x": {"b": 1, "b": 1}', "b"),
    ('"video_id": "v1"', '"video_id": "v\\u003a1", "video_id": "v"', "video_id"),
], ids=["colon-in-image-id", "escaped-colon", "colons-in-strings-and-objects",
        "unknown-object", "unknown-list", "unknown-list-deep", "face", "object-in-face",
        "escaped-colon-repeat"])
def test_the_key_count_gives_the_hooks_record_or_error(tmp_path, kind, old, new, key):
    # the fast path counts a block's keys against its ':'s; any block the count cannot clear
    # is read line by line with the repeated-key hook, so every line loads or fails as with
    # the hook alone
    lines = [dumps(line) for line in SHORT[kind]]
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new, 1)
    path = tmp_path / "in.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert_equivalent(kind, path)
    if key is None:
        LOADERS[kind][0](path)
    else:
        with pytest.raises(DataFormatError, match=f"^{path}:2: repeated key {key!r}$"):
            LOADERS[kind][0](path)


# ---------------------------------------------------------------------------
# the block fast path (orjson, headers checked at once) against the per-line path

DEEP = "[" * 1000 + "]" * 1000
FACES_KEY = {"annotations": "faces", "detections": "detections"}
THIRD_COORD = r'("box": \[[^,\]]+, [^,\]]+, )[^,\]]+'
CONF = r'"conf": [^,}]+'
# inputs on which orjson and json differ: (kind or None for both, pattern, replacement);
# "{faces}" stands for the format's face-list key
DIFFERING = {
    "width-2**64": ("annotations", r'"width": \d+', '"width": 18446744073709551616'),
    "box-1e30": (None, THIRD_COORD, r"\g<1>1000000000000000000000000000000"),
    "box-2**64": (None, THIRD_COORD, r"\g<1>18446744073709551616"),
    "box-below-int64": (None, THIRD_COORD, r"\g<1>-9223372036854775809"),
    "box-nan": (None, THIRD_COORD, r"\g<1>NaN"),
    "box-1e400": (None, THIRD_COORD, r"\g<1>1e400"),
    "conf-1e20": ("detections", CONF, '"conf": 100000000000000000000'),
    "conf-nan": ("detections", CONF, '"conf": NaN'),
    "conf-1e400": ("detections", CONF, '"conf": 1e400'),
    "surrogate-label": (None, r'"label": "[a-z]+"', r'"label": "\\ud800"'),
    "surrogate-image-id": (None, r'"image_id": "[^"]*"', r'"image_id": "\\udc00x"'),
    "bom": (None, r"^", "\ufeff"),
    "deep-faces": (None, r'"{faces}": .*}$', f'"{{faces}}": {DEEP}}}'),
    "deep-extra-key": (None, r'"condition": ', f'"x": {DEEP}, "condition": '),
    "extra-key": (None, r'"condition": ', '"x": 1, "condition": '),
    "repeated-key": (None, r'"video_id": ', '"video_id": "v", "video_id": '),
    "colon-in-string": (None, r'"image_id": "', '"image_id": "cam:'),
    "repeated-face-key": (None, r'"label": ', '"label": "masked", "label": '),
    # and each header check that the fast path makes for a whole block
    "width-float": ("annotations", r'"width": \d+', '"width": 64.0'),
    "height-true": ("annotations", r'"height": \d+', '"height": true'),
    "width-2**53": ("annotations", r'"width": \d+', '"width": 9007199254740992'),
    "period-unknown": ("annotations", r'"period": "[a-z]+"', '"period": "after"'),
    "period-list": ("annotations", r'"period": "[a-z]+"', '"period": ["during"]'),
    "condition-unknown": (None, r'"condition": "[A-Z]+"', '"condition": "XT"'),
    "empty-video-id": (None, r'"video_id": "[^"]*"', '"video_id": ""'),
    "empty-image-id": (None, r'"image_id": "[^"]*"', '"image_id": ""'),
    "int-image-id": (None, r'"image_id": "[^"]*"', '"image_id": 7'),
    "faces-object": (None, r'"{faces}": .*}$', '"{faces}": {}}'),
}


def records_bytes(kind, result):
    """Each record's fields, its arrays as bytes (so that -0.0 is not 0.0)."""
    records = result.images if kind == "annotations" else result
    return [(r, *(getattr(r, f).dtype.str + getattr(r, f).tobytes().hex() for f in r._ARRAYS))
            for r in records]


def both_paths(monkeypatch, kind, path):
    """The outcome of each path: with the fast path, and with it declining every block."""
    load = LOADERS[kind][0]
    fast = outcome(load, path)
    with monkeypatch.context() as m:
        m.setattr(dataset, "_fast_lines", lambda *args: None)
        per_line = outcome(load, path)
    return [((r[0], records_bytes(kind, r[1]) if r[0] == "ok" else r[1]), w) for r, w in (fast, per_line)]


def write_differing(path, kind, case, doc, lineno):
    """doc with the case's change made to line lineno (1-based) or, if that line has no
    match, to the first later line that has one; returns the changed line's number."""
    _, pattern, new = DIFFERING[case]
    lines = [dumps(line) for line in doc]
    pattern, new = (s.replace("{faces}", FACES_KEY[kind]) for s in (pattern, new))
    n = next(n for n in range(lineno - 1, len(lines)) if re.search(pattern, lines[n]))
    lines[n] = re.sub(pattern, lambda m: m.expand(new), lines[n], count=1)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return n + 1


CASES = [(kind, case) for case, (only, _, _) in DIFFERING.items() for kind in sorted(LOADERS)
         if only in (None, kind)]


@pytest.mark.parametrize("kind, case", CASES, ids=[f"{k}-{c}" for k, c in CASES])
@pytest.mark.parametrize("where", ["short", "first-block", "second-block"])
def test_the_fast_path_reads_what_the_per_line_path_reads(tmp_path, monkeypatch, kind, case, where):
    doc = SHORT[kind] if where == "short" else long_doc(kind, 2.5)
    lineno = {"short": 2, "first-block": 4, "second-block": first_block_lines(doc) + 4}[where]
    path = tmp_path / "in.jsonl"
    write_differing(path, kind, case, doc, lineno)
    fast, per_line = both_paths(monkeypatch, kind, path)
    assert fast == per_line


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_the_fast_path_reads_every_block_of_a_plain_file(tmp_path, monkeypatch, kind):
    # a block with an extra key is read line by line; the blocks around it are not
    doc = long_doc(kind, 3.5)
    path = tmp_path / "in.jsonl"
    write_jsonl(path, doc)
    decode, decoded = dataset._decode, []

    def counted(path, lineno, line):
        decoded.append(lineno)
        return decode(path, lineno, line)

    monkeypatch.setattr(dataset, "_decode", counted)
    fast, per_line = both_paths(monkeypatch, kind, path)
    assert fast == per_line and fast[0][0] == "ok"
    assert len(decoded) == len(doc)  # each line once, by the per-line path only
    decoded.clear()
    lineno = write_differing(path, kind, "extra-key", doc, first_block_lines(doc) + 4)
    fast, per_line = both_paths(monkeypatch, kind, path)
    assert fast == per_line and fast[0][0] == "ok"
    second = list(dataset._blocks(path))[1]
    assert decoded[: len(second)] == [n for n, _ in second] and lineno in decoded
    assert len(decoded) == len(second) + len(doc)  # then every line by the per-line path


def halfway(x: float) -> str:
    """The exact decimal midway between x and the next float up, where rounding must tie."""
    with decimal.localcontext() as context:
        context.prec = 1200
        return format((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2, "e")


NUMBER_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, max_value=1.7e308).map(halfway),
    st.integers().map(str),
    st.integers(-2**1100, 2**1100).map(str),
    st.builds(lambda sign, whole, digits, exp: f"{sign}{whole}{digits}{exp}",
              st.sampled_from(["", "-"]), st.integers(0, 10**25).map(str),
              st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=40).map(".".__add__)),
              st.one_of(st.just(""), st.integers(-400, 400).map("e{}".format))),
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(NUMBER_LITERALS)
def test_orjson_and_json_give_one_float64(text):
    # the fast path keeps a box or conf that orjson read only if the per-line path, which
    # reads it with json, would give the same float64; orjson refuses what overflows it
    want = json.loads(text)
    try:
        want = np.fromiter([want], np.float64, 1)
    except OverflowError:
        want = None
    try:
        got = np.fromiter([orjson.loads(text)], np.float64, 1)
    except orjson.JSONDecodeError:
        assert want is None or not np.isfinite(want).all(), text
        return
    assert want is not None and got.tobytes() == want.tobytes(), text


@settings(SETTINGS, max_examples=60)
@given(NUMBER_LITERALS, NUMBER_LITERALS)
def test_a_box_and_conf_literal_load_alike_on_both_paths(tmp_path_factory, box, conf):
    path = tmp_path_factory.mktemp("literal") / "in.jsonl"
    line = dumps({"image_id": "a", "video_id": "v", "condition": "DT", "detections": [
        {"box": [-1.5, 0, "BOX", 7], "label": "masked", "conf": "CONF"}]})
    path.write_text(line.replace('"BOX"', box).replace('"CONF"', conf) + "\n")
    with pytest.MonkeyPatch.context() as m:
        fast, per_line = both_paths(m, "detections", path)
    assert fast == per_line
