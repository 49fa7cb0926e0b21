import copy
import json
import pickle
import warnings

import numpy as np
import pytest

from maskbench import dataset
from maskbench.dataset import (
    DatasetManifest,
    DetectionRecord,
    ImageRecord,
    SmallFaceWarning,
    SynthParams,
    Table,
    dataset_stats,
    load_annotations,
    load_detections,
    parse_annotation,
    save_annotations,
    subset_points,
    synth_scene,
    table_to_csv,
    write_detections,
    write_report,
    write_synth_scene,
)
from maskbench.density import integrate_count
from maskbench.errors import DataFormatError
from maskbench.geometry import Annotation, BBox, Detection, FaceLabel
from maskbench.ratio import Condition, CovidPeriod, ImageMeta
from oracles import dataset_stats_loops


def write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def image_record(image_id="img0", faces=None, **kw):
    rec = {
        "image_id": image_id,
        "video_id": "v1",
        "condition": "DT",
        "period": "during",
        "width": 100,
        "height": 80,
        "faces": faces if faces is not None else [{"box": [5, 5, 25, 25], "label": "masked"}],
    }
    rec.update(kw)
    return rec


class TestLoadAnnotations:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a"), image_record("b")])
        manifest = load_annotations(path)
        assert len(manifest) == 2
        assert manifest.images[0].annotations[0].label is FaceLabel.MASKED
        assert manifest.images[0].meta.condition is Condition.DAYTIME
        assert manifest.images[0].meta.covid_period is CovidPeriod.DURING

    def test_invalid_box_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(
            path,
            [image_record("a"), image_record("b", faces=[{"box": [30, 5, 20, 25], "label": "masked"}])],
        )
        with pytest.raises(DataFormatError, match=":2"):
            load_annotations(path)

    def test_small_face_warns_but_loads(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a", faces=[{"box": [0, 0, 9, 9], "label": "masked"}])])
        with pytest.warns(SmallFaceWarning) as caught:
            manifest = load_annotations(path)
        assert len(manifest.images[0].annotations) == 1
        assert [str(w.message) for w in caught] == [
            f"{path}:1: face 0 ('a'): face 9x9 px is below the 10x10 annotation protocol "
            "minimum; small faces read from the file: 1"]
        assert caught[0].message.faces == ((1, 0, "a", 9.0, 9.0),)
        assert caught[0].filename == __file__

    def test_small_faces_before_the_first_bad_face_warn_before_its_error(self, tmp_path):
        # the faces before the bad one are read again as arrays, so only they are listed, in order
        path = tmp_path / "a.jsonl"
        small, bad = {"box": [0, 0, 9, 9], "label": "masked"}, {"box": [0, 0, 9, 9], "label": "hat"}
        write_jsonl(path, [image_record("a", faces=[small]),
                           image_record("b", faces=[image_record()["faces"][0], small, bad, small])])
        with pytest.warns(SmallFaceWarning) as caught, pytest.raises(DataFormatError) as exc:
            load_annotations(path)
        assert str(exc.value) == (f"{path}:2: face 2: label must be masked/unmasked/unknown, "
                                  "got 'hat'")
        assert [str(w.message) for w in caught] == [
            f"{path}:1: face 0 ('a'): face 9x9 px is below the 10x10 annotation protocol "
            "minimum; small faces read from the file: 2"]
        assert caught[0].message.faces == ((1, 0, "a", 9.0, 9.0), (2, 1, "b", 9.0, 9.0))
        assert {w.filename for w in caught} == {__file__}

    def test_small_faces_of_every_block_are_one_warning_before_a_later_error(self, tmp_path):
        # three blocks: every line has nine small faces, and line 250 a bad face after two
        small = {"box": [0, 0, 20, 4.5], "label": "unmasked"}
        lines = [image_record(f"i{k}", faces=[image_record()["faces"][0], small] + [small] * 8)
                 for k in range(250)]
        lines[-1]["faces"][3] = {"box": [0, 0, 20, 20], "label": 7}
        path = tmp_path / "a.jsonl"
        write_jsonl(path, lines)
        assert path.stat().st_size > 2 * dataset._LOAD_BLOCK_CHARS
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataFormatError, match=f"{path}:250: face 3: label must be"):
                load_annotations(path)
        assert len(caught) == 1 and caught[0].category is SmallFaceWarning
        faces = [(k + 1, i, f"i{k}", 20.0, 4.5) for k in range(249) for i in range(1, 10)]
        faces += [(250, 1, "i249", 20.0, 4.5), (250, 2, "i249", 20.0, 4.5)]
        assert caught[0].message.faces == tuple(faces)
        assert str(caught[0].message) == (
            f"{path}:1: face 1 ('i0'): face 20x4.5 px is below the 10x10 annotation protocol "
            f"minimum; small faces read from the file: {len(faces)}")

    def test_a_file_without_small_faces_does_not_warn(self, tmp_path):
        path = tmp_path / "a.jsonl"
        # 10 x 10 is the minimum itself, and clamping makes no face small here
        edge = {"box": [90, 70, 100, 80], "label": "unknown"}
        write_jsonl(path, [image_record(f"i{k}", faces=[edge]) for k in range(3)] + [
            image_record("empty", faces=[])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_annotations(path)) == 4

    def test_a_declined_block_lists_the_same_small_faces(self, tmp_path, monkeypatch):
        # an extra key makes the fast path decline the block; the per-line path gives the same
        faces = [{"box": [1, 1, 5, 50], "label": "masked"}, {"box": [96, 0, 120, 30], "label": "unknown"}]
        plain, extra = tmp_path / "plain.jsonl", tmp_path / "extra.jsonl"
        write_jsonl(plain, [image_record(f"i{k}", faces=faces) for k in range(3)])
        write_jsonl(extra, [image_record(f"i{k}", faces=faces, note=1) for k in range(3)])
        declined = []
        fast = dataset._fast_lines
        monkeypatch.setattr(dataset, "_fast_lines", lambda *a: declined.append(r := fast(*a)) or r)
        got = []
        for path in (plain, extra):
            with pytest.warns(SmallFaceWarning) as caught:
                load_annotations(path)
            got.append((str(caught[0].message).replace(str(path), "P"), caught[0].message.faces))
        assert declined[0] is not None and declined[1] is None
        assert len(caught) == 1 and got[0] == got[1]
        assert got[0][1] == tuple((k + 1, i, f"i{k}", w, h) for k in range(3)
                                  for i, (w, h) in enumerate([(4.0, 49.0), (4.0, 30.0)]))

    def test_invalid_json_names_position(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"image_id": "a"\n')
        with pytest.raises(DataFormatError, match=":1:"):
            load_annotations(path)

    def test_duplicate_image_id(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a"), image_record("a")])
        with pytest.raises(DataFormatError, match="duplicate"):
            load_annotations(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "a.jsonl"
        rec = image_record("a")
        del rec["width"]
        write_jsonl(path, [rec])
        with pytest.raises(DataFormatError, match="width"):
            load_annotations(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a", faces=[{"box": [5, 5, 25, 25], "label": "maybe"}])])
        with pytest.raises(DataFormatError, match="label"):
            load_annotations(path)

    def test_clamps_to_image_bounds(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a", faces=[{"box": [-5, -5, 25, 95], "label": "masked"}])])
        manifest = load_annotations(path)
        box = manifest.images[0].annotations[0].box
        assert (box.left, box.top, box.right, box.bottom) == (0.0, 0.0, 25.0, 80.0)

    def test_degenerate_after_clamp_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [image_record("a", faces=[{"box": [110, 5, 150, 25], "label": "masked"}])])
        with pytest.raises(DataFormatError):
            load_annotations(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(
            path,
            [
                image_record("a", faces=[{"box": [5.25, 5.5, 25.75, 26.125], "label": "unknown"}]),
                image_record("b", condition="NT", period="before"),
            ],
        )
        manifest = load_annotations(path)
        out = tmp_path / "b.jsonl"
        save_annotations(manifest, out)
        again = load_annotations(out)
        assert again == manifest
        # a second save is byte-identical
        out2 = tmp_path / "c.jsonl"
        save_annotations(again, out2)
        assert out.read_bytes() == out2.read_bytes()


class TestLoadDetections:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "a",
                    "video_id": "v1",
                    "condition": "NT",
                    "detections": [
                        {"box": [1, 1, 9, 9], "label": "masked", "conf": 0.75}
                    ],
                }
            ],
        )
        records = load_detections(path)
        assert records[0].detections[0].confidence == 0.75

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "a",
                    "video_id": "v1",
                    "condition": "NT",
                    "detections": [{"box": [1, 1, 9, 9], "label": "unknown", "conf": 0.5}],
                }
            ],
        )
        with pytest.raises(DataFormatError):
            load_detections(path)

    def test_list_condition_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"image_id": "a", "video_id": "v1", "condition": ["NT"],
                            "detections": []}])
        with pytest.raises(DataFormatError, match="condition"):
            load_detections(path)

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "a",
                    "video_id": "v1",
                    "condition": "NT",
                    "detections": [{"box": [1, 1, 9, 9], "label": "masked", "conf": 1.5}],
                }
            ],
        )
        with pytest.raises(DataFormatError, match=":1"):
            load_detections(path)

    def test_round_trip(self, tmp_path):
        scene = synth_scene(SynthParams(seed=5, n_images=4, faces_min=2, faces_max=6,
                                        image_width=64, image_height=64), include_density=False)
        path = tmp_path / "d.jsonl"
        write_detections(scene.detections, path)
        back = load_detections(path)
        assert tuple(back) == scene.detections


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: rec.update(image_id=""),
        lambda rec: rec.update(image_id="a"),
        lambda rec: rec.pop("video_id"),
        lambda rec: rec.update(condition=["DT"]),
    ],
    ids=["empty-image-id", "duplicate-image-id", "missing-video-id", "list-condition"],
)
def test_header_errors_match_across_loaders(tmp_path, edit):
    path = tmp_path / "records.jsonl"
    messages = []
    for loader, body in ((load_annotations, image_record("b")),
                         (load_detections, {"image_id": "b", "video_id": "v1", "condition": "DT",
                                            "detections": []})):
        first = {**body, "image_id": "a"}
        edit(body)
        write_jsonl(path, [first, body])
        with pytest.raises(DataFormatError) as err:
            loader(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{path}:2: ")


def test_records_leave_the_callers_arrays_writable():
    from maskbench.dataset import DetectionRecord

    meta = ImageMeta("v1", Condition.DAYTIME)
    b = np.array([[1.0, 2.0, 3.0, 4.0]])
    labels, conf = np.array([0], np.int8), np.array([0.5])
    rec = ImageRecord("a", meta, 9, 9, boxes=b, labels=labels)
    det = DetectionRecord("a", meta, boxes=b, labels=labels, conf=conf)
    assert b.flags.writeable and labels.flags.writeable and conf.flags.writeable
    b[0, 0] = 0
    assert rec.boxes.tolist() == det.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert not (rec.boxes.flags.writeable or det.conf.flags.writeable)
    # a read-only array is kept as it is, not copied
    assert ImageRecord("a", meta, 9, 9, boxes=rec.boxes, labels=rec.labels).boxes is rec.boxes


def _made_record(kind: str, form: str, tmp_path):
    """An ImageRecord or DetectionRecord built from arrays, from value objects, empty, or loaded."""
    meta = ImageMeta("v1", Condition.DAYTIME, CovidPeriod.DURING if kind == "image" else None)
    boxes = np.array([[1.0, 2.0, 3.5, 4.0], [0.0, 0.0, 12.0, 9.0]])
    labels, conf = np.array([0, 1], np.int8), np.array([0.5, 1.0])
    names = ["masked", "unmasked"]
    if form == "loaded":
        path = tmp_path / f"{kind}.jsonl"
        faces = [{"box": box, "label": name} for box, name in zip(boxes.tolist(), names)]
        if kind == "image":
            write_jsonl(path, [image_record("a"), image_record("b", faces=faces)])
            return load_annotations(path).images[1]
        dets = [dict(face, conf=c) for face, c in zip(faces, conf.tolist())]
        write_jsonl(path, [{"image_id": "b", "video_id": "v1", "condition": "DT", "detections": dets}])
        return load_detections(path)[0]
    objects = [(BBox(*box), FaceLabel(name)) for box, name in zip(boxes.tolist(), names)]
    if kind == "image":
        given = {"arrays": dict(boxes=boxes, labels=labels), "empty": {},
                 "objects": dict(faces=[Annotation(box, label) for box, label in objects])}[form]
        return ImageRecord("a", meta, 40, 30, **given)
    given = {"arrays": dict(boxes=boxes, labels=labels, conf=conf), "empty": {},
             "objects": dict(faces=[Detection(box, label, c)
                                    for (box, label), c in zip(objects, conf.tolist())])}[form]
    return DetectionRecord("a", meta, **given)


def _arrays(rec) -> list[np.ndarray]:
    return [getattr(rec, f) for f in ("boxes", "labels", "conf") if hasattr(rec, f)]


def _copies(x) -> dict:
    return {"pickle": pickle.loads(pickle.dumps(x)), "copy": copy.copy(x),
            "deepcopy": copy.deepcopy(x)}


@pytest.mark.parametrize("form", ["arrays", "objects", "empty", "loaded"])
@pytest.mark.parametrize("kind", ["image", "detection"])
def test_records_pickle_and_copy_with_read_only_arrays(kind, form, tmp_path):
    rec = _made_record(kind, form, tmp_path)
    assert len(rec) == (0 if form == "empty" else 2)
    for how, got in _copies(rec).items():
        assert type(got) is type(rec) and got == rec and hash(got) == hash(rec), how
        assert [a.dtype for a in _arrays(got)] == [a.dtype for a in _arrays(rec)], how
        assert not any(a.flags.writeable for a in _arrays(got)), how


def test_manifests_detection_lists_and_scenes_pickle(tmp_path):
    params = SynthParams(seed=7, n_images=3, faces_max=10, unknown_probability=0.2,
                         jitter_sigma=1.0, false_positive_rate=1.0, density_noise=0.1)
    scene = synth_scene(params)
    write_synth_scene(scene, tmp_path)
    manifest = load_annotations(tmp_path / "annotations.jsonl")
    detections = load_detections(tmp_path / "detections.jsonl")
    for x in (manifest, detections):
        got = pickle.loads(pickle.dumps(x))
        assert got == x
        records = got.images if isinstance(got, DatasetManifest) else got
        assert not any(a.flags.writeable for rec in records for a in _arrays(rec))
    got = pickle.loads(pickle.dumps(scene))
    assert got.manifest == scene.manifest == manifest
    assert got.detections == scene.detections and list(got.detections) == detections
    assert not any(a.flags.writeable for rec in (*got.manifest.images, *got.detections)
                   for a in _arrays(rec))
    assert got.density.keys() == scene.density.keys()
    for image_id, maps in scene.density.items():
        for name, dmap in maps.items():
            assert np.array_equal(got.density[image_id][name].values, dmap.values)


def test_record_repr_and_frozen_fields(tmp_path):
    rec = _made_record("detection", "arrays", tmp_path)
    assert repr(rec) == (
        "DetectionRecord(image_id='a', meta=ImageMeta(video_id='v1', "
        "condition=<Condition.DAYTIME: 'DT'>, covid_period=None), "
        "boxes=array([[ 1. ,  2. ,  3.5,  4. ],\n       [ 0. ,  0. , 12. ,  9. ]]), "
        "labels=array([0, 1], dtype=int8), conf=array([0.5, 1. ]))"
    )
    for kind in ("image", "detection"):
        rec = _made_record(kind, "arrays", tmp_path)
        # faces is a constructor parameter only; rec.annotations and rec.detections give them
        assert not hasattr(rec, "__dict__") and not hasattr(rec, "faces")
        for name in rec.__slots__:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        # a name that is no field is refused too, with TypeError on Python 3.11: a frozen
        # dataclass with slots calls super() on the class that slots=True replaced
        with pytest.raises((AttributeError, TypeError)):
            rec.other = 1


def manifest_with(counts):
    """Manifest with given per-image (masked, unmasked, unknown) face counts."""
    images = []
    labels = (FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN)
    for i, (m, u, k) in enumerate(counts):
        annos = []
        for label, n in zip(labels, (m, u, k)):
            annos.extend(Annotation(BBox(0, 0, 12, 12), label) for _ in range(n))
        images.append(
            ImageRecord(
                f"img{i}", ImageMeta("v1", Condition.DAYTIME, CovidPeriod.DURING),
                100, 100, tuple(annos),
            )
        )
    return DatasetManifest(tuple(images))


class TestDatasetStats:
    def test_counts_and_totals(self):
        train = manifest_with([(2, 3, 1), (0, 5, 0)])
        test = manifest_with([(1, 1, 1)])
        tables = dataset_stats(train, test)
        rows = {r[0]: r for r in tables["counts"].rows}
        assert rows["Training"] == ("Training", 2, 2, 8, 1)
        assert rows["Testing"] == ("Testing", 1, 1, 1, 1)
        assert rows["Total"] == ("Total", 3, 3, 9, 2)

    def test_averages_one_decimal(self):
        train = manifest_with([(2, 3, 1), (0, 5, 0), (1, 0, 0)])
        tables = dataset_stats(train, manifest_with([]))
        avg = {r[0]: r for r in tables["per_image_averages"].rows}
        assert avg["Training"] == ("Training", 1.0, 2.7, 0.3)
        assert avg["Testing"] == ("Testing", 0.0, 0.0, 0.0)

    def test_empty_manifests(self):
        tables = dataset_stats(manifest_with([]), manifest_with([]))
        assert tables["counts"].rows[-1] == ("Total", 0, 0, 0, 0)
        for table in tables.values():
            assert all(len(r) == len(table.columns) for r in table.rows)

    def test_totals_sum_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            train = manifest_with(
                [tuple(rng.integers(0, 6, 3)) for _ in range(rng.integers(1, 10))]
            )
            test = manifest_with(
                [tuple(rng.integers(0, 6, 3)) for _ in range(rng.integers(1, 10))]
            )
            tables = dataset_stats(train, test)
            tr, te, tot = tables["counts"].rows
            assert all(tr[i] + te[i] == tot[i] for i in range(1, 5))

    def test_histograms_cover_everything(self):
        train = manifest_with([(2, 3, 1), (40, 0, 0)])
        tables = dataset_stats(train, manifest_with([]))
        size_hist = tables["face_size_histogram"]
        assert sum(r[1] for r in size_hist.rows) == 46
        count_hist = tables["faces_per_image_histogram"]
        assert sum(r[1] for r in count_hist.rows) == 2
        ratio_hist = tables["mask_ratio_histogram"]
        assert sum(r[1] for r in ratio_hist.rows) == 2

    def test_ratio_histogram_closes_its_last_bin(self):
        # ratios of exactly 0.9 and 1.0 both land in the closed last bin
        train = manifest_with([(9, 1, 0), (3, 0, 0), (1, 1, 0)])
        table = dataset_stats(train, manifest_with([]))["mask_ratio_histogram"]
        rows = {r[0]: r[1] for r in table.rows}
        assert rows["[0.9-1]"] == 2
        assert rows["[0.5-0.6)"] == 1
        assert sum(rows.values()) == 3


    def test_ratio_on_a_bin_edge_goes_to_the_upper_bin(self):
        # 3, 6 and 7 masked faces of 10: each ratio is exactly a bin edge
        train = manifest_with([(3, 7, 0), (6, 4, 0), (7, 3, 0)])
        table = dataset_stats(train, manifest_with([]))["mask_ratio_histogram"]
        rows = {r[0]: r[1] for r in table.rows}
        assert rows["[0.3-0.4)"] == rows["[0.6-0.7)"] == rows["[0.7-0.8)"] == 1
        assert sum(rows.values()) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_plain_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        labels = (FaceLabel.MASKED, FaceLabel.UNMASKED, FaceLabel.UNKNOWN)
        # face sides from 3 to 300 px, the size edges among them
        sides = [3.0, 7.9, 8.0, 16.0, 32.0, 63.5, 64.0, 128.0, 256.0, 300.0]

        def face(label):
            side = float(rng.choice(sides)) if rng.random() < 0.5 else rng.uniform(3.0, 300.0)
            return Annotation(BBox(0.0, 0.0, side, side * rng.uniform(0.5, 1.0)), label)

        def record(i, faces):
            annos = tuple(face(lab) for lab in faces)
            meta = ImageMeta("v1", Condition.DAYTIME, CovidPeriod.DURING)
            return ImageRecord(f"img{i}", meta, 320, 320, annos)

        def split(n_images):
            images = [
                [labels[j] for j in rng.integers(0, 3, rng.integers(0, 40))]
                for _ in range(n_images)
            ]
            return DatasetManifest(tuple(record(i, faces) for i, faces in enumerate(images)))

        # every ratio edge k/10 and k/20, one image of unknown faces only, one with none
        edges = [[labels[0]] * k + [labels[1]] * (n - k) for n in (10, 20) for k in range(n + 1)]
        edges += [[labels[2]] * 3, []]
        order = rng.permutation(len(edges))
        on_edges = DatasetManifest(
            tuple(record(i, edges[j]) for i, j in enumerate(order))
        )
        empty = split(0)
        for train, test in ((on_edges, split(rng.integers(0, 13))), (split(12), empty),
                            (empty, on_edges), (empty, empty)):
            got, want = dataset_stats(train, test), dataset_stats_loops(train, test)
            assert list(got) == list(want)
            assert got == want


class TestSynthScene:
    def test_seed_reproducibility_in_memory(self):
        p = SynthParams(seed=9, n_images=6, faces_min=3, faces_max=10,
                        image_width=64, image_height=64)
        a = synth_scene(p)
        b = synth_scene(p)
        assert a.manifest == b.manifest
        assert a.detections == b.detections
        for iid in a.density:
            for name in a.density[iid]:
                np.testing.assert_array_equal(
                    a.density[iid][name].values, b.density[iid][name].values
                )

    def test_seed_changes_output(self):
        base = dict(n_images=4, faces_min=3, faces_max=8, image_width=64, image_height=64)
        a = synth_scene(SynthParams(seed=1, **base), include_density=False)
        b = synth_scene(SynthParams(seed=2, **base), include_density=False)
        assert a.manifest != b.manifest

    def test_noiseless_detections_mirror_annotations(self):
        p = SynthParams(seed=3, n_images=5, faces_min=2, faces_max=12,
                        image_width=96, image_height=96)
        scene = synth_scene(p, include_density=False)
        for rec, det_rec in zip(scene.manifest.images, scene.detections):
            known = [a for a in rec.annotations if a.label is not FaceLabel.UNKNOWN]
            assert len(det_rec.detections) == len(known)
            for a, d in zip(known, det_rec.detections):
                assert d.box == a.box
                assert d.label is a.label
                assert d.confidence == 1.0

    def test_unknown_faces_never_detected(self):
        p = SynthParams(seed=4, n_images=6, faces_min=5, faces_max=15,
                        image_width=96, image_height=96, unknown_probability=0.5)
        scene = synth_scene(p, include_density=False)
        n_unknown = sum(
            1 for rec in scene.manifest.images for a in rec.annotations
            if a.label is FaceLabel.UNKNOWN
        )
        n_known = sum(len(r.annotations) for r in scene.manifest.images) - n_unknown
        n_dets = sum(len(r.detections) for r in scene.detections)
        assert n_unknown > 0
        assert n_dets == n_known

    def test_drop_rate_one_empties_detections(self):
        p = SynthParams(seed=5, n_images=4, faces_min=2, faces_max=6,
                        image_width=64, image_height=64, drop_rate=1.0)
        scene = synth_scene(p, include_density=False)
        assert all(len(r.detections) == 0 for r in scene.detections)

    def test_density_predictions_match_counts_when_noiseless(self):
        p = SynthParams(seed=6, n_images=4, faces_min=3, faces_max=9,
                        image_width=64, image_height=64, density_downscale=8)
        scene = synth_scene(p)
        for rec in scene.manifest.images:
            known = [a for a in rec.annotations if a.label is not FaceLabel.UNKNOWN]
            total = integrate_count(scene.density[rec.image_id]["total"])
            assert total == pytest.approx(len(known), abs=1e-3)

    def test_flip_rate_flips_labels_only(self):
        p_clean = SynthParams(seed=7, n_images=5, faces_min=4, faces_max=10,
                              image_width=64, image_height=64)
        p_flip = SynthParams(seed=7, n_images=5, faces_min=4, faces_max=10,
                             image_width=64, image_height=64, flip_rate=1.0)
        a = synth_scene(p_clean, include_density=False)
        b = synth_scene(p_flip, include_density=False)
        assert a.manifest == b.manifest  # ground truth untouched by detector noise
        flipped = 0
        for ra, rb in zip(a.detections, b.detections):
            for da, db in zip(ra.detections, rb.detections):
                assert da.box == db.box
                if da.label is not db.label:
                    flipped += 1
        assert flipped == sum(len(r.detections) for r in a.detections)

    def test_infeasible_params(self):
        with pytest.raises(ValueError):
            SynthParams(seed=0, faces_min=10, faces_max=5)
        with pytest.raises(ValueError):
            SynthParams(seed=0, masked_probability=1.5)
        with pytest.raises(ValueError):
            SynthParams(seed=0, drop_rate=-0.1)

    @pytest.mark.parametrize("sides", [{"image_width": 100.5}, {"image_height": 64.0},
                                       {"image_width": np.float64(64)}])
    def test_frame_sides_are_integers(self, sides):
        # as the annotations loader requires of what synth writes
        with pytest.raises(ValueError) as exc:
            SynthParams(seed=0, **sides)
        ((field, side),) = sides.items()
        assert str(exc.value) == f"{field} must be an integer in [8, 2**53), got {side!r}"

    def test_written_tree_is_byte_stable(self, tmp_path):
        p = SynthParams(seed=11, n_images=3, faces_min=2, faces_max=5,
                        image_width=64, image_height=64)
        write_synth_scene(synth_scene(p), tmp_path / "a")
        write_synth_scene(synth_scene(p), tmp_path / "b")
        files_a = sorted(f.relative_to(tmp_path / "a") for f in (tmp_path / "a").rglob("*") if f.is_file())
        files_b = sorted(f.relative_to(tmp_path / "b") for f in (tmp_path / "b").rglob("*") if f.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestWriteReport:
    def test_csv_bytes_stable(self, tmp_path):
        t = Table(("a", "b"), ((1, 0.5), (2, None)))
        write_report(t, tmp_path / "r1.csv", "csv")
        write_report(t, tmp_path / "r2.csv", "csv")
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "r1.csv").read_text() == "a,b\n1,0.5\n2,\n"

    def test_empty_table_header_only(self, tmp_path):
        t = Table(("x", "y"), ())
        write_report(t, tmp_path / "e.csv", "csv")
        assert (tmp_path / "e.csv").read_text() == "x,y\n"

    def test_json_and_csv_carry_identical_values(self, tmp_path):
        t = Table(("name", "value"), (("alpha", 0.1), ("beta", 3.0), ("gap", None)))
        write_report(t, tmp_path / "r.json", "json")
        write_report(t, tmp_path / "r.csv", "csv")
        payload = json.loads((tmp_path / "r.json").read_text())["report"]
        csv_lines = (tmp_path / "r.csv").read_text().strip().split("\n")[1:]
        for row, line in zip(payload["rows"], csv_lines):
            name, value = line.split(",")
            assert row[0] == name
            assert row[1] == (float(value) if value else None)

    def test_multi_table_csv_directory(self, tmp_path):
        tables = {"one": Table(("a",), ((1,),)), "two": Table(("b",), ((2,),))}
        write_report(tables, tmp_path / "out", "csv")
        assert (tmp_path / "out" / "one.csv").read_text() == "a\n1\n"
        assert (tmp_path / "out" / "two.csv").read_text() == "b\n2\n"

    def test_float_repr_round_trips(self):
        t = Table(("v",), ((0.1,), (1 / 3,)))
        text = table_to_csv(t)
        values = [float(line) for line in text.strip().split("\n")[1:]]
        assert values == [0.1, 1 / 3]

    def test_csv_escaping(self):
        t = Table(("label",), (('say "hi", ok',),))
        assert table_to_csv(t) == 'label\n"say ""hi"", ok"\n'

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(Table(("a",), ()), tmp_path / "x", "yaml")


def test_parse_annotation_clamps_only_when_given_the_image_size():
    face = {"box": [-5, 2, 70, 30.5], "label": "unknown"}
    assert parse_annotation(face, "w", 64, 48) == Annotation(BBox(0.0, 2.0, 64.0, 30.5),
                                                            FaceLabel.UNKNOWN)
    assert parse_annotation(face, "w") == Annotation(BBox(-5.0, 2.0, 70.0, 30.5),
                                                     FaceLabel.UNKNOWN)


def _record(image_id, *labels):
    meta = ImageMeta("v1", Condition.DAYTIME, CovidPeriod.DURING)
    return ImageRecord(image_id, meta, 40, 30, [Annotation(BBox(2, 2, 12, 12), lab) for lab in labels])


@pytest.mark.parametrize("subset", ["unknown", "bogus", "Masked", ""])
def test_subset_points_refuses_a_subset_no_map_draws(subset):
    with pytest.raises(ValueError) as exc:
        subset_points(_record("a", FaceLabel.UNKNOWN, FaceLabel.MASKED), subset)
    assert str(exc.value) == (
        f"unknown density subset {subset!r}, expected one of ('total', 'masked', 'unmasked')"
    )


@pytest.mark.parametrize("call, message", [
    (lambda: DatasetManifest((_record("a"), _record("b"), _record("a"))), "duplicate image_id 'a'"),
    (lambda: Table(("a", "b"), [(1, 2), (3,)]), "row of width 1 does not match 2 columns"),
], ids=["duplicate-image-id", "short-row"])
def test_malformed_collection_raises_naming_it(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
