"""synth_scene against its value-object reference, field by field and byte by byte."""

import dataclasses
import reprlib

import numpy as np
import pytest

from maskbench import geometry
from maskbench.dataset import SynthParams, synth_scene
from oracles import synth_scene_objects

_NOISE = dict(jitter_sigma=2.0, drop_rate=0.1, flip_rate=0.1, false_positive_rate=1.5,
              density_noise=0.1)

CASES = {
    **{f"seed-{s}": dict(seed=s) for s in (0, 1, 2, 3, 4, 7)},
    "no-faces-allowed": dict(seed=1, faces_min=0, faces_max=3),
    "jitter": dict(seed=2, jitter_sigma=3.0),
    "drops": dict(seed=2, drop_rate=0.3),
    "flips": dict(seed=2, flip_rate=0.3),
    "false-positives": dict(seed=2, false_positive_rate=2.0),
    "density-noise": dict(seed=2, density_noise=0.2),
    "every-noise": dict(seed=7, unknown_probability=0.2, **_NOISE),
    "all-unknown": dict(seed=3, unknown_probability=1.0, **_NOISE),
    "all-dropped": dict(seed=3, drop_rate=1.0, false_positive_rate=6.0),
    "all-flipped": dict(seed=3, flip_rate=1.0, jitter_sigma=1.0),
    "no-false-positive": dict(seed=3, jitter_sigma=1.0, false_positive_rate=0.0),
    "six-false-positives": dict(seed=4, false_positive_rate=6.0, unknown_probability=0.3),
    "masked-only": dict(seed=4, masked_probability=1.0, drop_rate=0.2),
    "8x8-heavy-jitter": dict(seed=2, image_width=8, image_height=8, jitter_sigma=40.0,
                             face_size_min=1.0, face_size_max=3.0, faces_min=0, faces_max=6),
}


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def assert_same_scene(got, want):
    assert len(got.manifest) == len(want.manifest)
    for a, b in zip(got.manifest.images, want.manifest.images):
        assert (a.image_id, a.meta, a.width, a.height) == (b.image_id, b.meta, b.width, b.height)
        assert_same_array(a.boxes, b.boxes)
        assert_same_array(a.labels, b.labels)
    assert len(got.detections) == len(want.detections)
    for a, b in zip(got.detections, want.detections):
        assert (a.image_id, a.meta) == (b.image_id, b.meta)
        assert_same_array(a.boxes, b.boxes)
        assert_same_array(a.labels, b.labels)
        assert_same_array(a.conf, b.conf)
    if want.density is None:
        assert got.density is None
        return
    assert list(got.density) == list(want.density)
    for image_id, maps in want.density.items():
        assert list(got.density[image_id]) == list(maps)
        for name, dmap in maps.items():
            assert got.density[image_id][name].downscale == dmap.downscale
            assert_same_array(got.density[image_id][name].values, dmap.values)


@pytest.mark.parametrize("include_density", [True, False], ids=["density", "no-density"])
@pytest.mark.parametrize("fields", CASES.values(), ids=CASES.keys())
def test_synth_scene_equals_its_value_object_reference(fields, include_density):
    params = SynthParams(**{"n_images": 6, "faces_max": 20, **fields})
    assert_same_scene(synth_scene(params, include_density),
                      synth_scene_objects(params, include_density))


@pytest.mark.parametrize("fields", CASES.values(), ids=CASES.keys())
def test_scene_without_density_has_the_same_records(fields):
    # the maps' noise draws are passed over, not left out, so the faces stay the same
    params = SynthParams(**{"n_images": 6, "faces_max": 20, **fields})
    with_maps = synth_scene(params)
    assert_same_scene(synth_scene(params, include_density=False),
                      dataclasses.replace(with_maps, density=None))


def test_heavy_jitter_scene_takes_the_narrow_box_branch():
    # the case above means something only if jitter squeezes some boxes below 0.5 px
    params = SynthParams(**{"n_images": 6, "faces_max": 20, **CASES["8x8-heavy-jitter"]})
    scene = synth_scene(params, include_density=False)
    boxes = np.concatenate([rec.boxes for rec in scene.detections])
    assert len(boxes) and (boxes[:, 2:] - boxes[:, :2] == 0.5).any()


def test_synth_scene_builds_no_value_object(monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (geometry.BBox, geometry.Detection):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    params = SynthParams(seed=7, n_images=4, faces_max=20, unknown_probability=0.2, **_NOISE)
    scene = synth_scene(params)
    assert sum(len(rec) for rec in scene.detections) > 0
    with pytest.raises(AssertionError, match="built a BBox"):  # the patch takes effect
        synth_scene_objects(params)


@pytest.mark.parametrize("seed", [-1, 2**1100, True, 1.0, None],
                         ids=["negative", "beyond-float-range", "bool", "float", "none"])
def test_seed_outside_its_domain_is_refused(seed):
    with pytest.raises(ValueError) as exc:
        SynthParams(seed=seed)
    assert str(exc.value) == f"seed must be an integer >= 0, got {reprlib.repr(seed)}"
