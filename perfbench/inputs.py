"""Seeded inputs for the benchmark workloads, written straight in the documented formats.

The generators do not call the program's own synthetic scene generator or
density renderer, so a change to either cannot change what the benchmark
measures on. Each generator writes its input files into a directory and
returns a *truth record*: the facts the checks compare the program's reports
against (per-image counts, which candidates survive NMS, which kept detections
are true, the sum of each prediction map).

Frame counts per image follow fixed schedules; the seed moves positions,
sizes, labels and confidences. That keeps the work per run nearly the same
across seeds, so seed-to-seed spread in the timings stays small.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 1280, 720
DOWNSCALE = 8
N_VIDEOS = 6

# Boxes are written with two decimals and confidences with four, so every
# value round-trips through JSON exactly and the truth record's arithmetic on
# them matches the program's.
_BOX_DECIMALS = 2
_CONF_DECIMALS = 4

# NMS and AP truth rests on these margins around the 0.4 IoU the commands use.
_MAX_CROSS_IOU = 0.3  # any two boxes of different clusters
_MIN_TOP_IOU = 0.6  # a cluster's top candidate vs its face
_MIN_DUP_IOU = 0.5  # a duplicate candidate vs its cluster's top


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _meta(i: int) -> dict:
    video = i % N_VIDEOS
    return {
        "video_id": f"v{video:02d}",
        "condition": "DT" if video % 2 == 0 else "NT",
        "period": "before" if video < N_VIDEOS // 2 else "during",
    }


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (N, 4) and (M, 4) ltrb boxes."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _round_box(l, t, r, b) -> list[float]:
    l = min(max(l, 0.0), WIDTH - 1.0)
    t = min(max(t, 0.0), HEIGHT - 1.0)
    r = min(max(r, l + 1.0), float(WIDTH))
    b = min(max(b, t + 1.0), float(HEIGHT))
    return [round(v, _BOX_DECIMALS) for v in (l, t, r, b)]


def _face_box(rng: np.random.Generator, size_min: float, size_max: float) -> list[float]:
    size = math.exp(rng.uniform(math.log(size_min), math.log(size_max)))
    aspect = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    w = max(size * math.sqrt(aspect), size_min)
    h = max(size / math.sqrt(aspect), size_min)
    cx = rng.uniform(w / 2.0, WIDTH - w / 2.0)
    cy = rng.uniform(h / 2.0, HEIGHT - h / 2.0)
    return _round_box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _jitter(rng: np.random.Generator, box: list[float], rel: float) -> list[float]:
    s = min(box[2] - box[0], box[3] - box[1])
    d = rng.normal(0.0, rel * s, 4)
    return _round_box(*(v + dv for v, dv in zip(box, d)))


def _iou1(a: list[float], b: list[float]) -> float:
    return float(iou_matrix(np.array([a]), np.array([b]))[0, 0])


def _face_label(rng: np.random.Generator, p_unknown: float, p_masked: float) -> str:
    if rng.random() < p_unknown:
        return "unknown"
    return "masked" if rng.random() < p_masked else "unmasked"


def _other(label: str) -> str:
    return "unmasked" if label == "masked" else "masked"


def _conf(x: float) -> float:
    return round(min(max(x, 0.0001), 0.9999), _CONF_DECIMALS)


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _gt_counts(faces: list[dict]) -> tuple[int, int]:
    masked = sum(1 for f in faces if f["label"] == "masked")
    unmasked = sum(1 for f in faces if f["label"] == "unmasked")
    return masked, unmasked


# ---------------------------------------------------------------------------
# det_crowd: crowded frames with raw (pre-NMS) detector output


def crowd_faces(i: int) -> int:
    """About a hundred faces per frame, on a fixed schedule."""
    return 90 + (i * 7) % 21


def gen_det_crowd(out: Path, seed: int, n_frames: int) -> dict:
    """Crowded 1280x720 frames; each face gets a cluster of overlapping candidates.

    No box of one cluster overlaps a box of another cluster (or a false
    positive) at IoU 0.3 or more, and every duplicate overlaps its cluster's
    top candidate at IoU 0.5 or more with a strictly lower confidence. Class-wise
    NMS at IoU 0.4 therefore keeps exactly the cluster tops and the false
    positives, and each kept box overlaps its own face at IoU >= 0.6 and every
    other face below 0.3, so its AP outcome is fixed by labels and buckets.
    """
    rng = _rng(seed, 1)
    anns, dets, images = [], [], []
    for i in range(n_frames):
        image_id = f"c{i:05d}"
        meta = _meta(i)
        placed = np.zeros((0, 4))
        faces, clusters = [], []  # cluster: (face index or None, label, [(box, conf)])
        target = crowd_faces(i)
        while len(faces) < target:
            face = _face_box(rng, 8.0, 72.0)
            label = _face_label(rng, 0.08, 0.6)
            cands = []
            p_detect = 0.5 if label == "unknown" else 0.92
            if rng.random() < p_detect:
                if label == "unknown":
                    det_label = "masked" if rng.random() < 0.5 else "unmasked"
                else:
                    det_label = label if rng.random() < 0.9 else _other(label)
                top = _jitter(rng, face, 0.04)
                while _iou1(top, face) < _MIN_TOP_IOU:
                    top = _jitter(rng, face, 0.04)
                top_conf = _conf(rng.normal(0.8, 0.12))
                cands.append((top, top_conf))
                for _ in range(int(rng.integers(2, 6))):
                    dup = _jitter(rng, top, 0.06)
                    while _iou1(dup, top) < _MIN_DUP_IOU:
                        dup = _jitter(rng, top, 0.06)
                    conf = _conf(top_conf * rng.uniform(0.3, 0.97))
                    if conf >= top_conf:
                        conf = round(top_conf - 10.0**-_CONF_DECIMALS, _CONF_DECIMALS)
                    cands.append((dup, max(conf, 0.0)))
            new = np.array([face] + [c[0] for c in cands])
            if len(placed) and iou_matrix(new, placed).max() >= _MAX_CROSS_IOU:
                continue
            placed = np.concatenate([placed, new])
            faces.append({"box": face, "label": label})
            if cands:
                clusters.append((len(faces) - 1, det_label, cands))
        n_fp = 8 + i % 5
        while n_fp:
            box = _face_box(rng, 8.0, 48.0)
            if iou_matrix(np.array([box]), placed).max() >= _MAX_CROSS_IOU:
                continue
            placed = np.concatenate([placed, [box]])
            label = "masked" if rng.random() < 0.5 else "unmasked"
            clusters.append((None, label, [(box, _conf(rng.uniform(0.02, 0.45)))]))
            n_fp -= 1

        # raw detector output comes in no particular order
        flat = [
            (face_idx, label, box, conf, j == 0)
            for face_idx, label, cands in clusters
            for j, (box, conf) in enumerate(cands)
        ]
        order = rng.permutation(len(flat))
        records, kept = [], []
        for pos, k in enumerate(order):
            face_idx, label, box, conf, is_top = flat[k]
            records.append({"box": box, "label": label, "conf": conf})
            if is_top:
                kept.append({"pos": pos, "label": label, "conf": conf, "face": face_idx})
        anns.append({"image_id": image_id, **meta, "width": WIDTH, "height": HEIGHT, "faces": faces})
        dets.append({"image_id": image_id, "video_id": meta["video_id"],
                     "condition": meta["condition"], "detections": records})
        images.append({"image_id": image_id, **meta, "faces": faces, "kept": kept})
    _write_jsonl(out / "annotations.jsonl", anns)
    _write_jsonl(out / "detections.jsonl", dets)
    return {"images": images}


# ---------------------------------------------------------------------------
# det_ratio: many sparse frames with post-NMS detections


def sparse_faces(i: int) -> int:
    """From two up to thirty faces per frame, on a fixed schedule."""
    return 2 + (i * 11) % 29


def gen_det_ratio(out: Path, seed: int, n_frames: int) -> dict:
    """Sparse frames; one detection per found face plus a few false positives."""
    rng = _rng(seed, 2)
    anns, dets, images = [], [], []
    for i in range(n_frames):
        image_id = f"s{i:05d}"
        meta = _meta(i)
        faces, records = [], []
        for _ in range(sparse_faces(i)):
            face = _face_box(rng, 8.0, 160.0)
            label = _face_label(rng, 0.05, 0.55)
            faces.append({"box": face, "label": label})
            if rng.random() < (0.3 if label == "unknown" else 0.88):
                if label == "unknown":
                    det_label = "masked" if rng.random() < 0.5 else "unmasked"
                else:
                    det_label = label if rng.random() < 0.9 else _other(label)
                records.append({"box": _jitter(rng, face, 0.05), "label": det_label,
                                "conf": _conf(rng.normal(0.78, 0.15))})
        for _ in range(i % 3):
            records.append({"box": _face_box(rng, 8.0, 64.0),
                            "label": "masked" if rng.random() < 0.5 else "unmasked",
                            "conf": _conf(rng.uniform(0.05, 0.6))})
        records = [records[k] for k in rng.permutation(len(records))]
        anns.append({"image_id": image_id, **meta, "width": WIDTH, "height": HEIGHT, "faces": faces})
        dets.append({"image_id": image_id, "video_id": meta["video_id"],
                     "condition": meta["condition"], "detections": records})
        images.append({"image_id": image_id, **meta, "gt": list(_gt_counts(faces)),
                       "dets": [[d["label"], d["conf"]] for d in records]})
    _write_jsonl(out / "annotations.jsonl", anns)
    _write_jsonl(out / "detections.jsonl", dets)
    return {"images": images}


# ---------------------------------------------------------------------------
# density_route: sparse and congested frames, plus the benchmark's predictions


def density_faces(i: int) -> int:
    """Alternating sparse (20-40) and congested (120-190) frames, on a fixed schedule."""
    return 20 + (i * 5) % 21 if i % 2 == 0 else 120 + (i * 13) % 71


def map_shape() -> tuple[int, int]:
    return math.ceil(HEIGHT / DOWNSCALE), math.ceil(WIDTH / DOWNSCALE)


def write_nfmd(path: Path, values: np.ndarray, downscale: int) -> None:
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"NFMD" + struct.pack("<III", w, h, downscale))
        f.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def _grid_centers(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """n points, one per cell of a grid sized to n over the frame, jittered in their cells."""
    cols = math.ceil(math.sqrt(n * WIDTH / HEIGHT))
    rows = math.ceil(n / cols)
    cw, ch = WIDTH / cols, HEIGHT / rows
    cells = rng.choice(rows * cols, size=n, replace=False)
    jitter = rng.uniform(-0.3, 0.3, (n, 2))
    return [((c % cols + 0.5 + jx) * cw, (c // cols + 0.5 + jy) * ch)
            for c, (jx, jy) in zip(cells.tolist(), jitter)]


def _grid_faces(rng: np.random.Generator, n: int) -> list[dict]:
    """n faces: the unmasked ones on one jittered grid, the others on a second.

    Spreading each density subset over its own grid keeps the nearest-neighbour
    distances, and with them the adaptive kernels' sizes and the render work,
    nearly the same from seed to seed. Label counts are fixed as well.
    """
    n_unknown = round(0.06 * n)
    n_unmasked = round(0.4 * (n - n_unknown))
    groups = (("unmasked",) * n_unmasked,
              ("unknown",) * n_unknown + ("masked",) * (n - n_unknown - n_unmasked))
    faces = []
    for labels in groups:
        labels = [labels[k] for k in rng.permutation(len(labels))]
        for (cx, cy), label in zip(_grid_centers(rng, len(labels)), labels):
            size = math.exp(rng.uniform(math.log(8.0), math.log(48.0)))
            faces.append({"box": _round_box(cx - size / 2, cy - size / 2,
                                            cx + size / 2, cy + size / 2), "label": label})
    return [faces[k] for k in rng.permutation(n)]


def gen_density_route(out: Path, seed: int, n_frames: int) -> dict:
    """Frames for gen-density, and prediction maps for eval-count/eval-ratio.

    The prediction maps are random non-negative fields whose sums stray from
    the true counts; the truth record keeps the float64 sum of the f32 values
    as written, which is what integrating the map must give back.
    """
    rng = _rng(seed, 3)
    pred_dir = out / "pred"
    pred_dir.mkdir(parents=True, exist_ok=True)
    anns, images = [], []
    shape = map_shape()
    for i in range(n_frames):
        image_id = f"d{i:05d}"
        meta = _meta(i)
        faces = _grid_faces(rng, density_faces(i))
        gt_m, gt_u = _gt_counts(faces)
        sums = {}
        for subset, count in (("total", gt_m + gt_u), ("unmasked", gt_u)):
            field = rng.random(shape) ** 3
            target = max(count * rng.normal(1.0, 0.15), 0.0)
            values = (field * (target / field.sum())).astype("<f4")
            write_nfmd(pred_dir / f"{image_id}.{subset}.nfmd", values, DOWNSCALE)
            sums[subset] = float(values.astype(np.float64).sum())
        anns.append({"image_id": image_id, **meta, "width": WIDTH, "height": HEIGHT, "faces": faces})
        images.append({"image_id": image_id, **meta, "gt": [gt_m, gt_u],
                       "pred_sum": [sums["total"], sums["unmasked"]]})
    _write_jsonl(out / "annotations.jsonl", anns)
    return {"images": images}


GENERATORS = {
    "det_crowd": gen_det_crowd,
    "det_ratio": gen_det_ratio,
    "density_route": gen_density_route,
}


def generate(workload: str, out: Path, seed: int, n_frames: int) -> dict:
    """Write one workload's inputs into out and return its truth record."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed, n_frames)
