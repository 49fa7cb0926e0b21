"""Checks of the program's reports against the generator's truth record.

Every expected value is recomputed here, apart from the program's code, from
the truth record that ``inputs`` returns: known per-image counts, the known
outcome of every kept detection, or the sums of the prediction maps the
benchmark wrote. Density maps that the program renders are checked against a
property of the method instead (mass conservation at the documented shape).
Each checker returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from inputs import DOWNSCALE, HEIGHT, WIDTH, map_shape

CONF_THR = 0.5
MIN_FACES = 5
REL_TOL = 1e-12
# an f32 cell is within 2**-24 of its value; twice that over the map's mass
F32_TOL = 2.0**-23


def close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def read_table(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["report"]["rows"]


def compare_rows(name: str, got: list[list], want: list[tuple]) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, expected {len(want)}"]
    errors = []
    for g, w in zip(got, want):
        same = len(g) == len(w) and all(
            close(a, b) if isinstance(b, float) else a == b for a, b in zip(g, w)
        )
        if not same:
            errors.append(f"{name}: row {g} != expected {list(w)}")
    return errors


# ---------------------------------------------------------------------------
# reference arithmetic


def pearson(x, y) -> float | None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def mae(x, y) -> float:
    return float(np.mean(np.abs(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))))


def count_rows(est: dict, gt: dict) -> list[tuple]:
    """masked/unmasked/total rows; est and gt map image id -> (masked, unmasked)."""
    ids = list(gt)
    rows = []
    for q, pick in (("masked", lambda c: c[0]), ("unmasked", lambda c: c[1]),
                    ("total", lambda c: c[0] + c[1])):
        e = [float(pick(est[i])) for i in ids]
        g = [float(pick(gt[i])) for i in ids]
        rows.append((q, len(ids), mae(e, g), pearson(e, g) if len(ids) >= 2 else None))
    return rows


def ratio_pairs(est: dict, gt: dict, ids=None) -> list[tuple[str, float, float]]:
    """(image id, gt ratio, est ratio) for images with >= MIN_FACES faces and both ratios defined."""
    pairs = []
    for i in sorted(gt if ids is None else ids):
        gm, gu = gt[i]
        em, eu = est[i]
        if gm + gu < MIN_FACES or em + eu == 0:
            continue
        pairs.append((i, gm / (gm + gu), em / (em + eu)))
    return pairs


def ratio_row(name: str, pairs, with_mae: bool) -> tuple:
    e = [p[2] for p in pairs]
    g = [p[1] for p in pairs]
    m = mae(e, g) if with_mae and pairs else None
    return (name, len(pairs), m, pearson(e, g) if len(pairs) >= 2 else None)


def eval_ratio_rows(images: list[dict], est: dict, gt: dict, by_condition: bool) -> list[tuple]:
    rows = count_rows(est, gt)
    rows.append(ratio_row("ratio", ratio_pairs(est, gt), True))
    if by_condition:
        for cond in ("DT", "NT"):
            ids = [im["image_id"] for im in images if im["condition"] == cond]
            rows.append(ratio_row(f"ratio_{cond}", ratio_pairs(est, gt, ids), False))
    return rows


def size_bucket(box) -> str:
    w, h = box[2] - box[0], box[3] - box[1]
    if w < 8.0 or h < 8.0:
        return "excluded"
    if w <= 16.0 and h <= 16.0:
        return "S"
    if w > 32.0 and h > 32.0:
        return "L"
    return "M"


def all_point_ap(outcomes: list[bool], n_pos: int) -> float:
    """Area under the precision envelope over recall; outcomes are ranked TP/FP flags."""
    if not outcomes:
        return 0.0
    tp = fp = 0
    recall, precision = [], []
    for hit in outcomes:
        tp += hit
        fp += not hit
        recall.append(tp / n_pos)
        precision.append(tp / (tp + fp))
    for k in range(len(precision) - 2, -1, -1):
        precision[k] = max(precision[k], precision[k + 1])
    prev = 0.0
    area = []
    for r, p in zip(recall, precision):
        area.append((r - prev) * p)
        prev = r
    return math.fsum(area)


def ap_cells(images: list[dict]) -> list[tuple]:
    """eval-det's rows from the truth record: AP per class and bucket, then mAP."""
    rows, defined = [], []
    for label in ("masked", "unmasked"):
        for bucket in ("L", "M", "S"):
            n_pos = 0
            ranked = []
            for idx, im in enumerate(images):
                faces = im["faces"]
                n_pos += sum(1 for f in faces if f["label"] == label and size_bucket(f["box"]) == bucket)
                for d in im["kept"]:
                    if d["label"] != label:
                        continue
                    face = None if d["face"] is None else faces[d["face"]]
                    if face is None:
                        outcome = False
                    elif face["label"] == label:
                        outcome = True if size_bucket(face["box"]) == bucket else None
                    elif face["label"] == "unknown":
                        outcome = None  # ignore region: counts nowhere
                    else:
                        outcome = False
                    ranked.append((-d["conf"], idx, d["pos"], outcome))
            ranked.sort(key=lambda r: r[:3])
            if n_pos == 0:
                ap = None
            else:
                ap = all_point_ap([r[3] for r in ranked if r[3] is not None], n_pos)
                defined.append(ap)
            rows.append((label, bucket, ap))
    rows.append(("mAP", "", math.fsum(defined) / len(defined)))
    return rows


# ---------------------------------------------------------------------------
# per-workload expectations


def _gt(images) -> dict:
    return {im["image_id"]: tuple(im["gt"]) for im in images}


def _counted(dets) -> tuple[int, int]:
    """(masked, unmasked) detections at or above the confidence threshold."""
    labels = [label for label, conf in dets if conf >= CONF_THR]
    return labels.count("masked"), labels.count("unmasked")


def crowd_counts(images) -> tuple[dict, dict]:
    gt, est = {}, {}
    for im in images:
        labels = [f["label"] for f in im["faces"]]
        gt[im["image_id"]] = (labels.count("masked"), labels.count("unmasked"))
        est[im["image_id"]] = _counted((d["label"], d["conf"]) for d in im["kept"])
    return gt, est


def check_nms_kept(images, captured) -> list[str]:
    want = []
    for im in images:
        labels = [d["label"] for d in im["kept"]]
        want.append([labels.count("masked"), labels.count("unmasked")])
    got = [list(c) for c in captured]
    if got == want:
        return []
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    return [f"nms: kept (masked, unmasked) per image differs from the generator's "
            f"count ({len(got)} calls for {len(want)} images, first mismatch at {bad[:1]})"]


def check_eval_det(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    errors = check_nms_kept(images, cmd["nms_kept"])
    return errors + compare_rows("eval-det", read_table(out / "eval_det.json"), ap_cells(images))


def check_crowd_ratio(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    errors = check_nms_kept(images, cmd["nms_kept"])
    gt, est = crowd_counts(images)
    want = eval_ratio_rows(images, est, gt, by_condition=True)
    return errors + compare_rows("eval-ratio", read_table(out / "eval_ratio.json"), want)


def _sparse_counts(images) -> tuple[dict, dict]:
    return _gt(images), {im["image_id"]: _counted(im["dets"]) for im in images}


def check_sparse_ratio(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    gt, est = _sparse_counts(images)
    errors = compare_rows("eval-ratio", read_table(out / "eval_ratio.json"),
                          eval_ratio_rows(images, est, gt, by_condition=True))
    with open(out / "scatter.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[:1] != [["image_id", "gt_ratio", "est_ratio"]]:
        return errors + [f"scatter: bad header {rows[:1]}"]
    got = [[r[0], float(r[1]), float(r[2])] for r in rows[1:]]
    return errors + compare_rows("scatter", got, ratio_pairs(est, gt))


def _mean_defined(ratios: list) -> float | None:
    defined = [r for r in ratios if r is not None]
    return float(np.mean(defined)) if defined else None


def check_report_video(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    gt, est = _sparse_counts(images)
    want = []
    for video in sorted({im["video_id"] for im in images}):
        ids = [im["image_id"] for im in images if im["video_id"] == video]

        def ratios(counts):
            return [m / (m + u) if m + u else None for m, u in (counts[i] for i in ids)]

        want.append((video, len(ids), _mean_defined(ratios(gt)), _mean_defined(ratios(est))))
    return compare_rows("report-video", read_table(out / "report_video.json"), want)


def read_nfmd(path: Path) -> tuple[tuple[int, int, int], np.ndarray]:
    data = path.read_bytes()
    if data[:4] != b"NFMD":
        raise ValueError(f"{path.name}: bad magic")
    w, h, ds = struct.unpack_from("<III", data, 4)
    return (w, h, ds), np.frombuffer(data, dtype="<f4", offset=16)


def check_gen_density(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    maps = out / "gt_maps"
    rows, cols = map_shape()
    errors = []
    names = sorted(p.name for p in maps.iterdir())
    want_names = sorted(f"{im['image_id']}.{s}.nfmd" for im in images for s in ("total", "unmasked"))
    if names != want_names:
        errors.append(f"gen-density: wrote {len(names)} maps, expected {len(want_names)}")
    for im in images:
        gm, gu = im["gt"]
        for subset, count in (("total", gm + gu), ("unmasked", gu)):
            path = maps / f"{im['image_id']}.{subset}.nfmd"
            if not path.exists():
                continue
            (w, h, ds), values = read_nfmd(path)
            if (w, h, ds) != (cols, rows, DOWNSCALE) or values.size != w * h:
                errors.append(f"gen-density: {path.name} is {w}x{h}/{ds} with {values.size} "
                              f"cells, expected {cols}x{rows}/{DOWNSCALE} for {WIDTH}x{HEIGHT}")
                continue
            mass = float(values.astype(np.float64).sum())
            if abs(mass - count) > F32_TOL * max(count, 1):
                errors.append(f"gen-density: {path.name} sums to {mass!r}, expected {count}")
    return errors


def _density_counts(images) -> tuple[dict, dict]:
    est = {}
    for im in images:
        total, unmasked = im["pred_sum"]
        u = min(max(unmasked, 0.0), total)
        est[im["image_id"]] = (total - u, u)
    return _gt(images), est


def check_eval_count(truth, out: Path, cmd: dict) -> list[str]:
    gt, est = _density_counts(truth["images"])
    return compare_rows("eval-count", read_table(out / "eval_count.json"), count_rows(est, gt))


def check_density_ratio(truth, out: Path, cmd: dict) -> list[str]:
    images = truth["images"]
    gt, est = _density_counts(images)
    want = eval_ratio_rows(images, est, gt, by_condition=False)
    return compare_rows("eval-ratio", read_table(out / "eval_ratio.json"), want)
