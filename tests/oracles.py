"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain scalar loops, separate from
the vectorized implementations under test: IoU is recomputed inline, matching
decisions are enumerated one detection at a time, NMS and AP also keep their
earlier dense forms (an IoU matrix per block and per image), the precision
envelope is an explicit suffix scan, gradients come from bump-and-reevaluate
central differences over the public forward pass, the JSONL loaders check one
line and one face at a time into value objects, the synthetic scene generator
builds one value object per face, the adaptive kernel sigmas come from
scipy's k-d tree, and density maps are drawn one face at a time, either
from two block-summed 1-D profiles or at full resolution and then
block-summed.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings

import numpy as np
from scipy.spatial import cKDTree

from maskbench.density import (
    _DELTA_SIGMA,
    DensityMap,
    KernelSpec,
    PointSet,
    adaptive_sigmas,
    downsample_sum_preserving,
    map_shape,
    render_density,
)
from maskbench.errors import DataFormatError
from maskbench.fusion import FeatureLevel, FusionWeights, bifpn_fuse
from maskbench.geometry import (
    LABEL_CODES,
    SIZE_BUCKETS,
    Annotation,
    BBox,
    Detection,
    FaceLabel,
    SizeBucket,
    face_arrays,
    iou_matrix,
    size_buckets,
)
from maskbench.metrics import _FP, _TP, BUCKETS, EvalConfig, _match_image
from maskbench.ratio import Condition, CovidPeriod, ImageMeta


def iou_scalar(a, b) -> float:
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a.right - a.left) * (a.bottom - a.top)
    area_b = (b.right - b.left) * (b.bottom - b.top)
    return inter / (area_a + area_b - inter)


def bucket_of(box) -> SizeBucket:
    w = box.right - box.left
    h = box.bottom - box.top
    if w < 8 or h < 8:
        return SizeBucket.EXCLUDED
    if w <= 16 and h <= 16:
        return SizeBucket.S
    if w > 32 and h > 32:
        return SizeBucket.L
    return SizeBucket.M


def brute_force_matches(
    detections: dict[str, list[Detection]],
    annotations: dict[str, list[Annotation]],
    label: FaceLabel,
    bucket: SizeBucket | None,
    iou_thr: float,
) -> tuple[list[bool | None], int] | None:
    """Explicit match decisions in rank order (True TP, False FP, None for a
    detection discarded on an ignore region) and the in-scope ground-truth
    count. None when no ground truth is in scope."""
    scope: dict[str, list] = {}
    ignore: dict[str, list] = {}
    n_pos = 0
    for image_id, annos in annotations.items():
        scope[image_id] = []
        ignore[image_id] = []
        for a in annos:
            if a.label is FaceLabel.UNKNOWN:
                ignore[image_id].append(a.box)
            elif a.label is label:
                b = bucket_of(a.box)
                in_scope = (b is not SizeBucket.EXCLUDED) if bucket is None else (b is bucket)
                if in_scope:
                    scope[image_id].append(a.box)
                else:
                    ignore[image_id].append(a.box)
        n_pos += len(scope[image_id])
    if n_pos == 0:
        return None

    flat = []
    for image_id, dets in detections.items():
        for i, d in enumerate(dets):
            if d.label is label:
                flat.append((image_id, i, d))
    flat.sort(key=lambda item: -item[2].confidence)  # stable: ties keep input order

    used: dict[str, set[int]] = {image_id: set() for image_id in scope}
    events = []
    for image_id, _, det in flat:
        best_scope, best_j = -1.0, -1
        for j, gt in enumerate(scope.get(image_id, [])):
            if j in used[image_id]:
                continue
            v = iou_scalar(det.box, gt)
            if v > best_scope:
                best_scope, best_j = v, j
        best_ignore = -1.0
        for gt in ignore.get(image_id, []):
            best_ignore = max(best_ignore, iou_scalar(det.box, gt))
        if best_scope >= iou_thr and best_scope >= best_ignore:
            used[image_id].add(best_j)
            events.append(True)
        elif best_ignore >= iou_thr:
            events.append(None)
        else:
            events.append(False)
    return events, n_pos


def brute_force_ap(
    detections: dict[str, list[Detection]],
    annotations: dict[str, list[Annotation]],
    label: FaceLabel,
    bucket: SizeBucket | None,
    iou_thr: float,
) -> float | None:
    """Reference AP: explicit match decisions, explicit envelope integration."""
    matches = brute_force_matches(detections, annotations, label, bucket, iou_thr)
    if matches is None:
        return None
    events = [e for e in matches[0] if e is not None]
    n_pos = matches[1]
    precisions = []
    tp = 0
    for k, is_tp in enumerate(events, start=1):
        tp += is_tp
        precisions.append(tp / k)
    ap = 0.0
    for k, is_tp in enumerate(events):
        if is_tp:
            ap += max(precisions[k:]) / n_pos
    return ap


def envelope_ap(events: list[bool | None], n_pos: int) -> float:
    """All-point AP of a decision sequence, summed in average_precision's float order.

    The explicit integration in brute_force_ap rounds differently (by up to a
    few ulps), so a test that needs equality of every bit pairs the brute-force
    decisions with this sum. Discarded ranks after the first counted one stay
    in the sum as zero-width steps, as they do in average_precision.
    """
    tp = np.array([e is True for e in events], dtype=np.float64)
    fp = np.array([e is False for e in events], dtype=np.float64)
    ctp, cfp = np.cumsum(tp), np.cumsum(fp)
    counted = (ctp + cfp) > 0
    ctp, cfp = ctp[counted], cfp[counted]
    if ctp.shape[0] == 0:
        return 0.0
    recall = ctp / n_pos
    precision = ctp / (ctp + cfp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    deltas = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(deltas * envelope))


def fd_fusion_gradient(
    m_in: dict[int, FeatureLevel],
    weights: FusionWeights,
    conv,
    upstream: dict[int, np.ndarray],
    name: str,
    j: int,
    step: float = 1e-5,
) -> float:
    """Central difference of <upstream, outputs> through the public forward pass."""

    def value(delta: float) -> float:
        raw = {k: v.copy() for k, v in weights.raw.items()}
        raw[name][j] += delta
        outs = bifpn_fuse(m_in, FusionWeights(raw, weights.epsilon), conv)
        return math.fsum(
            float(np.sum(upstream[level] * out.values)) for level, out in outs.items()
        )

    return (value(step) - value(-step)) / (2.0 * step)


def neighbor_sigmas(
    points: list[tuple[float, float]], beta: float, k: int, sigma_default: float
) -> list[float]:
    """Quadratic-time reference for the adaptive kernel sigmas."""
    n = len(points)
    if n == 1:
        return [sigma_default]
    out = []
    for i, (x, y) in enumerate(points):
        dists = sorted(
            math.hypot(x - ox, y - oy) for j, (ox, oy) in enumerate(points) if j != i
        )
        nearest = dists[: min(k, n - 1)]
        out.append(beta * sum(nearest) / len(nearest))
    return out


def point_set_error(points, width: int, height: int) -> str | None:
    """The ValueError message PointSet gives these points, or None, one point at a time.

    The reference for PointSet's mask check: the first point in input order
    that is non-finite, or else outside [0, width) x [0, height), names the error.
    """
    for x, y in ((float(x), float(y)) for x, y in points):
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"point coordinates must be finite, got ({x}, {y})"
        if not (0.0 <= x < width and 0.0 <= y < height):
            return f"point ({x}, {y}) outside [0, {width}) x [0, {height})"
    return None


def adaptive_sigmas_kdtree(pts: PointSet, spec: KernelSpec = KernelSpec()) -> list[float]:
    """adaptive_sigmas through scipy's k-d tree: the reference for the exact numpy search."""
    n = len(pts)
    if n == 0:
        raise ValueError("adaptive_sigmas requires a non-empty point set")
    if n == 1:
        return [spec.sigma_default]
    coords = np.asarray(pts.points, dtype=np.float64)
    n_neighbors = min(spec.k, n - 1)
    tree = cKDTree(coords)
    # query includes the point itself at distance 0 in column 0
    dists, _ = tree.query(coords, k=n_neighbors + 1)
    mean_dist = dists[:, 1:].mean(axis=1)
    return [spec.beta * d for d in mean_dist]


def nms_scalar(dets: list[Detection], iou_thr: float) -> list[Detection]:
    """Greedy class-wise NMS one pair at a time: the scalar reference for nms."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept: list[int] = []
    for i in order:
        if all(
            dets[i].label is not dets[j].label
            or iou_scalar(dets[i].box, dets[j].box) < iou_thr
            for j in kept
        ):
            kept.append(i)
    kept.sort()
    return [dets[i] for i in kept]


# candidates settled per step of nms_dense_blocks
_DENSE_NMS_BLOCK = 64


def nms_dense_blocks(dets, iou_thr: float):
    """ratio.nms from dense IoU matrices: each class, by confidence, 64 at a time.

    One iou_matrix settles a block among itself, visiting only rows that overlap a
    later one; a second drops every later candidate that a kept box overlaps at
    iou_thr or more. Returns what nms returns for a record or a sequence.
    """
    boxes, labels, conf = face_arrays(dets)
    masked = labels == LABEL_CODES[FaceLabel.MASKED]
    keep = np.zeros(len(dets), dtype=bool)
    for in_class in (masked, ~masked):
        idx = np.flatnonzero(in_class)
        idx = idx[np.argsort(-conf[idx], kind="stable")]
        while idx.size:
            block, rest = idx[:_DENSE_NMS_BLOCK], idx[_DENSE_NMS_BLOCK:]
            over = np.triu(iou_matrix(boxes[block], boxes[block]) >= iou_thr, 1)
            alive = np.ones(len(block), dtype=bool)
            for i in np.flatnonzero(over.any(axis=1)).tolist():
                if alive[i]:
                    alive &= ~over[i]
            kept = block[alive]
            keep[kept] = True
            idx = rest[~(iou_matrix(boxes[kept], boxes[rest]) >= iou_thr).any(axis=0)]
    rows = np.flatnonzero(keep)
    if hasattr(dets, "labels"):
        return type(dets)(dets.image_id, dets.meta,
                          boxes=boxes[rows], labels=labels[rows], conf=conf[rows])
    return [dets[i] for i in rows]


def average_precision_per_image(detections, annotations, label, bucket=None,
                                cfg=EvalConfig()) -> float | None:
    """metrics.average_precision matched image by image, from one dense IoU matrix each.

    Each image's detections of the class go through metrics._match_image against
    every in-scope face of the image, with the row maximum of their IoUs with its
    ignore regions; one stable sort of all confidences ranks the outcomes.
    """
    code, unknown = LABEL_CODES[label], LABEL_CODES[FaceLabel.UNKNOWN]
    in_bucket = np.array([b in (BUCKETS if bucket is None else (bucket,)) for b in SIZE_BUCKETS])

    faces, n_pos = {}, 0
    for image_id, annos in annotations.items():
        boxes, labels, _ = face_arrays(annos)
        own = labels == code
        scope = own & in_bucket[size_buckets(boxes)]
        ignore = (own & ~scope) | (labels == unknown)
        n_pos += int(np.count_nonzero(scope))
        kept = scope | ignore
        if kept.any():
            faces[image_id] = boxes[kept], scope[kept]
    if n_pos == 0:
        return None

    confs, outcomes = [np.zeros(0)], [np.zeros(0, dtype=np.int8)]
    for image_id, dets in detections.items():
        boxes, labels, conf = face_arrays(dets)
        own = labels == code
        confs.append(conf[own])
        outcomes.append(np.full(len(confs[-1]), _FP, dtype=np.int8))
        if own.any() and image_id in faces:
            gt_boxes, scope = faces[image_id]
            ious = iou_matrix(boxes[own], gt_boxes)
            best_ignore = ious[:, ~scope].max(axis=1, initial=-1.0)
            outcomes[-1] = _match_image(confs[-1], ious[:, scope], best_ignore, cfg.iou_thr)

    ranked = np.concatenate(outcomes)[np.argsort(-np.concatenate(confs), kind="stable")]
    ctp, cfp = np.cumsum(ranked == _TP), np.cumsum(ranked == _FP)
    keep = (ctp + cfp) > 0
    ctp, cfp = ctp[keep], cfp[keep]
    envelope = np.maximum.accumulate((ctp / (ctp + cfp))[::-1])[::-1]
    deltas = np.diff(np.concatenate(([0.0], ctp / n_pos)))
    return float(np.sum(deltas * envelope))


def render_density_loop(
    pts: PointSet, spec: KernelSpec = KernelSpec(), downscale: int = 1
) -> DensityMap:
    """The per-face renderer: the reference for render_density's batched profiles.

    Render a density map at 1/downscale of image resolution; each face has mass 1.

    The Gaussian for face i is sampled at pixel centers, truncated at
    ``truncation_radius * sigma_i`` per axis, clipped to the image, and then
    renormalized over the surviving pixels. Each of the ceil(H/downscale) x
    ceil(W/downscale) output cells holds the sum of its downscale x downscale
    pixel block, as ``downsample_sum_preserving`` of the full-resolution map
    would. The kernel is separable, so a face's block sums are the outer
    product of its two per-axis profiles, each block-summed and normalized by
    its own sum; no full-resolution map is made. Contributions are
    accumulated in input order, so the result is bit-reproducible. An empty
    point set yields an all-zero map.
    """
    if not isinstance(downscale, (int, np.integer)) or downscale <= 0:
        raise ValueError(f"downscale must be a positive integer, got {downscale!r}")
    h, w = pts.image_height, pts.image_width
    values = np.zeros((-(-h // downscale), -(-w // downscale)), dtype=np.float64)
    if len(pts) == 0:
        return DensityMap(values, downscale)

    for (x, y), sigma in zip(pts.points, adaptive_sigmas(pts, spec)):
        if sigma > _DELTA_SIGMA:
            r = spec.truncation_radius * sigma
            xs = _block_profile(x, sigma, r, w, downscale)
            ys = _block_profile(y, sigma, r, h, downscale)
            if xs is not None and ys is not None:
                (c0, px), (r0, py) = xs, ys
                values[r0 : r0 + len(py), c0 : c0 + len(px)] += np.outer(py, px)
                continue
        # degenerate kernel: all mass into the cell containing the point
        values[min(h - 1, int(y)) // downscale, min(w - 1, int(x)) // downscale] += 1.0
    return DensityMap(values, downscale)


def _block_profile(center: float, sigma: float, r: float, size: int, ds: int):
    """(first cell, ds-pixel block sums normalized to 1) of one axis's Gaussian, or None.

    None when no pixel center (p + 0.5) lies within +-r of the center, or
    every weight underflows.
    """
    pix = np.arange(
        max(0, math.ceil(center - r - 0.5)), min(size - 1, math.floor(center + r - 0.5)) + 1
    )
    g = np.exp(-((pix + 0.5 - center) ** 2) / (2.0 * sigma * sigma))
    total = g.sum()  # 0.0 for an empty window
    if not total > 0.0:
        return None
    return pix[0] // ds, np.bincount(pix // ds - pix[0] // ds, weights=g) / total


def render_density_two_step(
    pts: PointSet, spec: KernelSpec = KernelSpec(), downscale: int = 1
) -> DensityMap:
    """The full-resolution renderer, then a block sum: the reference for render_density.

    Each face's 2-D Gaussian is sampled at every pixel center of its clipped
    truncation window, renormalized, and added into an H x W buffer in input
    order; a face whose sigma is below 1e-6 or whose window holds no pixel
    center is a unit deposit in its pixel. The buffer is then reduced with
    downsample_sum_preserving.
    """
    h, w = pts.image_height, pts.image_width
    values = np.zeros((h, w), dtype=np.float64)
    sigmas = adaptive_sigmas(pts, spec) if len(pts) else []
    for (x, y), sigma in zip(pts.points, sigmas):
        _add_face(values, x, y, sigma, spec.truncation_radius)
    return downsample_sum_preserving(DensityMap(values), downscale)


def _add_face(values: np.ndarray, x: float, y: float, sigma: float, trunc: float) -> None:
    h, w = values.shape
    if sigma > 1e-6:
        r = trunc * sigma
        # cells whose centers (c + 0.5) fall within +-r of the face center
        c0 = max(0, math.ceil(x - r - 0.5))
        c1 = min(w - 1, math.floor(x + r - 0.5))
        r0 = max(0, math.ceil(y - r - 0.5))
        r1 = min(h - 1, math.floor(y + r - 0.5))
        if c0 <= c1 and r0 <= r1:
            cx = np.arange(c0, c1 + 1, dtype=np.float64) + 0.5 - x
            cy = np.arange(r0, r1 + 1, dtype=np.float64) + 0.5 - y
            g = np.exp(-(cy[:, None] ** 2 + cx[None, :] ** 2) / (2.0 * sigma * sigma))
            total = g.sum()
            if total > 0.0:
                values[r0 : r1 + 1, c0 : c1 + 1] += g / total
                return
    # degenerate kernel: all mass into the cell containing the point
    values[min(h - 1, int(y)), min(w - 1, int(x))] += 1.0


def _bin_of(value: float, edges) -> int:
    """Index of the last edge at or below value, found by a linear search."""
    index = 0
    for i, edge in enumerate(edges):
        if value >= edge:
            index = i
    return index


def dataset_stats_loops(train, test) -> dict:
    """dataset_stats as plain loops over explicit edges and bin labels.

    Labels are counted one face at a time; every value goes to the last edge at
    or below it, the last bin of each histogram open (ratio edges are i/10, and
    a ratio never exceeds 1, so its last bin is [0.9-1]).
    """
    from maskbench.dataset import Table

    size_edges = (0.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    size_bins = ["[0-8)", "[8-16)", "[16-32)", "[32-64)", "[64-128)", "[128-256)", ">=256"]
    ratio_edges = [i / 10 for i in range(10)]
    ratio_bins = ["[0-0.1)", "[0.1-0.2)", "[0.2-0.3)", "[0.3-0.4)", "[0.4-0.5)", "[0.5-0.6)",
                  "[0.6-0.7)", "[0.7-0.8)", "[0.8-0.9)", "[0.9-1]"]
    count_edges = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
    count_bins = ["[0-1)", "[1-2)", "[2-4)", "[4-8)", "[8-16)", "[16-32)", "[32-64)",
                  "[64-128)", "[128-256)", ">=256"]

    count_rows, avg_rows, hists = [], [], []
    for name, manifest in (("Training", train), ("Testing", test)):
        masked = unmasked = unknown = 0
        sizes = [0] * len(size_edges)
        ratios = [0] * len(ratio_edges)
        faces = [0] * len(count_edges)
        for rec in manifest.images:
            m = u = 0
            for a in rec.annotations:
                if a.label is FaceLabel.MASKED:
                    m += 1
                elif a.label is FaceLabel.UNMASKED:
                    u += 1
                else:
                    unknown += 1
                side = max(a.box.right - a.box.left, a.box.bottom - a.box.top)
                sizes[_bin_of(side, size_edges)] += 1
            masked += m
            unmasked += u
            if m + u > 0:
                ratios[_bin_of(m / (m + u), ratio_edges)] += 1
            faces[_bin_of(len(rec.annotations), count_edges)] += 1
        n = len(manifest.images)
        count_rows.append((name, n, masked, unmasked, unknown))
        if n == 0:
            avg_rows.append((name, 0.0, 0.0, 0.0))
        else:
            avg_rows.append(
                (name, round(masked / n, 1), round(unmasked / n, 1), round(unknown / n, 1))
            )
        hists.append((sizes, ratios, faces))
    (_, *tr), (_, *te) = count_rows
    count_rows.append(("Total", *(a + b for a, b in zip(tr, te))))

    def hist_table(labels, k):
        return Table(
            ("bin", "training", "testing"),
            [(labels[i], hists[0][k][i], hists[1][k][i]) for i in range(len(labels))],
        )

    return {
        "counts": Table(("split", "images", "masked", "unmasked", "unknown"), count_rows),
        "per_image_averages": Table(("split", "masked", "unmasked", "unknown"), avg_rows),
        "face_size_histogram": hist_table(size_bins, 0),
        "mask_ratio_histogram": hist_table(ratio_bins, 1),
        "faces_per_image_histogram": hist_table(count_bins, 2),
    }


# ---------------------------------------------------------------------------
# object loaders: one JSONL line, then one face, at a time


_CONDITIONS = {"DT": Condition.DAYTIME, "NT": Condition.NIGHTTIME}
_PERIODS = {"before": CovidPeriod.BEFORE, "during": CovidPeriod.DURING}
_LABELS = {lab.value: lab for lab in FaceLabel}


def _box_of(raw, where: str, width: int | None, height: int | None) -> BBox:
    if not (isinstance(raw, list) and len(raw) == 4):
        raise DataFormatError(f"{where}: box must be a list of 4 numbers, got {reprlib.repr(raw)}")
    for i, v in enumerate(raw):  # each as read, before the clamp: a number a float holds
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and -sys.float_info.max <= v <= sys.float_info.max):
            raise DataFormatError(f"{where}: box[{i}] must be a finite number, got {reprlib.repr(v)}")
    l, t, r, b = (float(v) for v in raw)
    if width is not None and height is not None:
        l, r = min(max(l, 0.0), width), min(max(r, 0.0), width)
        t, b = min(max(t, 0.0), height), min(max(b, 0.0), height)
    try:
        return BBox(l, t, r, b)
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise DataFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


class _Repeated(Exception):
    pass


def _no_repeats(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise _Repeated(key)
        seen.add(key)
    return dict(pairs)


def _json_lines(path):
    # only \n ends a line; a bare \r is JSON whitespace
    with open(path, "r", encoding="utf-8", newline="\n") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, object_pairs_hook=_no_repeats)
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}:{exc.colno}: invalid JSON: {exc.msg.removesuffix(' at')}"
                ) from exc
            except _Repeated as exc:
                raise DataFormatError(f"{path}:{lineno}: repeated key {exc.args[0]!r}") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def _line_header(obj: dict, where: str, seen: set[str]):
    image_id = _field(obj, "image_id", where)
    if not isinstance(image_id, str) or not image_id:
        raise DataFormatError(f"{where}: image_id must be a non-empty string")
    if image_id in seen:
        raise DataFormatError(f"{where}: duplicate image_id {image_id!r}")
    seen.add(image_id)
    video_id = _field(obj, "video_id", where)
    if not isinstance(video_id, str) or not video_id:
        raise DataFormatError(f"{where}: video_id must be a non-empty string")
    condition = _field(obj, "condition", where)
    if not isinstance(condition, str) or condition not in _CONDITIONS:
        raise DataFormatError(f"{where}: condition must be 'DT' or 'NT'")
    return image_id, video_id, _CONDITIONS[condition]


def load_annotations_objects(path):
    """load_annotations one face at a time into value objects: its reference."""
    from maskbench.dataset import DatasetManifest, ImageRecord, SmallFaceWarning

    records = []
    seen: set[str] = set()
    for lineno, obj in _json_lines(path):
        where = f"{path}:{lineno}"
        image_id, video_id, condition = _line_header(obj, where, seen)
        width = _field(obj, "width", where)
        height = _field(obj, "height", where)
        for name, v in (("width", width), ("height", height)):
            if not (isinstance(v, int) and not isinstance(v, bool) and 0 < v < 2**53):
                raise DataFormatError(
                    f"{where}: {name} must be an integer in [1, 2**53), got {reprlib.repr(v)}"
                )
        period = _field(obj, "period", where)
        if not isinstance(period, str) or period not in _PERIODS:
            raise DataFormatError(f"{where}: period must be 'before' or 'during'")
        faces = _field(obj, "faces", where)
        if not isinstance(faces, list):
            raise DataFormatError(f"{where}: faces must be a list")
        annotations = []
        for i, face in enumerate(faces):
            fwhere = f"{where}: face {i}"
            if not isinstance(face, dict):
                raise DataFormatError(f"{fwhere}: expected an object")
            box = _box_of(_field(face, "box", fwhere), fwhere, width, height)
            label = _field(face, "label", fwhere)
            if not isinstance(label, str) or label not in _LABELS:
                raise DataFormatError(
                    f"{fwhere}: label must be masked/unmasked/unknown, got {reprlib.repr(label)}"
                )
            if box.width < 10.0 or box.height < 10.0:
                warnings.warn(
                    f"{fwhere} ({image_id}): face {box.width:g}x{box.height:g} px is "
                    "below the 10x10 annotation protocol minimum",
                    SmallFaceWarning,
                    stacklevel=2,
                )
            annotations.append(Annotation(box, _LABELS[label]))
        meta = ImageMeta(video_id, condition, _PERIODS[period])
        records.append(ImageRecord(image_id, meta, width, height, tuple(annotations)))
    return DatasetManifest(tuple(records))


def load_detections_objects(path):
    """load_detections one detection at a time into value objects: its reference."""
    from maskbench.dataset import DetectionRecord

    records = []
    seen: set[str] = set()
    for lineno, obj in _json_lines(path):
        where = f"{path}:{lineno}"
        image_id, video_id, condition = _line_header(obj, where, seen)
        dets_raw = _field(obj, "detections", where)
        if not isinstance(dets_raw, list):
            raise DataFormatError(f"{where}: detections must be a list")
        dets = []
        for i, det in enumerate(dets_raw):
            dwhere = f"{where}: detection {i}"
            if not isinstance(det, dict):
                raise DataFormatError(f"{dwhere}: expected an object")
            box = _box_of(_field(det, "box", dwhere), dwhere, None, None)
            label = _field(det, "label", dwhere)
            if label not in (FaceLabel.MASKED.value, FaceLabel.UNMASKED.value):
                raise DataFormatError(
                    f"{dwhere}: label must be masked or unmasked, got {reprlib.repr(label)}"
                )
            conf = _field(det, "conf", dwhere)
            if not (isinstance(conf, (int, float)) and not isinstance(conf, bool)
                    and 0.0 <= conf <= 1.0):
                raise DataFormatError(
                    f"{dwhere}: conf must be a finite number in [0, 1], got {reprlib.repr(conf)}"
                )
            try:
                dets.append(Detection(box, _LABELS[label], float(conf)))
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"{dwhere}: {exc}") from exc
        records.append(DetectionRecord(image_id, ImageMeta(video_id, condition), tuple(dets)))
    return records


# ---------------------------------------------------------------------------
# value-object synthetic scenes


def _synth_box(rng: np.random.Generator, params) -> BBox:
    size = math.exp(
        rng.uniform(math.log(params.face_size_min), math.log(params.face_size_max))
    )
    aspect = math.exp(rng.uniform(math.log(0.75), math.log(4.0 / 3.0)))
    w = min(size * math.sqrt(aspect), 0.95 * params.image_width)
    h = min(size / math.sqrt(aspect), 0.95 * params.image_height)
    cx = rng.uniform(w / 2.0, params.image_width - w / 2.0)
    cy = rng.uniform(h / 2.0, params.image_height - h / 2.0)
    return BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _jitter_box(box: BBox, noise: np.ndarray, sigma: float, w: int, h: int) -> BBox:
    l = min(max(box.left + sigma * noise[0], 0.0), float(w))
    t = min(max(box.top + sigma * noise[1], 0.0), float(h))
    r = min(max(box.right + sigma * noise[2], 0.0), float(w))
    b = min(max(box.bottom + sigma * noise[3], 0.0), float(h))
    if r - l < 0.5:  # keep the box valid after heavy jitter
        c = min(max((l + r) / 2.0, 0.25), w - 0.25)
        l, r = c - 0.25, c + 0.25
    if b - t < 0.5:
        c = min(max((t + b) / 2.0, 0.25), h - 0.25)
        t, b = c - 0.25, c + 0.25
    return BBox(l, t, r, b)


def synth_scene_objects(params, include_density: bool = True):
    """synth_scene one face at a time through value objects: its reference."""
    from maskbench.dataset import (
        _FP_CONFIDENCE,
        _TP_CONFIDENCE,
        DatasetManifest,
        DetectionRecord,
        ImageRecord,
        SynthScene,
        subset_points,
    )

    rng = np.random.default_rng(params.seed)
    noiseless = (params.jitter_sigma, params.drop_rate, params.flip_rate,
                 params.false_positive_rate) == (0.0, 0.0, 0.0, 0.0)
    images = []
    det_records = []
    density = {} if include_density else None

    for i in range(params.n_images):
        video_idx = i % params.n_videos
        meta = ImageMeta(
            f"video{video_idx:02d}",
            Condition.DAYTIME if video_idx % 2 == 0 else Condition.NIGHTTIME,
            CovidPeriod.BEFORE if video_idx < params.n_videos // 2 else CovidPeriod.DURING,
        )
        image_id = f"img{i:05d}"
        n_faces = int(rng.integers(params.faces_min, params.faces_max + 1))
        annotations = []
        for _ in range(n_faces):
            box = _synth_box(rng, params)
            if rng.random() < params.unknown_probability:
                label = FaceLabel.UNKNOWN
            elif rng.random() < params.masked_probability:
                label = FaceLabel.MASKED
            else:
                label = FaceLabel.UNMASKED
            annotations.append(Annotation(box, label))
        rec = ImageRecord(
            image_id, meta, params.image_width, params.image_height, tuple(annotations)
        )
        images.append(rec)

        dets = []
        for a in annotations:
            if a.label is FaceLabel.UNKNOWN:
                continue
            u_drop = rng.random()
            u_flip = rng.random()
            noise = rng.standard_normal(4)
            conf_draw = rng.normal(*_TP_CONFIDENCE)
            if u_drop < params.drop_rate:
                continue
            label = a.label
            if u_flip < params.flip_rate:
                label = (
                    FaceLabel.UNMASKED if label is FaceLabel.MASKED else FaceLabel.MASKED
                )
            box = _jitter_box(
                a.box, noise, params.jitter_sigma, params.image_width, params.image_height
            )
            conf = 1.0 if noiseless else min(max(conf_draw, 0.0), 1.0)
            dets.append(Detection(box, label, conf))
        if params.false_positive_rate > 0.0:
            for _ in range(int(rng.poisson(params.false_positive_rate))):
                box = _synth_box(rng, params)
                label = FaceLabel.MASKED if rng.random() < 0.5 else FaceLabel.UNMASKED
                conf = min(max(rng.normal(*_FP_CONFIDENCE), 0.0), 1.0)
                dets.append(Detection(box, label, conf))
        # detector output carries no covid period (the detections schema has none)
        det_meta = ImageMeta(meta.video_id, meta.condition)
        det_records.append(DetectionRecord(image_id, det_meta, tuple(dets)))

        # the maps' noise is drawn with or without maps, so the faces do not depend on them
        shape = map_shape(params.image_height, params.image_width, params.density_downscale)
        noise_fields = {name: rng.uniform(-1.0, 1.0, shape) for name in ("total", "unmasked")}
        if density is not None:
            maps = {}
            for name, noise_field in noise_fields.items():
                pts = subset_points(rec, name)
                gt = render_density(pts, params.kernel, params.density_downscale)
                pred = gt.values * (1.0 + params.density_noise * noise_field)
                maps[name] = DensityMap(pred, gt.downscale)
            density[image_id] = maps

    return SynthScene(
        DatasetManifest(tuple(images)), tuple(det_records), density
    )
