"""mrb: one executable exposing every pipeline as a subcommand over files.

Exit codes: 0 success, 1 usage error, 2 data or check error. All report
commands accept --format {csv,json} and write to --out (stdout otherwise).
Outputs are a pure function of inputs, flags, and the seed. Every command runs
in one thread; --threads is still accepted and has no effect.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import reprlib
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    DENSITY_SUBSETS,
    DatasetManifest,
    DetectionRecord,
    ImageRecord,
    SynthParams,
    Table,
    _decode,
    check_density_subset,
    dataset_stats,
    density_path,
    load_annotations,
    load_detections,
    parse_annotation,
    render_report,
    subset_points,
    synth_scene,
    write_report,
    write_synth_scene,
)
from .density import (
    DensityMap,
    KernelSpec,
    check_downscale,
    integrate_count,
    map_shape,
    read_density,
    render_density,
    write_density,
)
from .density import downsample_sum_preserving  # noqa: F401  (unused; perfbench's tracer wraps it)
from .errors import DataFormatError, check_number, plain_numbers, shown_path
from .geometry import FaceLabel
from .metrics import BUCKETS, EvalConfig, average_precision, mae, mean_ap, pearson, ratio_pairs
from .metrics import ratio_correlation  # noqa: F401  (unused; perfbench's tracer wraps it)
from .ratio import (
    RatioReport,
    aggregate_by_video,
    check_thresholds,
    density_ratio,
    group_by_condition,
    nms,
    ratio_reports,
)
from .ratio import annotation_ratio, detection_ratio  # noqa: F401  (unused; perfbench's tracer wraps it)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _emit(tables: Table | Mapping[str, Table], out: str | None, fmt: str) -> None:
    if out is not None:
        write_report(tables, out, fmt)
    else:
        sys.stdout.write(render_report(tables, fmt))


# ---------------------------------------------------------------------------
# shared evaluation plumbing


def _dets_by_image(
    manifest: DatasetManifest, path: str, nms_iou: float | None
) -> dict[str, DetectionRecord]:
    """The detections file's records by image id, after NMS if nms_iou is given."""
    records = load_detections(path)
    metas = {rec.image_id: rec.meta for rec in manifest.images}
    for rec in records:
        if rec.image_id not in metas:
            raise DataFormatError(
                f"{path}: detections reference unknown image_id {rec.image_id!r}"
            )
        want = metas[rec.image_id]
        if (rec.meta.video_id, rec.meta.condition) != (want.video_id, want.condition):
            raise DataFormatError(
                f"{path}: detections for image {rec.image_id!r} give video_id "
                f"{rec.meta.video_id!r}, condition {rec.meta.condition.value!r}; the "
                f"annotations give {want.video_id!r}, {want.condition.value!r}"
            )
    by_image = {r.image_id: r if nms_iou is None else nms(r, nms_iou) for r in records}
    # images without a detection record count as zero detections
    return {rec.image_id: by_image[rec.image_id] if rec.image_id in by_image
            else DetectionRecord(rec.image_id, rec.meta) for rec in manifest.images}


def _map_path(annotations: str, root, image_id: str, subset: str) -> Path:
    """density_path, refusing an image_id that names no map file at the annotations file."""
    try:
        return density_path(root, image_id, subset)
    except DataFormatError as exc:
        raise DataFormatError(f"{annotations}: {exc}") from None


def _read_map(path: Path, rec: ImageRecord) -> DensityMap:
    if not path.exists():
        raise DataFormatError(f"missing density prediction {str(path)!r}")
    dmap = read_density(path)
    want = map_shape(rec.height, rec.width, dmap.downscale)
    if dmap.values.shape != want:
        raise DataFormatError(
            f"{shown_path(path)}: {dmap.height}x{dmap.width} map does not fit the {rec.height}x"
            f"{rec.width} image at downscale {dmap.downscale} (want {want[0]}x{want[1]})"
        )
    return dmap


def _swap_convention(
    reports: Mapping[str, RatioReport], convention: str
) -> dict[str, RatioReport]:
    if convention == "masked":
        return dict(reports)
    return {
        k: RatioReport(r.unmasked_count, r.masked_count) for k, r in reports.items()
    }


def _estimated_reports(args, config=lambda: None):
    """(config(), manifest, estimates, truth) of eval-count, eval-ratio and report-video.

    The flags are checked before any input is read: the detection route's thresholds,
    then config(), the command's own EvalConfig. The per-image estimates come from
    --detections, after NMS if --nms-iou is given, or from the maps in --density-dir;
    the truth is each annotated image's counts.
    """
    check_thresholds(args.nms_iou, args.conf_thr)
    cfg = config()
    manifest = load_annotations(args.annotations)
    if args.detections is not None:
        dets = _dets_by_image(manifest, args.detections, args.nms_iou)
        est = dict(zip(dets, ratio_reports(dets.values(), args.conf_thr)))
    else:
        def count(rec, subset):
            path = _map_path(args.annotations, args.density_dir, rec.image_id, subset)
            return integrate_count(_read_map(path, rec))

        est = {rec.image_id: density_ratio(count(rec, "total"), count(rec, "unmasked"))
               for rec in manifest.images}
    truth = ratio_reports(manifest.images)
    return cfg, manifest, est, {rec.image_id: r for rec, r in zip(manifest.images, truth)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    # every SynthParams field but the kernel is the flag of its name (build_parser)
    given = {f.name: getattr(args, f.name) for f in fields(SynthParams) if f.name != "kernel"}
    params = SynthParams(**given, kernel=KernelSpec(beta=args.beta, k=args.k))
    scene = synth_scene(params, include_density=not args.no_density)
    write_synth_scene(scene, args.out)
    return 0


def _cmd_stats(args) -> int:
    train = load_annotations(args.train)
    test = load_annotations(args.test)
    _emit(dataset_stats(train, test), args.out, args.format)
    return 0


def _cmd_gen_density(args) -> int:
    # each subset once, in the order it is first named
    subsets = list(dict.fromkeys(s.strip() for s in args.subsets.split(",") if s.strip()))
    if not subsets:
        raise ValueError(f"--subsets names no subset, expected some of {DENSITY_SUBSETS}")
    for s in subsets:
        check_density_subset(s)
    check_downscale(args.downscale)
    manifest = load_annotations(args.annotations)
    spec = KernelSpec(
        beta=args.beta,
        k=args.k,
        sigma_default=args.sigma_default,
        truncation_radius=args.truncation,
    )
    out = Path(args.out)
    # every map's path is checked before any map is rendered, and --out is
    # made only once every map has rendered, so a failed run leaves nothing
    jobs = [(rec, subset, _map_path(args.annotations, out, rec.image_id, subset))
            for rec in manifest.images for subset in subsets]
    # the rendered maps are kept until all have rendered, for that --out rule: writing
    # each as it renders was no faster (18.5 against 18.4 ms on 8 sparse and crowded 1280x720
    # frames at downscale 8, medians of 40 alternating in-process runs, 2-vCPU VM)
    maps = [(path, render_density(subset_points(rec, subset), spec, args.downscale))
            for rec, subset, path in jobs]
    out.mkdir(parents=True, exist_ok=True)
    for path, dmap in maps:
        write_density(dmap, path)
    return 0


def _cmd_eval_det(args) -> int:
    check_thresholds(args.nms_iou)
    cfg = EvalConfig(iou_thr=args.iou_thr)
    manifest = load_annotations(args.annotations)
    dets = _dets_by_image(manifest, args.detections, args.nms_iou)
    gts = {rec.image_id: rec for rec in manifest.images}

    cells = [
        (label, bucket)
        for label in (FaceLabel.MASKED, FaceLabel.UNMASKED)
        for bucket in BUCKETS
    ]
    aps = [average_precision(dets, gts, label, bucket, cfg) for label, bucket in cells]
    rows = [
        (label.value, bucket.value, ap) for (label, bucket), ap in zip(cells, aps)
    ]
    rows.append(("mAP", "", mean_ap(aps)))
    _emit(Table(("class", "bucket", "ap"), rows), args.out, args.format)
    return 0


def _stats_row(quantity: str, est: Sequence[float], gt: Sequence[float],
               with_mae: bool = True) -> tuple:
    """(quantity, n, mae, gamma): MAE needs one value and gamma two, else the cell is empty."""
    n = len(est)
    return (quantity, n, mae(est, gt) if with_mae and n else None,
            pearson(est, gt) if n >= 2 else None)


def _count_rows(est: Mapping[str, RatioReport], gt: Mapping[str, RatioReport]) -> list[tuple]:
    """The masked, unmasked and total rows over the images of gt."""
    (em, eu), (gm, gu) = ((np.array([r.masked_count for r in reports], np.float64),
                           np.array([r.unmasked_count for r in reports], np.float64))
                          for reports in ([est[i] for i in gt], list(gt.values())))
    return [_stats_row("masked", em, gm), _stats_row("unmasked", eu, gu),
            _stats_row("total", em + eu, gm + gu)]


def _cmd_eval_count(args) -> int:
    _, _, est, gt = _estimated_reports(args)
    _emit(
        Table(("quantity", "n_images", "mae", "gamma"), _count_rows(est, gt)),
        args.out,
        args.format,
    )
    return 0


def _cmd_eval_ratio(args) -> int:
    cfg, manifest, est, gt = _estimated_reports(
        args, lambda: EvalConfig(min_faces_per_image=args.min_faces))
    rows = _count_rows(est, gt)
    pairs = ratio_pairs(_swap_convention(est, args.convention),
                        _swap_convention(gt, args.convention), cfg)
    rows.append(_stats_row("ratio", [p[2] for p in pairs], [p[1] for p in pairs]))

    if args.by_condition:
        metas = {rec.image_id: rec.meta for rec in manifest.images}
        groups = group_by_condition((metas[p[0]], p) for p in pairs)
        for condition, group in groups.items():
            rows.append(_stats_row(f"ratio_{condition.value}", [p[2] for _, p in group],
                                   [p[1] for _, p in group], with_mae=False))

    if args.scatter:
        write_report(
            Table(("image_id", "gt_ratio", "est_ratio"), pairs), args.scatter, "csv"
        )
    _emit(Table(("quantity", "n_images", "mae", "gamma"), rows), args.out, args.format)
    return 0


def _cmd_report_video(args) -> int:
    _, manifest, est, gt = _estimated_reports(args)
    est = _swap_convention(est, args.convention)
    gt = _swap_convention(gt, args.convention)
    metas = {rec.image_id: rec.meta for rec in manifest.images}
    gt_agg = aggregate_by_video((metas[i], gt[i]) for i in metas)
    est_agg = aggregate_by_video((metas[i], est[i]) for i in metas)
    rows = [
        (g.video_id, g.n_images, g.mean_ratio, e.mean_ratio)
        for g, e in zip(gt_agg, est_agg)
    ]
    _emit(Table(("video_id", "n_images", "gt_ratio", "est_ratio"), rows), args.out, args.format)
    return 0


def _cmd_gradcheck(args) -> int:
    from . import fusion  # imported here: no other command needs it

    check_number(args.tolerance, "tolerance", lo=0)
    worst = fusion.run_gradient_check(
        seed=args.seed,
        trials=args.trials,
        max_size=args.max_size,
        max_channels=args.max_channels,
        step=args.step,
        epsilon=args.epsilon,
    )
    passed = bool(worst <= args.tolerance)
    _emit(
        Table(
            ("trials", "max_rel_err", "tolerance", "passed"),
            [(args.trials, worst, args.tolerance, passed)],
        ),
        args.out,
        args.format,
    )
    return 0 if passed else 2


def _cmd_loss_eval(args) -> int:
    with open(args.fixture, "r", encoding="utf-8", errors="surrogateescape") as f:
        fixture = _decode(args.fixture, None, f.read())
    try:  # every message about the fixture's content gets its path here
        row = _loss_row(fixture)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{args.fixture}: {exc}") from exc
    columns = ("n_anchors", "n_positive", "n_negative", "n_ignore",
               "objectness", "classification", "box", "total")
    _emit(Table(columns, [row]), args.out, args.format)
    return 0


def _checked(value, name: str, kind, what: str):
    """value if it is a kind, else a ValueError: "{name} must be {what}, got {value}"."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    return value


def _numbers(value, name: str, what: str = "numbers", integer: bool = False,
             length: int | None = None) -> list:
    """value, a list of numbers (of integers if integer, and length of them if given).

    Else a ValueError naming the first value at fault, in check_number's words.
    """
    if length not in (None, len(_checked(value, name, list, f"a list of {what}"))):
        raise ValueError(f"{name} must be a list of {length} {what}, got {reprlib.repr(value)}")
    try:
        plain_numbers(value, integer)
    except (ValueError, OverflowError):  # check_number decides, naming the first value at fault
        for i, v in enumerate(value):
            check_number(v, f"{name}[{i}]", integer=integer)
    return value


def _number_rows(value, name: str, length: int) -> list:
    """value, a list of lists of length numbers; else a ValueError as _numbers gives for the first."""
    rows = _checked(value, name, list, "a list of number lists")
    try:
        if {*map(type, rows)} <= {list} and {*map(len, rows)} <= {length}:
            plain_numbers(list(itertools.chain.from_iterable(rows)))
            return rows
    except (ValueError, OverflowError):
        pass
    for i, row in enumerate(rows):  # _numbers decides, row by row
        _numbers(row, f"{name}[{i}]", length=length)
    return rows


def _loss_row(fixture) -> tuple:
    """loss-eval's report row for a decoded fixture; a ValueError names the field at fault."""
    from . import anchors as anchors_mod  # imported here: no other command needs it

    def get(obj, key, default=None):
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object holding {key!r}, got {reprlib.repr(obj)}")
        if default is None and key not in obj:
            raise ValueError(f"missing field {key!r}")
        return obj.get(key, default)

    def number(obj, key, default, name):
        # its domain is checked where it is used, as are those of list values
        return float(check_number(get(obj, key, default), name))

    def scales_level(key):
        try:
            return int(key)
        except ValueError:
            raise ValueError(f"anchors.scales keys must be integers, got {reprlib.repr(key)}") from None

    image, spec = get(fixture, "image"), get(fixture, "anchors")
    levels = _numbers(get(spec, "levels"), "anchors.levels", "integers", integer=True)
    scales = spec.get("scales")
    if isinstance(scales, dict):
        scales = {scales_level(k): _numbers(v, f"anchors.scales[{k!r}]") for k, v in scales.items()}
    elif scales is not None:
        scales = _numbers(scales, "anchors.scales")
    ratios = _numbers(spec.get("ratios", list(anchors_mod.DEFAULT_RATIOS)), "anchors.ratios")
    frame = (check_number(get(image, "width"), "image.width", integer=True),
             check_number(get(image, "height"), "image.height", integer=True))
    n_anchors = anchors_mod.anchor_count(*frame, levels, scales, ratios)
    matching = get(fixture, "matching", {})
    thresholds = inspect.signature(anchors_mod.match_anchors).parameters
    pos_iou = number(matching, "pos_iou", thresholds["pos_iou"].default, "matching.pos_iou")
    neg_iou = number(matching, "neg_iou", thresholds["neg_iou"].default, "matching.neg_iou")
    preds = get(fixture, "predictions")
    p_obj = np.array(_numbers(get(preds, "objectness"), "predictions.objectness"), dtype=np.float64)
    p_cls = np.array(_numbers(get(preds, "class"), "predictions.class"), dtype=np.float64)
    t = np.array(_number_rows(get(preds, "box"), "predictions.box", 4), dtype=np.float64)
    loss, default = get(fixture, "loss", {}), anchors_mod.LossConfig()
    config = anchors_mod.LossConfig(
        alpha=number(loss, "alpha", default.alpha, "loss.alpha"),
        gamma=number(loss, "gamma", default.gamma, "loss.gamma"),
        normalize_by_positives=_checked(get(loss, "normalize", default.normalize_by_positives),
                                        "loss.normalize", bool, "true or false"),
    )
    gt_raw = _checked(get(fixture, "ground_truth"), "ground_truth", list, "a list")
    # not clamped to the image: a fixture's ground truth is taken as given
    gts = [parse_annotation(g, f"ground_truth[{i}]") for i, g in enumerate(gt_raw)]
    # before the anchors are built: the fixture's predictions bound what is allocated
    anchors_mod.check_predictions(n_anchors, p_obj, p_cls, t)
    anchor_set = anchors_mod.generate_anchors(*frame, levels, scales, ratios)
    match = anchors_mod.match_anchors(anchor_set, gts, pos_iou=pos_iou, neg_iou=neg_iou)
    breakdown = anchors_mod.multitask_loss(p_obj, p_cls, t, match, config)
    return (len(match), match.n_positive, int(np.count_nonzero(match.negative_mask)),
            int(np.count_nonzero(match.ignore_mask)), breakdown.objectness,
            breakdown.classification, breakdown.box, breakdown.total)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="mrb",
        description="Mask-wearing ratio estimation pipelines: synthetic scenes, "
        "density maps, detection and ratio evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_, *flag_sets):
        """A subcommand with --threads, then each of flag_sets' flags."""
        p = sub.add_parser(name, help=help_, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for compatibility; has no effect (every command runs in one thread)",
        )
        for flags in flag_sets:
            flags(p)
        return p

    kernel, evaluation = KernelSpec(), EvalConfig()

    def report_flags(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")

    def map_flags(p):  # eval-count's estimates: density maps only, so no threshold to check
        p.add_argument("--annotations", required=True)
        p.add_argument("--density-dir", required=True, help="directory of <image_id>.<subset>.nfmd")
        p.set_defaults(detections=None, conf_thr=None, nms_iou=None)

    def estimate_flags(p):  # the per-image ratio estimates of eval-ratio and report-video
        p.add_argument("--annotations", required=True)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--detections", help="detections JSONL (detection path)")
        src.add_argument("--density-dir", help="NFMD directory (density path)")
        p.add_argument("--conf-thr", type=float, default=0.5, help="detection confidence threshold")
        p.add_argument("--nms-iou", type=float, default=None, help="apply NMS at this IoU first")
        p.add_argument("--convention", choices=("masked", "unmasked"), default="masked",
                       help="which count forms the ratio numerator")

    def kernel_flags(p):
        p.add_argument("--beta", type=float, default=kernel.beta, help="adaptive kernel sigma factor")
        p.add_argument("--k", type=int, default=kernel.k, help="kernel nearest-neighbor count")

    p = add("synth", _cmd_synth, "generate a seeded synthetic scene set")
    p.add_argument("--seed", type=int, required=True, help="RNG seed; fully determines output")
    p.add_argument("--out", required=True, help="output directory")
    # every other SynthParams field but the kernel is a flag of the field's type and
    # default, named as the field with - for _, or by its short name
    short = {"n_images": "images", "image_width": "width", "image_height": "height",
             "masked_probability": "masked-prob", "unknown_probability": "unknown-prob",
             "n_videos": "videos", "false_positive_rate": "fp-rate"}
    helps = {"jitter_sigma": "box jitter std (px)", "false_positive_rate": "false positives per image"}
    for f in fields(SynthParams):
        if f.name in ("seed", "kernel"):
            continue
        flag = short.get(f.name, f.name.replace("_", "-"))
        p.add_argument(f"--{flag}", dest=f.name, metavar=flag.replace("-", "_").upper(),
                       type={"int": int, "float": float}[f.type], default=f.default,
                       help=helps.get(f.name))
    kernel_flags(p)
    p.add_argument("--no-density", action="store_true", help="skip density predictions")

    p = add("stats", _cmd_stats, "dataset statistics tables", report_flags)
    p.add_argument("--train", required=True, help="training annotations JSONL")
    p.add_argument("--test", required=True, help="testing annotations JSONL")

    p = add("gen-density", _cmd_gen_density, "render ground-truth density maps")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True, help="output directory for NFMD files")
    p.add_argument("--subsets", default="total,unmasked", help="comma list of total/masked/unmasked")
    kernel_flags(p)
    p.add_argument("--sigma-default", type=float, default=kernel.sigma_default,
                   help="sigma for a lone face")
    p.add_argument("--truncation", type=float, default=kernel.truncation_radius,
                   help="kernel cutoff in sigmas")
    p.add_argument("--downscale", type=int, default=8, help="output resolution divisor")

    p = add("eval-det", _cmd_eval_det, "detection AP per class and size bucket", report_flags)
    p.add_argument("--annotations", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--iou-thr", type=float, default=evaluation.iou_thr, help="match IoU threshold")
    p.add_argument("--nms-iou", type=float, default=None, help="apply NMS at this IoU first")

    add("eval-count", _cmd_eval_count, "counting MAE and correlation from density files",
        report_flags, map_flags)

    p = add("eval-ratio", _cmd_eval_ratio, "per-image counts and mask-wearing ratio quality",
            report_flags, estimate_flags)
    p.add_argument("--min-faces", type=int, default=evaluation.min_faces_per_image,
                   help="skip images with fewer gt faces")
    p.add_argument("--by-condition", action="store_true", help="add per-condition ratio rows")
    p.add_argument("--scatter", default=None, help="also write scatter pairs CSV here")

    add("report-video", _cmd_report_video, "per-video mean ratio table",
        report_flags, estimate_flags)

    p = add("gradcheck", _cmd_gradcheck,
            "verify fusion weight gradients against finite differences", report_flags)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-size", type=int, default=8, help="max bottom-level grid size")
    p.add_argument("--max-channels", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=1e-5, help="max allowed relative error")
    p.add_argument("--epsilon", type=float, default=1e-4, help="fusion normalization epsilon")

    p = add("loss-eval", _cmd_loss_eval, "evaluate the multi-task detector loss on a fixture",
            report_flags)
    p.add_argument("--fixture", required=True, help="JSON fixture with anchors, gts, predictions")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        with warnings.catch_warnings():  # one line per warning, like errors
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (DataFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
