"""Per-layer timing and counting from outside the program.

The tracer replaces the module attributes through which the ``mrb`` commands
reach the public functions of ``dataset``, ``ratio``, ``metrics``,
``geometry`` and ``density`` with wrappers that time and count the calls, and
puts the originals back on ``restore``. A name that no longer exists cannot be
wrapped; its metrics are then reported as unmeasured instead of failing.

Only the outermost wrapped call of a nest adds to the time that ``cli.self_s``
subtracts, so time in ``adaptive_sigmas`` (called from ``render_density``) or
in ``iou`` (called from ``nms``) is not taken off twice.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings

# (module, attribute) -> metric that accumulates the wrapped calls' seconds
TIMED = {
    ("maskbench.cli", "load_annotations"): "dataset.load_annotations_s",
    ("maskbench.cli", "load_detections"): "dataset.load_detections_s",
    ("maskbench.cli", "write_report"): "dataset.write_report_s",
    ("maskbench.cli", "nms"): "ratio.nms_s",
    ("maskbench.cli", "detection_ratio"): "ratio.count_s",
    ("maskbench.cli", "annotation_ratio"): "ratio.count_s",
    ("maskbench.cli", "density_ratio"): "ratio.count_s",
    ("maskbench.cli", "aggregate_by_video"): "ratio.count_s",
    ("maskbench.cli", "average_precision"): "metrics.average_precision_s",
    ("maskbench.cli", "ratio_pairs"): "metrics.summary_s",
    ("maskbench.cli", "ratio_correlation"): "metrics.summary_s",
    ("maskbench.cli", "pearson"): "metrics.summary_s",
    ("maskbench.cli", "mae"): "metrics.summary_s",
    ("maskbench.cli", "mean_ap"): "metrics.summary_s",
    ("maskbench.cli", "render_density"): "density.render_density_s",
    ("maskbench.density", "adaptive_sigmas"): "density.adaptive_sigmas_s",
    ("maskbench.cli", "downsample_sum_preserving"): "density.downsample_s",
    ("maskbench.cli", "write_density"): "density.write_density_s",
    ("maskbench.cli", "read_density"): "density.read_density_s",
}


def _images_loaded(args, out):
    return len(out.images), sum(len(rec.annotations) for rec in out.images)


def _detections_loaded(args, out):
    return (sum(len(rec.detections) for rec in out),)


def _nms_counts(args, out):
    return len(args[0]), len(out)


def _ap_cells(args, out):
    return (1,)


def _faces_rendered(args, out):
    return (len(args[0]),)


def _bytes_written(args, out):
    return (os.path.getsize(args[1]),)


def _bytes_read(args, out):
    return (os.path.getsize(args[0]),)


# counters taken from a timed call's arguments and result after its clock
# stops: (module, attribute) -> (metric names, function giving their increments)
COUNTERS = {
    ("maskbench.cli", "load_annotations"): (
        ("dataset.images_loaded", "dataset.faces_loaded"), _images_loaded),
    ("maskbench.cli", "load_detections"): (("dataset.detections_loaded",), _detections_loaded),
    ("maskbench.cli", "nms"): (("ratio.nms_in", "ratio.nms_kept"), _nms_counts),
    ("maskbench.cli", "average_precision"): (("metrics.ap_cells",), _ap_cells),
    ("maskbench.cli", "render_density"): (("density.faces_rendered",), _faces_rendered),
    ("maskbench.cli", "write_density"): (("density.nfmd_bytes_written",), _bytes_written),
    ("maskbench.cli", "read_density"): (("density.nfmd_bytes_read",), _bytes_read),
}

# (module, attribute) -> metric that only counts calls; these run millions of
# times inside timed calls, so they are not timed themselves
COUNTED = {
    ("maskbench.ratio", "iou"): "geometry.iou_calls",
    ("maskbench.metrics", "iou_matrix"): "geometry.iou_matrix_calls",
}

WARNINGS_METRIC = "dataset.small_face_warnings"

# per-command wall time, keyed by the mrb subcommand
COMMAND_METRICS = {
    "eval-det": "cli.eval_det_s",
    "eval-ratio": "cli.eval_ratio_s",
    "report-video": "cli.report_video_s",
    "gen-density": "cli.gen_density_s",
    "eval-count": "cli.eval_count_s",
}
SELF_METRIC = "cli.self_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {m: "s" for m in COMMAND_METRICS.values()}
    units[SELF_METRIC] = "s"
    units.update({m: "s" for m in TIMED.values()})
    for names, _ in COUNTERS.values():
        units.update({m: "bytes" if "_bytes_" in m else "count" for m in names})
    units.update({m: "count" for m in COUNTED.values()})
    units[WARNINGS_METRIC] = "count"
    return units


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside ``maskbench.dataset``."""

    def __init__(self, values: dict, category):
        self._values = values
        self._category = category

    def warn(self, message, category=None, stacklevel=1, *args, **kwargs):
        if isinstance(category, type) and issubclass(category, self._category):
            self._values[WARNINGS_METRIC] += 1
        # one frame more than the caller asked for: this proxy's own
        warnings.warn(message, category, stacklevel + 1, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    """Wraps the program's names, accumulates per-layer figures, restores the names."""

    def __init__(self):
        self.values = {m: 0 for m in metric_units()}
        self.unmeasured: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._depth = 0
        self._covered = 0.0  # seconds inside outermost wrapped calls

    def install(self) -> None:
        for key, metric in TIMED.items():
            names, counter = COUNTERS.get(key, ((), None))
            self._wrap(key, (metric, *names), lambda f: self._timed(f, metric, names, counter))
        for key, metric in COUNTED.items():
            self._wrap(key, (metric,), lambda f: self._counted(f, metric))
        category = getattr(importlib.import_module("maskbench.dataset"), "SmallFaceWarning", None)
        if category is None:
            self.unmeasured.add(WARNINGS_METRIC)
        else:
            self._wrap(("maskbench.dataset", "warnings"), (WARNINGS_METRIC,),
                       lambda f: _WarningsProxy(self.values, category))

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def report(self, commands: list[dict]) -> dict[str, float]:
        """The per-layer figures for one round, given the worker's command timings."""
        values = dict(self.values)
        for c in commands:
            metric = COMMAND_METRICS.get(c["command"])
            if metric is not None:
                values[metric] += c["seconds"]
        values[SELF_METRIC] = sum(c["seconds"] for c in commands) - self._covered
        return values

    def _wrap(self, key: tuple[str, str], metrics: tuple[str, ...], make) -> None:
        """Replace module attribute key with make(original), now; or mark metrics unmeasured."""
        mod, name = key
        try:
            module = importlib.import_module(mod)
            original = getattr(module, name)
        except (ImportError, AttributeError):
            self.unmeasured.update(metrics)
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def _timed(self, fn, metric: str, names: tuple[str, ...], counter):
        values = self.values

        def wrapper(*args, **kwargs):
            outer = self._depth == 0
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                values[metric] += dt
                if outer:
                    self._covered += dt
            if counter is not None:
                for m, v in zip(names, counter(args, out)):
                    values[m] += v
            return out

        return wrapper

    def _counted(self, fn, metric: str):
        values = self.values

        def wrapper(*args, **kwargs):
            values[metric] += 1
            return fn(*args, **kwargs)

        return wrapper
