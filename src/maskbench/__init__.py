"""maskbench: evaluation machinery for mask-wearing ratio estimation.

Detection-based and regression-based mask-wearing ratio pipelines without the
neural networks: density-map ground truth, anchor matching and detector loss
evaluation, pyramid-fusion reference kernels with gradient checks, ratio
computation and aggregation, detection/counting/correlation metrics, and a
seeded synthetic scene generator that serves as the test oracle. The ``mrb``
command line exposes every pipeline over documented file formats.
"""

from .geometry import (
    Annotation,
    BBox,
    Detection,
    FaceLabel,
    SizeBucket,
    iou,
    size_bucket,
)
from .density import (
    DensityMap,
    KernelSpec,
    PointSet,
    adaptive_sigmas,
    downsample_sum_preserving,
    euclidean_loss,
    integrate_count,
    read_density,
    render_density,
    write_density,
)
from .ratio import (
    Condition,
    CovidPeriod,
    ImageMeta,
    RatioReport,
    aggregate_by_video,
    annotation_ratio,
    density_ratio,
    detection_ratio,
    group_by_condition,
    nms,
    ratio_reports,
)
from .metrics import (
    EvalConfig,
    average_precision,
    mae,
    mean_ap,
    pearson,
    ratio_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BBox",
    "Condition",
    "CovidPeriod",
    "DensityMap",
    "Detection",
    "EvalConfig",
    "FaceLabel",
    "ImageMeta",
    "KernelSpec",
    "PointSet",
    "RatioReport",
    "SizeBucket",
    "adaptive_sigmas",
    "aggregate_by_video",
    "annotation_ratio",
    "average_precision",
    "density_ratio",
    "detection_ratio",
    "downsample_sum_preserving",
    "euclidean_loss",
    "group_by_condition",
    "integrate_count",
    "iou",
    "mae",
    "mean_ap",
    "nms",
    "pearson",
    "ratio_correlation",
    "ratio_reports",
    "read_density",
    "render_density",
    "size_bucket",
    "write_density",
]
