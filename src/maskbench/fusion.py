"""Reference kernels for feature-pyramid fusion.

Two fusion schemes over a pyramid of feature maps (level i has 1/2**i of the
image resolution):

* plain top-down fusion: the top level passes through a per-level linear map
  ("conv"), and every lower level adds the resized result from one level up
  before its own conv;
* bidirectional fusion: a top-down pass of intermediate nodes followed by a
  bottom-up pass of output nodes, where every node blends its inputs with
  learnable non-negative weights normalized by their sum plus a small epsilon.

Boundary nodes of the bidirectional pass fuse the two inputs they have: the
bottom output node blends the level input with its top-down node, and the top
output node blends the level input with the resized output from one level
below.

The conv is pluggable and must be linear; the default is identity, which
preserves every algebraic property of the fusion itself. Analytic gradients
of the fusion weights are computed by forward-mode differentiation, one
tangent pass per weight, so the conv only ever needs to be applied, never
transposed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import check_number

# per-level linear map applied after each fusion; None means identity
ConvFn = Callable[[int, np.ndarray], np.ndarray] | None


@dataclass
class FeatureLevel:
    """A pyramid feature map: (channels, height, width) values at one level."""

    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(
                f"feature values must be (channels, height, width), got shape "
                f"{self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def level_stride(level: int) -> float:
    """The level's stride in pixels, 2.0 ** level: positive and finite for levels -1074..1023 only."""
    return 2.0 ** check_number(level, "pyramid level", integer=True, lo=-1074, hi=1023)


def level_shape(image_w: int, image_h: int, level: int) -> tuple[int, int]:
    """(height, width) of the level's grid: ceil(image_dim / stride), in exact integers.

    The stride is a power of two, num / den, so no side overflows to infinity.
    """
    num, den = level_stride(level).as_integer_ratio()
    return -(-operator.index(image_h) * den // num), -(-operator.index(image_w) * den // num)


@dataclass
class FusionWeights:
    """Raw fusion weights per node plus the normalization epsilon.

    Node names are "td<level>" for top-down intermediates and "out<level>"
    for outputs. Effective weights are max(raw, 0); the normalizing
    denominator is their sum plus epsilon. Epsilon defaults to 1e-4 and may
    be set to 0 for exactness tests, in which case a node whose effective
    weights are all zero raises.
    """

    raw: dict[str, np.ndarray] = field(default_factory=dict)
    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        check_number(self.epsilon, "epsilon", lo=0)
        self.raw = {k: np.asarray(v, dtype=np.float64).reshape(-1) for k, v in self.raw.items()}
        for name, w in self.raw.items():
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weights of node {name} must be finite")

    @classmethod
    def ones(cls, levels: Sequence[int], epsilon: float = 1e-4) -> "FusionWeights":
        """Unit raw weights for every node of a pyramid over the given levels."""
        return cls(
            {name: np.ones(k) for name, k in node_arity(levels).items()}, epsilon
        )

    def effective(self, name: str) -> np.ndarray:
        return np.maximum(self.raw[name], 0.0)


def node_arity(levels: Sequence[int]) -> dict[str, int]:
    """Number of fused inputs per node of the bidirectional pass: td nodes, then out, bottom-up."""
    graph = _bifpn_graph(levels)
    order = sorted(graph, key=lambda name: (not name.startswith("td"), graph[name][0]))
    return {name: len(graph[name][1]) for name in order}


def _bifpn_graph(levels: Sequence[int]) -> dict[str, tuple[int, list[tuple[str, int]]]]:
    """Each node's level and (source, level) inputs: td nodes top-down, then out nodes bottom-up.

    The highest td node takes the raw top level; boundary out nodes fuse the two inputs they have.
    """
    levels = _check_levels(levels)
    bottom, top = levels[0], levels[-1]
    graph = {}
    for level in reversed(levels[:-1]):
        upper = f"td{level + 1}" if level + 1 < top else f"in{top}"
        graph[f"td{level}"] = (level, [(f"in{level}", level), (upper, level + 1)])
    for level in levels:
        sources = [(f"in{level}", level)]
        if level != top:
            sources.append((f"td{level}", level))
        if level != bottom:
            sources.append((f"out{level - 1}", level - 1))
        graph[f"out{level}"] = (level, sources)
    return graph


def _check_levels(levels: Sequence[int]) -> list[int]:
    levels = sorted(levels)
    if not levels:
        raise ValueError("at least one pyramid level is required")
    if levels != list(range(levels[0], levels[-1] + 1)):
        raise ValueError(f"pyramid levels must be contiguous, got {levels}")
    return levels


def _upsample2x(a: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(a, 2, axis=-2), 2, axis=-1)


def _downsample2x(a: np.ndarray) -> np.ndarray:
    c, h, w = a.shape
    if h % 2 or w % 2:
        a = np.pad(a, ((0, 0), (0, h % 2), (0, w % 2)))
        c, h, w = a.shape
    return a.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def _resize_array(
    a: np.ndarray, from_level: int, to_level: int, target_hw: tuple[int, int] | None
) -> np.ndarray:
    """Repeated 2x steps: nearest-neighbor up, 2x2 average pooling down.

    Odd dimensions are zero-padded before pooling; upsampled maps are cropped
    on the right/bottom to target_hw so that ceil-divided grids line up.
    """
    for _ in range(from_level - to_level):
        a = _upsample2x(a)
    for _ in range(to_level - from_level):
        a = _downsample2x(a)
    if target_hw is not None:
        th, tw = target_hw
        if a.shape[-2] < th or a.shape[-1] < tw:
            raise ValueError(
                f"resized map {a.shape[-2:]} smaller than target {target_hw}"
            )
        a = a[..., :th, :tw]
    return a


def resize_level(
    f: FeatureLevel, target_level: int, target_hw: tuple[int, int] | None = None
) -> FeatureLevel:
    """Resize a feature map to another pyramid level's resolution."""
    return FeatureLevel(
        target_level, _resize_array(f.values, f.level, target_level, target_hw)
    )


def _check_pyramid(m_in: Mapping[int, FeatureLevel], min_levels: int = 1) -> list[int]:
    levels = _check_levels(list(m_in.keys()))
    if len(levels) < min_levels:
        raise ValueError(f"pyramid needs at least {min_levels} levels, got {len(levels)}")
    for level in levels:
        if m_in[level].level != level:
            raise ValueError(
                f"feature at key {level} declares level {m_in[level].level}"
            )
    for lo, hi in zip(levels, levels[1:]):
        want = level_shape(m_in[lo].width, m_in[lo].height, hi - lo)
        got = (m_in[hi].height, m_in[hi].width)
        if want != got:
            raise ValueError(
                f"level {hi} dims {got} inconsistent with level {lo}: expected {want}"
            )
        if m_in[lo].channels != m_in[hi].channels:
            raise ValueError("all pyramid levels must share a channel count")
    return levels


def _apply_conv(conv: ConvFn, level: int, a: np.ndarray) -> np.ndarray:
    if conv is None:
        return a
    out = np.asarray(conv(level, a), dtype=np.float64)
    if out.shape != a.shape:
        raise ValueError(
            f"conv changed the map shape at level {level}: {a.shape} -> {out.shape}"
        )
    return out


def fpn_topdown(
    m_in: Mapping[int, FeatureLevel], conv: ConvFn = None
) -> dict[int, FeatureLevel]:
    """Top-down fusion: out_top = Conv(in_top); out_i = Conv(in_i + Resize(out_{i+1}))."""
    levels = _check_pyramid(m_in)
    top = levels[-1]
    out: dict[int, np.ndarray] = {top: _apply_conv(conv, top, m_in[top].values)}
    for level in reversed(levels[:-1]):
        target = (m_in[level].height, m_in[level].width)
        upper = _resize_array(out[level + 1], level + 1, level, target)
        out[level] = _apply_conv(conv, level, m_in[level].values + upper)
    return {level: FeatureLevel(level, out[level]) for level in levels}


@dataclass
class _NodeRecord:
    name: str
    level: int
    # one (node name, level) per fused input, resized from that level to this
    # node's; "in<level>" names the raw pyramid level, which has no tangent
    sources: list[tuple[str, int]]
    inputs: list[np.ndarray]
    eff: np.ndarray
    den: float
    z: np.ndarray  # fused value before conv


def _fuse(inputs: list[np.ndarray], eff: np.ndarray, epsilon: float, name: str):
    den = float(eff.sum()) + epsilon
    if den <= 0.0:
        raise ValueError(
            f"fusion node {name}: all effective weights are zero and epsilon is 0"
        )
    z = sum(w * x for w, x in zip(eff, inputs)) / den
    return z, den


def _bifpn_forward(
    m_in: Mapping[int, FeatureLevel], weights: FusionWeights, conv: ConvFn
) -> tuple[dict[int, np.ndarray], list[_NodeRecord]]:
    levels = _check_pyramid(m_in, min_levels=2)
    for name, k in node_arity(levels).items():
        if name not in weights.raw:
            raise ValueError(f"missing weights for fusion node {name}")
        if weights.raw[name].shape[0] != k:
            raise ValueError(
                f"node {name} expects {k} weights, got {weights.raw[name].shape[0]}"
            )

    trace: list[_NodeRecord] = []
    node_values = {f"in{level}": m_in[level].values for level in levels}

    for name, (level, sources) in _bifpn_graph(levels).items():
        inputs = []
        for src_name, src_level in sources:
            v = node_values[src_name]
            if src_level != level:
                v = _resize_array(v, src_level, level, (m_in[level].height, m_in[level].width))
            inputs.append(v)
        eff = weights.effective(name)
        z, den = _fuse(inputs, eff, weights.epsilon, name)
        node_values[name] = _apply_conv(conv, level, z)
        trace.append(_NodeRecord(name, level, sources, inputs, eff, den, z))
    outputs = {level: node_values[f"out{level}"] for level in levels}
    return outputs, trace


def bifpn_fuse(
    m_in: Mapping[int, FeatureLevel], weights: FusionWeights, conv: ConvFn = None
) -> dict[int, FeatureLevel]:
    """One bidirectional weighted-fusion pass; returns the output pyramid."""
    outputs, _ = _bifpn_forward(m_in, weights, conv)
    return {level: FeatureLevel(level, v) for level, v in outputs.items()}


def fusion_weight_gradients(
    m_in: Mapping[int, FeatureLevel],
    weights: FusionWeights,
    conv: ConvFn,
    upstream: Mapping[int, np.ndarray],
) -> dict[str, np.ndarray]:
    """Gradient of <upstream, outputs> with respect to every raw fusion weight.

    Requires a linear conv. Each weight gets one forward tangent pass through
    the fusion graph; the clamp at zero contributes a zero subgradient for
    raw weights <= 0.
    """
    outputs, trace = _bifpn_forward(m_in, weights, conv)
    levels = sorted(outputs.keys())
    cotangents = {}
    for level in levels:
        if level not in upstream:
            raise ValueError(f"upstream cotangent missing for level {level}")
        u = np.asarray(upstream[level], dtype=np.float64)
        if u.shape != outputs[level].shape:
            raise ValueError(
                f"upstream shape {u.shape} does not match output "
                f"{outputs[level].shape} at level {level}"
            )
        cotangents[level] = u

    grads = {name: np.zeros_like(w) for name, w in weights.raw.items()}
    for record in trace:
        for j in range(record.eff.shape[0]):
            if weights.raw[record.name][j] <= 0.0:
                continue  # clamped weight, dead direction
            tangent = _tangent_pass(trace, conv, record.name, j)
            grads[record.name][j] = math.fsum(
                float(np.vdot(cotangents[level], tangent[f"out{level}"]))
                for level in levels
            )
    return grads


def finite_difference_gradients(
    m_in: Mapping[int, FeatureLevel],
    weights: FusionWeights,
    conv: ConvFn,
    upstream: Mapping[int, np.ndarray],
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of <upstream, outputs> over the raw weights.

    Numerical cross-check for fusion_weight_gradients; two forward passes per
    weight.
    """
    check_number(step, "step", lo=0, lo_open=True)

    def objective(w: FusionWeights) -> float:
        outputs, _ = _bifpn_forward(m_in, w, conv)
        return math.fsum(
            float(np.vdot(np.asarray(upstream[level], dtype=np.float64), out))
            for level, out in outputs.items()
        )

    grads = {}
    for name, raw in weights.raw.items():
        g = np.zeros_like(raw)
        for j in range(raw.shape[0]):
            for sign in (+1.0, -1.0):
                shifted = {k: v.copy() for k, v in weights.raw.items()}
                shifted[name][j] += sign * step
                val = objective(FusionWeights(shifted, weights.epsilon))
                g[j] += sign * val / (2.0 * step)
        grads[name] = g
    return grads


def run_gradient_check(
    seed: int = 0,
    trials: int = 100,
    max_size: int = 8,
    max_channels: int = 4,
    step: float = 1e-5,
    epsilon: float = 1e-4,
) -> float:
    """Compare analytic and finite-difference weight gradients on random pyramids.

    Returns the worst per-weight relative error, |analytic - numeric| divided
    by max(|analytic|, |numeric|, 1e-3); the floor keeps finite-difference
    round-off from dominating near-zero gradients. Raw weights are drawn from
    [0.2, 2.0] so the non-negativity clamp stays inactive (the clamp boundary
    is not differentiable). seed must be an integer >= 0, and trials, max_size
    and max_channels integers >= 1.
    """
    check_number(seed, "seed", integer=True, lo=0)
    for name, value in (("trials", trials), ("max_size", max_size), ("max_channels", max_channels)):
        check_number(value, name, integer=True, lo=1)
    rng = np.random.default_rng(seed)
    levels = (3, 4, 5)
    worst = 0.0
    for _ in range(trials):
        image_w = int(rng.integers(8, max_size * 8 + 1))
        image_h = int(rng.integers(8, max_size * 8 + 1))
        channels = int(rng.integers(1, max_channels + 1))
        m_in = {
            level: FeatureLevel(
                level, rng.standard_normal((channels, *level_shape(image_w, image_h, level)))
            )
            for level in levels
        }
        weights = FusionWeights(
            {name: rng.uniform(0.2, 2.0, k) for name, k in node_arity(levels).items()},
            epsilon,
        )
        upstream = {
            level: rng.standard_normal(m_in[level].values.shape) for level in levels
        }
        analytic = fusion_weight_gradients(m_in, weights, None, upstream)
        numeric = finite_difference_gradients(m_in, weights, None, upstream, step)
        for name in analytic:
            for a, f in zip(analytic[name], numeric[name]):
                rel = abs(a - f) / max(abs(a), abs(f), 1e-3)
                worst = max(worst, float(rel))
    return worst


def _tangent_pass(
    trace: list[_NodeRecord], conv: ConvFn, seed_name: str, seed_j: int
) -> dict[str, np.ndarray]:
    """Forward-mode pass: directional derivative of every node w.r.t. one weight."""
    tangents: dict[str, np.ndarray] = {}
    for record in trace:
        zdot = np.zeros_like(record.z)
        for (src_name, src_level), w in zip(record.sources, record.eff):
            if src_name not in tangents:
                continue  # raw pyramid inputs do not depend on the weights
            xdot = tangents[src_name]
            if src_level != record.level:
                xdot = _resize_array(xdot, src_level, record.level, record.z.shape[1:])
            zdot += w * xdot
        zdot /= record.den
        if record.name == seed_name:
            # d/dw of (sum_k w_k x_k) / (sum_k w_k + eps) for the seeded weight
            zdot += (record.inputs[seed_j] - record.z) / record.den
        tangents[record.name] = _apply_conv(conv, record.level, zdot)
    return tangents
