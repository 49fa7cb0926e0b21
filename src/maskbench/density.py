"""Face-density maps: adaptive Gaussian rendering, counting, and the NFMD file format.

A density map is a grid of non-negative values whose sum is a face count.
Ground truth is rendered by placing one Gaussian per annotated face center,
with a standard deviation that adapts to local crowding (sigma = beta times
the mean distance to the k nearest other faces). Each face's kernel is
truncated, clipped to the image, and renormalized so it contributes exactly
mass 1, which keeps counting-by-integration exact.

NFMD file format (binary, little-endian):
    magic bytes ``NFMD``,
    u32 width, u32 height, u32 downscale factor,
    then width*height IEEE-754 f32 values, row-major.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataFormatError, allocating_grid, check_number, shown_path

_NFMD_MAGIC = b"NFMD"
_NFMD_HEADER = struct.Struct("<III")

# Below this sigma the truncation window can miss every cell center, so the
# face degenerates to a unit deposit in its nearest cell.
_DELTA_SIGMA = 1e-6

# The k-nearest search of adaptive_sigmas compares blocks of at most
# _KNN_BLOCK query rows against all n points, holding two such arrays at a
# time; the grid holds three (n, width) arrays, its candidate lists capped at
# _KNN_BLOCK columns. So the search never holds more than 3 x _KNN_BLOCK x n
# float64 values. Below _GRID_MIN_POINTS points the exact comparison alone is
# faster than the grid (measured on uniform 1280x720 scenes, k=3: 0.14 vs
# 0.18 ms at 136 points, 0.25 vs 0.18 ms at 139, 27 vs 2.9 ms at 2,000).
_KNN_BLOCK = 256
_GRID_MIN_POINTS = 138

# render_density computes the per-axis profiles of a chunk of faces holding at
# most _PROFILE_BLOCK pixel samples (or of one face, whose two windows hold at
# most width + height samples) at a time, in at most three arrays of that many
# 8-byte values: 1.5 MiB. Unchunked, 2,000 whole-frame kernels at 1280x720
# held 92 MiB. Smaller chunks cost time (2,000 faces at downscale 8: 20 ms at
# 4,096 samples, 16 ms from 32,768 up).
_PROFILE_BLOCK = 1 << 16


def check_downscale(downscale, name: str = "downscale") -> None:
    """The downscale rule: an integer in [1, 2**32), since the NFMD header stores it as a u32."""
    check_number(downscale, name, integer=True, lo=1, hi=2**32, hi_open=True)


def check_frame_sides(width, height, names=("width", "height"), least: int = 1) -> None:
    """The frame-side rule: integers in [least, 2**53), where a float64 holds every int exactly."""
    for side, name in zip((width, height), names):
        check_number(side, name, integer=True, lo=least, hi=2**53, hi_open=True)


def map_shape(height: int, width: int, downscale: int) -> tuple[int, int]:
    """(rows, columns) of a height x width frame's map at 1/downscale: each side rounded up."""
    check_downscale(downscale)
    return -(-height // downscale), -(-width // downscale)


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """Parameters of the geometry-adaptive Gaussian kernel."""

    beta: float = 0.3
    k: int = 3
    sigma_default: float = 4.0  # fallback for a lone face (no neighbors)
    truncation_radius: float = 3.0  # in multiples of sigma

    def __post_init__(self) -> None:
        for name in ("beta", "sigma_default", "truncation_radius"):
            check_number(getattr(self, name), name, lo=0, lo_open=True)
        check_number(self.k, "k", integer=True, lo=1)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Face-center points inside an image of the given pixel dimensions; compared by identity."""

    points: np.ndarray  # read-only (N, 2) float64 copy of N (x, y) pairs
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        xy = np.array(self.points, dtype=np.float64)
        if xy.shape[1:] != (2,) and xy.shape != (0,):
            raise ValueError(f"points must be N (x, y) pairs, got an array of shape {xy.shape}")
        xy = xy.reshape(len(xy), 2)
        xy.flags.writeable = False
        object.__setattr__(self, "points", xy)
        check_frame_sides(self.image_width, self.image_height, ("image_width", "image_height"))
        # exact below 2**53, as in Python; NaN and infinite coordinates fail them too
        inside = ((xy >= 0.0) & (xy < (self.image_width, self.image_height))).all(axis=1)
        if not inside.all():
            x, y = xy[inside.argmin()].tolist()
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
            raise ValueError(f"point ({x}, {y}) outside [0, {self.image_width}) x [0, {self.image_height})")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class DensityMap:
    """A (height, width) grid of face density at 1/downscale of image resolution.

    Maps are equal when their downscales and values are; they are mutable, so unhashable.
    """

    values: np.ndarray
    downscale: int = 1
    __hash__ = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"density values must be 2-D, got shape {self.values.shape}")
        check_downscale(self.downscale)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, DensityMap):
            return NotImplemented
        return self.downscale == other.downscale and np.array_equal(self.values, other.values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def scale(self) -> float:
        """Cells per image pixel."""
        return 1.0 / self.downscale


def adaptive_sigmas(pts: PointSet, spec: KernelSpec = KernelSpec()) -> list[float]:
    """Per-point Gaussian sigma: beta times the mean distance to the nearest neighbors.

    Uses the min(k, N-1) nearest other points, found by an exact search: each
    distance is sqrt(dx*dx + dy*dy) of the two points' coordinates. A single
    isolated point falls back to ``spec.sigma_default``.
    """
    n = len(pts)
    if n == 0:
        raise ValueError("adaptive_sigmas requires a non-empty point set")
    if n == 1:
        return [spec.sigma_default]
    # column 0 is the point itself (or a duplicate of it) at distance 0
    kk = min(spec.k, n - 1) + 1
    d2 = _grid_nearest_sq(pts.points, kk) if n >= _GRID_MIN_POINTS else None
    if d2 is None:
        d2 = _nearest_sq(pts.points, pts.points, kk)
    mean_dist = np.sqrt(d2)[:, 1:].mean(axis=1)
    if not spec.beta * float(np.maximum.reduce(mean_dist)) < math.inf:
        raise ValueError(f"beta {spec.beta} makes a kernel sigma overflow to infinity")
    return (spec.beta * mean_dist).tolist()


def _nearest_sq(queries: np.ndarray, coords: np.ndarray, kk: int) -> np.ndarray:
    """The kk smallest squared distances from each query to coords, ascending."""
    out = np.empty((len(queries), kk))
    for s in range(0, len(queries), _KNN_BLOCK):
        q = queries[s : s + _KNN_BLOCK]
        d2 = np.subtract.outer(q[:, 0], coords[:, 0])
        d2 *= d2
        dy = np.subtract.outer(q[:, 1], coords[:, 1])
        dy *= dy
        d2 += dy
        del dy
        d2.partition(kk - 1, axis=1)
        out[s : s + len(q)] = np.sort(d2[:, :kk], axis=1)
    return out


def _grid_nearest_sq(coords: np.ndarray, kk: int) -> np.ndarray | None:
    """_nearest_sq(coords, coords, kk), pruned by a uniform grid; None if it does not fit.

    Cells are sized to hold about kk points, and each point's candidates are
    the points of the 3x3 cells around its own. A row is kept only if its
    kk-th squared distance is at most the squared distance to the nearest
    edge of that block, shrunk by a margin far above rounding error, so no
    point outside the block can be nearer; other rows are searched against
    every point. None when every point is in one spot or the fullest block
    row holds too many candidates (piled-up duplicates or a dense crowd).
    """
    n = len(coords)
    lo = coords.min(axis=0)
    ext = coords.max(axis=0) - lo
    # the second term keeps cells of a thin or collinear scene from shrinking to nothing
    side = max(math.sqrt(ext[0] * ext[1] * kk / n), ext.max() * kk / n)
    if not side > 0.0:
        return None
    shape = (ext // side).astype(np.intp) + 1  # cells along x, y
    cell = np.minimum(((coords - lo) // side).astype(np.intp), shape - 1)
    nx, ny = shape
    ids = cell[:, 1] * nx + cell[:, 0]
    order = np.argsort(ids, kind="stable")
    starts = np.zeros(nx * ny + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=nx * ny), out=starts[1:])
    # a block row's three cells are one run of the cell-sorted points
    rows = cell[:, 1, None] + np.arange(-1, 2)
    valid = (rows >= 0) & (rows < ny)
    first = np.clip(rows, 0, ny - 1) * nx
    begin = np.where(valid, starts[first + np.maximum(cell[:, 0, None] - 1, 0)], 0)
    end = np.where(valid, starts[first + np.minimum(cell[:, 0, None] + 1, nx - 1) + 1], 0)
    width = int((end - begin).max())
    if not kk <= 3 * width <= _KNN_BLOCK:
        return None
    # padding slots point at index n, a sentinel at infinity
    xs, ys = (np.append(coords[order, axis], np.inf) for axis in (0, 1))
    idx = begin[:, :, None] + np.arange(width)
    idx[idx >= end[:, :, None]] = n
    idx = idx.reshape(n, -1)
    d2 = xs[idx]
    d2 -= coords[:, 0, None]
    d2 *= d2
    dy = ys[idx]
    del idx
    dy -= coords[:, 1, None]
    dy *= dy
    d2 += dy
    del dy
    d2.partition(kk - 1, axis=1)
    d2 = np.sort(d2[:, :kk], axis=1)
    # distance to the block's nearest edge; a side that reaches the grid's border has none
    edge = np.minimum(
        np.where(cell > 1, coords - (lo + (cell - 1) * side), np.inf),
        np.where(cell < shape - 2, lo + (cell + 2) * side - coords, np.inf),
    ).min(axis=1)
    edge = np.maximum(edge - 1e-9 * (np.abs(lo).max() + ext.max() + side), 0.0)
    redo = np.flatnonzero(~(d2[:, -1] <= edge * edge))
    if len(redo):
        d2[redo] = _nearest_sq(coords[redo], coords, kk)
    return d2


def render_density(
    pts: PointSet, spec: KernelSpec = KernelSpec(), downscale: int = 1
) -> DensityMap:
    """Render a density map at 1/downscale of image resolution; each face has mass 1.

    The Gaussian for face i is sampled at pixel centers, truncated at
    ``truncation_radius * sigma_i`` per axis, clipped to the image, and then
    renormalized over the surviving pixels. Each of the map_shape(H, W,
    downscale) output cells holds the sum of its downscale x downscale
    pixel block, as ``downsample_sum_preserving`` of the full-resolution map
    would. The kernel is separable, so a face's block sums are the outer
    product of its two per-axis profiles, each block-summed and normalized by
    its own sum; no full-resolution map is made. The profiles of every face
    come from one array pass per chunk of faces; the outer products are
    added in input order, so the result is bit-reproducible. An empty point
    set yields an all-zero map. Raises ValueError for a downscale that breaks
    check_downscale's rule, for a map that does not fit in memory (refused
    before it is allocated when it is above MAX_GRID_CELLS cells), or when a
    sigma or a truncation radius overflows.
    """
    h, w = pts.image_height, pts.image_width
    shape = map_shape(h, w, downscale)
    with allocating_grid(*shape, f"a {w} x {h} frame at downscale {downscale}"):
        values = np.zeros(shape, dtype=np.float64)
    n = len(pts)
    if n == 0:
        return DensityMap(values, downscale)

    sigma = np.array(adaptive_sigmas(pts, spec))
    widest = float(np.maximum.reduce(sigma))
    if not spec.truncation_radius * widest < math.inf:
        raise ValueError(
            f"truncation_radius {spec.truncation_radius} makes the radius of a kernel "
            f"of sigma {widest} overflow to infinity"
        )
    r = spec.truncation_radius * sigma
    # profile j is axis j % 2 of face j // 2: its window is the pixels whose
    # centers lie within +-r, clipped in float so that a huge r cannot overflow
    r[sigma <= _DELTA_SIGMA] = -1.0  # an empty window: a degenerate kernel
    first = np.maximum(np.ceil(pts.points - r[:, None] - 0.5), 0).astype(np.intp).ravel()
    last = np.minimum(np.floor(pts.points + r[:, None] - 0.5), (w - 1, h - 1)).astype(np.intp).ravel()
    length = np.maximum(last - first + 1, 0)
    cell = first // downscale
    n_cells = (last // downscale - cell + 1) * (length > 0)
    centers = pts.points.ravel()
    with np.errstate(over="ignore"):  # a sigma above 1e154 spreads its face evenly
        den = -2.0 * sigma * sigma  # d * d / den is -(d * d) / (2 sigma^2), bit for bit
    # faces [start, stop) of a chunk hold at most _PROFILE_BLOCK samples, or are one face
    ends = length.cumsum()[1::2].tolist()
    start = 0
    while start < n:
        stop = bisect.bisect_right(ends, (ends[start - 1] if start else 0) + _PROFILE_BLOCK)
        stop = max(stop, start + 1)
        p, q = 2 * start, 2 * stop
        bins, table = _profiles(centers[p:q], den[start:stop], first[p:q], length[p:q],
                                cell[p:q], n_cells[p:q], downscale)
        for (x, y), (c0, nx, bx, r0, ny, by) in zip(pts.points[start:stop].tolist(), table):
            if nx and ny:
                values[r0 : r0 + ny, c0 : c0 + nx] += np.multiply.outer(
                    bins[by : by + ny], bins[bx : bx + nx]
                )
            else:
                # degenerate kernel: all mass into the cell containing the point
                values[min(h - 1, int(y)) // downscale, min(w - 1, int(x)) // downscale] += 1.0
        start = stop
    return DensityMap(values, downscale)


def _profiles(centers, den, first, length, cell, n_cells, ds: int):
    """(bins, table): the ds-pixel block profiles of a chunk's faces, each normalized to 1.

    Profile j has the pixels first[j] .. first[j] + length[j] - 1, and its
    face's -2 sigma^2 is den[j // 2]. Row i of table is (first cell, cells,
    offset into bins) of face i's x profile, then the same of its y profile;
    cells is 0 when the profile is empty or every weight underflows. The
    samples are laid out flat by window length, so each length's samples form
    a C-contiguous block whose row sums are numpy's pairwise g.sum() of each
    window; the block sums come from one bincount, which adds each cell's
    samples in order.
    """
    order = length.argsort(kind="stable")
    size = length[order]
    # sample k of sorted profile j is pixel first + k - offsets[j]
    offsets = np.zeros(len(order) + 1, dtype=np.intp)
    np.add.accumulate(size, out=offsets[1:])
    pix = (first[order] - offsets[:-1]).repeat(size)
    pix += np.arange(offsets[-1])
    g = pix + 0.5
    g -= centers[order].repeat(size)
    g *= g
    g /= den[order // 2].repeat(size)
    np.exp(g, out=g)
    total = np.zeros(len(order))
    # profiles [a, b) of one window length end where the length changes
    end = np.ones(len(order), dtype=bool)
    np.not_equal(size[1:], size[:-1], out=end[:-1])
    cut = end.nonzero()[0] + 1
    a, s = 0, 0
    for b, e, span in zip(cut.tolist(), offsets[cut].tolist(), size[cut - 1].tolist()):
        if span:
            np.add.reduce(g[s:e].reshape(b - a, span), 1, out=total[a:b])
        a, s = b, e
    # bins hold the profiles in input order
    cells = np.zeros(len(order) + 1, dtype=np.intp)
    np.add.accumulate(n_cells, out=cells[1:])
    pix //= ds
    pix += (cells[:-1] - cell)[order].repeat(size)
    norm = np.empty(len(order))
    norm[order] = total
    ok = norm > 0.0
    norm[~ok] = 1.0
    bins = np.bincount(pix, g, cells[-1])
    del pix, g  # the samples go before the division allocates
    bins = bins / norm.repeat(n_cells)
    table = np.stack([cell, n_cells * ok, cells[:-1]], axis=1)
    return bins, table.reshape(-1, 6).tolist()


def integrate_count(density: DensityMap) -> float:
    """The face count represented by a map: the sum of all cells."""
    return float(density.values.sum())


def downsample_sum_preserving(density: DensityMap, factor: int) -> DensityMap:
    """Reduce resolution by an integer factor; each output cell sums its block.

    Dimensions that are not multiples of the factor are zero-padded on the
    right/bottom first, so the total sum is preserved exactly.
    """
    check_downscale(factor, "downsampling factor")
    check_downscale(int(density.downscale) * int(factor))  # the result's, before any padding
    if factor == 1:
        return DensityMap(density.values.copy(), density.downscale)
    h, w = density.values.shape
    ph = (-h) % factor
    pw = (-w) % factor
    padded = np.pad(density.values, ((0, ph), (0, pw)))
    hh, ww = padded.shape
    blocks = padded.reshape(hh // factor, factor, ww // factor, factor)
    return DensityMap(blocks.sum(axis=(1, 3)), density.downscale * factor)


def euclidean_loss(pred: Sequence[DensityMap], gt: Sequence[DensityMap]) -> float:
    """Half the mean (over the batch) of the squared L2 distance between map pairs."""
    if len(pred) != len(gt):
        raise ValueError(f"batch lengths differ: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        raise ValueError("euclidean_loss requires at least one map pair")
    total = 0.0
    for i, (p, g) in enumerate(zip(pred, gt)):
        if p.values.shape != g.values.shape:
            raise ValueError(
                f"map pair {i} has mismatched shapes: "
                f"{p.values.shape} vs {g.values.shape}"
            )
        diff = p.values - g.values
        total += float(np.sum(diff * diff))
    return total / (2.0 * len(pred))


def write_density(density: DensityMap, path) -> None:
    """Write a map as an NFMD file (f32 payload; see module docstring)."""
    header = (density.width, density.height, density.downscale)
    if max(header) >= 2**32:  # checked before the file is opened, so none is left behind
        raise ValueError(f"{path}: NFMD width, height and downscale must be below 2**32, "
                         f"got {header}")
    payload = np.ascontiguousarray(density.values, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_NFMD_MAGIC)
        f.write(_NFMD_HEADER.pack(*header))
        f.write(payload)


def read_density(path) -> DensityMap:
    """Read an NFMD file; rejects bad magic, truncated payloads, and invalid values."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _NFMD_MAGIC:
        raise DataFormatError(f"{shown_path(path)}: not an NFMD file (bad magic {data[:4]!r})")
    if len(data) < 4 + _NFMD_HEADER.size:
        raise DataFormatError(f"{shown_path(path)}: truncated NFMD header")
    width, height, downscale = _NFMD_HEADER.unpack_from(data, 4)
    expected = 4 + _NFMD_HEADER.size + 4 * width * height
    if len(data) != expected:
        raise DataFormatError(
            f"{shown_path(path)}: expected {expected} bytes for {width}x{height} map, got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=4 + _NFMD_HEADER.size)
    values = values.reshape(height, width).astype(np.float64)
    try:
        return DensityMap(values, downscale)
    except ValueError as exc:
        raise DataFormatError(f"{shown_path(path)}: {exc}") from exc
