import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskbench import cli, density
from maskbench.cli import main
from maskbench.dataset import SynthParams, synth_scene, write_synth_scene
from maskbench.density import (
    _GRID_MIN_POINTS,
    _PROFILE_BLOCK,
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
from maskbench.errors import DataFormatError

from oracles import (
    adaptive_sigmas_kdtree,
    neighbor_sigmas,
    point_set_error,
    render_density_loop,
    render_density_two_step,
)


def pts(points, w=64, h=64):
    return PointSet(tuple(points), w, h)


class TestPointSet:
    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            pts([(64.0, 10.0)])
        with pytest.raises(ValueError):
            pts([(-0.1, 10.0)])

    def test_empty_allowed(self):
        assert len(pts([])) == 0


@st.composite
def _points_and_image(draw):
    """Up to 8 points in a small image, each coordinate in range or on a hostile value."""
    w, h = draw(st.integers(1, 100)), draw(st.integers(1, 100))

    def coordinate(size):
        edge = [math.nan, math.inf, -math.inf, -1.0, -0.0, float(size), math.nextafter(size, 0)]
        return st.one_of(st.floats(0.0, size, exclude_max=True), st.sampled_from(edge))

    return draw(st.lists(st.tuples(coordinate(w), coordinate(h)), max_size=8)), w, h


class TestPointSetArray:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_points_and_image())
    def test_check_matches_the_per_point_loop(self, case):
        points, w, h = case
        want = point_set_error(points, w, h)
        for given_points in (points, np.array(points, dtype=np.float64).reshape(-1, 2)):
            if want is None:
                assert len(PointSet(given_points, w, h)) == len(points)
            else:
                with pytest.raises(ValueError) as exc:
                    PointSet(given_points, w, h)
                assert str(exc.value) == want

    def test_points_are_a_read_only_float64_array(self):
        ps = pts([(1, 2), (3.5, 4.25)])
        assert ps.points.dtype == np.float64 and ps.points.shape == (2, 2)
        assert ps.points.tolist() == [[1.0, 2.0], [3.5, 4.25]]
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0
        assert pts([]).points.shape == (0, 2)
        assert ps != pts([(1, 2), (3.5, 4.25)]) and ps == ps  # compared by identity

    @pytest.mark.parametrize("points", [
        [(1, 2, 3, 4)], [(1.0,)], [(1, 2), (3,)],
        np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2)),
        np.zeros((2, 2, 1)), [[(1,), (2,)]], np.zeros((0, 3)), (1.0, 2.0),
    ])
    def test_rejects_anything_but_n_pairs(self, points):
        with pytest.raises(ValueError):
            PointSet(points, 64, 64)

    def test_image_dimensions_stay_below_2_pow_53(self):
        # below 2**53 every width is a float64, so the bounds compare exactly
        top = 2**53 - 1
        assert len(PointSet([(top - 1.0, 1.0)], top, 10)) == 1
        with pytest.raises(ValueError, match=r"outside \[0, 9007199254740991\)"):
            PointSet([(float(top), 1.0)], top, 10)
        for w, h, field, side in ((2**53, 10, "image_width", 2**53), (10, 2**53, "image_height", 2**53),
                                  (2**53 + 1, 10, "image_width", 2**53 + 1),
                                  (0, 10, "image_width", 0), (10, -1, "image_height", -1)):
            with pytest.raises(ValueError) as exc:
                PointSet([], w, h)
            assert str(exc.value) == f"{field} must be an integer in [1, 2**53), got {side}"

    @pytest.mark.parametrize("w, h, field, side", [(100.5, 50, "image_width", 100.5),
                                                   (50, 64.0, "image_height", 64.0),
                                                   (True, 8, "image_width", True),
                                                   (8, np.float64(8), "image_height", np.float64(8))])
    def test_image_dimensions_are_integers(self, w, h, field, side):
        # as the annotations loader requires; a float side once failed inside numpy at render time
        with pytest.raises(ValueError) as exc:
            PointSet([(1.0, 1.0)], w, h)
        assert str(exc.value) == f"{field} must be an integer in [1, 2**53), got {side!r}"

    def test_needs_a_sized_input(self):
        with pytest.raises(TypeError):
            PointSet(((1.0, 2.0) for _ in range(2)), 64, 64)

    def test_callers_array_stays_writable_and_unchanged(self):
        xy = np.array([[1.5, 2.5], [3.0, 4.0]])
        ps = PointSet(xy, 8, 8)
        assert xy.flags.writeable and not np.shares_memory(xy, ps.points)
        xy[0, 0] = 7.0
        assert ps.points.tolist() == [[1.5, 2.5], [3.0, 4.0]]

    @pytest.mark.parametrize("downscale", [1, 8])
    def test_tuple_and_array_point_sets_render_the_same_bytes(self, downscale):
        rng = np.random.default_rng(13)
        for n, (w, h) in ((1, (40, 30)), (7, (64, 48)), (300, (320, 240))):
            xy = rng.uniform(0.0, (w, h), (n, 2))
            from_tuples = render_density(PointSet(tuple(map(tuple, xy.tolist())), w, h),
                                         downscale=downscale)
            from_array = render_density(PointSet(xy, w, h), downscale=downscale)
            assert from_tuples.values.tobytes() == from_array.values.tobytes()


def test_density_values_must_be_a_grid():
    with pytest.raises(ValueError) as exc:
        DensityMap(np.zeros((2, 2, 1)))
    assert str(exc.value) == "density values must be 2-D, got shape (2, 2, 1)"


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec()
        assert spec.beta == 0.3 and spec.k == 3
        assert spec.sigma_default == 4.0 and spec.truncation_radius == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(beta=0.0)
        with pytest.raises(ValueError):
            KernelSpec(k=0)

    @pytest.mark.parametrize("k", [0, 1.5, True, 3.0, "3"])
    def test_k_is_an_integer_of_at_least_one(self, k):
        with pytest.raises(ValueError) as exc:
            KernelSpec(k=k)
        assert str(exc.value) == f"k must be an integer >= 1, got {k!r}"

    @pytest.mark.parametrize("field", ["beta", "sigma_default", "truncation_radius"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError) as exc:
            KernelSpec(**{field: value})
        assert str(exc.value) == f"{field} must be a finite number > 0, got {value!r}"


class TestAdaptiveSigmas:
    def test_empty_errors(self):
        with pytest.raises(ValueError):
            adaptive_sigmas(pts([]))

    def test_single_point_fallback(self):
        assert adaptive_sigmas(pts([(32, 32)])) == [4.0]

    def test_three_collinear(self):
        # middle point: mean(10, 10) = 10 -> sigma = 3.0; ends: mean(10, 20) = 15
        sigmas = adaptive_sigmas(pts([(10, 30), (20, 30), (30, 30)]))
        assert sigmas[1] == pytest.approx(3.0, abs=1e-12)
        assert sigmas[0] == pytest.approx(4.5, abs=1e-12)
        assert sigmas[2] == pytest.approx(4.5, abs=1e-12)

    def test_two_points_use_available_neighbor(self):
        sigmas = adaptive_sigmas(pts([(10, 10), (30, 10)]))
        assert sigmas == [pytest.approx(6.0, abs=1e-12)] * 2

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            points = [(rng.uniform(0, 64), rng.uniform(0, 64)) for _ in range(n)]
            spec = KernelSpec()
            got = adaptive_sigmas(pts(points), spec)
            want = neighbor_sigmas(points, spec.beta, spec.k, spec.sigma_default)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scaling_distances_scales_sigmas_exactly(self):
        rng = np.random.default_rng(4)
        points = [(rng.uniform(1, 60), rng.uniform(1, 60)) for _ in range(12)]
        base = adaptive_sigmas(pts(points, 64, 64))
        for s in (2.0, 0.5, 8.0):  # powers of two keep the float math exact
            scaled = [(x * s, y * s) for x, y in points]
            got = adaptive_sigmas(pts(scaled, int(64 * s) + 1, int(64 * s) + 1))
            assert got == [b * s for b in base]


def assert_sigmas_equal_kdtree(xy, w, h, ks=(1, 2, 3, 4)):
    ps = PointSet(tuple(map(tuple, np.asarray(xy, dtype=np.float64))), w, h)
    for k in ks:
        spec = KernelSpec(k=k)
        assert adaptive_sigmas(ps, spec) == adaptive_sigmas_kdtree(ps, spec), f"k={k}"


class TestSigmasEqualKdTree:
    """The exact search gives the k-d tree's sigmas bit for bit (==, not allclose),
    below and above the point count where the grid takes over."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 500),
        snap=st.sampled_from([0.0, 1.0, 0.5, 8.0, 37.0]),
        dup_share=st.sampled_from([0.0, 0.1, 0.6]),
        clusters=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_scenes(self, n, snap, dup_share, clusters, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform((0, 0), (320, 240), (n, 2))
        if clusters:  # crowds amid sparse faces: some nearest faces lie outside the grid block
            crowd = rng.random(n) < 0.8
            centres = rng.uniform((0, 0), (320, 240), (clusters, 2))[rng.integers(0, clusters, n)]
            xy[crowd] = np.clip(rng.normal(centres, 3.0)[crowd], 0, np.nextafter((320, 240), 0))
        if snap:
            xy = np.floor(xy / snap) * snap
        dups = int(dup_share * n)
        xy[rng.integers(0, n, dups)] = xy[rng.integers(0, n, dups)]
        assert_sigmas_equal_kdtree(xy, 320, 240)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)),
                    min_size=_GRID_MIN_POINTS - 8, max_size=_GRID_MIN_POINTS + 60))
    def test_drawn_integer_points(self, points):
        assert_sigmas_equal_kdtree(points, 41, 31)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_2000_faces_at_1280x720(self, seed):
        rng = np.random.default_rng(seed)
        assert_sigmas_equal_kdtree(rng.uniform((0, 0), (1280, 720), (2000, 2)), 1280, 720,
                                   ks=(1, 3, 4))

    def test_integer_points_on_cell_edges(self):
        # 400 points of a 21 x 21 lattice of step 5 span 100 x 100 pixels; at k=3
        # the grid sizes its cells to hold 4 points, sqrt(100 * 100 * 4 / 400) = 10
        # pixels or two steps, so every other lattice line is a cell edge
        lattice = [(7 + 5 * i, 3 + 5 * j) for j in range(21) for i in range(21)]
        interior = [p for p in lattice if 7 < p[0] < 107 and 3 < p[1] < 103]
        dropped = {interior[i] for i in np.random.default_rng(0).choice(len(interior), 41, False)}
        kept = [p for p in lattice if p not in dropped]
        assert len(kept) == 400
        assert_sigmas_equal_kdtree(kept, 120, 110)
        assert_sigmas_equal_kdtree(lattice, 120, 110)
        assert_sigmas_equal_kdtree(kept + kept[::3], 120, 110)
        rng = np.random.default_rng(9)
        assert_sigmas_equal_kdtree(np.floor(rng.uniform(0, 64, (600, 2))), 64, 64)

    @pytest.mark.parametrize("q, step", [((20.4, 55.0), (-1, 0)), ((55.0, 20.4), (0, -1)),
                                         ((89.5, 55.0), (1, 0)), ((55.0, 89.5), (0, 1))])
    def test_nearest_face_just_outside_the_block(self, q, step):
        # 400 faces over 100 x 100 pixels: 10-pixel cells at k=3, as above. q is in
        # the second or second-last cell from a border, 15 pixels from its 3 x 3
        # block's edges across the step and about 10.4 along it. Its nearest face
        # lies 10.5 pixels along the step, just outside the block; the next ones
        # are lattice faces inside the block, 12 to 15 pixels away
        lattice = [(5.0 * i, 5.0 * j) for j in range(21) for i in range(21)]
        far = [p for p in lattice if math.dist(p, q) >= 12]
        inner = sorted((p for p in far if 0 < p[0] < 100 and 0 < p[1] < 100),
                       key=lambda p: -math.dist(p, q))
        faces = [p for p in far if p not in inner[: len(far) - 398]]
        faces += [q, (q[0] + 10.5 * step[0], q[1] + 10.5 * step[1])]
        assert len(faces) == 400
        assert_sigmas_equal_kdtree(faces, 101, 101, ks=(1, 3))

    def test_collinear_points(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 500, 300)
        assert_sigmas_equal_kdtree(np.column_stack([x, np.full(300, 100.0)]), 512, 512)
        assert_sigmas_equal_kdtree(np.column_stack([np.full(300, 3.5), x]), 512, 512)
        steps = np.arange(300.0)
        assert_sigmas_equal_kdtree(np.column_stack([steps, steps]), 512, 512)

    @pytest.mark.parametrize("n", [2, 5, _GRID_MIN_POINTS, 400])
    def test_all_identical_points(self, n):
        assert_sigmas_equal_kdtree([(12.25, 40.5)] * n, 64, 64)
        assert adaptive_sigmas(pts([(12.25, 40.5)] * n)) == [0.0] * n

    def test_heavy_duplicates(self):
        rng = np.random.default_rng(8)
        xy = rng.uniform((0, 0), (1280, 720), (2000, 2))
        xy[:1000] = xy[0]  # one spot holds half the scene
        assert_sigmas_equal_kdtree(xy, 1280, 720, ks=(1, 3))
        spots = rng.uniform((0, 0), (300, 200), (10, 2))
        assert_sigmas_equal_kdtree(np.repeat(spots, 30, axis=0), 300, 200)
        # pairs and triples of twins among distinct points
        xy = rng.uniform((0, 0), (300, 200), (300, 2))
        xy[100:200] = xy[:100]
        xy[200:250] = xy[:50]
        assert_sigmas_equal_kdtree(xy, 300, 200)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tiny_scenes_and_k_at_least_n(self, n):
        rng = np.random.default_rng(n)
        assert_sigmas_equal_kdtree(rng.uniform(0, 64, (n, 2)), 64, 64, ks=(1, 2, 3, 4))
        assert_sigmas_equal_kdtree([(5.0, 5.0)] * n, 64, 64, ks=(1, 2, 3, 4))


def test_gen_density_bytes_match_the_kdtree_oracle(tmp_path, monkeypatch):
    params = SynthParams(seed=21, n_images=5, faces_min=10, faces_max=300,
                         image_width=320, image_height=200, unknown_probability=0.1)
    scene = synth_scene(params, include_density=False)
    counts = [len(rec.labels) for rec in scene.manifest.images]
    assert min(counts) < _GRID_MIN_POINTS <= max(counts)
    write_synth_scene(scene, tmp_path)
    ann = tmp_path / "annotations.jsonl"

    def gen(out):
        argv = ["gen-density", "--annotations", str(ann), "--out", str(out),
                "--subsets", "total,masked,unmasked", "--downscale", "1"]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    fast = gen(tmp_path / "fast")
    calls = []

    def oracle(pts, spec):
        calls.append(len(pts))
        return adaptive_sigmas_kdtree(pts, spec)

    monkeypatch.setattr(density, "adaptive_sigmas", oracle)
    assert gen(tmp_path / "oracle") == fast
    assert len(fast) == 3 * len(counts) and max(calls) >= _GRID_MIN_POINTS


class TestRenderDensity:
    def test_single_point_mass(self):
        dmap = render_density(pts([(32, 32)]))
        assert integrate_count(dmap) == pytest.approx(1.0, abs=1e-9)
        assert dmap.width == 64 and dmap.height == 64 and dmap.downscale == 1

    def test_empty_points(self):
        dmap = render_density(pts([]))
        assert dmap.values.shape == (64, 64)
        assert integrate_count(dmap) == 0.0

    def test_border_face_keeps_full_mass(self):
        dmap = render_density(pts([(0.5, 0.5)]))
        assert integrate_count(dmap) == pytest.approx(1.0, abs=1e-9)

    def test_random_scene_mass(self):
        rng = np.random.default_rng(11)
        points = [(rng.uniform(0, 256), rng.uniform(0, 256)) for _ in range(50)]
        dmap = render_density(PointSet(tuple(points), 256, 256))
        assert integrate_count(dmap) == pytest.approx(50.0, abs=1e-3)

    def test_duplicate_points_degenerate_kernel(self):
        dmap = render_density(pts([(10.2, 10.7), (10.2, 10.7)]))
        assert integrate_count(dmap) == pytest.approx(2.0, abs=1e-9)

    def test_translation_equivariance(self):
        # dyadic coordinates plus integer shifts keep every float op exact
        points = [(20.25, 22.5), (26.75, 24.0), (23.5, 28.25)]
        spec = KernelSpec()
        base = render_density(PointSet(tuple(points), 96, 96), spec)
        dx, dy = 7, 11
        shifted = render_density(
            PointSet(tuple((x + dx, y + dy) for x, y in points), 96, 96), spec
        )
        np.testing.assert_array_equal(
            shifted.values[dy:, dx:], base.values[: 96 - dy, : 96 - dx]
        )
        assert shifted.values[:dy, :].sum() == 0.0
        assert shifted.values[:, :dx].sum() == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        points = [(rng.uniform(0, 64), rng.uniform(0, 64)) for _ in range(20)]
        dmap = render_density(pts(points))
        assert (dmap.values >= 0).all()


def _scene(rng, n, w, h, cluster=False):
    if cluster:  # a tight crowd: small sigmas, windows of a few pixels
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        xs = np.clip(rng.normal(cx, 4.0, n), 0.0, np.nextafter(w, 0))
        ys = np.clip(rng.normal(cy, 4.0, n), 0.0, np.nextafter(h, 0))
    else:
        xs, ys = rng.uniform(0, w, n), rng.uniform(0, h, n)
    return PointSet(tuple(zip(xs, ys)), w, h)


class TestRenderAtDownscale:
    """render_density(pts, spec, ds) against the full-resolution render plus block sum."""

    @staticmethod
    def assert_matches_two_step(ps, ds, spec=KernelSpec()):
        got = render_density(ps, spec, ds)
        want = render_density_two_step(ps, spec, ds)
        assert got.downscale == want.downscale == ds
        assert got.values.shape == want.values.shape
        assert got.values.shape == (-(-ps.image_height // ds), -(-ps.image_width // ds))
        np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("ds", [1, 2, 4, 8, 16])
    def test_square_scenes(self, ds):
        rng = np.random.default_rng(100 + ds)
        for i in range(8):
            n = int(rng.integers(1, 60))
            self.assert_matches_two_step(_scene(rng, n, 256, 256, cluster=i % 2 == 1), ds)

    def test_hd_frames_at_downscale_8(self):
        rng = np.random.default_rng(7)
        for i in range(2):
            self.assert_matches_two_step(_scene(rng, 150, 1280, 720, cluster=i == 1), 8)

    @pytest.mark.parametrize("w, h, ds", [(250, 170, 8), (97, 61, 4), (33, 45, 16), (7, 5, 8)])
    def test_sizes_not_multiples_of_downscale(self, w, h, ds):
        rng = np.random.default_rng(w * h)
        for n in (1, 5, 40):
            self.assert_matches_two_step(_scene(rng, n, w, h), ds)

    @pytest.mark.parametrize("ds", [1, 4, 8])
    def test_points_on_the_borders(self, ds):
        w, h = 250, 170
        right, bottom = np.nextafter(w, 0), np.nextafter(h, 0)
        points = [
            (0.0, 0.0), (right, 0.0), (0.0, bottom), (right, bottom),
            (0.0, 85.3), (right, 40.0), (124.5, 0.0), (60.25, bottom),
            (247.9, 168.2), (3.0, 166.0),
        ]
        self.assert_matches_two_step(PointSet(tuple(points), w, h), ds)
        self.assert_matches_two_step(PointSet(tuple(points), w, h), ds, KernelSpec(beta=3.0))

    @pytest.mark.parametrize("ds", [1, 2, 8])
    def test_duplicate_points_deposit_in_their_cell(self, ds):
        # every point has a twin and k=1, so every sigma is 0 and every face a deposit
        w, h = 250, 170
        points = [(10.2, 10.7), (249.9, 169.9), (0.0, 0.0), (123.5, 64.0)] * 2
        ps = PointSet(tuple(points), w, h)
        spec = KernelSpec(k=1)
        assert adaptive_sigmas(ps, spec) == [0.0] * len(points)
        self.assert_matches_two_step(ps, ds, spec)
        got = render_density(ps, spec, ds).values
        for x, y in points[:4]:
            assert got[int(y) // ds, int(x) // ds] == 2.0
        assert got.sum() == 8.0

    @pytest.mark.parametrize("ds", [1, 3, 8, 16])
    def test_single_point_and_empty_set(self, ds):
        for points in ([], [(100.3, 50.8)], [(0.0, 169.5)]):
            self.assert_matches_two_step(PointSet(tuple(points), 250, 170), ds)

    @pytest.mark.parametrize("ds", [0, -3, 2.5, 8.0, "8", None])
    def test_bad_downscale_is_rejected(self, ds):
        with pytest.raises(ValueError, match="downscale"):
            render_density(pts([(32, 32)]), KernelSpec(), ds)

    def test_numpy_integer_downscale(self):
        ps = pts([(32, 32), (10, 50)])
        assert np.array_equal(
            render_density(ps, downscale=np.int64(4)).values, render_density(ps, downscale=4).values
        )


class TestIntegrateCount:
    def test_zero_map(self):
        assert integrate_count(DensityMap(np.zeros((4, 4)))) == 0.0

    def test_rendered_count(self):
        rng = np.random.default_rng(9)
        points = [(rng.uniform(0, 128), rng.uniform(0, 128)) for _ in range(7)]
        dmap = render_density(PointSet(tuple(points), 128, 128))
        assert integrate_count(dmap) == pytest.approx(7.0, abs=1e-3)

    def test_uniform_map(self):
        assert integrate_count(DensityMap(np.full((8, 8), 0.25))) == pytest.approx(16.0)


def _drawn_scene(rng, n, w, h, snap, dup_share, clusters, edge_share):
    """n faces in a w x h frame: snapped, duplicated, crowded, and some on the four edges."""
    top = np.nextafter((w, h), 0)
    xy = rng.uniform((0, 0), (w, h), (n, 2))
    if clusters:
        crowd = rng.random(n) < 0.7
        centres = rng.uniform((0, 0), (w, h), (clusters, 2))[rng.integers(0, clusters, n)]
        xy[crowd] = np.clip(rng.normal(centres, 2.0)[crowd], 0, top)
    if snap:
        xy = np.minimum(np.floor(xy / snap) * snap, top)
    dups = int(dup_share * n)
    xy[rng.integers(0, n, dups)] = xy[rng.integers(0, n, dups)]
    # the window of a face on an edge is clipped there
    edge = rng.random(n) < edge_share
    side = rng.integers(0, 4, n)
    xy[edge & (side == 0), 0] = 0.0
    xy[edge & (side == 1), 0] = top[0]
    xy[edge & (side == 2), 1] = 0.0
    xy[edge & (side == 3), 1] = top[1]
    return PointSet(tuple(map(tuple, xy)), w, h)


def assert_render_equals_loop(ps, spec, ds):
    got = render_density(ps, spec, ds)
    want = render_density_loop(ps, spec, ds)
    assert got.values.shape == want.values.shape and got.downscale == want.downscale
    assert got.values.tobytes() == want.values.tobytes()


class TestRenderEqualsLoop:
    """The batched profiles give the per-face renderer's map bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 500),
        w=st.integers(1, 300),
        h=st.integers(1, 200),
        ds=st.integers(1, 9),
        snap=st.sampled_from([0.0, 0.5, 1.0, 8.0]),
        dup_share=st.sampled_from([0.0, 0.1, 0.6]),
        clusters=st.integers(0, 3),
        edge_share=st.sampled_from([0.0, 0.2]),
        spec=st.sampled_from([
            KernelSpec(),
            KernelSpec(beta=1e-9),  # every sigma below the degenerate cutoff
            KernelSpec(sigma_default=1e-7, k=1),  # a lone face is degenerate
            KernelSpec(beta=50.0, sigma_default=500.0),  # windows cover the whole image
            KernelSpec(beta=0.05, k=1, truncation_radius=0.6),  # many empty windows
            KernelSpec(truncation_radius=40.0),  # far weights that underflow
            KernelSpec(beta=1e-4, truncation_radius=1e4),  # windows whose weights all do
        ]),
        block=st.sampled_from([_PROFILE_BLOCK, 256, 1]),  # one chunk, several, one face each
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_scenes(self, n, w, h, ds, snap, dup_share, clusters, edge_share, spec,
                          block, seed):
        ps = _drawn_scene(np.random.default_rng(seed), n, w, h, snap, dup_share, clusters,
                          edge_share)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_PROFILE_BLOCK", block)
            assert_render_equals_loop(ps, spec, ds)

    @pytest.mark.parametrize("ds", [1, 4, 8])
    def test_2000_faces_span_several_chunks(self, ds, monkeypatch):
        rng = np.random.default_rng(ds)
        ps = _drawn_scene(rng, 2000, 1280, 720, 0.0, 0.05, 0, 0.01)
        chunks = []

        def counted(*args):
            chunks.append(len(args[0]) // 2)
            return profiles(*args)

        profiles = density._profiles
        monkeypatch.setattr(density, "_profiles", counted)
        assert_render_equals_loop(ps, KernelSpec(), ds)
        assert len(chunks) >= 2 and sum(chunks) == 2000

    def test_a_window_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(density, "_PROFILE_BLOCK", 100)
        ps = PointSet(((30.5, 20.25), (400.0, 300.0), (401.5, 299.0)), 640, 480)
        assert_render_equals_loop(ps, KernelSpec(sigma_default=300.0), 1)
        assert_render_equals_loop(ps, KernelSpec(beta=200.0), 3)

    @pytest.mark.parametrize(
        "spec, points, match",
        [
            (KernelSpec(beta=1e308), [(10.0, 10.0), (50.0, 40.0)],
             r"beta 1e\+308 makes a kernel sigma overflow to infinity"),
            (KernelSpec(truncation_radius=1e308), [(10.0, 10.0), (50.0, 40.0)],
             r"truncation_radius 1e\+308 makes the radius of a kernel of sigma 1\d\.\d+ overflow"),
            (KernelSpec(truncation_radius=1e308), [(10.0, 10.0)],
             r"truncation_radius 1e\+308 makes the radius of a kernel of sigma 4\.0 overflow"),
            (KernelSpec(sigma_default=1e308), [(10.0, 10.0)],
             r"truncation_radius 3\.0 makes the radius of a kernel of sigma 1e\+308 overflow"),
        ],
    )
    def test_overflowing_kernel_is_a_value_error(self, spec, points, match):
        with pytest.raises(ValueError, match=match):
            render_density(pts(points), spec, 4)

    def test_a_profile_whose_weights_all_underflow_is_a_deposit(self):
        # sigma 1e-3 and radius 10: only a pixel center within 0.038 of the face keeps weight
        ps = PointSet(((10.3, 20.7), (10.5, 30.5), (40.5, 20.3), (20.25, 5.5)), 64, 48)
        spec = KernelSpec(beta=1e-4, k=1, truncation_radius=1e4)
        assert_render_equals_loop(ps, spec, 1)
        got = render_density(ps, spec, 1).values
        assert got[20, 10] == got[20, 40] == got[5, 20] == 1.0 and got[30, 10] == 1.0

    def test_huge_finite_sigma_spreads_the_face_evenly(self):
        ps = pts([(10.0, 5.0)], w=12, h=8)
        spec = KernelSpec(sigma_default=1e200)
        assert_render_equals_loop(ps, spec, 1)
        assert render_density(ps, spec, 1).values.tolist() == [[1 / 96] * 12] * 8


def test_gen_density_bytes_match_the_loop_oracle(tmp_path, monkeypatch):
    params = SynthParams(seed=23, n_images=4, faces_min=1, faces_max=400,
                         image_width=333, image_height=201, unknown_probability=0.1)
    write_synth_scene(synth_scene(params, include_density=False), tmp_path)
    ann = tmp_path / "annotations.jsonl"

    def gen(out, ds):
        argv = ["gen-density", "--annotations", str(ann), "--out", str(out),
                "--subsets", "total,masked,unmasked", "--downscale", str(ds)]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    for ds in (1, 4, 8):
        fast = gen(tmp_path / f"fast{ds}", ds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "render_density", render_density_loop)
            assert gen(tmp_path / f"loop{ds}", ds) == fast
        assert len(fast) == 12


class TestDownsample:
    def test_factor_one_is_identity(self):
        m = DensityMap(np.arange(16, dtype=float).reshape(4, 4))
        out = downsample_sum_preserving(m, 1)
        np.testing.assert_array_equal(out.values, m.values)
        assert out.downscale == 1

    def test_block_sum(self):
        m = DensityMap(np.ones((8, 8)))
        out = downsample_sum_preserving(m, 8)
        assert out.values.shape == (1, 1)
        assert out.values[0, 0] == 64.0
        assert out.downscale == 8

    def test_sum_preserved(self):
        rng = np.random.default_rng(2)
        points = [(rng.uniform(0, 256), rng.uniform(0, 256)) for _ in range(30)]
        dmap = render_density(PointSet(tuple(points), 256, 256))
        down = downsample_sum_preserving(dmap, 8)
        assert down.values.sum() == pytest.approx(dmap.values.sum(), abs=1e-9)

    def test_zero_padding_for_remainders(self):
        m = DensityMap(np.ones((5, 7)))
        out = downsample_sum_preserving(m, 4)
        assert out.values.shape == (2, 2)
        assert out.values.sum() == pytest.approx(35.0, abs=1e-12)

    def test_bad_factor(self):
        m = DensityMap(np.ones((4, 4)))
        with pytest.raises(ValueError):
            downsample_sum_preserving(m, 0)
        with pytest.raises(ValueError):
            downsample_sum_preserving(m, -2)


class TestDownscaleRule:
    """A downscale is an integer in [1, 2**32): the NFMD header stores it as a u32."""

    @pytest.mark.parametrize("ds", [2.5, 2**32, 2**63, 0])
    def test_density_map_refuses_a_downscale_it_could_not_write(self, ds):
        with pytest.raises(ValueError, match="downscale must be"):
            DensityMap(np.zeros((1, 1)), ds)

    def test_render_refuses_2_pow_32(self):
        # it used to return a 1x1 map that write_density then refused
        with pytest.raises(ValueError, match=r"^downscale must be an integer in \[1, 2\*\*32\), got 4294967296$"):
            render_density(pts([(32, 32)]), downscale=2**32)

    def test_downsample_refuses_a_result_of_2_pow_32(self):
        with pytest.raises(ValueError, match=r"^downscale must be an integer in \[1, 2\*\*32\), got 4294967296$"):
            downsample_sum_preserving(DensityMap(np.ones((1, 1)), 2**31), 2)

    def test_the_largest_downscale_round_trips(self, tmp_path):
        dmap = render_density(pts([(32, 32)]), downscale=2**32 - 1)
        assert dmap.values.shape == density.map_shape(64, 64, 2**32 - 1) == (1, 1)
        write_density(dmap, tmp_path / "m.nfmd")
        assert read_density(tmp_path / "m.nfmd").downscale == 2**32 - 1

    @pytest.mark.parametrize("h, w, ds, shape", [(64, 64, 8, (8, 8)), (65, 63, 8, (9, 8)),
                                                 (1, 1, 13, (1, 1)), (2**53 - 1, 3, 2, (2**52, 2))])
    def test_map_shape_rounds_each_side_up(self, h, w, ds, shape):
        assert density.map_shape(h, w, ds) == shape

    @pytest.mark.parametrize("h, w, ds", [(2**27, 2**27, 1), (10**9, 10**9, 8), (2**53 - 1, 2**52, 2**25)])
    def test_render_refuses_a_map_above_the_grid_bound_before_it_allocates(self, h, w, ds):
        # more than 2**53 cells, which no address space holds
        with pytest.raises(ValueError) as exc:
            render_density(pts([(1, 1)], w, h), downscale=ds)
        assert str(exc.value) == f"a {w} x {h} frame at downscale {ds} needs a grid of more than 2**53 cells"

    def test_zero_downscale_in_a_file_names_it(self, tmp_path):
        import struct

        path = tmp_path / "zero.nfmd"
        path.write_bytes(b"NFMD" + struct.pack("<III", 1, 1, 0) + b"\x00" * 4)
        with pytest.raises(DataFormatError) as exc:
            read_density(path)
        assert str(exc.value) == f"{path}: downscale must be an integer in [1, 2**32), got 0"


class TestEuclideanLoss:
    def test_identity_is_zero(self):
        m = DensityMap(np.random.default_rng(0).uniform(0, 1, (6, 6)))
        assert euclidean_loss([m], [m]) == 0.0

    def test_hand_case_single(self):
        # two cells differ by 1 and 2: (1/2)(1 + 4) = 2.5
        gt = DensityMap(np.zeros((2, 2)))
        pred = DensityMap(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert euclidean_loss([pred], [gt]) == pytest.approx(2.5, abs=1e-12)

    def test_hand_case_batch(self):
        # squared norms 4 and 6: (1/4)(4 + 6) = 2.5
        gt1, gt2 = DensityMap(np.zeros((1, 2))), DensityMap(np.zeros((1, 3)))
        p1 = DensityMap(np.array([[2.0, 0.0]]))
        p2 = DensityMap(np.array([[1.0, 1.0, 2.0]]))
        assert euclidean_loss([p1, p2], [gt1, gt2]) == pytest.approx(2.5, abs=1e-12)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(8)
        a = DensityMap(rng.uniform(0, 1, (5, 5)))
        b = DensityMap(rng.uniform(0, 1, (5, 5)))
        assert euclidean_loss([a], [b]) == euclidean_loss([b], [a])
        assert euclidean_loss([a], [b]) > 0.0

    def test_mismatch_errors(self):
        a = DensityMap(np.zeros((2, 2)))
        b = DensityMap(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            euclidean_loss([a], [b])
        with pytest.raises(ValueError):
            euclidean_loss([a], [a, a])
        with pytest.raises(ValueError):
            euclidean_loss([], [])


class TestNfmdFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dmap = DensityMap(rng.uniform(0, 2, (5, 9)).astype(np.float32), 8)
        path = tmp_path / "m.nfmd"
        write_density(dmap, path)
        back = read_density(path)
        assert back.downscale == 8
        assert back.scale == 1 / 8
        np.testing.assert_array_equal(back.values, dmap.values)

    def test_bytes_are_stable(self, tmp_path):
        dmap = DensityMap(np.arange(12, dtype=float).reshape(3, 4), 2)
        write_density(dmap, tmp_path / "a.nfmd")
        write_density(dmap, tmp_path / "b.nfmd")
        assert (tmp_path / "a.nfmd").read_bytes() == (tmp_path / "b.nfmd").read_bytes()
        header = (tmp_path / "a.nfmd").read_bytes()[:16]
        assert header[:4] == b"NFMD"

    def test_rejects_bad_magic(self, tmp_path):
        (tmp_path / "bad.nfmd").write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(DataFormatError):
            read_density(tmp_path / "bad.nfmd")

    def test_rejects_truncated_payload(self, tmp_path):
        import struct

        (tmp_path / "short.nfmd").write_bytes(
            b"NFMD" + struct.pack("<III", 4, 4, 1) + b"\x00" * 8
        )
        with pytest.raises(DataFormatError):
            read_density(tmp_path / "short.nfmd")

    def test_rejects_negative_values(self, tmp_path):
        import struct

        payload = np.full(4, -1.0, dtype="<f4").tobytes()
        (tmp_path / "neg.nfmd").write_bytes(b"NFMD" + struct.pack("<III", 2, 2, 1) + payload)
        with pytest.raises(DataFormatError):
            read_density(tmp_path / "neg.nfmd")


def test_maps_and_scenes_compare_by_value():
    values = np.arange(6.0).reshape(2, 3)
    m = density.DensityMap(values, 4)
    assert m == density.DensityMap(values.copy(), 4)
    other = values.copy()
    other[1, 2] += 1.0
    assert m != density.DensityMap(other, 4)
    assert m != density.DensityMap(values, 2)
    assert m != density.DensityMap(values[:, :2], 4)
    assert m.__eq__(values) is NotImplemented
    with pytest.raises(TypeError):
        hash(m)
    params = SynthParams(seed=1, n_images=3, faces_max=5)
    assert synth_scene(params) == synth_scene(params)
    assert synth_scene(params) != synth_scene(SynthParams(seed=2, n_images=3, faces_max=5))
