import numpy as np
import pytest

from maskbench.fusion import (
    FeatureLevel,
    FusionWeights,
    bifpn_fuse,
    finite_difference_gradients,
    fpn_topdown,
    fusion_weight_gradients,
    level_shape,
    node_arity,
    resize_level,
    run_gradient_check,
)

from oracles import fd_fusion_gradient


def pyramid(levels, image_w, image_h, channels=1, fill=None, rng=None):
    out = {}
    for level in levels:
        shape = (channels, *level_shape(image_w, image_h, level))
        if rng is not None:
            values = rng.standard_normal(shape)
        else:
            values = np.full(shape, 0.0 if fill is None else fill[level])
        out[level] = FeatureLevel(level, values)
    return out


class TestResize:
    def test_same_level_identity(self):
        f = FeatureLevel(4, np.arange(8, dtype=float).reshape(1, 2, 4))
        out = resize_level(f, 4)
        np.testing.assert_array_equal(out.values, f.values)

    def test_upsample_replicates(self):
        f = FeatureLevel(5, np.full((1, 1, 1), 5.0))
        out = resize_level(f, 4)
        assert out.values.shape == (1, 2, 2)
        np.testing.assert_array_equal(out.values, np.full((1, 2, 2), 5.0))

    def test_downsample_averages(self):
        f = FeatureLevel(4, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = resize_level(f, 5)
        assert out.values.shape == (1, 1, 1)
        assert out.values[0, 0, 0] == 2.5

    def test_downsample_zero_pads_odd_dims(self):
        f = FeatureLevel(4, np.ones((1, 3, 3)))
        out = resize_level(f, 5)
        assert out.values.shape == (1, 2, 2)
        # bottom/right blocks average in padded zeros
        np.testing.assert_array_equal(
            out.values[0], np.array([[1.0, 0.5], [0.5, 0.25]])
        )

    def test_upsample_crops_to_target(self):
        f = FeatureLevel(4, np.ones((1, 3, 3)))
        out = resize_level(f, 3, target_hw=(5, 5))
        assert out.values.shape == (1, 5, 5)


class TestFpnTopdown:
    def test_zero_inputs_zero_outputs(self):
        m_in = pyramid(range(3, 8), 64, 64, fill={l: 0.0 for l in range(3, 8)})
        out = fpn_topdown(m_in)
        for level in range(3, 8):
            assert not out[level].values.any()

    def test_constant_unroll(self):
        fills = {3: 1.0, 4: 2.0, 5: 3.0, 6: 4.0, 7: 5.0}
        m_in = pyramid(range(3, 8), 64, 64, fill=fills)
        out = fpn_topdown(m_in)
        for level in range(3, 8):
            want = sum(fills[j] for j in range(level, 8))
            np.testing.assert_allclose(out[level].values, want)

    def test_annihilating_conv(self):
        rng = np.random.default_rng(0)
        m_in = pyramid(range(3, 8), 48, 32, channels=2, rng=rng)
        out = fpn_topdown(m_in, conv=lambda level, a: 0.0 * a)
        for level in range(3, 8):
            assert not out[level].values.any()

    def test_single_nonzero_level_telescopes(self):
        # only level 7 is nonzero: every lower output is the resize chain of it
        m_in = pyramid(range(3, 8), 64, 64, fill={l: 0.0 for l in range(3, 8)})
        rng = np.random.default_rng(1)
        m_in[7] = FeatureLevel(7, rng.standard_normal((1, *level_shape(64, 64, 7))))
        out = fpn_topdown(m_in)
        chained = m_in[7].values
        for level in (6, 5, 4, 3):
            chained = resize_level(
                FeatureLevel(level + 1, chained), level,
                level_shape(64, 64, level),
            ).values
            np.testing.assert_array_equal(out[level].values, chained)

    def test_missing_level_errors(self):
        m_in = pyramid([3, 4, 6, 7], 64, 64, fill={l: 0.0 for l in (3, 4, 6, 7)})
        with pytest.raises(ValueError):
            fpn_topdown(m_in)

    def test_inconsistent_dims_error(self):
        m_in = {
            3: FeatureLevel(3, np.zeros((1, 8, 8))),
            4: FeatureLevel(4, np.zeros((1, 5, 5))),
        }
        with pytest.raises(ValueError):
            fpn_topdown(m_in)


class TestBifpnFuse:
    def test_constant_inputs_epsilon_zero(self):
        # 128x128 keeps every level's dims even, so pooling never pads and the
        # fusion is an exact convex combination: constants pass through
        levels = range(3, 8)
        m_in = pyramid(levels, 128, 128, fill={l: 3.25 for l in levels})
        weights = FusionWeights.ones(levels, epsilon=0.0)
        out = bifpn_fuse(m_in, weights)
        for level in levels:
            np.testing.assert_array_equal(out[level].values, np.full_like(out[level].values, 3.25))

    def test_constant_inputs_small_epsilon_shrinks_slightly(self):
        levels = range(3, 8)
        m_in = pyramid(levels, 128, 128, fill={l: 1.0 for l in levels})
        out = bifpn_fuse(m_in, FusionWeights.ones(levels, epsilon=1e-4))
        for level in levels:
            v = out[level].values
            assert (v <= 1.0).all() and (v >= 1.0 - 1e-3).all()

    def test_hand_computed_node(self):
        # top-down node at level 6: inputs 2 and 4 with unit weights -> 3
        m_in = pyramid([6, 7], 128, 128, fill={6: 2.0, 7: 4.0})
        weights = FusionWeights.ones([6, 7], epsilon=0.0)
        out = bifpn_fuse(m_in, weights)
        # out6 fuses in(2) and td6(3) -> 2.5; out7 fuses in(4) and resize(out6) -> 3.25
        np.testing.assert_allclose(out[6].values, 2.5)
        np.testing.assert_allclose(out[7].values, 3.25)
        # expose td6 = 3 directly by making out6 pass it through
        raw = {name: np.ones(k) for name, k in node_arity([6, 7]).items()}
        raw["out6"] = np.array([0.0, 1.0])
        passthrough = bifpn_fuse(m_in, FusionWeights(raw, epsilon=0.0))
        np.testing.assert_allclose(passthrough[6].values, 3.0)

    def test_degenerate_weight_selects_single_input(self):
        m_in = {
            6: FeatureLevel(6, np.full((1, 2, 2), 7.0)),
            7: FeatureLevel(7, np.full((1, 1, 1), -3.0)),
        }
        raw = {name: np.ones(k) for name, k in node_arity([6, 7]).items()}
        raw["td6"] = np.array([2.0, 0.0])  # ignore the resized level-7 input
        raw["out6"] = np.array([0.0, 2.0])  # pass the td node through
        weights = FusionWeights(raw, epsilon=0.0)
        out = bifpn_fuse(m_in, weights)
        np.testing.assert_array_equal(out[6].values, np.full((1, 2, 2), 7.0))

    def test_homogeneous_in_inputs(self):
        rng = np.random.default_rng(2)
        levels = [3, 4, 5]
        m_in = pyramid(levels, 40, 24, channels=3, rng=rng)
        weights = FusionWeights(
            {name: rng.uniform(0.1, 2.0, k) for name, k in node_arity(levels).items()}
        )
        out = bifpn_fuse(m_in, weights)
        scaled_in = {l: FeatureLevel(l, 2.0 * f.values) for l, f in m_in.items()}
        scaled_out = bifpn_fuse(scaled_in, weights)
        for level in levels:
            np.testing.assert_array_equal(scaled_out[level].values, 2.0 * out[level].values)

    def test_weight_scale_invariance_at_epsilon_zero(self):
        rng = np.random.default_rng(3)
        levels = [4, 5, 6]
        m_in = pyramid(levels, 32, 32, channels=2, rng=rng)
        raw = {name: rng.uniform(0.1, 2.0, k) for name, k in node_arity(levels).items()}
        out = bifpn_fuse(m_in, FusionWeights(raw, epsilon=0.0))
        for s in (2.0, 4.0, 0.5):  # powers of two: exact in floating point
            scaled = {name: s * w for name, w in raw.items()}
            out_s = bifpn_fuse(m_in, FusionWeights(scaled, epsilon=0.0))
            for level in levels:
                np.testing.assert_array_equal(out_s[level].values, out[level].values)

    def test_all_zero_weights_epsilon_zero_errors(self):
        m_in = pyramid([6, 7], 128, 128, fill={6: 1.0, 7: 1.0})
        raw = {name: np.ones(k) for name, k in node_arity([6, 7]).items()}
        raw["td6"] = np.zeros(2)
        with pytest.raises(ValueError):
            bifpn_fuse(m_in, FusionWeights(raw, epsilon=0.0))

    def test_negative_raw_weights_clamp_to_zero(self):
        m_in = {
            6: FeatureLevel(6, np.full((1, 2, 2), 5.0)),
            7: FeatureLevel(7, np.full((1, 1, 1), 9.0)),
        }
        raw = {name: np.ones(k) for name, k in node_arity([6, 7]).items()}
        raw["td6"] = np.array([1.0, -3.0])  # clamped: node passes input 6 through
        out = bifpn_fuse(m_in, FusionWeights(raw, epsilon=0.0))
        np.testing.assert_array_equal(out[6].values, np.full((1, 2, 2), 5.0))

    def test_missing_node_weights_error(self):
        m_in = pyramid([6, 7], 128, 128, fill={6: 1.0, 7: 1.0})
        with pytest.raises(ValueError):
            bifpn_fuse(m_in, FusionWeights({}, epsilon=1e-4))


class TestFusionGradients:
    def test_zero_upstream_zero_gradients(self):
        rng = np.random.default_rng(4)
        levels = [3, 4, 5]
        m_in = pyramid(levels, 32, 32, channels=2, rng=rng)
        weights = FusionWeights.ones(levels)
        upstream = {l: np.zeros_like(m_in[l].values) for l in levels}
        grads = fusion_weight_gradients(m_in, weights, None, upstream)
        for g in grads.values():
            assert not g.any()

    def test_single_node_analytic_formula(self):
        # scalar maps a, b with weights (w1, w2):
        # d out6_td / d w1 = (a*(w2+eps) - w2*b) / (w1+w2+eps)^2
        a, b, w1, w2, eps = 2.0, 4.0, 0.7, 1.3, 1e-4
        m_in = {
            6: FeatureLevel(6, np.full((1, 1, 1), a)),
            7: FeatureLevel(7, np.full((1, 1, 1), b)),
        }
        raw = {name: np.ones(k) for name, k in node_arity([6, 7]).items()}
        raw["td6"] = np.array([w1, w2])
        raw["out6"] = np.array([0.0, 1.0])  # out6 = td6
        raw["out7"] = np.array([1.0, 0.0])  # out7 = in7, no td dependence
        weights = FusionWeights(raw, epsilon=eps)
        upstream = {6: np.ones((1, 1, 1)), 7: np.zeros((1, 1, 1))}
        grads = fusion_weight_gradients(m_in, weights, None, upstream)
        den = w1 + w2 + eps
        # out6 = td6 * w_out/(w_out+eps); account for that outer factor
        outer = 1.0 / (1.0 + eps)
        want_w1 = (a * (w2 + eps) - w2 * b) / den**2 * outer
        want_w2 = (b * (w1 + eps) - w1 * a) / den**2 * outer
        assert grads["td6"][0] == pytest.approx(want_w1, rel=1e-12)
        assert grads["td6"][1] == pytest.approx(want_w2, rel=1e-12)
        fd = fd_fusion_gradient(m_in, weights, None, upstream, "td6", 0)
        assert grads["td6"][0] == pytest.approx(fd, rel=1e-5)

    def test_clamped_weight_gradient_is_zero(self):
        rng = np.random.default_rng(5)
        levels = [3, 4]
        m_in = pyramid(levels, 16, 16, channels=1, rng=rng)
        raw = {name: np.ones(k) for name, k in node_arity(levels).items()}
        raw["td3"] = np.array([1.0, -0.5])
        weights = FusionWeights(raw)
        upstream = {l: np.ones_like(m_in[l].values) for l in levels}
        grads = fusion_weight_gradients(m_in, weights, None, upstream)
        assert grads["td3"][1] == 0.0

    def test_matches_independent_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            levels = [3, 4, 5]
            image_w = int(rng.integers(8, 49))
            image_h = int(rng.integers(8, 49))
            channels = int(rng.integers(1, 4))
            m_in = pyramid(levels, image_w, image_h, channels=channels, rng=rng)
            weights = FusionWeights(
                {name: rng.uniform(0.2, 2.0, k) for name, k in node_arity(levels).items()},
                epsilon=1e-4,
            )
            upstream = {l: rng.standard_normal(m_in[l].values.shape) for l in levels}
            analytic = fusion_weight_gradients(m_in, weights, None, upstream)
            for name, g in analytic.items():
                for j in range(g.shape[0]):
                    fd = fd_fusion_gradient(m_in, weights, None, upstream, name, j)
                    assert abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-3) <= 1e-5

    def test_gradients_with_linear_conv(self):
        rng = np.random.default_rng(7)
        levels = [4, 5]
        m_in = pyramid(levels, 32, 32, channels=2, rng=rng)
        weights = FusionWeights(
            {name: rng.uniform(0.3, 1.5, k) for name, k in node_arity(levels).items()}
        )
        upstream = {l: rng.standard_normal(m_in[l].values.shape) for l in levels}
        conv = lambda level, a: (level - 3.0) * a  # per-level scaling, linear
        analytic = fusion_weight_gradients(m_in, weights, conv, upstream)
        for name, g in analytic.items():
            for j in range(g.shape[0]):
                fd = fd_fusion_gradient(m_in, weights, conv, upstream, name, j)
                assert abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-3) <= 1e-5

    def test_upstream_shape_mismatch_errors(self):
        levels = [6, 7]
        m_in = pyramid(levels, 128, 128, fill={6: 1.0, 7: 1.0})
        weights = FusionWeights.ones(levels)
        upstream = {6: np.zeros((1, 1, 1)), 7: np.zeros((1, 1, 1))}
        with pytest.raises(ValueError):
            fusion_weight_gradients(m_in, weights, None, upstream)

    def test_packaged_checker_agrees(self):
        assert run_gradient_check(seed=123, trials=5) <= 1e-5

    @pytest.mark.parametrize("trials", [0, -5])
    def test_packaged_checker_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_gradient_check(seed=123, trials=trials)

    @pytest.mark.parametrize("seed", [-1, 2**1100, True, 1.0, None],
                             ids=["negative", "beyond-float-range", "bool", "float", "none"])
    def test_packaged_checker_needs_a_seed_of_its_domain(self, seed):
        with pytest.raises(ValueError) as exc:
            run_gradient_check(seed=seed, trials=1)
        assert str(exc.value).startswith("seed must be an integer >= 0, got ")

    def test_packaged_fd_helper_matches_oracle(self):
        rng = np.random.default_rng(8)
        levels = [3, 4]
        m_in = pyramid(levels, 24, 24, channels=1, rng=rng)
        weights = FusionWeights(
            {name: rng.uniform(0.3, 1.5, k) for name, k in node_arity(levels).items()}
        )
        upstream = {l: rng.standard_normal(m_in[l].values.shape) for l in levels}
        packaged = finite_difference_gradients(m_in, weights, None, upstream)
        for name, g in packaged.items():
            for j in range(g.shape[0]):
                fd = fd_fusion_gradient(m_in, weights, None, upstream, name, j)
                assert g[j] == pytest.approx(fd, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("level", [-1100, -1075, 1024, 2000])
def test_level_without_a_positive_finite_stride_has_no_grid(level):
    # 2**-1100 is 0.0 in a float and 2**2000 does not fit one: no grid divides by them
    with pytest.raises(ValueError) as exc:
        level_shape(8, 8, level)
    assert str(exc.value) == f"pyramid level must be an integer in [-1074, 1023], got {level}"


def _two_levels(channels_4=1, declared_3=3):
    return {3: FeatureLevel(declared_3, np.zeros((1, 2, 2))),
            4: FeatureLevel(4, np.zeros((channels_4, 1, 1)))}


@pytest.mark.parametrize("call, message", [
    (lambda: FeatureLevel(3, np.zeros((2, 2))),
     "feature values must be (channels, height, width), got shape (2, 2)"),
    (lambda: FeatureLevel(3, np.full((1, 1, 1), np.nan)), "feature values must be finite"),
    (lambda: FusionWeights({"td3": [1.0, np.inf]}), "weights of node td3 must be finite"),
    (lambda: node_arity([]), "at least one pyramid level is required"),
    (lambda: resize_level(FeatureLevel(4, np.zeros((1, 1, 1))), 3, (3, 3)),
     "resized map (2, 2) smaller than target (3, 3)"),
    (lambda: bifpn_fuse({3: FeatureLevel(3, np.zeros((1, 1, 1)))}, FusionWeights.ones([3])),
     "pyramid needs at least 2 levels, got 1"),
    (lambda: fpn_topdown(_two_levels(declared_3=5)), "feature at key 3 declares level 5"),
    (lambda: fpn_topdown(_two_levels(channels_4=2)), "all pyramid levels must share a channel count"),
    (lambda: fpn_topdown(_two_levels(), conv=lambda level, a: a[:, :1]),
     "conv changed the map shape at level 3: (1, 2, 2) -> (1, 1, 2)"),
    (lambda: bifpn_fuse(_two_levels(),
                        FusionWeights({**FusionWeights.ones([3, 4]).raw, "td3": np.ones(3)})),
     "node td3 expects 2 weights, got 3"),
    (lambda: fusion_weight_gradients(_two_levels(), FusionWeights.ones([3, 4]), None, {}),
     "upstream cotangent missing for level 3"),
], ids=["not-3d", "non-finite-values", "non-finite-weights", "no-level", "resize-short",
        "one-level", "declared-level", "channels", "conv-shape", "weight-count", "no-upstream"])
def test_malformed_pyramid_input_raises_naming_it(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
