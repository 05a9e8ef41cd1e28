import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poissonprop import (
    ConfidenceMap,
    FeatureMap,
    LinearParams,
    TwoLayerParams,
    fuse_confidence,
    similarity_map,
    spatial_consistency_calibrate,
)
from poissonprop.errors import ShapeMismatch
from poissonprop.tensor import ZERO_NORM_EPS


def _conf(values):
    return ConfidenceMap(np.asarray(values, dtype=np.float64))


def _reference_calibrate(fused, transform=None):
    """Elementwise calibration kernel, the route the blocked GEMM replaced."""
    c, h, w = fused.data.shape
    pixels = fused.pixel_vectors()
    norms = np.linalg.norm(pixels, axis=1)
    unit = np.zeros_like(pixels)
    ok = norms >= ZERO_NORM_EPS
    unit[ok] = pixels[ok] / norms[ok, None]
    target = pixels if transform is None else transform.apply(pixels)
    n_px, c_out = target.shape
    out = np.empty((n_px, c_out), dtype=np.float64)
    for lo in range(0, n_px, 64):
        hi = min(lo + 64, n_px)
        sims = np.sum(unit[lo:hi, None, :] * unit[None, :, :], axis=2)
        np.maximum(sims, 0.0, out=sims)
        out[lo:hi] = np.sum(sims[:, :, None] * target[None, :, :], axis=1) / n_px
    return out.T.reshape(c_out, h, w)


def _reference_maps():
    rng = np.random.default_rng(49)
    zeros = rng.standard_normal((8, 24, 24))
    zeros[:, rng.random((24, 24)) < 0.2] = 0.0  # zero-norm pixels
    zeros[:, 0, 0] = 1e-13  # below the zero-norm threshold
    head = TwoLayerParams(
        LinearParams(rng.standard_normal((64, 64)) / 8, rng.standard_normal(64)),
        LinearParams(rng.standard_normal((64, 64)) / 8, rng.standard_normal(64)),
    )
    return {
        "c1-20x20-ragged": (rng.standard_normal((1, 20, 20)), None),
        "c1-64x64": (rng.standard_normal((1, 64, 64)), None),
        "c8-zero-norm": (zeros, None),
        "c64-two-layer": (rng.standard_normal((64, 16, 16)), head),
    }


REFERENCE_MAPS = _reference_maps()

_AT_THRESHOLD = (np.nextafter(ZERO_NORM_EPS, 0.0), ZERO_NORM_EPS, np.nextafter(ZERO_NORM_EPS, 1.0))
_ONE_CHANNEL_VALUES = st.one_of(
    st.sampled_from([0.0, *_AT_THRESHOLD, *(-v for v in _AT_THRESHOLD)]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


class TestSimilarityMap:
    def test_matching_pixel_scores_one(self):
        proto = np.array([1.0, 2.0])
        data = np.zeros((2, 2, 2))
        data[:, 0, 0] = [1.0, 2.0]
        data[:, 1, 1] = [2.0, -1.0]  # orthogonal to proto
        sim = similarity_map(FeatureMap(data), proto)
        assert sim.data.shape == (1, 2, 2)
        assert sim.data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sim.data[0, 1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_pixels_score_zero(self):
        proto = np.array([1.0, 0.0])
        sim = similarity_map(FeatureMap(np.zeros((2, 2, 2))), proto)
        assert np.all(sim.data == 0.0)

    def test_values_bounded(self):
        rng = np.random.default_rng(40)
        fmap = FeatureMap(rng.standard_normal((5, 4, 4)))
        proto = rng.standard_normal(5)
        sim = similarity_map(fmap, proto)
        assert sim.data.min() >= -1.0 and sim.data.max() <= 1.0

    def test_identity_params_reproduce_query(self):
        rng = np.random.default_rng(41)
        fmap = FeatureMap(rng.standard_normal((3, 2, 4)))
        proto = rng.standard_normal(3)
        weight = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
        sim = similarity_map(fmap, proto, LinearParams(weight, np.zeros(3)))
        assert np.allclose(sim.data, fmap.data, atol=1e-12)

    def test_params_see_prototype(self):
        fmap = FeatureMap(np.zeros((2, 1, 1)))
        proto = np.array([3.0, -1.0])
        weight = np.concatenate([np.zeros((2, 2)), np.eye(2)], axis=1)
        sim = similarity_map(fmap, proto, LinearParams(weight, np.zeros(2)))
        assert np.array_equal(sim.data[:, 0, 0], [3.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prototype_rejected(self, bad):
        with pytest.raises(ValueError, match="^prototype contains NaN or Inf$"):
            similarity_map(FeatureMap(np.ones((3, 2, 2))), np.array([1.0, bad, 0.0]))

    def test_prototype_length_checked(self):
        with pytest.raises(ShapeMismatch):
            similarity_map(FeatureMap(np.zeros((3, 2, 2))), np.zeros(2))

    def test_param_width_checked(self):
        params = LinearParams(np.zeros((1, 4)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            similarity_map(FeatureMap(np.zeros((3, 2, 2))), np.zeros(3), params)


class TestFuseConfidence:
    def test_unit_confidence_is_identity(self):
        rng = np.random.default_rng(42)
        sim = FeatureMap(rng.standard_normal((2, 3, 3)))
        fused = fuse_confidence(sim, _conf(np.ones((3, 3))))
        assert np.array_equal(fused.data, sim.data)

    def test_zero_confidence_annihilates(self):
        sim = FeatureMap(np.ones((2, 2, 2)))
        fused = fuse_confidence(sim, _conf(np.zeros((2, 2))))
        assert np.all(fused.data == 0.0)

    def test_scalar_broadcast(self):
        rng = np.random.default_rng(43)
        sim = FeatureMap(rng.standard_normal((4, 2, 2)))
        fused = fuse_confidence(sim, _conf(np.full((2, 2), 0.5)))
        assert np.allclose(fused.data, 0.5 * sim.data, atol=1e-15)

    def test_magnitude_never_grows(self):
        rng = np.random.default_rng(44)
        sim = FeatureMap(rng.standard_normal((3, 4, 4)))
        conf = _conf(rng.uniform(0, 1, (4, 4)))
        fused = fuse_confidence(sim, conf)
        assert np.all(np.abs(fused.data) <= np.abs(sim.data) + 1e-15)

    def test_monotone_in_confidence(self):
        rng = np.random.default_rng(45)
        sim = FeatureMap(rng.standard_normal((3, 4, 4)))
        lo = rng.uniform(0, 0.5, (4, 4))
        hi = lo + rng.uniform(0, 0.5, (4, 4))
        fused_lo = fuse_confidence(sim, _conf(lo))
        fused_hi = fuse_confidence(sim, _conf(hi))
        assert np.all(np.abs(fused_hi.data) >= np.abs(fused_lo.data) - 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse_confidence(FeatureMap(np.ones((1, 2, 2))), _conf(np.ones((3, 3))))


class TestCalibration:
    def test_constant_field_fixed_point(self):
        field = np.tile(np.array([2.0, -1.0, 0.5])[:, None, None], (1, 3, 4))
        out = spatial_consistency_calibrate(FeatureMap(field))
        assert np.allclose(out.data, field, atol=1e-12)

    def test_orthogonal_groups_halve(self):
        # two pixels along e1, two along e2; cross terms rectified away
        data = np.zeros((2, 2, 2))
        data[0, 0, :] = 1.0  # pixels (0,0), (0,1) = e1
        data[1, 1, :] = 1.0  # pixels (1,0), (1,1) = e2
        out = spatial_consistency_calibrate(FeatureMap(data))
        assert np.array_equal(out.data[:, 0, 0], [0.5, 0.0])
        assert np.array_equal(out.data[:, 0, 1], [0.5, 0.0])
        assert np.array_equal(out.data[:, 1, 0], [0.0, 0.5])
        assert np.array_equal(out.data[:, 1, 1], [0.0, 0.5])

    def test_zero_transform_annihilates(self):
        rng = np.random.default_rng(46)
        fused = FeatureMap(rng.standard_normal((3, 2, 2)))
        zero = TwoLayerParams(
            LinearParams(np.zeros((2, 3)), np.zeros(2)),
            LinearParams(np.zeros((3, 2)), np.zeros(3)),
        )
        out = spatial_consistency_calibrate(fused, zero)
        assert np.all(out.data == 0.0)

    def test_self_term_included(self):
        # one nonzero pixel among zeros: only j = i survives
        data = np.zeros((2, 2, 2))
        data[:, 0, 0] = [3.0, 4.0]
        out = spatial_consistency_calibrate(FeatureMap(data))
        assert np.allclose(out.data[:, 0, 0], [0.75, 1.0], atol=1e-12)
        assert np.all(out.data[:, 0, 1] == 0.0)

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(47)
        fused = rng.standard_normal((3, 4, 4))
        out = spatial_consistency_calibrate(FeatureMap(fused)).data
        perm = rng.permutation(16)
        permuted_in = fused.reshape(3, 16)[:, perm].reshape(3, 4, 4)
        permuted_out = spatial_consistency_calibrate(FeatureMap(permuted_in)).data
        assert np.allclose(
            permuted_out.reshape(3, 16), out.reshape(3, 16)[:, perm], atol=1e-12
        )

    def test_antipodal_outlier_contributes_nothing(self):
        rng = np.random.default_rng(48)
        base = np.abs(rng.standard_normal((1, 2, 2))) + 0.5
        a = base.copy()
        a[0, 1, 1] = -7.0  # rectified away from every other pixel
        b = base.copy()
        b[0, 1, 1] = -3.0
        out_a = spatial_consistency_calibrate(FeatureMap(a)).data
        out_b = spatial_consistency_calibrate(FeatureMap(b)).data
        # positive pixels cannot see either outlier value
        assert np.allclose(out_a[0, 0], out_b[0, 0], atol=1e-12)
        assert out_a[0, 1, 0] == pytest.approx(out_b[0, 1, 0], abs=1e-12)
        # the outlier only averages with itself
        assert out_a[0, 1, 1] == pytest.approx(-7.0 / 4.0, abs=1e-12)

    def test_two_layer_transform_applied(self):
        field = np.tile(np.array([1.0, 1.0])[:, None, None], (1, 2, 2))
        double = TwoLayerParams(
            LinearParams(2.0 * np.eye(2), np.zeros(2)),
            LinearParams(np.eye(2), np.zeros(2)),
        )
        out = spatial_consistency_calibrate(FeatureMap(field), double)
        assert np.allclose(out.data, 2.0 * field, atol=1e-12)

    def test_rectification_inside_transform(self):
        # negative hidden activations are clipped between the layers
        field = np.tile(np.array([-1.0])[:, None, None], (1, 1, 2))
        params = TwoLayerParams(
            LinearParams(np.eye(1), np.zeros(1)),
            LinearParams(np.eye(1), np.zeros(1)),
        )
        out = spatial_consistency_calibrate(FeatureMap(field), params)
        assert np.all(out.data == 0.0)

    def test_transform_width_checked(self):
        params = TwoLayerParams(
            LinearParams(np.zeros((2, 5)), np.zeros(2)),
            LinearParams(np.zeros((1, 2)), np.zeros(1)),
        )
        with pytest.raises(ShapeMismatch):
            spatial_consistency_calibrate(FeatureMap(np.zeros((3, 2, 2))), params)

    @pytest.mark.parametrize("case", sorted(REFERENCE_MAPS))
    def test_matches_elementwise_reference(self, case):
        data, transform = REFERENCE_MAPS[case]
        got = spatial_consistency_calibrate(FeatureMap(data), transform).data
        want = _reference_calibrate(FeatureMap(data), transform)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @given(
        st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
            lambda hw: arrays(np.float64, (1, *hw), elements=_ONE_CHANNEL_VALUES)
        ),
        st.sampled_from([None, 1.0, -1.0]),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_channel_matches_reference(self, data, one_sign, head_seed):
        # one channel takes the sign-class closed form, the reference the pairwise sum
        if one_sign is not None:
            data = one_sign * np.abs(data)  # every nonzero pixel of one sign
        transform = None
        if head_seed is not None:
            rng = np.random.default_rng(head_seed)
            transform = TwoLayerParams(
                LinearParams(rng.standard_normal((4, 1)), rng.standard_normal(4)),
                LinearParams(rng.standard_normal((3, 4)), rng.standard_normal(3)),
            )
        fused = FeatureMap(data)
        got = spatial_consistency_calibrate(fused, transform).data
        want = _reference_calibrate(fused, transform)
        pixels = fused.pixel_vectors()
        target = pixels if transform is None else transform.apply(pixels)
        # relative to the largest summand: a sign class's sum may cancel to 0
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(target).max())

    def test_memory_is_linear_in_pixels(self):
        # a full HW x HW float64 table alone would be 128 MB here
        fused = FeatureMap(np.random.default_rng(50).standard_normal((8, 64, 64)))
        tracemalloc.start()
        try:
            spatial_consistency_calibrate(fused)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_layer_width_consistency_checked(self):
        with pytest.raises(ValueError, match="widths"):
            TwoLayerParams(
                LinearParams(np.zeros((2, 3)), np.zeros(2)),
                LinearParams(np.zeros((1, 5)), np.zeros(1)),
            )
