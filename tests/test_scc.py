import tracemalloc
import warnings

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


def _reference_unit_rows(rows):
    """Each row over its norm, through a boolean-masked copy; zero below 1e-12."""
    norms = np.linalg.norm(rows, axis=1)
    unit = np.zeros_like(rows)
    ok = norms >= ZERO_NORM_EPS
    unit[ok] = rows[ok] / norms[ok, None]
    return unit


def _pixel_rows(fmap):
    """The map's pixel vectors as (H*W, C) rows, row-major."""
    return fmap.data.reshape(fmap.channels, -1).T


def _reference_transform(transform, rows):
    """The two-layer transform of (n, C_in) rows, from its weights and biases."""
    hidden = np.maximum(rows @ transform.first.weight.T + transform.first.bias, 0.0)
    return hidden @ transform.second.weight.T + transform.second.bias


def _reference_similarity(query, proto, params=None):
    """The routes the closed forms replaced: unit pixel rows times the unit
    prototype, or each concatenated (pixel, prototype) row through the layer."""
    c, h, w = query.data.shape
    pixels = _pixel_rows(query)
    if params is None:
        sims = _reference_unit_rows(pixels) @ _reference_unit_rows(proto[None, :])[0]
        return np.clip(sims, -1.0, 1.0).reshape(1, h, w)
    stacked = np.concatenate([pixels, np.broadcast_to(proto, pixels.shape)], axis=1)
    return (stacked @ params.weight.T + params.bias).T.reshape(-1, h, w)


def _reference_calibrate(fused, transform=None):
    """Elementwise calibration kernel, the route the blocked GEMM replaced."""
    c, h, w = fused.data.shape
    pixels = _pixel_rows(fused)
    unit = _reference_unit_rows(pixels)
    target = pixels if transform is None else _reference_transform(transform, pixels)
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
    maps = {
        "c1-20x20-ragged": (rng.standard_normal((1, 20, 20)), None),
        "c1-64x64": (rng.standard_normal((1, 64, 64)), None),
        "c8-zero-norm": (zeros, None),
        "c64-two-layer": (rng.standard_normal((64, 16, 16)), head),
    }
    # 130 pixels: column blocks of 64, 64 and 2
    ragged = rng.standard_normal((8, 10, 13))
    narrow = TwoLayerParams(
        LinearParams(rng.standard_normal((16, 8)) / 3, rng.standard_normal(16)),
        LinearParams(rng.standard_normal((5, 16)) / 4, rng.standard_normal(5)),
    )
    maps["c8-10x13-ragged"] = (ragged, None)
    maps["c8-10x13-ragged-two-layer"] = (ragged, narrow)
    return maps


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

    @pytest.mark.parametrize("head", [False, True], ids=["cosine", "head"])
    @pytest.mark.parametrize("proto_kind", ["random", "zero"])
    @pytest.mark.parametrize("channels", [1, 8, 256])
    def test_matches_elementwise_reference(self, channels, proto_kind, head):
        rng = np.random.default_rng(channels)
        data = rng.standard_normal((channels, 6, 5))
        data[:, 0, :] = 0.0  # zero-norm pixels
        data[:, 1, 0] = 1e-13 / np.sqrt(channels)  # norm below the threshold
        proto = rng.standard_normal(channels) if proto_kind == "random" else np.zeros(channels)
        params = None
        if head:
            params = LinearParams(rng.standard_normal((4, 2 * channels)), rng.standard_normal(4))
        got = similarity_map(FeatureMap(data), proto, params).data
        want = _reference_similarity(FeatureMap(data), proto, params)
        # relative to the largest output: a zero prototype's cosines must be exactly 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if not head:
            assert np.all(got[0, 0, :] == 0.0) and got[0, 1, 0] == 0.0

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

    @pytest.mark.parametrize("head", [False, True], ids=["identity", "two-layer"])
    def test_zero_norm_pixels_neither_give_nor_take(self, head):
        # 15 x 14 = 210 pixels, not a multiple of 64; about a third have norm
        # below 1e-12, so some 140 live pixels make three blocks and their pairs
        rng = np.random.default_rng(51)
        data = rng.standard_normal((6, 15, 14))
        dead = rng.random((15, 14)) < 1 / 3
        data[:, dead] = 0.0
        tiny = np.argwhere(dead)[::2]
        data[:, tiny[:, 0], tiny[:, 1]] = 3e-13  # norm 7.3e-13, below the threshold
        assert 128 < (~dead).sum() < 210
        transform = None
        if head:
            transform = TwoLayerParams(
                LinearParams(rng.standard_normal((9, 6)), rng.standard_normal(9)),
                LinearParams(rng.standard_normal((4, 9)), rng.standard_normal(4)),
            )
        got = spatial_consistency_calibrate(FeatureMap(data), transform).data
        want = _reference_calibrate(FeatureMap(data), transform)
        assert np.all(got[:, dead] == 0.0) and not np.signbit(got[:, dead]).any()
        assert np.allclose(got[:, ~dead], want[:, ~dead], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("head", [False, True], ids=["identity", "two-layer"])
    def test_all_zero_map_gives_zeros(self, head):
        transform = None
        if head:  # a bias would give every pixel a nonzero target
            transform = TwoLayerParams(
                LinearParams(np.ones((2, 3)), np.ones(2)),
                LinearParams(np.ones((5, 2)), np.ones(5)),
            )
        out = spatial_consistency_calibrate(FeatureMap(np.zeros((3, 9, 8))), transform)
        assert out.data.shape == (3 if transform is None else 5, 9, 8)
        assert np.all(out.data == 0.0) and not np.signbit(out.data).any()

    def test_single_live_pixel(self):
        # the one live pixel averages only with itself, over all 130 pixels
        data = np.zeros((3, 10, 13))
        data[:, 7, 11] = [1.0, -2.0, 2.0]
        out = spatial_consistency_calibrate(FeatureMap(data)).data
        want = np.zeros_like(data)
        want[:, 7, 11] = data[:, 7, 11] / 130
        assert np.allclose(out, want, rtol=1e-15, atol=0.0)
        assert np.count_nonzero(out) == 3

    def test_entries_past_square_overflow(self):
        # 1e155 squared overflows; the norm is measured again scaled by its largest entry
        fused = FeatureMap(np.full((4, 1, 2), 1e155))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = similarity_map(fused, np.ones(4))
            out = spatial_consistency_calibrate(fused)
        assert np.allclose(sim.data, 1.0, rtol=1e-15, atol=0.0)
        assert np.allclose(out.data, fused.data, rtol=1e-15, atol=0.0)

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
        pixels = _pixel_rows(fused)
        target = pixels if transform is None else _reference_transform(transform, pixels)
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
