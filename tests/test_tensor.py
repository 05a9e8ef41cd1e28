import struct
import warnings

import numpy as np
import pytest

from _util import cosine
from poissonprop import (
    ConfidenceMap,
    FeatureMap,
    LinearParams,
    SoftMask,
    Tensor,
    VertexSet,
    avg_pool,
    build_weight_graph,
    dice_loss,
    downsample_mask,
    dsc,
    load_tensor,
)
from poissonprop.errors import ShapeMismatch
from poissonprop.tensor import _norms
from poissonprop.tensorfile import DTYPE_F64, MAGIC


def _loop_avg_pool(data, window):
    """Reference: one mean per window, visited in a double loop."""
    wh, ww = window
    c, h, w = data.shape
    oh = h // wh
    ow = w // ww
    out = np.empty((c, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            block = data[:, i * wh : (i + 1) * wh, j * ww : (j + 1) * ww]
            out[:, i, j] = block.mean(axis=(1, 2))
    return out


class TestContainers:
    def test_tensor_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Tensor(np.array([1.0, np.nan]))

    def test_tensor_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor(np.array([[np.inf]]))

    def test_tensor_dims(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.data.shape == (2, 3, 4)

    def test_feature_map_requires_rank3(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((4, 4)))

    def test_mask_range_enforced(self):
        with pytest.raises(ValueError):
            SoftMask(np.array([[0.5, 1.2]]))
        with pytest.raises(ValueError):
            SoftMask(np.array([[-0.1, 0.0]]))

    def test_zero_size_rejected(self):
        # a (0, H, W) map made every vertex the same empty point and the
        # episode an all-foreground mask; an empty mask is as meaningless
        with pytest.raises(ValueError, match="dims must be positive"):
            FeatureMap(np.zeros((0, 8, 8)))
        with pytest.raises(ValueError, match="dims must be positive"):
            SoftMask(np.zeros((0, 4)))

    def test_data_widened_to_float64(self):
        fmap = FeatureMap(np.zeros((1, 2, 2), dtype=np.float32))
        assert fmap.data.dtype == np.float64


def _load_written(values, tmp_path):
    """``load_tensor`` of a float64 file holding ``values``, whatever its dims."""
    arr = np.asarray(values, dtype="<f8")
    path = tmp_path / "t.t"
    header = MAGIC + struct.pack(f"<BB{arr.ndim}I", DTYPE_F64, arr.ndim, *arr.shape)
    path.write_bytes(header + arr.tobytes())
    return load_tensor(path)


_ONES = np.ones((2, 2))

# every entry point of the one array rule: (name in the message, rank or None for any, call)
_ARRAY_INPUTS = {
    "Tensor": ("tensor data", None, lambda v, _: Tensor(v)),
    "FeatureMap": ("feature map", 3, lambda v, _: FeatureMap(v)),
    "SoftMask": ("mask", 2, lambda v, _: SoftMask(v)),
    "ConfidenceMap": ("confidence map", 2, lambda v, _: ConfidenceMap(v)),
    "build_weight_graph": ("points", 2, lambda v, _: build_weight_graph(v, 1)),
    "VertexSet": ("points", 2, lambda v, _: VertexSet(v, [0], 0)),
    "dsc-pred": ("pred", 2, lambda v, _: dsc(v, _ONES)),
    "dsc-target": ("target", 2, lambda v, _: dsc(_ONES, v)),
    "dice_loss-pred": ("pred", 2, lambda v, _: dice_loss(v, _ONES)),
    "dice_loss-target": ("target", 2, lambda v, _: dice_loss(_ONES, v)),
    "LinearParams": ("weight", 2, lambda v, _: LinearParams(v, None)),
    "load_tensor": ("tensor data", None, _load_written),
}


def _rule_cases():
    """(entry, values, message) for a wrong rank, an empty array and a NaN."""
    for entry, (name, rank, _) in _ARRAY_INPUTS.items():
        r = rank or 2
        if rank is not None:  # all NaN too: rank comes first
            low = (2,) * (r - 1)
            yield pytest.param(entry, np.full(low, np.nan),
                               f"{name} must be rank {rank}, got shape {low}", id=f"{entry}-rank")
        empty = (2,) * (r - 1) + (0,)
        yield pytest.param(entry, np.zeros(empty),
                           f"{name} dims must be positive, got {empty}", id=f"{entry}-empty")
        nan = np.full((2,) * r, 0.5)
        nan.flat[-1] = np.nan
        yield pytest.param(entry, nan, f"{name} contains NaN or Inf", id=f"{entry}-nan")


@pytest.mark.parametrize("entry, values, message", _rule_cases())
def test_one_array_rule(tmp_path, entry, values, message):
    # a rank, then emptiness, then finiteness, in the same words everywhere;
    # a tensor file's error also names the file
    if entry == "load_tensor":
        message = f"{tmp_path / 't.t'}: {message}"
    with pytest.raises(ValueError) as info:
        _ARRAY_INPUTS[entry][2](values, tmp_path)
    assert str(info.value) == message


class TestAvgPool:
    def test_two_by_two_mean(self):
        fmap = FeatureMap([[[1.0, 2.0], [3.0, 4.0]]])
        out = avg_pool(fmap, (2, 2))
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 2.5

    def test_unit_window_is_identity(self):
        rng = np.random.default_rng(0)
        fmap = FeatureMap(rng.standard_normal((3, 4, 5)))
        out = avg_pool(fmap, (1, 1))
        assert np.array_equal(out.data, fmap.data)

    def test_constant_map_stays_constant(self):
        fmap = FeatureMap(np.full((2, 6, 6), 7.25))
        out = avg_pool(fmap, (3, 2))
        assert np.allclose(out.data, 7.25, atol=1e-12)

    def test_full_window_is_global_mean(self):
        rng = np.random.default_rng(1)
        fmap = FeatureMap(rng.standard_normal((4, 6, 8)))
        out = avg_pool(fmap, (6, 8))
        expected = fmap.data.mean(axis=(1, 2))
        assert np.allclose(out.data[:, 0, 0], expected, atol=1e-12)

    def test_window_too_large(self):
        fmap = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="tile"):
            avg_pool(fmap, (5, 2))
        with pytest.raises(ValueError, match="tile"):
            avg_pool(fmap, (2, 5))

    def test_partial_windows_rejected(self):
        fmap = FeatureMap(np.zeros((1, 5, 4)))
        with pytest.raises(ValueError, match="tile"):
            avg_pool(fmap, (2, 2))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((2, 4, 4))
        g = rng.standard_normal((2, 4, 4))
        a, b = 1.7, -0.35
        lhs = avg_pool(FeatureMap(a * f + b * g), (2, 2)).data
        rhs = a * avg_pool(FeatureMap(f), (2, 2)).data + b * avg_pool(FeatureMap(g), (2, 2)).data
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_bytes_match_loop_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            c = int(rng.integers(1, 6))
            window = tuple(int(v) for v in rng.integers(1, 6, 2))
            cells = rng.integers(1, 7, 2)
            h, w = (cells * window).tolist()
            data = rng.standard_normal((c, h, w)) * 10.0 ** rng.uniform(-3, 6)
            out = avg_pool(FeatureMap(data), window).data
            ref = _loop_avg_pool(data, window)
            assert out.tobytes() == ref.tobytes(), (c, h, w, window)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_antipodal(self):
        v = np.array([0.5, -1.5])
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0
        assert cosine([1e-13, 0.0], [1.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cosine([1.0], [1.0, 2.0])

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        base = cosine(u, v)
        for c in (1e-3, 7.0, 1e4):
            assert cosine(c * u, v) == pytest.approx(base, abs=1e-12)


class TestNorms:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_ordinary_inputs_keep_their_bits(self, axis):
        data = np.random.default_rng(4).standard_normal((7, 9)) * 1e150
        want = np.linalg.norm(data, axis=axis)
        assert _norms(data, axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_squares_past_overflow_measured_scaled(self, axis):
        # 1e155 squared is inf; only that vector is measured again
        data = np.array([[1e155, 3.0, 0.0], [-1e155, 4.0, 1e-13]])
        data = data if axis == 0 else data.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _norms(data, axis)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e155, rel=1e-15)
        assert norms[1:].tolist() == [5.0, 0.0]


class TestDownsample:
    def test_all_ones_preserved(self):
        out = downsample_mask(SoftMask(np.ones((4, 4))), (2, 2))
        assert np.array_equal(out.data, np.ones((2, 2)))

    def test_quarter_mean(self):
        mask = SoftMask(np.array([[1.0, 0.0], [0.0, 0.0]]))
        out = downsample_mask(mask, (2, 2))
        assert out.data[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_identity_target(self):
        rng = np.random.default_rng(4)
        mask = SoftMask(rng.uniform(0, 1, (3, 5)))
        out = downsample_mask(mask, (1, 1))
        assert np.array_equal(out.data, mask.data)

    def test_mean_preserved_on_even_division(self):
        rng = np.random.default_rng(5)
        mask = SoftMask(rng.uniform(0, 1, (8, 12)))
        out = downsample_mask(mask, (2, 4))
        assert out.data.mean() == pytest.approx(mask.data.mean(), abs=1e-12)

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(6)
        mask = SoftMask(rng.uniform(0, 1, (7, 9)))
        out = downsample_mask(mask, (7, 3))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_bytes_match_loop_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            window = tuple(int(v) for v in rng.integers(1, 9, 2))
            h, w = (rng.integers(1, 6, 2) * window).tolist()
            data = rng.uniform(0, 1, (h, w))
            out = downsample_mask(SoftMask(data), window).data
            assert out.tobytes() == _loop_avg_pool(data[None], window)[0].tobytes(), (h, w, window)

    def test_window_must_tile(self):
        mask = SoftMask(np.zeros((4, 6)))
        with pytest.raises(ValueError, match="tile"):
            downsample_mask(mask, (5, 2))
        with pytest.raises(ValueError, match="tile"):
            downsample_mask(mask, (3, 2))
