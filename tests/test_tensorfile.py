import numpy as np
import pytest

from poissonprop import Tensor, load_tensor, save_tensor
from poissonprop.errors import BadMagic, TruncatedPayload, UnknownDtype
from poissonprop.tensorfile import DTYPE_F32, DTYPE_F64, DTYPE_U8, MAGIC


class TestRoundTrip:
    def test_float64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        data = rng.standard_normal((3, 5, 2))
        path = tmp_path / "t.t"
        save_tensor(path, data)
        back = load_tensor(path)
        assert back.data.shape == (3, 5, 2)
        assert np.array_equal(back.data, data)
        assert back.data.dtype == np.float64

    def test_float32_widened(self, tmp_path):
        data = np.array([1.5, -2.25, 0.125])
        path = tmp_path / "t.t"
        save_tensor(path, data, DTYPE_F32)
        back = load_tensor(path)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, data)  # representable exactly in f32

    def test_uint8_round_trip(self, tmp_path):
        data = np.array([[0.0, 1.0], [255.0, 7.0]])
        path = tmp_path / "t.t"
        save_tensor(path, data, DTYPE_U8)
        assert np.array_equal(load_tensor(path).data, data)

    def test_uint8_rejects_fractional(self, tmp_path):
        with pytest.raises(ValueError, match="integral"):
            save_tensor(tmp_path / "t.t", np.array([0.5]), DTYPE_U8)

    def test_uint8_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensor(tmp_path / "t.t", np.array([256.0]), DTYPE_U8)

    def test_rank_one_and_high_rank(self, tmp_path):
        for shape in [(4,), (2, 2, 2, 2)]:
            data = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
            path = tmp_path / "t.t"
            save_tensor(path, data)
            assert load_tensor(path).data.shape == shape

    def test_save_accepts_tensor_object(self, tmp_path):
        t = Tensor(np.ones((2, 2)))
        path = tmp_path / "t.t"
        save_tensor(path, t)
        assert np.array_equal(load_tensor(path).data, t.data)


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.t"
        path.write_bytes(b"NOTMAGIC" + bytes(10))
        with pytest.raises(BadMagic):
            load_tensor(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.t"
        path.write_bytes(b"")
        with pytest.raises(BadMagic):
            load_tensor(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "odd.t"
        path.write_bytes(MAGIC + bytes([9, 1]) + (1).to_bytes(4, "little") + bytes(8))
        with pytest.raises(UnknownDtype):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "good.t"
        save_tensor(good, np.arange(6.0).reshape(2, 3))
        blob = good.read_bytes()
        bad = tmp_path / "short.t"
        bad.write_bytes(blob[:-8])  # one element short
        with pytest.raises(TruncatedPayload):
            load_tensor(bad)

    def test_oversized_payload(self, tmp_path):
        good = tmp_path / "good.t"
        save_tensor(good, np.arange(6.0).reshape(2, 3))
        bad = tmp_path / "long.t"
        bad.write_bytes(good.read_bytes() + bytes(4))
        with pytest.raises(TruncatedPayload):
            load_tensor(bad)

    def test_element_count_does_not_wrap(self, tmp_path):
        # 2**31 * 2**31 * 4 is 0 in wrapping int64 arithmetic, the size of no payload
        path = tmp_path / "wrap.t"
        dims = b"".join(d.to_bytes(4, "little") for d in (2**31, 2**31, 4))
        path.write_bytes(MAGIC + bytes([2, 3]) + dims)
        with pytest.raises(TruncatedPayload, match="payload is 0 bytes"):
            load_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.t"
        path.write_bytes(MAGIC + bytes([2, 3]) + (2).to_bytes(4, "little"))
        with pytest.raises(TruncatedPayload):
            load_tensor(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "zero.t"
        path.write_bytes(MAGIC + bytes([2, 1]) + (0).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="positive"):
            load_tensor(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.t"
        payload = np.array([np.nan]).tobytes()
        path.write_bytes(MAGIC + bytes([2, 1]) + (1).to_bytes(4, "little") + payload)
        with pytest.raises(ValueError, match="NaN"):
            load_tensor(path)

    def test_unknown_save_dtype(self, tmp_path):
        with pytest.raises(UnknownDtype):
            save_tensor(tmp_path / "t.t", np.ones(2), 7)
