import numpy as np
import pytest

from poissonprop import (
    FeatureMap,
    SoftMask,
    assign_prototype_labels,
    local_prototype_pool,
    masked_average_pool,
    similarity_map,
)
from poissonprop.errors import ShapeMismatch


@pytest.fixture
def fmap44():
    rng = np.random.default_rng(10)
    return FeatureMap(rng.standard_normal((3, 4, 4)))


class TestLocalPool:
    def test_count_and_order(self, fmap44):
        protos = local_prototype_pool(fmap44, (2, 2))
        assert protos.shape == (4, 3)
        # row-major over the 2x2 grid: (0,0), (0,1), (1,0), (1,1)
        for cell, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            block = fmap44.data[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert np.allclose(protos[cell], block.mean(axis=(1, 2)), atol=1e-12)

    def test_full_window_is_global_mean(self, fmap44):
        (proto,) = local_prototype_pool(fmap44, (4, 4))
        assert np.allclose(proto, fmap44.data.mean(axis=(1, 2)), atol=1e-12)

    def test_constant_map_gives_identical_prototypes(self):
        fmap = FeatureMap(np.full((2, 4, 4), 3.5))
        protos = local_prototype_pool(fmap, (2, 2))
        assert np.allclose(protos, 3.5, atol=1e-12)

    def test_unit_window_reproduces_pixels(self, fmap44):
        protos = local_prototype_pool(fmap44, (1, 1))
        cells = [fmap44.data[:, i, j] for i in range(4) for j in range(4)]  # row-major
        assert np.array_equal(protos, cells)

    def test_window_too_large(self, fmap44):
        with pytest.raises(ValueError, match="tile"):
            local_prototype_pool(fmap44, (8, 2))


class TestLabeling:
    def test_all_ones_all_foreground(self):
        labels = assign_prototype_labels(SoftMask(np.ones((2, 2))))
        assert labels.dtype == np.int64
        assert np.array_equal(labels, [1, 1, 1, 1])

    def test_all_zeros_all_background(self):
        labels = assign_prototype_labels(SoftMask(np.zeros((2, 2))))
        assert np.array_equal(labels, [0, 0, 0, 0])

    def test_row_major_order(self):
        grid = np.array([[0.9, 0.1, 0.2], [0.0, 0.7, 0.6]])
        labels = assign_prototype_labels(SoftMask(grid))
        assert np.array_equal(labels, [1, 0, 0, 0, 1, 1])

    def test_threshold_is_inclusive(self):
        labels = assign_prototype_labels(SoftMask(np.array([[0.5]])))
        assert np.array_equal(labels, [1])

    def test_originals_untouched(self):
        grid = SoftMask(np.array([[0.2, 0.8], [0.5, 0.0]]))
        labels = assign_prototype_labels(grid)
        labels[:] = 7
        assert np.array_equal(grid.data, [[0.2, 0.8], [0.5, 0.0]])


class TestMaskedAveragePool:
    def test_uniform_mask_is_global_mean(self, fmap44):
        proto = masked_average_pool(fmap44, SoftMask(np.ones((4, 4))))
        assert proto.shape == (3,)
        assert np.allclose(proto, fmap44.data.mean(axis=(1, 2)), atol=1e-12)

    def test_one_hot_mask_selects_pixel(self, fmap44):
        mask = np.zeros((4, 4))
        mask[1, 2] = 1.0
        proto = masked_average_pool(fmap44, SoftMask(mask))
        assert np.allclose(proto, fmap44.data[:, 1, 2], atol=1e-12)

    def test_zero_mask_degenerate(self, fmap44):
        # an empty foreground pools to the zero vector, +0.0 in every channel
        proto = masked_average_pool(fmap44, SoftMask(np.zeros((4, 4))))
        assert proto.shape == (3,)
        assert np.array_equal(proto, np.zeros(3)) and not np.signbit(proto).any()

    @pytest.mark.parametrize("channels", [1, 256])
    def test_zero_mask_pools_to_zero_at_any_width(self, channels):
        # the zero vector is returned, not a product with the map: entries
        # of 1e300 leave no trace
        data = np.full((channels, 3, 5), 1e300)
        proto = masked_average_pool(FeatureMap(data), SoftMask(np.zeros((3, 5))))
        assert proto.tobytes() == np.zeros(channels).tobytes()

    def test_tiny_positive_total_still_pools(self, fmap44):
        # only a total of exactly 0 is empty: a one-pixel mask of 1e-300
        # selects that pixel as a mask of 1 does
        mask = np.zeros((4, 4))
        mask[2, 1] = 1e-300
        proto = masked_average_pool(fmap44, SoftMask(mask))
        assert np.allclose(proto, fmap44.data[:, 2, 1], rtol=1e-12, atol=0.0)

    def test_zero_prototype_has_zero_similarity(self, fmap44):
        proto = masked_average_pool(fmap44, SoftMask(np.zeros((4, 4))))
        sim = similarity_map(fmap44, proto)
        assert sim.data.shape == (1, 4, 4)
        assert sim.data.tobytes() == np.zeros((1, 4, 4)).tobytes()

    def test_mask_dims_must_match(self, fmap44):
        with pytest.raises(ShapeMismatch):
            masked_average_pool(fmap44, SoftMask(np.ones((2, 2))))

    def test_rescale_invariance(self, fmap44):
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.1, 1.0, (4, 4))
        a = masked_average_pool(fmap44, SoftMask(weights))
        b = masked_average_pool(fmap44, SoftMask(weights * 0.125))
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("channels", [1, 8, 256])
    def test_matches_broadcast_reference(self, channels):
        rng = np.random.default_rng(channels)
        data = rng.standard_normal((channels, 6, 5))
        data[:, 0, :] = 0.0  # zero-norm pixels
        weights = rng.uniform(0.0, 1.0, (6, 5))
        weights[:, 0] = 0.0
        got = masked_average_pool(FeatureMap(data), SoftMask(weights))
        # the route the matrix-vector product replaced: a C x H x W weighted copy
        want = (data * weights[None, :, :]).sum(axis=(1, 2)) / weights.sum()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(data).max()

    def test_output_in_convex_hull(self, fmap44):
        rng = np.random.default_rng(12)
        weights = rng.uniform(0.0, 1.0, (4, 4))
        proto = masked_average_pool(fmap44, SoftMask(weights))
        lo = fmap44.data.min(axis=(1, 2))
        hi = fmap44.data.max(axis=(1, 2))
        assert np.all(proto >= lo - 1e-12)
        assert np.all(proto <= hi + 1e-12)
