import numpy as np
import pytest

from poissonprop import dice_loss, dsc
from poissonprop.errors import DimensionMismatch

FULL = np.ones((3, 3))
EMPTY = np.zeros((3, 3))


class TestDiceLoss:
    def test_identical_masks(self):
        assert dice_loss(FULL, FULL) == pytest.approx(0.0, abs=1e-12)

    def test_both_empty(self):
        assert dice_loss(EMPTY, EMPTY) == 0.0

    def test_disjoint(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        b = np.zeros((2, 2))
        b[1, 1] = 1.0
        eps = 1e-6
        assert dice_loss(a, b, eps) == pytest.approx(1.0 - eps / (2.0 + eps), abs=1e-15)

    def test_soft_inputs(self):
        x = np.full((2, 2), 0.5)
        y = np.ones((2, 2))
        # intersection 2, cardinality 6
        assert dice_loss(x, y, 1e-12) == pytest.approx(1.0 - 4.0 / 6.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dice_loss(np.ones((2, 2)), np.ones((3, 3)))

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            dice_loss(FULL, FULL, 0.0)

    @pytest.mark.parametrize("pred, eps", [(FULL, np.nan), (np.zeros_like(FULL), np.inf)])
    def test_non_finite_eps_rejected(self, pred, eps):
        # a NaN or infinite eps would return NaN rather than a loss
        with pytest.raises(ValueError, match="positive and finite"):
            dice_loss(pred, FULL, eps)

    def test_range(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            x = rng.uniform(0, 1, (4, 4))
            y = rng.uniform(0, 1, (4, 4))
            assert 0.0 <= dice_loss(x, y) <= 1.0


class TestDsc:
    def test_identical_nonempty(self):
        assert dsc(FULL, FULL) == 1.0

    def test_disjoint(self):
        a = np.eye(2)
        b = 1.0 - np.eye(2)
        assert dsc(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert dsc(a, b) == 0.5

    def test_empty_vs_empty_scores_one(self):
        assert dsc(EMPTY, EMPTY) == 1.0

    def test_empty_vs_full(self):
        assert dsc(EMPTY, FULL) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            a = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(float)
            b = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(float)
            assert dsc(a, b) == dsc(b, a)

    def test_binary_enforced(self):
        with pytest.raises(ValueError, match="binary"):
            dsc(np.full((2, 2), 0.5), np.ones((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dsc(np.ones((2, 2)), np.ones((2, 3)))

    def test_loss_consistency_at_tiny_eps(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            a = (rng.uniform(0, 1, (6, 6)) > 0.4).astype(float)
            b = (rng.uniform(0, 1, (6, 6)) > 0.6).astype(float)
            assert dice_loss(a, b, 1e-12) == pytest.approx(1.0 - dsc(a, b), abs=1e-9)
