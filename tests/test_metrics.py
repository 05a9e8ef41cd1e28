import numpy as np
import pytest

from poissonprop import dsc
from poissonprop.errors import ShapeMismatch

FULL = np.ones((3, 3))
EMPTY = np.zeros((3, 3))


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

    def test_binary_enforced_on_target(self):
        with pytest.raises(ValueError, match="target must be strictly binary"):
            dsc(np.ones((2, 2)), np.full((2, 2), 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dsc(np.ones((2, 2)), np.ones((2, 3)))

