"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _util import _reference_knn, cosine
from poissonprop import (
    FeatureMap,
    SoftMask,
    avg_pool,
    downsample_mask,
    dsc,
    masked_average_pool,
)
from poissonprop.graph import _knn

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0, allow_nan=False)

# 1e6 and -(1e6 - ulp) in one 2x2 window: the pooled result is about 0, while the
# summands' rounding is about 1e-9, so the tolerance scales with the summands
_CANCELLING = np.zeros((2, 4, 4))
_CANCELLING[0, 2:, 0] = 1e6, -np.nextafter(1e6, 0)


@given(
    arrays(np.float64, (2, 4, 4), elements=finite),
    arrays(np.float64, (2, 4, 4), elements=finite),
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
)
@settings(max_examples=50)
@example(f=np.zeros((2, 4, 4)), g=_CANCELLING, a=0.0, b=35.35525371680246)
def test_avg_pool_linearity(f, g, a, b):
    lhs = avg_pool(FeatureMap(a * f + b * g), (2, 2)).data
    rhs = a * avg_pool(FeatureMap(f), (2, 2)).data + b * avg_pool(FeatureMap(g), (2, 2)).data
    scale = max(1.0, abs(a) * np.abs(f).max() + abs(b) * np.abs(g).max())
    assert np.allclose(lhs, rhs, atol=1e-9 * scale)


@given(
    arrays(np.float64, (5,), elements=st.floats(-1e3, 1e3, allow_nan=False)),
    arrays(np.float64, (5,), elements=st.floats(-1e3, 1e3, allow_nan=False)),
    st.floats(1e-3, 1e3),
)
@settings(max_examples=100)
def test_cosine_scale_invariance(u, v, c):
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return  # the zero-norm convention legitimately breaks scaling here
    assert abs(cosine(c * u, v) - cosine(u, v)) < 1e-12


@given(
    arrays(np.float64, (5,), elements=st.floats(-1e3, 1e3, allow_nan=False)),
    arrays(np.float64, (5,), elements=st.floats(-1e3, 1e3, allow_nan=False)),
)
@settings(max_examples=100)
def test_cosine_bounded_and_symmetric(u, v):
    s = cosine(u, v)
    assert -1.0 <= s <= 1.0
    assert cosine(v, u) == s


@given(arrays(np.float64, (6, 8), elements=unit))
@settings(max_examples=50)
def test_downsample_preserves_mean_on_even_grids(mask):
    out = downsample_mask(SoftMask(mask), (2, 2))
    assert abs(out.data.mean() - mask.mean()) < 1e-12


@given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=50)
def test_downsample_range(wh, ww, gh, gw, data):
    mask = data.draw(arrays(np.float64, (wh * gh, ww * gw), elements=unit))
    out = downsample_mask(SoftMask(mask), (wh, ww))
    assert out.data.shape == (gh, gw)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


@given(
    arrays(np.float64, (4, 4), elements=st.sampled_from([0.0, 1.0])),
    arrays(np.float64, (4, 4), elements=st.sampled_from([0.0, 1.0])),
)
@settings(max_examples=100)
def test_dsc_symmetric_bounded(a, b):
    s = dsc(a, b)
    assert 0.0 <= s <= 1.0
    assert dsc(b, a) == s


@given(
    arrays(np.float64, (3, 4, 4), elements=finite),
    arrays(np.float64, (4, 4), elements=st.floats(0.0, 1.0, allow_nan=False)),
)
@settings(max_examples=50)
def test_masked_pool_scale_invariant(fmap, weights):
    if weights.sum() < 1e-6:  # subnormal weights halve to an empty mask
        return
    a = masked_average_pool(FeatureMap(fmap), SoftMask(weights))
    b = masked_average_pool(FeatureMap(fmap), SoftMask(weights * 0.5))
    scale = max(1.0, np.abs(a).max())
    assert np.allclose(a, b, atol=1e-9 * scale)


@st.composite
def lattice_points(draw):
    n = draw(st.integers(2, 300))
    c = draw(st.integers(1, 8))
    pts = draw(arrays(np.float64, (n, c), elements=st.integers(-3, 3).map(float)))
    return pts, draw(st.integers(1, n - 1))


@given(lattice_points())
# derandomized, as the episode fuzz: integer lattices tie exact distances
# at the K-th neighbour, where a screen that drops a candidate shows
@settings(max_examples=60, deadline=None, derandomize=True)
def test_knn_matches_reference_on_lattices(case):
    points, k = case
    neighbors, sq_dists = _knn(points, k)
    ref_neighbors, ref_sq_dists = _reference_knn(points, k)
    assert neighbors.tobytes() == ref_neighbors.tobytes()
    assert sq_dists.tobytes() == ref_sq_dists.tobytes()
