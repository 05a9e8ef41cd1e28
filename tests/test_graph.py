import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from _util import _reference_knn, _reference_sq_dists
from poissonprop import (
    VertexSet,
    build_weight_graph,
    from_triplets,
    graph,
    laplacian_apply,
    to_triplets,
)
from poissonprop.errors import KTooLarge, ShapeMismatch
from poissonprop.graph import DISTANCE_FLOOR, WeightedGraph, _knn, component_count

LINE = np.array([[0.0], [1.0], [3.0]])


def _reference_triplets(points, k):
    """The weight graph from the full table and a stable full argsort."""
    n = points.shape[0]
    d2 = _reference_sq_dists(points)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    dk = np.sqrt(d2[np.arange(n), neighbors[:, -1]])
    dk2 = np.maximum(dk, DISTANCE_FLOOR) ** 2
    rows = np.repeat(np.arange(n), k)
    cols = neighbors.ravel()
    vals = np.exp(-4.0 * d2[rows, cols] / dk2[rows])
    raw = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return to_triplets(WeightedGraph((raw + raw.T) * 0.5))


def _group_clusters(rng, groups, k):
    """8 * groups points: members c, c + groups, ..., c + k * groups of each
    column group c sit in a tight cluster, the group's other members far off."""
    n = 8 * groups
    centres = 100.0 * rng.standard_normal((groups, 4))
    points = 1e3 * rng.standard_normal((n, 4))
    members = np.arange((k + 1) * groups)
    points[members] = centres[members % groups] + 1e-3 * rng.standard_normal((members.size, 4))
    return points


def _screen_corpus():
    """Cases aimed at the screen's row bound: the K-th smallest minimum over
    the column groups j mod m, m = max(K, ceil(n / 8))."""
    rng = np.random.default_rng(31)
    lattice = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)), -1).reshape(-1, 2)
    gauss = {c: rng.standard_normal((150, c)) for c in (1, 8, 256)}
    return {
        "one-group-clusters": (_group_clusters(rng, groups=20, k=5), 5),
        "n-k-plus-2": (rng.standard_normal((12, 3)), 10),  # m clamped to K
        "n-8m-minus-1": (rng.standard_normal((159, 4)), 10),  # a short last group
        "n-8m-plus-1": (rng.standard_normal((161, 4)), 10),
        # the far point's nearest tie exactly and its screen error grows with its
        # own norm: fails with a zero margin, or without the row bound's widening
        "far-row-ties": (np.vstack([lattice - 4.0, [[1e9, 0.0]]]), 3),
        # row 2's three neighbours tie, and the margin folded into the GEMM lowers
        # the far column 3 most: fails unless the row bound adds the largest margin
        "folded-margin-ties": (np.array([[0.0], [0.0], [-1.0], [-2.0]]), 1),
        # at 1e-161 squared distances are float64 subnormals, and the screen's slack
        # for the recompute's underflow decides (without it these fail); at 1e-300
        # they underflow to 0, every pair must survive and no margin may overflow
        **{
            f"gauss-c{c}-scale-{scale:.0e}": (scale * gauss[c], 10)
            for c in (1, 8, 256)
            for scale in (1e-300, 1e-161, 1e-30, 1.0, 1e15)
        },
        # squared distances span 1e-50 to 1e30, more than float32's range
        "tight-cluster-far-outlier": (
            np.vstack([1e-25 * rng.standard_normal((100, 4)), [[1e15, 0.0, 0.0, 0.0]]]),
            10,
        ),
    }


def _equivalence_corpus():
    rng = np.random.default_rng(30)
    lattice = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)), -1).reshape(-1, 2)
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    return {
        "gauss-c1": (rng.standard_normal((150, 1)), 10),
        "gauss-c8": (rng.standard_normal((150, 8)), 10),
        "gauss-c256": (rng.standard_normal((150, 256)), 10),
        "all-duplicates": (np.full((70, 3), 0.25), 5),
        "repeated-rows": (np.tile(rng.standard_normal((20, 4)), (5, 1)), 6),
        "ties-at-kth": (lattice, 4),
        # equal exact distances that round apart
        "rounded-ties": (lattice @ turn.T + 1e3, 8),
        "offset-1e6": (rng.standard_normal((150, 8)) + 1e6, 10),
        "ragged-blocks": (rng.standard_normal((64 * 3 + 1, 5)), 7),
        "k-n-minus-1": (rng.standard_normal((40, 3)), 39),
        "far-outlier": (np.vstack([rng.standard_normal((80, 4)), [[1e7, 0, 0, 0]]]), 5),
        **_screen_corpus(),
    }


EQUIVALENCE_CORPUS = _equivalence_corpus()


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CORPUS))
class TestExactKnnEquivalence:
    def test_triplets_byte_equal(self, case):
        points, k = EQUIVALENCE_CORPUS[case]
        got = to_triplets(build_weight_graph(points, k))
        assert got.tobytes() == _reference_triplets(points, k).tobytes()

    def test_knn_distances_byte_equal(self, case):
        points, k = EQUIVALENCE_CORPUS[case]
        neighbors, sq_dists = _knn(points, k)
        ref_neighbors, ref_sq_dists = _reference_knn(points, k)
        assert neighbors.tobytes() == ref_neighbors.tobytes()
        assert sq_dists.tobytes() == ref_sq_dists.tobytes()

    @pytest.mark.parametrize(
        "rows, survivors",
        [(1, 1), (3, 5)],
        ids=["1-row-blocks-1-survivor-chunks", "3-row-blocks-5-survivor-chunks"],
    )
    def test_knn_byte_equal_across_block_and_chunk_edges(self, case, rows, survivors, monkeypatch):
        # at the default sizes no corpus case (n <= 193) spans more than four blocks,
        # and only the C = 256 cases more than one chunk
        points, k = EQUIVALENCE_CORPUS[case]
        monkeypatch.setattr(graph, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(graph, "_SCREEN_ELEMENTS", 0)
        monkeypatch.setattr(graph, "_CHUNK_ELEMENTS", survivors * points.shape[1])
        neighbors, sq_dists = _knn(points, k)
        ref_neighbors, ref_sq_dists = _reference_knn(points, k)
        assert neighbors.tobytes() == ref_neighbors.tobytes()
        assert sq_dists.tobytes() == ref_sq_dists.tobytes()


def test_graph_build_memory_is_linear():
    # a full n x n float64 table alone would be 128 MB here
    points = np.random.default_rng(32).standard_normal((4096, 8))
    tracemalloc.start()
    try:
        build_weight_graph(points, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_graph_build_memory_on_duplicate_points():
    # every duplicate survives the screen; the recompute holds one chunk of
    # differences at a time (about 3 MB peak here)
    centres = np.random.default_rng(33).standard_normal((2, 32))
    points = centres[np.arange(1024) % 2]
    tracemalloc.start()
    try:
        build_weight_graph(points, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="duplicate points: every exact duplicate of a point survives the GEMM "
    "screen, so each row recomputes and sorts (duplicates x C) differences and the "
    "build is quadratic in the group size; 4096 points in two duplicate groups at "
    "C=64 take about 20 times as long as distinct points (1.4 s against 0.07 s)",
)
def test_graph_build_time_on_duplicate_points():
    rng = np.random.default_rng(33)
    distinct = rng.standard_normal((4096, 64))
    duplicates = rng.standard_normal((2, 64))[np.arange(4096) % 2]

    def seconds(points):
        start = time.perf_counter()
        build_weight_graph(points, 10)
        return time.perf_counter() - start

    baseline = min(seconds(distinct) for _ in range(3))
    assert seconds(duplicates) < 4 * baseline


class TestKnnDistances:
    def test_line_k1(self):
        neighbors, sq_dists = _knn(LINE, 1)
        assert np.array_equal(neighbors, [[1], [0], [1]])
        assert np.array_equal(sq_dists, [[1.0], [1.0], [4.0]])

    def test_line_k2(self):
        neighbors, sq_dists = _knn(LINE, 2)
        assert np.array_equal(neighbors, [[1, 2], [0, 2], [1, 0]])
        assert np.array_equal(sq_dists, [[1.0, 9.0], [1.0, 4.0], [4.0, 9.0]])

    def test_duplicates_floored(self):
        # a zero K-th distance is floored at 1e-12 as the bandwidth, so
        # every directed duplicate edge weighs exp(0) = 1 instead of 0 / 0
        points = np.zeros((4, 3))
        neighbors, sq_dists = _knn(points, 2)
        assert np.array_equal(neighbors, [[1, 2], [0, 2], [0, 1], [0, 1]])
        assert np.all(sq_dists == 0.0)
        weights = build_weight_graph(points, 2).weights.toarray()
        expected = [[0, 1, 1, 0.5], [1, 0, 1, 0.5], [1, 1, 0, 0], [0.5, 0.5, 0, 0]]
        assert np.array_equal(weights, expected)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            _knn(LINE, 3)

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match=r"^points contains NaN or Inf$"):
            build_weight_graph(np.array([[0.0], [np.nan], [1.0]]), 1)

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    def test_overflowing_squared_distances_rejected(self, scale):
        # finite points; at 1e154 the largest squared norm is finite but 8 times it is
        # not, and the error must come without numpy's overflow warning
        with pytest.raises(ValueError, match=r"^points' squared distances overflow float64$"):
            build_weight_graph(np.array([[0.0], [scale], [-scale]]), 1)


class TestBuildWeightGraph:
    def test_two_points_kernel_value(self):
        g = build_weight_graph(np.array([[0.0], [2.0]]), 1)
        assert g.weights[0, 1] == pytest.approx(np.exp(-4.0), rel=1e-12)
        assert g.weights[1, 0] == g.weights[0, 1]

    def test_duplicate_points_weight_one(self):
        g = build_weight_graph(np.zeros((3, 2)), 2)
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 2] == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((40, 4))
        base = build_weight_graph(pts, 5).weights.toarray()
        for c in (0.01, 100.0):
            scaled = build_weight_graph(c * pts, 5).weights.toarray()
            assert np.allclose(scaled, base, atol=1e-9)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((40, 4))
        rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        shift = rng.standard_normal(4)
        base = build_weight_graph(pts, 5).weights.toarray()
        moved = build_weight_graph(pts @ rotation.T + shift, 5).weights.toarray()
        assert np.allclose(moved, base, atol=1e-9)

    def test_bit_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((30, 3))
        g = build_weight_graph(pts, 4)
        assert (g.weights != g.weights.T).nnz == 0
        assert np.all(g.weights.diagonal() == 0.0)
        assert np.all(g.degrees > 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((25, 3))
        perm = rng.permutation(25)
        base = build_weight_graph(pts, 4).weights.toarray()
        permuted = build_weight_graph(pts[perm], 4).weights.toarray()
        assert np.array_equal(permuted, base[np.ix_(perm, perm)])

    def test_knn_ties_break_toward_lower_index(self):
        # vertex 0 is equidistant from 1 and 2; the neighbor set keeps 1
        pts = np.array([[0.0], [2.0], [-2.0]])
        g = build_weight_graph(pts, 1)
        assert g.weights[0, 1] == pytest.approx(np.exp(-4.0), rel=1e-12)
        assert g.weights[0, 2] == pytest.approx(np.exp(-4.0) / 2.0, rel=1e-12)

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((50, 5))
        g = build_weight_graph(pts, 6)
        for _ in range(100):
            x = rng.standard_normal((50, 1))
            val = (x.T @ laplacian_apply(g, x)).item()
            assert val >= -1e-9

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            build_weight_graph(LINE, 3)


class TestLaplacianApply:
    def test_two_vertex_example(self):
        g = from_triplets([[0, 1, 1.0]])
        out = laplacian_apply(g, np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0], [-1.0]])

    def test_constant_in_kernel(self):
        rng = np.random.default_rng(25)
        g = build_weight_graph(rng.standard_normal((20, 3)), 4)
        out = laplacian_apply(g, np.full((20, 2), 3.7))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_path_diagonal(self):
        g = from_triplets([[0, 1, 1.0], [1, 2, 1.0]])
        out = laplacian_apply(g, np.eye(3))
        assert np.array_equal(np.diag(out), [1.0, 2.0, 1.0])

    def test_dimension_mismatch(self):
        g = from_triplets([[0, 1, 1.0]])
        with pytest.raises(ShapeMismatch):
            laplacian_apply(g, np.zeros((3, 2)))


class TestTriplets:
    def test_round_trip(self):
        rng = np.random.default_rng(26)
        g = build_weight_graph(rng.standard_normal((30, 4)), 5)
        back = from_triplets(to_triplets(g))
        assert (back.weights != g.weights).nnz == 0
        assert np.array_equal(back.degrees, g.degrees)

    def test_upper_triangle_sorted(self):
        rng = np.random.default_rng(27)
        g = build_weight_graph(rng.standard_normal((15, 2)), 3)
        trip = to_triplets(g)
        assert np.all(trip[:, 0] < trip[:, 1])
        keys = trip[:, 0] * g.n + trip[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_self_edges_rejected(self):
        with pytest.raises(ValueError, match="self"):
            from_triplets([[0, 0, 1.0]])

    def test_component_count(self):
        g = from_triplets([[0, 1, 1.0], [2, 3, 0.5]])
        assert component_count(g) == 2

    def test_vertex_count_is_largest_index_plus_one(self):
        g = from_triplets([[0, 1, 1.0], [1, 2, 0.5]])
        assert g.n == 3
        assert np.array_equal(g.degrees, [1.0, 1.5, 0.5])

    def test_empty_edge_list_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            from_triplets(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1.5])
    def test_non_integer_index_rejected(self, bad):
        with pytest.raises(ValueError, match="edge indices must be finite integers"):
            from_triplets([[0, 1, 1.0], [1, bad, 1.0]])

    @pytest.mark.parametrize("index", [4, 1e10, 2.0**63, 1e300])
    def test_index_beyond_edge_reach_rejected(self, index):
        # two edges touch at most 4 vertices; the check precedes the int64
        # cast (which warns past 2**63) and the CSR sized by the index
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"edge index {index:g} out of range")):
                from_triplets([[0, 1, 1.0], [1, index, 1.0]])
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("repeat", [[1, 0, 1.0], [0, 1, 1.0]], ids=["reversed", "same"])
    def test_repeated_pair_rejected(self, repeat):
        # summing the two rows would silently double the edge's weight
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed more than once"):
            from_triplets([[0, 1, 1.0], repeat, [1, 2, 1.0]])


class TestWeightedGraph:
    def test_sizes_derived_from_weights(self):
        w = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        g = WeightedGraph(w)
        assert g.n == 3
        assert np.array_equal(g.degrees, [2.0, 3.0, 1.0])
        with pytest.raises(TypeError):
            WeightedGraph(w, degrees=np.ones(3))

    def test_weights_are_the_graphs_own_copy(self):
        dense = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        w = sp.csr_matrix(dense)
        g = WeightedGraph(w)
        w.data *= 10.0  # the caller's edit reaches neither the weights nor the degrees
        assert np.array_equal(g.weights.toarray(), dense)
        assert np.array_equal(laplacian_apply(g, np.ones((3, 1))), np.zeros((3, 1)))
        # unsorted column indices and a duplicate (0, 1) entry: canonicalising
        # the graph's weights leaves the caller's arrays as they were
        data, indices = np.array([2.0, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0]), np.array([2, 1, 1, 0, 2, 1, 0])
        raw = sp.csr_matrix((data.copy(), indices.copy(), np.array([0, 3, 5, 7])), shape=(3, 3))
        g = WeightedGraph(raw)
        assert np.array_equal(raw.data, data) and np.array_equal(raw.indices, indices)
        assert np.array_equal(g.weights.toarray(), dense)
        with pytest.raises(AttributeError):
            g.weights = raw

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            from_triplets([[0, 1, 1.0], [1, 2, bad]])
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightedGraph(np.array([[0.0, bad], [bad, 0.0]]))

    def test_zero_degree_vertex_named(self):
        # vertex 2 appears in no edge, but the largest index makes it a vertex
        message = "every vertex must have positive degree; zero degree at index 2 (1 of 4 vertices)"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_triplets([[0, 1, 1.0], [1, 3, 1.0]])
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match=re.escape("zero degree at index 2 (1 of 3 vertices)")):
            WeightedGraph(w)

    def test_zero_degree_count_with_first_five(self):
        w = np.zeros((10, 10))
        w[0, 9] = w[9, 0] = 1.0
        message = "zero degree at index 1, 2, 3, 4, 5, ... (8 of 10 vertices)"
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedGraph(w)


class TestVertexSet:
    def test_block_counts_checked(self):
        for n_a in (-1, 3):
            with pytest.raises(ValueError, match="n_a"):
                VertexSet(np.zeros((3, 2)), labels=np.array([0]), n_a=n_a)

    def test_block_sizes_derived(self):
        vs = VertexSet(np.zeros((6, 2)), labels=np.array([1, 0]), n_a=3)
        assert (vs.n, vs.n_s, vs.n_a, vs.n_q, vs.k) == (6, 2, 3, 1, 2)
        with pytest.raises(TypeError):
            VertexSet(np.zeros((6, 2)), labels=np.array([1, 0]), n_a=3, n_q=1)

    def test_class_count_is_fixed(self):
        with pytest.raises(TypeError):
            VertexSet(np.zeros((6, 2)), labels=np.array([2, 0]), n_a=3, k=3)
        with pytest.raises(ValueError, match="labels must lie in"):
            VertexSet(np.zeros((6, 2)), labels=np.array([2, 0]), n_a=3)

    def test_one_hot(self):
        vs = VertexSet(np.zeros((4, 2)), labels=np.array([1, 0]), n_a=1)
        assert np.array_equal(vs.one_hot_labels(), [[0.0, 1.0], [1.0, 0.0]])
