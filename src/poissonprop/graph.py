"""Similarity graph over prototype/pixel vertices.

Edge weights use a self-tuning Gaussian kernel: the squared distance to
each point's K-th nearest neighbor sets that point's local bandwidth,
so the weight matrix is invariant to global rescaling of the points.
The kNN search is exact, with ties broken toward the lower index: per
row block, one GEMM screens all pairs against each row's K-th distance,
bounded from minima over strided column groups, under a proven rounding
margin; survivors' distances are recomputed elementwise, so the graph is
bit-identical for any BLAS build or thread count, in O(block * n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import KTooLarge, ShapeMismatch

DISTANCE_FLOOR = 1e-12
_BLOCK_ROWS = 64
_GROUP_WIDTH = 8


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, C) array")
    return pts


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Vertices for propagation: support block, then auxiliary, then query.

    The first ``n_s = len(labels)`` vertices carry class labels 0
    (background) or 1 (foreground). A class may lack labeled vertices
    (``poisson.build_source`` warns about it), so the degenerate
    single-class case still flows through to an all-zero propagation.
    """

    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    n_a: int
    k = 2  # background, foreground

    def __post_init__(self):
        pts = _as_points(self.points)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {labels.shape}")
        if not 0 <= self.n_a <= len(pts) - len(labels):
            raise ValueError(f"n_a={self.n_a} not in [0, n - n_s] = [0, {len(pts) - len(labels)}]")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def n_s(self) -> int:
        return self.labels.size

    @property
    def n_q(self) -> int:
        return self.n - self.n_s - self.n_a

    def one_hot_labels(self) -> np.ndarray:
        """(n_s, k) one-hot rows for the labeled block."""
        out = np.zeros((self.n_s, self.k), dtype=np.float64)
        out[np.arange(self.n_s), self.labels] = 1.0
        return out


@dataclass(eq=False)
class WeightedGraph:
    """Symmetric nonnegative sparse weights with zero diagonal; the row
    sums ``degrees`` are computed once, as the solver reads them often."""

    weights: sp.csr_matrix
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = sp.csr_matrix(self.weights)
        w.sum_duplicates()
        if w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(w.data)):
            raise ValueError("weights must be finite")
        if (w != w.T).nnz != 0:
            raise ValueError("weight matrix must be symmetric")
        if np.any(w.diagonal() != 0.0):
            raise ValueError("weight matrix must have a zero diagonal")
        if w.nnz and w.data.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        degrees = np.asarray(w.sum(axis=1)).ravel()
        zero = np.flatnonzero(degrees <= 0.0)
        if zero.size:
            shown = ", ".join(map(str, zero[:5])) + (", ..." if zero.size > 5 else "")
            raise ValueError(
                f"every vertex must have positive degree; zero degree at index "
                f"{shown} ({zero.size} of {len(degrees)} vertices)"
            )
        self.weights = w
        self.degrees = degrees

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# Screen margin. u = 2^-53 (eps = 2u), x~ = fl(x - mean), a_i = |x~_i|, s_i = fl(|x~_i|^2);
# D_ij = fl(sum fl(fl(x_i - x_j)^2)) is the recompute that ranks, d_ij = |x_i - x_j|^2 exactly.
# Each point gets h_i = fl(fl(c s_i) + slack), c = 3 (C+2) eps, and p_i = fl(s_i + h_i); one
# GEMM of [-2 x~, 1] by [x~, p]^T gives B_ij = fl(p_j - 2 x~_i.x~_j), a (C+1)-term dot product.
# To first order in u: D_ij is within (C+2)u d_ij of d_ij (one rounding for the difference, two
# for the square, C-1 for a sum of nonnegative terms), d_ij <= (a_i + a_j)^2, centring moves
# |x~_i - x~_j|^2 from d_ij by 2u (a_i + a_j)^2, and B_ij + a_i^2 - h_j - |x~_i - x~_j|^2 is the
# rounding of the dot product, (C+1)u (2 a_i a_j + a_j^2) by Cauchy-Schwarz, plus C u a_j^2 for
# s_j and u a_j^2 for p_j. With the row constant R_i = a_i^2 + h_i (never computed) that gives
# |B_ij + R_i - h_i - h_j - D_ij| <= (3C+9)u a_i^2 + (5C+11)u a_j^2 (as 2ab <= a^2 + b^2), and
# h_i + h_j >= (6C+12)u (a_i^2 + a_j^2) leaves (C+1)u (a_i^2 + a_j^2) for the O(C^2 u^2) terms
# (fine for C << 1e8). So B_ij - 2h_j - 2h_i + R_i <= D_ij <= B_ij + R_i.
# Row bound: column j is in group j mod m, m = max(K, ceil(n / 8)) <= n - 1, and the diagonal is
# +inf. The K smallest group minima are B_ij of K distinct columns j != i, so their largest, V_i,
# gives D_(K) <= V_i + R_i (right inequality). V_i is +inf where K = n - 1 leaves a diagonal
# alone in its group; that diagonal passes and is cleared. Each j among the K nearest has
# D_ij <= D_(K), so B_ij - 2h_j <= V_i + 2h_i exactly (left inequality); rounding is monotone,
# so the in-place fl(B_ij - 2h_j) <= fl(V_i + 2h_i) keeps j.
# Underflow: sums are exact among subnormals, and each product (or fused multiply-add) that
# underflows is off by at most 2^-1075; a pair meets at most 3C+2 (C each in the dot product,
# s_j and D_ij, two in c s). If a_i^2 + a_j^2 >= 2^-1019 the leftover covers them. Below it,
# h_i, h_j < 2^-1021, where adding slack = 4 (C+4) 2^-1074 is exact, and the two slacks do.
def _knn(pts: np.ndarray, k_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact K nearest other points of every point, in row blocks.

    Returns (n, K) neighbor indices and their squared distances, ordered
    by (distance, index). A GEMM screen keeps every candidate that
    could be among the K nearest under its rounding margin; survivors
    are recomputed elementwise, so the result never depends on BLAS
    rounding, and working memory is O(block * n).
    """
    n, channels = pts.shape
    if k_neighbors < 1:
        raise ValueError("K must be positive")
    if k_neighbors > n - 1:
        raise KTooLarge(f"K={k_neighbors} but only {n - 1} other points exist")
    rhs = np.empty((n, channels + 1))  # [x~, p]: the centred points are its first C columns
    centred = np.subtract(pts, pts.mean(axis=0), out=rhs[:, :-1])
    sq = np.einsum("ij,ij->i", centred, centred)
    if not np.isfinite(8.0 * sq.max()):
        raise ValueError("points must be finite, with squared distances in float64 range")
    half_margin = 3 * (channels + 2) * np.finfo(float).eps * sq + 4 * (channels + 4) * 2.0**-1074
    rhs[:, -1] = sq + half_margin
    lhs = np.hstack([-2.0 * centred, np.ones((n, 1))])  # exact scaling
    margin = 2.0 * half_margin
    groups = max(k_neighbors, -(-n // _GROUP_WIDTH))
    whole = n - n % groups  # columns past it top up the first groups
    neighbors = np.empty((n, k_neighbors), dtype=np.int64)
    sq_dists = np.empty((n, k_neighbors), dtype=np.float64)
    # inline, not a per-block function: each block's arrays live until the
    # next block rebinds them, so the allocator reuses their pages instead
    # of releasing and faulting them in again (half the time at n=5120)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        local = np.arange(hi - lo)
        screen = lhs[lo:hi] @ rhs.T
        screen[local, lo + local] = np.inf
        least = screen[:, :whole].reshape(hi - lo, -1, groups).min(axis=1)
        np.minimum(least[:, : n - whole], screen[:, whole:], out=least[:, : n - whole])
        least.partition(k_neighbors - 1, axis=1)
        bound = least[:, k_neighbors - 1] + margin[lo:hi]
        screen -= margin
        keep = screen <= bound[:, None]
        keep[local, lo + local] = False
        rows, cols = np.divmod(np.flatnonzero(keep), n)
        diff = pts[lo + rows] - pts[cols]
        d2 = np.sum(diff * diff, axis=-1)
        order = np.lexsort((cols, d2, rows))
        first = np.searchsorted(rows, local)
        picked = order[first[:, None] + np.arange(k_neighbors)]
        neighbors[lo:hi] = cols[picked]
        sq_dists[lo:hi] = d2[picked]
    return neighbors, sq_dists


def build_weight_graph(points, k_neighbors: int) -> WeightedGraph:
    """Sparse self-tuning kNN weight graph.

    Raw weights exp(-4 d(i,j)^2 / d_K(i)^2) are computed for the K
    nearest neighbors of each vertex, then symmetrized by averaging the
    two directed entries (an absent entry counts as 0).
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    neighbors, sq_dists = _knn(pts, k_neighbors)
    dk = np.sqrt(sq_dists[:, -1])
    dk2 = np.maximum(dk, DISTANCE_FLOOR) ** 2

    rows = np.repeat(np.arange(n), k_neighbors)
    vals = np.exp(-4.0 * sq_dists.ravel() / dk2[rows])
    raw = sp.csr_matrix((vals, (rows, neighbors.ravel())), shape=(n, n))
    return WeightedGraph((raw + raw.T) * 0.5)


def laplacian_apply(graph: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """(D - W) @ x for an (n, k) ``x``, one sparse product per column, without
    forming D - W. For a C-contiguous (k, n) ``r``, as the class-major solve
    holds, ``laplacian_apply(graph, r.T).T`` is C-contiguous too."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.n:
        raise ShapeMismatch(f"expected ({graph.n}, k) input, got {x.shape}")
    return graph.degrees[:, None] * x - np.stack([graph.weights @ col for col in x.T]).T


def component_count(graph: WeightedGraph) -> int:
    count, _ = connected_components(graph.weights, directed=False)
    return int(count)


def to_triplets(graph: WeightedGraph) -> np.ndarray:
    """Upper-triangle edge list as an (n_edges, 3) array of (i, j, w).

    Rows are sorted by (i, j); symmetry makes the lower triangle
    redundant. Indices are exact as float64 at any realistic n.
    """
    coo = sp.triu(graph.weights, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    out = np.empty((coo.nnz, 3), dtype=np.float64)
    out[:, 0] = coo.row[order]
    out[:, 1] = coo.col[order]
    out[:, 2] = coo.data[order]
    return out


def from_triplets(triplets) -> WeightedGraph:
    """Rebuild a graph from an (n_edges, 3) upper-triangle edge list.

    The vertex count is the largest index + 1; a pair listed twice is an error.
    """
    arr = np.asarray(triplets, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"triplets must be (n_edges, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("triplets must hold at least one edge")
    ends, vals = arr[:, :2], arr[:, 2]
    if not np.all(np.isfinite(ends) & (ends == np.rint(ends))):
        raise ValueError("edge indices must be finite integers")
    if np.any(ends < 0):
        raise ValueError("edge indices must be nonnegative")
    top, m = ends.max(), len(arr)
    if top >= 2 * m:  # checked before the int64 cast, and before the CSR is sized by it
        raise ValueError(f"edge index {top:g} out of range: {m} edges reach {2 * m} vertices")
    rows, cols = ends.astype(np.int64).T
    if np.any(rows == cols):
        raise ValueError("self edges are not allowed")
    n = int(top) + 1
    keys = np.sort(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        i, j = divmod(int(repeated[0]), n)
        raise ValueError(f"edge ({i}, {j}) is listed more than once")
    half = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return WeightedGraph(half + half.T)
