"""Similarity graph over prototype/pixel vertices.

Edge weights use a self-tuning Gaussian kernel: the squared distance to
each point's K-th nearest neighbor sets that point's local bandwidth,
so the weight matrix is invariant to global rescaling of the points.
The kNN search is exact, with ties broken toward the lower index: a
GEMM screen over row blocks keeps every candidate within a rigorous
rounding margin, and the survivors' distances are recomputed
elementwise, so the graph is bit-identical for any BLAS library or
BLAS thread count and working memory stays O(block * n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, KTooLarge

DISTANCE_FLOOR = 1e-12
_BLOCK_ROWS = 64


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, C) array")
    return pts


@dataclass(frozen=True)
class VertexSet:
    """Vertices for propagation: support block, then auxiliary, then query.

    The first ``n_s = len(labels)`` vertices carry class labels in
    {0..k-1}; class k-1 is foreground by convention. A class may lack
    labeled vertices (``poisson.build_source`` warns about it), so the
    degenerate single-class case still flows through to an all-zero
    propagation.
    """

    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    n_a: int
    k: int = 2

    def __post_init__(self):
        pts = _as_points(self.points)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {labels.shape}")
        if not 0 <= self.n_a <= len(pts) - len(labels):
            raise ValueError(f"n_a={self.n_a} not in [0, n - n_s] = [0, {len(pts) - len(labels)}]")
        if self.k < 1:
            raise ValueError("class count must be positive")
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


@dataclass
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
        if (w != w.T).nnz != 0:
            raise ValueError("weight matrix must be symmetric")
        if np.any(w.diagonal() != 0.0):
            raise ValueError("weight matrix must have a zero diagonal")
        if w.nnz and w.data.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        degrees = np.asarray(w.sum(axis=1)).ravel()
        if np.any(degrees <= 0.0):
            raise ValueError("every vertex must have positive degree")
        self.weights = w
        self.degrees = degrees

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# Screening margin. Let u = 2^-53 (eps = 2u), x~ = fl(x - mean) and
# S_ij = (|x~_i| + |x~_j|)^2, which bounds the exact d_ij = |x_i - x_j|^2.
# The elementwise recompute D_ij = fl(sum fl(fl(x_i - x_j)^2)) is within
# (C+2)u d_ij of d_ij: one rounding for the difference, two for the
# square, at most C-1 for a sum of nonnegative terms. The GEMM screen
# A_ij = fl(|x~_i|^2 + |x~_j|^2 - 2 x~_i.x~_j) is within (C+4)u S_ij of
# d_ij: 2u from centring (each x~ component is off by u relative), C u
# from the dot product and the two norms (Cauchy-Schwarz), 2u from the
# two additions. So |A - D| <= (2C+6) u S_ij, up to O(C^2 u^2) S_ij.
# The margin m_ij = (C+4) eps S_ij = (2C+8) u S_ij leaves u S_ij for the
# rounding of A +- m and those second-order terms (fine for C << 1e8).
# Products that underflow add at most u * 2^-1022 each, about 3C per
# pair, which the absolute slack 4 (C+4) 2^-1074 on each row's bound
# covers. The K smallest A + m in row i each bound their own D from
# above, so D_(K) <= U_i, the K-th smallest A + m; every j among the K
# nearest by D then has A_ij - m_ij <= D_ij <= U_i and survives.
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
    centred = pts - pts.mean(axis=0)
    minus_two = -2.0 * centred  # exact scaling, folded into the GEMM
    sq = np.einsum("ij,ij->i", centred, centred)
    if not np.isfinite(8.0 * sq.max()):
        raise ValueError("points must be finite, with squared distances in float64 range")
    eps = np.finfo(np.float64).eps
    # margin m_ij = (scaled_i + scaled_j)^2 = (C+4) eps S_ij
    scaled = np.sqrt((channels + 4) * eps) * np.sqrt(sq)
    slack = 4 * (channels + 4) * np.finfo(np.float64).smallest_subnormal
    neighbors = np.empty((n, k_neighbors), dtype=np.int64)
    sq_dists = np.empty((n, k_neighbors), dtype=np.float64)
    take = np.arange(k_neighbors)
    # inline, not a per-block function: each block's arrays live until the
    # next block rebinds them, so the allocator reuses their pages instead
    # of releasing and faulting them in again (half the time at n=5120)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        local = np.arange(hi - lo)
        approx = minus_two[lo:hi] @ centred.T
        approx += sq[lo:hi, None]
        approx += sq
        margin = scaled[lo:hi, None] + scaled
        margin *= margin
        upper = approx + margin
        upper[local, lo + local] = np.inf
        upper.partition(k_neighbors - 1, axis=1)
        bound = upper[:, k_neighbors - 1] + slack
        approx -= margin
        keep = approx <= bound[:, None]
        keep[local, lo + local] = False
        rows, cols = np.divmod(np.flatnonzero(keep), n)
        diff = pts[lo + rows] - pts[cols]
        d2 = np.sum(diff * diff, axis=-1)
        order = np.lexsort((cols, d2, rows))
        first = np.searchsorted(rows, local)
        picked = order[first[:, None] + take]
        neighbors[lo:hi] = cols[picked]
        sq_dists[lo:hi] = d2[picked]
    return neighbors, sq_dists


def knn_distances(points, k_neighbors: int) -> np.ndarray:
    """Distance from each point to its K-th nearest other point.

    Ties are broken by vertex index; results are floored at 1e-12 to
    guard division by zero on duplicate points.
    """
    _, sq_dists = _knn(_as_points(points), k_neighbors)
    return np.maximum(np.sqrt(sq_dists[:, -1]), DISTANCE_FLOOR)


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
    """(D - W) @ x without materializing the Laplacian densely."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.n:
        raise DimensionMismatch(
            f"expected ({graph.n}, k) input, got {x.shape}"
        )
    return graph.degrees[:, None] * x - graph.weights @ x


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

    The vertex count is the largest index + 1.
    """
    arr = np.asarray(triplets, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"triplets must be (n_edges, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("triplets must hold at least one edge")
    rows = arr[:, 0]
    cols = arr[:, 1]
    vals = arr[:, 2]
    if np.any(rows != np.rint(rows)) or np.any(cols != np.rint(cols)):
        raise ValueError("edge indices must be integral")
    rows = rows.astype(np.int64)
    cols = cols.astype(np.int64)
    if np.any(rows < 0) or np.any(cols < 0):
        raise ValueError("edge indices must be nonnegative")
    if np.any(rows == cols):
        raise ValueError("self edges are not allowed")
    n = int(max(rows.max(), cols.max())) + 1
    half = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return WeightedGraph(half + half.T)
