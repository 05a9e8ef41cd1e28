"""Similarity graph over prototype/pixel vertices.

Edge weights use a self-tuning Gaussian kernel: the squared distance to
each point's K-th nearest neighbor sets that point's local bandwidth,
so the weight matrix is invariant to global rescaling of the points.
The kNN search is exact, with ties broken toward the lower index: per
row block, one float32 GEMM on the centred points, scaled by a power of
two, screens all pairs against each row's K-th distance, bounded from
minima over strided column groups and widened by one proven rounding
margin; survivors' distances are recomputed elementwise in float64, so
the graph is bit-identical for any BLAS build or thread count. A row
block is 64 rows, or up to C + 1 rows within 2^18 screen entries at wide
C, and survivors are recomputed in cache-sized chunks of about 2^16 / C,
in O(block * n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import KTooLarge, ShapeMismatch
from .tensor import _as_float64

DISTANCE_FLOOR = 1e-12
_BLOCK_ROWS = 64  # the least screen height
_SCREEN_ELEMENTS = 2**18  # the most float32 screen entries in a taller block: 1 MB
_CHUNK_ELEMENTS = 2**16  # float64 recompute entries per survivor chunk: 512 kB, cache-sized
_GROUP_WIDTH = 8


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
        pts = _as_float64(self.points, "points", 2)
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
        return np.eye(self.k)[self.labels]


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric nonnegative sparse weights with zero diagonal, in the
    graph's own copy; the row sums ``degrees`` are computed once, as the
    solver reads them often."""

    weights: sp.csr_matrix
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = sp.csr_matrix(self.weights, copy=True)
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
        with np.errstate(over="ignore"):  # an overflowing degree is refused below
            degrees = np.asarray(w.sum(axis=1)).ravel()
        if not np.all(np.isfinite(degrees) & ((degrees == 0.0) | (degrees >= np.finfo(float).tiny))):
            raise ValueError("every degree must be finite and 0 or normal (>= 2.2e-308)")
        zero = np.flatnonzero(degrees <= 0.0)
        if zero.size:
            shown = ", ".join(map(str, zero[:5])) + (", ..." if zero.size > 5 else "")
            raise ValueError(
                f"every vertex must have positive degree; zero degree at index "
                f"{shown} ({zero.size} of {len(degrees)} vertices)"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# Screen margin. The screen runs in float32 (u = 2^-24, eta = 2^-149 its least subnormal) and the
# recompute that ranks in float64 (v = 2^-53). In float64, x~ = fl(x - mean), S_i = fl(|x~_i|^2),
# D_ij = fl(sum fl(fl(x_i - x_j)^2)), and d_ij = |x_i - x_j|^2 exactly. Scaled units: y_i = 2^e x~_i
# exactly, A_i = |y_i|, with e = (100 - E) // 2 for max S < 2^E (E = 0 if max S = 0), so
# 2^2e max S < 2^100 and -461 <= e <= 586 (max S is 0, a subnormal or below 2^1021). Each point
# gets z_i = fl32(2^e x~_i) and p_i = fl32(2^2e S_i); one float32 GEMM of [-2 z, 1] by [z, p]^T
# gives B_ij = fl(p_j - 2 z_i.z_j), a (C+1)-term dot product. To first order in u, in scaled units:
# - conversion: |z_ic - y_ic| <= u |y_ic| + eta (fl32 of an exact or float64-subnormal product), so
#   2 |z_i.z_j - y_i.y_j| <= 4u A_i A_j + 2 sqrt(C) eta (A_i + A_j)
#   <= 3u (A_i^2 + A_j^2) + 2C eta^2/u;
# - GEMM: (C+1)u (|p_j| + 2 |z_i||z_j|) + C eta, in any order, with or without fused multiply-adds:
#   each of the C products that underflows is off by at most eta/2, and sums are exact among
#   subnormals; by Cauchy-Schwarz and |p_j| <= A_j^2, (C+1)u (A_i^2 + 2 A_j^2) + C eta;
# - augmented column: u A_j^2 + eta/2 for p_j, C v A_j^2 for S_j and 2^2e C 2^-1075 for the
#   squares in S_j that underflow float64;
# - recompute: D_ij is within (C+2)v d_ij of d_ij (one rounding for the difference, two for the
#   square, C-1 for a sum of nonnegative terms) plus C 2^-1075 for its squares that underflow,
#   centring moves |x~_i - x~_j|^2 from d_ij by 2v (|x~_i| + |x~_j|)^2, and
#   d_ij <= 2 (|x~_i|^2 + |x~_j|^2): together (2C+8)v (A_i^2 + A_j^2) + 2^2e C 2^-1075.
# These sum to |B_ij + A_i^2 - 2^2e D_ij| <= (C+4)u A_i^2 + (2C+6)u A_j^2 + (C+1) eta +
# 2^2e C 2^-1074 + O(Cv) (A_i^2 + A_j^2) + 2C eta^2/u <= 2M, for the one margin M = fl(4(C+2)u
# 2^2e max S + slack), slack = (C+2) (eta + 2^(2e-1074)): as A_i^2 <= 2^2e max S (1 + Cv) +
# 2^2e C 2^-1075 (the underflow in S), 2M leaves (5C+6)u 2^2e max S for the O(Cv) terms, M's own
# roundings among them, and the O(C^2 u^2) ones (fine for C < 2^20), and (C+3) eta +
# (C+4) 2^2e 2^-1074 for the rest, also where 2^(2e-1074) flushes to 0. Where every S_i
# underflows float64 (points near 1e-300), z = 0 and every pair survives. Range: 2^2e S_i < 2^100
# and slack < (C+2) 2^99, so every finite value in the screen, and the bound below, is under
# 2^123 for C < 2^20.
# Row bound, in scaled units: column j is in group j mod m, m = max(K, ceil(n / 8)) <= n - 1, and
# the diagonal is +inf. The K smallest group minima are B_ij of K distinct columns j != i, so
# their largest, V_i, gives D_(K) <= V_i + 2M + A_i^2, and each of the K nearest has B_ij <=
# V_i + 4M. V_i is +inf where K = n - 1 leaves a diagonal alone in its group; that diagonal
# passes and is cleared. W, the float32 after fl32(4M), is above 4M (exact in float64), and
# rounding is monotone, so B_ij <= fl32(V_i + W) keeps j.
def _screen_operands(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.float32]:
    """The float32 screen's [-2 z, 1] and [z, p] and its widening W, as above."""
    n, channels = pts.shape
    centred = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    if not sq.max() < 2.0**1021:  # 8 max S stays finite, without an overflow warning
        raise ValueError("points' squared distances overflow float64")
    exponent = (100 - int(np.frexp(sq.max())[1])) // 2
    rhs = np.empty((n, channels + 1), dtype=np.float32)
    np.multiply(centred, 2.0**exponent, out=rhs[:, :-1])
    rhs[:, -1] = np.ldexp(sq, 2 * exponent)
    lhs = np.empty_like(rhs)
    np.multiply(rhs[:, :-1], -2, out=lhs[:, :-1])  # exact scaling
    lhs[:, -1] = 1
    slack = (channels + 2) * (2.0**-149 + np.ldexp(1.0, 2 * exponent - 1074))
    margin = 4 * (channels + 2) * 2.0**-24 * np.ldexp(sq.max(), 2 * exponent) + slack
    return lhs, rhs, np.nextafter(np.float32(4 * margin), np.float32(np.inf))


def _knn(pts: np.ndarray, k_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact K nearest other points of every point, in row blocks.

    Returns (n, K) neighbor indices and their squared distances, ordered
    by (distance, index). A float32 GEMM screen keeps every candidate
    that could be among the K nearest under one rounding margin;
    survivors are recomputed elementwise in float64, so the result never
    depends on BLAS rounding. A block is max(64, min(C + 1, 2^18 // n))
    rows; survivors are recomputed max(1, 2^16 // C) at a time in one
    reused buffer, each distance still one contiguous length-C sum, so
    block and chunk sizes never change a byte. Working memory is
    O(block * n).
    """
    n, channels = pts.shape
    if k_neighbors < 1:
        raise ValueError("K must be positive")
    if k_neighbors > n - 1:
        raise KTooLarge(f"K={k_neighbors} but only {n - 1} other points exist")
    lhs, rhs, widen = _screen_operands(pts)
    groups = max(k_neighbors, -(-n // _GROUP_WIDTH))
    whole = n - n % groups  # columns past it top up the first groups
    neighbors = np.empty((n, k_neighbors), dtype=np.int64)
    sq_dists = np.empty((n, k_neighbors), dtype=np.float64)
    # a taller block packs the GEMM's (n, C + 1) operand fewer times, which pays up
    # to C + 1 rows; at narrow C it only hands BLAS threads a GEMM too small for them
    height = max(_BLOCK_ROWS, min(channels + 1, _SCREEN_ELEMENTS // n))
    chunk = max(1, _CHUNK_ELEMENTS // channels)
    buffer = np.empty((chunk, channels))
    # inline, not a per-block function: each block's arrays live until the
    # next block rebinds them, so the allocator reuses their pages instead
    # of releasing and faulting them in again (half the time at n=5120)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        local = np.arange(hi - lo)
        screen = lhs[lo:hi] @ rhs.T
        screen[local, lo + local] = np.inf
        least = screen[:, :whole].reshape(hi - lo, -1, groups).min(axis=1)
        np.minimum(least[:, : n - whole], screen[:, whole:], out=least[:, : n - whole])
        least.partition(k_neighbors - 1, axis=1)
        bound = least[:, k_neighbors - 1] + widen
        keep = screen <= bound[:, None]
        keep[local, lo + local] = False
        rows, cols = np.divmod(np.flatnonzero(keep), n)
        d2 = np.empty(rows.size)
        for start in range(0, rows.size, chunk):  # (x_j - x_i)^2 == (x_i - x_j)^2 bitwise
            part = slice(start, start + chunk)
            # cols are in range; "clip" writes straight to out, where "raise" buffers
            diff = np.take(pts, cols[part], axis=0, out=buffer[: d2[part].size], mode="clip")
            np.subtract(diff, pts[lo + rows[part]], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=-1, out=d2[part])
        order = np.lexsort((d2, rows))  # stable, and cols ascend within a row
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
    pts = _as_float64(points, "points", 2)
    n = pts.shape[0]
    neighbors, sq_dists = _knn(pts, k_neighbors)
    dk = np.sqrt(sq_dists[:, -1])
    dk2 = np.maximum(dk, DISTANCE_FLOOR) ** 2

    vals = np.exp(-4.0 * sq_dists / dk2[:, None]).ravel()
    indptr = np.arange(0, n * k_neighbors + 1, k_neighbors)
    raw = sp.csr_matrix((vals, neighbors.ravel(), indptr), shape=(n, n))
    return WeightedGraph((raw + raw.T) * 0.5)


def laplacian_apply(graph: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """(D - W) @ x for an (n, k) ``x``, one sparse product over all k columns,
    without forming D - W. Each column's sum runs in the order of a
    single-column product, so the bytes do not depend on k or on ``x``'s layout."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.n:
        raise ShapeMismatch(f"expected ({graph.n}, k) input, got {x.shape}")
    return graph.degrees[:, None] * x - graph.weights @ x


def component_count(graph: WeightedGraph) -> int:
    count, _ = connected_components(graph.weights, directed=False)
    return int(count)


def to_triplets(graph: WeightedGraph) -> np.ndarray:
    """Upper-triangle edge list as an (n_edges, 3) array of (i, j, w).

    Rows are sorted by (i, j), as the graph's canonical CSR stores them; the
    lower triangle is redundant. Indices are exact as float64 at any realistic n.
    """
    coo = graph.weights.tocoo()
    upper = coo.row < coo.col
    return np.column_stack((coo.row, coo.col, coo.data))[upper].astype(np.float64, copy=False)


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
