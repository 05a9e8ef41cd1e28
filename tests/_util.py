"""Shared test fixtures: random propagation systems, frozen synth specs,
the dense least-squares oracle for the iterative solver and the
full-table reference for the kNN search."""

from __future__ import annotations

import numpy as np

import poissonprop as pp
from poissonprop.errors import PoissonPropError
from poissonprop.graph import WeightedGraph, component_count, laplacian_apply
from poissonprop.poisson import LabelSource, PropagationResult, _check_system

UNIT8 = np.ones(8) / np.sqrt(8)
DRIFT8 = np.array([1.0, -1.0, 0, 0, 0, 0, 0, 0]) / np.sqrt(2)  # orthogonal to UNIT8
DIRECT_SOLVE_LIMIT = 2000


class TooLargeForDirect(PoissonPropError):
    """Vertex count exceeds the dense direct-solver guard."""


def _residual_inf(graph: WeightedGraph, source: LabelSource, scores: np.ndarray) -> float:
    return float(np.abs(source.values.T - laplacian_apply(graph, scores)).max())


def solve_direct(graph: WeightedGraph, source: LabelSource) -> PropagationResult:
    """Dense least-squares oracle for the iterative solver.

    L is singular with a constant nullspace; the zero-sum source makes
    the system consistent, and the degree-weighted shift applied
    afterwards selects the same solution the iteration converges to.
    """
    _check_system(graph, source)
    if graph.n > DIRECT_SOLVE_LIMIT:
        raise TooLargeForDirect(
            f"n={graph.n} exceeds the dense-solve guard ({DIRECT_SOLVE_LIMIT})"
        )
    lap = np.diag(graph.degrees) - graph.weights.toarray()
    scores, *_ = np.linalg.lstsq(lap, source.values.T, rcond=None)
    scores = degree_weighted_center(scores, graph.degrees)
    return PropagationResult(
        scores=scores,
        iterations=0,
        final_step=0.0,
        converged=True,
        residual_inf=_residual_inf(graph, source, scores),
    )


def degree_weighted_center(scores: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Shift each column so its degree-weighted sum is zero."""
    shift = (degrees @ scores) / degrees.sum()
    return scores - shift[None, :]


def random_connected_system(seed: int, dim: int = 8):
    """Seeded random connected graph plus a centered label source.

    n in [10, 200], kNN K in [3, 8], classes in {2, 3}, 10-20%% of the
    vertices labeled with every class represented. Points are a single
    Gaussian cloud, which keeps the kNN graph connected and well mixed.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 201))
    k_nn = min(int(rng.integers(3, 9)), n - 1)
    k = int(rng.integers(2, 4))
    graph = None
    for _ in range(100):
        pts = rng.standard_normal((n, dim))
        candidate = pp.build_weight_graph(pts, k_nn)
        if component_count(candidate) == 1:
            graph = candidate
            break
    assert graph is not None, f"no connected draw for seed {seed}"
    n_s = max(k, int(np.ceil(n * rng.uniform(0.10, 0.20))))
    classes = np.concatenate([np.arange(k), rng.integers(0, k, n_s - k)])
    one_hot = np.zeros((n_s, k))
    one_hot[np.arange(n_s), classes] = 1.0
    source = pp.build_source(one_hot, n)
    return graph, source


def _reference_sq_dists(points):
    """Full distance table by elementwise broadcasting, 8 rows at a time
    (an (8, n, C) temporary: 21 MB at n = 1280, C = 256)."""
    n = points.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, 8):
        diff = points[lo : lo + 8, None, :] - points[None, :, :]
        np.sum(diff * diff, axis=2, out=out[lo : lo + 8])
    np.fill_diagonal(out, np.inf)
    return out


def _reference_knn(points, k):
    """K nearest other points and their squared distances, by a stable full argsort."""
    d2 = _reference_sq_dists(points)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return neighbors, np.take_along_axis(d2, neighbors, axis=1)


def cosine(u, v) -> float:
    """Cosine of two vectors by the library's route: the similarity map of
    a one-pixel query ``u`` against the prototype ``v``."""
    query = pp.FeatureMap(np.asarray(u, dtype=np.float64)[:, None, None])
    return float(pp.similarity_map(query, v).data.item())


def two_blob_spec(seed: int, n_auxiliary: int = 3, separation: float = 10.0) -> pp.SynthSpec:
    """Two separated Gaussian blobs under an off-center disk.

    The disk crosses many pooling windows with distinct coverage
    fractions, so mixed-window prototypes form a chain of vertices
    bridging the two feature clusters and the kNN graph stays
    connected. ``separation`` is the class-mean distance in noise
    units, split 0.6/0.4 between foreground and background so both
    classes sit well away from the decision boundary.
    """
    return pp.SynthSpec(
        channels=8,
        height=16,
        width=16,
        fg_mean=0.6 * separation * UNIT8,
        bg_mean=-0.4 * separation * UNIT8,
        noise_scale=1.0,
        shape="disk",
        center=(7.75, 8.45),
        size=7.0,
        seed=seed,
        n_auxiliary=n_auxiliary,
    )


def aligned_rect_spec(seed: int, separation: float = 2.5) -> pp.SynthSpec:
    """Blob episode whose mask tiles the pooling grid exactly.

    With the mask aligned to the 4x4 windows, the pooled label
    footprint equals the pixel mask, which makes it a reference for
    confidence-region checks.
    """
    return pp.SynthSpec(
        channels=8,
        height=16,
        width=16,
        fg_mean=separation * UNIT8,
        bg_mean=-separation * UNIT8,
        noise_scale=1.0,
        shape="rect",
        center=(7.5, 7.5),
        size=(8, 8),
        seed=seed,
        n_auxiliary=2,
    )


def drift_episode(seed: int, drift: float, n_auxiliary: int, separation: float = 4.0) -> pp.Episode:
    """32x32, C = 8 episode whose query's class means are shifted by
    ``drift * DRIFT8`` from the support's, orthogonal to the class axis,
    and whose auxiliary map i of m is shifted by ``drift * (i + 1) / (m + 1)``
    in between, so only the auxiliary prototypes bridge the gap.

    Each map, with its mask, is the query of its own ``synth_episode``
    call on the same radius-9 disk with shifted means, so the episode is
    built from public calls only. Map j (support 0, query 1, auxiliary
    maps from 2) of seed s draws its noise from seed ``1000 * s + j``.
    """
    def draw(shift: float, stream: int) -> pp.Episode:
        spec = pp.SynthSpec(
            channels=8, height=32, width=32,
            fg_mean=0.6 * separation * UNIT8 + shift * DRIFT8,
            bg_mean=-0.4 * separation * UNIT8 + shift * DRIFT8,
            noise_scale=1.0, shape="disk", center=(0.484 * 32, 0.528 * 32), size=9.0,
            seed=1000 * seed + stream, n_auxiliary=0,
        )
        return pp.synth_episode(spec)[0]

    support, query = draw(0.0, 0), draw(drift, 1)
    auxiliary = tuple(
        draw(drift * (i + 1) / (n_auxiliary + 1), 2 + i).query for i in range(n_auxiliary)
    )
    return pp.Episode(
        support=(support.query, support.query_mask),
        auxiliary=auxiliary,
        query=query.query,
        query_mask=query.query_mask,
    )
