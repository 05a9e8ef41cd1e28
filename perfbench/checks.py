"""Correctness checks and the exact reference solve, independent of the program.

Each check raises CheckFailed naming itself; the benchmark turns that into a
nonzero exit naming the workload.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ZERO_NORM_EPS = 1e-12  # the program's cosine convention: shorter vectors compare as 0
CALIBRATED_RTOL = 1e-9
KNN_TIE_RTOL = 1e-9


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check} failed: {detail}")


def check_confidence_range(confidence: np.ndarray) -> None:
    if not np.all(np.isfinite(confidence)):
        raise CheckFailed("confidence-range", "confidence has non-finite values")
    lo, hi = float(confidence.min()), float(confidence.max())
    if lo < 0.0 or hi > 1.0:
        raise CheckFailed("confidence-range", f"confidence spans [{lo!r}, {hi!r}]")


def check_same(check: str, got: bytes, want: bytes) -> None:
    if got != want:
        raise CheckFailed(check, "output bytes differ")


def exact_scores(graph, rhs: np.ndarray) -> np.ndarray:
    """Exact solution of L R = rhs with sum_i d_i R[i, :] = 0.

    L is singular with a constant nullspace and rhs sums to zero, so
    grounding vertex 0 (dropping its row and column) leaves a nonsingular
    system whose solution, shifted to degree-weighted mean zero, is the
    one the fixed-point iteration converges to.
    """
    lap = (sp.diags(graph.degrees) - graph.weights).tocsc()
    scores = np.zeros_like(rhs)
    scores[1:] = spla.spsolve(lap[1:, 1:], rhs[1:]).reshape(rhs[1:].shape)
    return scores - (graph.degrees @ scores) / graph.degrees.sum()


def exact_confidence(result) -> np.ndarray:
    """Foreground confidence (last class) from the exact Poisson solution."""
    scores = exact_scores(result.graph, result.source.values.T)
    height, width = result.confidence.values.shape
    block = scores[-height * width :]
    ex = np.exp(block - block.max(axis=1, keepdims=True))
    return (ex[:, -1] / ex.sum(axis=1)).reshape(height, width)


def check_knn(graph, points: np.ndarray, k: int, rng: np.random.Generator, rows: int) -> None:
    """Each sampled row's K nearest points, found by a per-row distance
    scan, must be among its graph edges (a tie at the K-th distance may
    go either way)."""
    n = points.shape[0]
    weights = graph.weights
    for r in rng.choice(n, size=min(rows, n), replace=False):
        d2 = ((points - points[r]) ** 2).sum(axis=1)
        d2[r] = np.inf
        nearest = np.argsort(d2, kind="stable")[:k]
        kth = d2[nearest[-1]]
        edges = set(weights.indices[weights.indptr[r] : weights.indptr[r + 1]].tolist())
        missing = [
            int(j) for j in nearest if int(j) not in edges and d2[j] < kth * (1 - KNN_TIE_RTOL)
        ]
        if missing:
            raise CheckFailed("knn-edges", f"row {r} lacks edges to its nearest {missing}")


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    unit = np.zeros_like(vectors)
    ok = norms >= ZERO_NORM_EPS
    unit[ok] = vectors[ok] / norms[ok, None]
    return unit


def check_calibrated(
    episode, confidence: np.ndarray, calibrated: np.ndarray, rng: np.random.Generator, pixels: int
) -> None:
    """Recompute sampled pixels of the calibrated map from the inputs and
    the output confidence: similarity to the mask-pooled support prototype,
    scaled by confidence, then the rectified-cosine average over all pixels."""
    cfg = episode.config
    support, support_mask = episode.support
    channels, height, width = episode.query.data.shape
    query = episode.query.data.reshape(channels, -1).T
    mask = support_mask.data
    proto = (support.data * mask).sum(axis=(1, 2)) / mask.sum()
    if cfg.sim_params is None:
        sim = _unit_rows(query) @ _unit_rows(proto[None, :])[0]
        sim = np.clip(sim, -1.0, 1.0)[:, None]
    else:
        stacked = np.concatenate([query, np.broadcast_to(proto, query.shape)], axis=1)
        sim = stacked @ cfg.sim_params.weight.T + cfg.sim_params.bias
    fused = sim * confidence.reshape(-1, 1)
    target = fused
    if cfg.calibration_params is not None:
        first, second = cfg.calibration_params.first, cfg.calibration_params.second
        hidden = np.maximum(fused @ first.weight.T + first.bias, 0.0)
        target = hidden @ second.weight.T + second.bias
    unit = _unit_rows(fused)
    got = calibrated.reshape(calibrated.shape[0], -1).T
    n_px = height * width
    for i in rng.choice(n_px, size=min(pixels, n_px), replace=False):
        weights = np.maximum(unit @ unit[i], 0.0)
        want = weights @ target / n_px
        err = float(np.abs(got[i] - want).max())
        if err > CALIBRATED_RTOL * float(np.abs(want).max()):
            raise CheckFailed("calibrated-map", f"pixel {i} differs by {err!r}")
