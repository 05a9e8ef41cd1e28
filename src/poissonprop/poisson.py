"""Label propagation by solving a graph Poisson equation.

The labeled block injects a zero-sum source (each one-hot label minus
the label mean); propagation solves L R = source^T for the unnormalized
Laplacian L = D - W. The fixed-point iteration
``R <- R + D^{-1} (source^T - L R)`` starting from R = 0 preserves the
degree-weighted zero-sum constraint sum_i d_i R[i, :] = 0 at every
iterate, which pins down the solution despite L's constant nullspace.

``solve_direct`` is an independent dense least-squares route kept as a
test oracle for the iterative solver; do not fold the two together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NoLabels,
    ShapeMismatch,
    TooLargeForDirect,
)
from .graph import WeightedGraph, component_count, laplacian_apply

DIRECT_SOLVE_LIMIT = 2000


@dataclass(frozen=True)
class LabelSource:
    """Zero-sum source term, one column per vertex (k x n)."""

    n_s: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"source must be a (k, n) array, got shape {vals.shape}")
        if not 1 <= self.n_s <= vals.shape[1]:
            raise ValueError(f"n_s={self.n_s} out of range for n={vals.shape[1]}")
        if np.any(vals[:, self.n_s :] != 0.0):
            raise ValueError("columns past the labeled block must be zero")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PropagationResult:
    """Solution matrix (n x k) with iteration diagnostics.

    ``residual_inf`` is the true max-norm residual |source^T - L R| at
    the returned scores, whatever the stopping rule said.
    """

    scores: np.ndarray = field(repr=False)
    iterations: int
    final_step: float
    converged: bool
    residual_inf: float


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-pixel foreground probability in [0, 1]."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("confidence map must be rank 2 (H, W)")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN fails too
            raise ValueError("confidence values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def build_source(one_hot_labels, n: int) -> LabelSource:
    """Center the labeled block's one-hot labels and pad with zeros.

    Column i of the result is label_i minus the mean label vector for
    i < n_s, zero otherwise, so all columns sum to the zero vector.
    Warns when a class has no labeled vertex: its scores are then
    identically zero, and when only one class is labeled (or only one
    vertex) the whole source vanishes and propagation returns all zeros.
    """
    labels = np.ascontiguousarray(one_hot_labels, dtype=np.float64)
    if labels.ndim != 2:
        raise ValueError("labels must be an (n_s, k) array of one-hot rows")
    n_s = labels.shape[0]
    if n_s == 0:
        raise NoLabels("at least one labeled vertex is required")
    if n_s > n:
        raise ValueError(f"n_s={n_s} exceeds n={n}")
    is_one_hot = np.all(np.isin(labels, (0.0, 1.0))) and np.all(labels.sum(axis=1) == 1.0)
    if not is_one_hot:
        raise ValueError("each label row must be one-hot")
    mean = labels.mean(axis=0)
    values = np.zeros((labels.shape[1], n), dtype=np.float64)
    values[:, :n_s] = (labels - mean).T
    missing = np.flatnonzero(labels.sum(axis=0) == 0.0)
    if not np.any(values):
        warnings.warn(
            "all labeled vertices share one class; the centered source is zero "
            "and propagation will return an all-zero solution",
            stacklevel=2,
        )
    elif missing.size:
        warnings.warn(
            f"classes {missing.tolist()} have no labeled vertex; "
            "their propagated scores are identically zero",
            stacklevel=2,
        )
    return LabelSource(n_s=n_s, values=values)


def _check_system(graph: WeightedGraph, source: LabelSource) -> None:
    if source.n != graph.n:
        raise DimensionMismatch(
            f"source has {source.n} columns but graph has {graph.n} vertices"
        )
    pieces = component_count(graph)
    if pieces != 1:
        raise DisconnectedGraph(
            f"graph has {pieces} connected components; the zero-sum source "
            "only balances over a single component"
        )


def _residual_inf(graph: WeightedGraph, source: LabelSource, scores: np.ndarray) -> float:
    return float(np.abs(source.values.T - laplacian_apply(graph, scores)).max())


def solve_iterative(
    graph: WeightedGraph,
    source: LabelSource,
    t_max: int = 1000,
    tol: float = 1e-6,
    on_iterate=None,
) -> PropagationResult:
    """Fixed-point solve of L R = source^T from R = 0.

    Stops when the max-norm of an update falls below ``tol``
    (converged=True) or after ``t_max`` iterations (converged=False,
    with a UserWarning; the step and the true residual are on the
    result).
    ``on_iterate(t, scores)`` is called after each update when given;
    it must not mutate its argument.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_system(graph, source)
    inv_deg = 1.0 / graph.degrees
    rhs = source.values.T  # (n, k)
    scores = np.zeros(rhs.shape, dtype=np.float64)
    step = np.inf
    t = 0
    while t < t_max:
        update = inv_deg[:, None] * (rhs - laplacian_apply(graph, scores))
        scores = scores + update
        t += 1
        step = float(np.abs(update).max())
        if on_iterate is not None:
            on_iterate(t, scores)
        if step < tol:
            break
    residual_inf = _residual_inf(graph, source, scores)
    if step >= tol:
        # fixed text: per-call numbers would add a registry entry per call
        warnings.warn(
            "fixed-point iteration stopped unconverged at t_max; see the "
            "result's final_step and residual_inf",
            stacklevel=2,
        )
    return PropagationResult(
        scores=scores,
        iterations=t,
        final_step=step,
        converged=step < tol,
        residual_inf=residual_inf,
    )


def solve_direct(graph: WeightedGraph, source: LabelSource) -> PropagationResult:
    """Dense least-squares oracle for the fixed-point solver.

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


def softmax_channels(values: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a (k, H, W) stack, numerically shifted."""
    shifted = values - values.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=0, keepdims=True)


def extract_confidence_map(result: PropagationResult, height: int, width: int) -> ConfidenceMap:
    """Foreground confidence for the query block.

    Takes the last ``n_q = height * width`` rows of the solution (the
    query vertices, in row-major pixel order), reshapes them to a
    (k, H, W) stack, applies a per-pixel softmax over the k channels,
    and returns the last channel, which is foreground by the
    class-ordering convention.
    """
    n_q = height * width
    if result.scores.shape[0] < n_q:
        raise ShapeMismatch(
            f"solution has {result.scores.shape[0]} rows, need at least {n_q}"
        )
    k = result.scores.shape[1]
    query_block = result.scores[-n_q:, :]  # (n_q, k)
    stacked = query_block.T.reshape(k, height, width)
    probs = softmax_channels(stacked)
    return ConfidenceMap(probs[k - 1])
