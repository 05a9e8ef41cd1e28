"""Label propagation by solving a graph Poisson equation.

The labeled block injects a zero-sum source (each one-hot label minus
the label mean); propagation solves L R = source^T for the unnormalized
Laplacian L = D - W. The paper's update is the Jacobi fixed point
``R <- R + D^{-1} (source^T - L R)``; ``solve_iterative`` solves the
same system by Jacobi-preconditioned conjugate gradients from R = 0, one
class per contiguous row, capped at n iterations for n vertices: in exact
arithmetic CG ends within n steps (Hestenes and Stiefel, 1952). The
classes sum to zero, so the last nonzero one is minus the others' sum.
Every iterate keeps the degree-weighted zero-sum constraint sum_i d_i
R[i, :] = 0 (1^T L = 0, 1^T source = 0 and d^T D^{-1} r = 1^T r), which
pins down the solution despite L's constant nullspace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import DisconnectedGraph, NoLabels, ShapeMismatch
from .graph import WeightedGraph, component_count, laplacian_apply
from .tensor import _unit_interval


@dataclass(frozen=True, eq=False)
class LabelSource:
    """Zero-sum source term built from the labeled block's one-hot labels.

    ``labels`` is the (n_s, k) one-hot array of the first n_s of ``n``
    vertices. ``values`` is the (k, n) source: column i is label_i minus
    the mean label for i < n_s, zero otherwise, so the columns sum to
    the zero vector.
    """

    labels: np.ndarray = field(repr=False)
    n: int
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.float64, order="C")  # own copy: values derives from it
        if labels.ndim != 2:
            raise ValueError("labels must be an (n_s, k) array of one-hot rows")
        n_s = labels.shape[0]
        if n_s == 0:
            raise NoLabels("at least one labeled vertex is required")
        if n_s > self.n:
            raise ValueError(f"n_s={n_s} exceeds n={self.n}")
        if not (np.all(np.isin(labels, (0.0, 1.0))) and np.all(labels.sum(axis=1) == 1.0)):
            raise ValueError("each label row must be one-hot")
        values = np.zeros((labels.shape[1], self.n), dtype=np.float64)
        values[:, :n_s] = (labels - labels.mean(axis=0)).T
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n_s(self) -> int:
        return self.labels.shape[0]

    @property
    def k(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ConfidenceMap:
    """Per-pixel foreground probability in [0, 1]."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _unit_interval(self.values, "confidence map"))


def build_source(one_hot_labels, n: int) -> LabelSource:
    """``LabelSource(one_hot_labels, n)``, warning about a degenerate source.

    Warns when a class has no labeled vertex: its scores are then
    identically zero, and when only one class is labeled (or only one
    vertex) the whole source vanishes and propagation returns all zeros.
    """
    source = LabelSource(one_hot_labels, n)
    missing = np.flatnonzero(source.labels.sum(axis=0) == 0.0)
    if not np.any(source.values):
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
    return source


def _check_system(graph: WeightedGraph, source: LabelSource) -> None:
    if source.n != graph.n:
        raise ShapeMismatch(f"source has {source.n} columns but graph has {graph.n} vertices")
    pieces = component_count(graph)
    if pieces != 1:
        raise DisconnectedGraph(
            f"graph has {pieces} connected components; the zero-sum source "
            f"only balances over a single component: {_describe_components(graph, source)}"
        )


def _describe_components(graph: WeightedGraph, source: LabelSource) -> str:
    """Each component's vertex count and its labelled vertices per class."""
    pieces, comp = connected_components(graph.weights, directed=False)
    counts = np.zeros((pieces, source.k), dtype=np.int64)
    np.add.at(counts, (comp[: source.n_s], source.labels.argmax(axis=1)), 1)
    return "; ".join(
        f"component {i}: {size} vertices, labelled per class {row}"
        for i, (size, row) in enumerate(zip(np.bincount(comp).tolist(), counts.tolist()))
    )


def solve_iterative(
    graph: WeightedGraph,
    source: LabelSource,
    tol: float = 1e-6,
    on_iterate=None,
) -> PropagationResult:
    """Jacobi-preconditioned conjugate gradients on L R = source^T from R = 0.

    The nonzero source rows but the last advance together as contiguous
    rows, each with its own step sizes; the last nonzero class is minus
    their sum, and a zero row, such as an unlabelled class, stays exactly
    zero. Stops when the true residual over all k classes satisfies
    ``max|source^T - L R| <= tol * max|source|`` (converged=True) or after
    ``graph.n`` iterations (converged=False, with a UserWarning; the last
    step and the true residual are on the result). ``final_step`` is the
    max-norm of the last update, over all k classes.
    ``on_iterate(t, scores)`` gets the (n, k) scores after each update
    when given; it must not mutate its argument.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_system(graph, source)
    inv_deg = 1.0 / graph.degrees
    rhs = source.values  # (k, n): each class a contiguous row
    live = np.flatnonzero(np.any(rhs, axis=1))
    solved, derived = live[:-1], live[-1:]

    def expand(part):  # (k, n) scores from the solved rows
        full = np.zeros(rhs.shape, dtype=np.float64)
        full[solved], full[derived] = part, -part.sum(axis=0)
        return full

    residual_inf = float(np.abs(rhs).max())  # at R = 0
    bound = tol * residual_inf
    resid = rhs[solved]
    scores = np.zeros(resid.shape, dtype=np.float64)
    direction = np.zeros(resid.shape, dtype=np.float64)
    rz = np.zeros((resid.shape[0], 1))
    update = scores
    t = 0
    # elementwise sums, no dense product: scores stay bit-identical across BLAS builds
    while residual_inf > bound and t < graph.n:
        z = inv_deg * resid
        rz_next = np.sum(resid * z, axis=1, keepdims=True)
        beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=rz > 0)
        direction = z + beta * direction
        rz = rz_next
        lp = laplacian_apply(graph, direction.T).T
        curv = np.sum(direction * lp, axis=1, keepdims=True)
        alpha = np.divide(rz, curv, out=np.zeros_like(rz), where=curv > 0)
        update = alpha * direction
        scores = scores + update
        resid = resid - alpha * lp
        t += 1
        if on_iterate is not None:
            on_iterate(t, expand(scores).T)
        if np.abs(resid).max() <= bound or t == graph.n:
            # the recurrence drifts from the true residual; confirm on it, over all k
            resid = rhs - laplacian_apply(graph, expand(scores).T).T
            residual_inf = float(np.abs(resid).max())
            resid = resid[solved]
    step = float(np.abs(expand(update)).max())
    converged = residual_inf <= bound
    if not converged:
        # fixed text: per-call numbers would add a registry entry per call
        warnings.warn(
            "conjugate-gradient solve stopped unconverged after n iterations; "
            "see the result's final_step and residual_inf",
            stacklevel=2,
        )
    return PropagationResult(
        scores=np.ascontiguousarray(expand(scores).T),
        iterations=t,
        final_step=step,
        converged=converged,
        residual_inf=residual_inf,
    )


def extract_confidence_map(result: PropagationResult, height: int, width: int) -> ConfidenceMap:
    """Foreground confidence for the query block.

    Takes the last ``n_q = height * width`` rows of the solution (the
    query vertices, in row-major pixel order), applies a per-row softmax
    over the k channels, and returns the last channel, which is
    foreground by the class-ordering convention, as an (H, W) map.
    """
    n_q = height * width
    if result.scores.shape[0] < n_q:
        raise ShapeMismatch(
            f"solution has {result.scores.shape[0]} rows, need at least {n_q}"
        )
    query_block = result.scores[-n_q:, :]  # (n_q, k)
    ex = np.exp(query_block - query_block.max(axis=1, keepdims=True))
    return ConfidenceMap((ex[:, -1] / ex.sum(axis=1)).reshape(height, width))
