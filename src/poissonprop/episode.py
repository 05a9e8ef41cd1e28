"""End-to-end inference for one support/auxiliary/query task.

Pipeline: pool the support map into labeled local prototypes, pool each
auxiliary map into unlabeled prototypes, take the query pixels as
vertices, propagate labels over the similarity graph, turn the query
block into a confidence map, fuse it with prototype similarity, apply
spatial consistency calibration, and threshold into a binary mask.
Every intermediate is kept on the result for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poisson, prototype, scc
from .errors import PoissonPropError
from .graph import VertexSet, WeightedGraph, build_weight_graph
from .metrics import dsc
from .poisson import ConfidenceMap, LabelSource, PropagationResult
from .scc import LinearParams, TwoLayerParams
from .tensor import FeatureMap, SoftMask, _check_scalars, _is_a, downsample_mask, predict_mask

PREDICTION_MODES = ("poisson", "calibrated")


@dataclass(frozen=True)
class EpisodeConfig:
    """Pipeline knobs; field defaults are the documented defaults."""

    window: tuple[int, int] = (4, 4)
    knn_k: int = 10
    tol: float = 1e-6
    prediction_mode: str = "poisson"
    sim_params: LinearParams | None = None
    calibration_params: TwoLayerParams | None = None

    def __post_init__(self):
        _check_scalars(self)
        w = self.window
        if not (isinstance(w, tuple) and len(w) == 2 and all(_is_a(v, int) for v in w)):
            raise TypeError(f"window: expected two integers (h, w), got {w!r}")
        for name, kind in (("sim_params", LinearParams), ("calibration_params", TwoLayerParams)):
            if not isinstance(value := getattr(self, name), (kind, type(None))):
                raise TypeError(f"{name}: expected {kind.__name__}, got {value!r}")
        if self.prediction_mode not in PREDICTION_MODES:
            raise ValueError(
                f"prediction_mode must be one of {PREDICTION_MODES}, "
                f"got {self.prediction_mode!r}"
            )


@dataclass(frozen=True)
class Episode:
    """One task: labeled support, unlabeled auxiliary maps, one query."""

    support: tuple[FeatureMap, SoftMask]
    auxiliary: tuple[FeatureMap, ...]
    query: FeatureMap
    query_mask: SoftMask | None = None
    config: EpisodeConfig = field(default_factory=EpisodeConfig)

    def __post_init__(self):
        object.__setattr__(self, "auxiliary", tuple(self.auxiliary))
        sup_map, sup_mask = self.support
        shape = sup_map.data.shape
        maps = {f"auxiliary map {i} shape": aux for i, aux in enumerate(self.auxiliary)}
        maps["query shape"] = self.query
        for name, fmap in maps.items():
            if fmap.data.shape != shape:
                raise ValueError(f"{name} {fmap.data.shape} != support {shape}")
        for name, mask in (("support mask", sup_mask), ("query mask", self.query_mask)):
            if mask is not None and mask.data.shape != shape[1:]:
                raise ValueError(f"{name} {mask.data.shape} != spatial dims {shape[1:]}")


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    """All pipeline outputs and intermediates for one episode."""

    config: EpisodeConfig
    support_prototypes: np.ndarray = field(repr=False)
    auxiliary_prototypes: np.ndarray = field(repr=False)
    grid_mask: SoftMask
    vertex_set: VertexSet
    graph: WeightedGraph
    source: LabelSource
    propagation: PropagationResult
    confidence: ConfidenceMap
    global_prototype: np.ndarray = field(repr=False)
    similarity: FeatureMap
    fused: FeatureMap
    calibrated: FeatureMap
    mask_poisson: np.ndarray = field(repr=False)
    mask_calibrated: np.ndarray = field(repr=False)
    dsc_poisson: float | None = None
    dsc_calibrated: float | None = None

    @property
    def predicted_mask(self) -> np.ndarray:
        if self.config.prediction_mode == "poisson":
            return self.mask_poisson
        return self.mask_calibrated

    @property
    def dsc_score(self) -> float | None:
        if self.config.prediction_mode == "poisson":
            return self.dsc_poisson
        return self.dsc_calibrated


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (PoissonPropError, ValueError) as err:
        raise type(err)(f"stage {name}: {err}") from err


def _query_mask(labels: np.ndarray, scores: np.ndarray, height: int, width: int) -> np.ndarray:
    """The "poisson" mask. A support labelled with one class predicts that class
    everywhere. Otherwise the query's foreground scores u_fg are thresholded by
    isodata (Ridler and Calvard, 1978): from 0, the threshold moves to the
    midpoint of the two sides' means until the split stops moving."""
    if labels.min() == labels.max():
        return np.full((height, width), labels[0], dtype=np.uint8)
    u_fg = scores[-height * width :, -1]
    fg = u_fg >= 0.0
    for _ in range(u_fg.size):  # in exact arithmetic the split moves one way, so n steps settle it
        if fg.all() or not fg.any():
            break
        moved = u_fg >= (u_fg[fg].mean() + u_fg[~fg].mean()) / 2
        if np.array_equal(moved, fg):
            break
        fg = moved
    return fg.reshape(height, width).astype(np.uint8)


def run_episode(ep: Episode) -> EpisodeResult:
    """Run the full pipeline on one episode."""
    cfg = ep.config
    sup_map, sup_mask = ep.support

    sup_protos = _stage(
        "support-pooling", prototype.local_prototype_pool, sup_map, cfg.window
    )
    grid_mask = _stage("mask-downsampling", downsample_mask, sup_mask, cfg.window)
    labels = _stage("prototype-labeling", prototype.assign_prototype_labels, grid_mask)
    aux_pools = [
        _stage("auxiliary-pooling", prototype.local_prototype_pool, aux, cfg.window)
        for aux in ep.auxiliary
    ]
    aux_protos = np.concatenate([np.empty((0, sup_map.channels)), *aux_pools])
    pixels = ep.query.data.reshape(ep.query.channels, -1).T  # a view; concatenate copies once
    vertices = VertexSet(
        points=np.concatenate([sup_protos, aux_protos, pixels]),
        labels=labels,
        n_a=len(aux_protos),
    )

    graph = _stage("graph-build", build_weight_graph, vertices.points, cfg.knn_k)
    source = _stage(
        "source-build",
        poisson.build_source,
        vertices.one_hot_labels(),
        vertices.n,
    )
    propagation = _stage("propagation", poisson.solve_iterative, graph, source, cfg.tol)
    confidence = _stage(
        "confidence-extraction",
        poisson.extract_confidence_map,
        propagation,
        ep.query.height,
        ep.query.width,
    )
    global_proto = _stage(
        "global-prototype", prototype.masked_average_pool, sup_map, sup_mask
    )
    similarity = _stage(
        "similarity-map", scc.similarity_map, ep.query, global_proto, cfg.sim_params
    )
    fused = _stage("confidence-fusion", scc.fuse_confidence, similarity, confidence)
    calibrated = _stage(
        "calibration", scc.spatial_consistency_calibrate, fused, cfg.calibration_params
    )

    mask_poisson = _query_mask(labels, propagation.scores, ep.query.height, ep.query.width)
    mask_calibrated = predict_mask(calibrated.data.mean(axis=0))

    dsc_poisson = dsc_calibrated = None
    if ep.query_mask is not None:
        truth = predict_mask(ep.query_mask.data)
        dsc_poisson = dsc(mask_poisson, truth)
        dsc_calibrated = dsc(mask_calibrated, truth)

    return EpisodeResult(
        config=cfg,
        support_prototypes=sup_protos,
        auxiliary_prototypes=aux_protos,
        grid_mask=grid_mask,
        vertex_set=vertices,
        graph=graph,
        source=source,
        propagation=propagation,
        confidence=confidence,
        global_prototype=global_proto,
        similarity=similarity,
        fused=fused,
        calibrated=calibrated,
        mask_poisson=mask_poisson,
        mask_calibrated=mask_calibrated,
        dsc_poisson=dsc_poisson,
        dsc_calibrated=dsc_calibrated,
    )
