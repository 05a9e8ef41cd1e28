"""Graph-based label propagation over feature-map prototypes.

Feature maps are pooled into local prototypes that, together with the
query's pixel vectors, form the vertices of a self-tuning kNN
similarity graph. Labels propagate by solving a graph Poisson equation;
the query block becomes a per-pixel confidence map, which is fused with
prototype similarity and smoothed by spatial consistency calibration.
"""

from .episode import Episode, EpisodeConfig, EpisodeResult, run_episode
from .graph import (
    VertexSet,
    WeightedGraph,
    build_weight_graph,
    from_triplets,
    laplacian_apply,
    to_triplets,
)
from .metrics import dsc
from .poisson import (
    ConfidenceMap,
    LabelSource,
    PropagationResult,
    build_source,
    extract_confidence_map,
    solve_iterative,
)
from .prototype import assign_prototype_labels, local_prototype_pool, masked_average_pool
from .scc import (
    LinearParams,
    TwoLayerParams,
    fuse_confidence,
    similarity_map,
    spatial_consistency_calibrate,
)
from .synth import SynthSpec, synth_episode
from .tensor import FeatureMap, SoftMask, Tensor, avg_pool, downsample_mask, predict_mask
from .tensorfile import load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "Episode",
    "EpisodeConfig",
    "EpisodeResult",
    "predict_mask",
    "run_episode",
    "VertexSet",
    "WeightedGraph",
    "build_weight_graph",
    "from_triplets",
    "laplacian_apply",
    "to_triplets",
    "dsc",
    "ConfidenceMap",
    "LabelSource",
    "PropagationResult",
    "build_source",
    "extract_confidence_map",
    "solve_iterative",
    "assign_prototype_labels",
    "local_prototype_pool",
    "masked_average_pool",
    "LinearParams",
    "TwoLayerParams",
    "fuse_confidence",
    "similarity_map",
    "spatial_consistency_calibrate",
    "SynthSpec",
    "synth_episode",
    "FeatureMap",
    "SoftMask",
    "Tensor",
    "avg_pool",
    "downsample_mask",
    "load_tensor",
    "save_tensor",
    "__version__",
]
