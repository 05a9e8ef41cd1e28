"""Similarity maps, confidence fusion, and spatial consistency calibration.

The calibration step replaces each pixel vector with the average of all
pixel vectors (optionally passed through a small transform), weighted by
their rectified cosine similarity to the pixel being calibrated. Pixels
that look alike end up with near-identical representations, which
smooths the fused prediction spatially.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .poisson import ConfidenceMap
from .tensor import FeatureMap, _as_float64, _unit_rows

_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class LinearParams:
    """Per-pixel affine map: weight (C_out, C_in) and bias (C_out,)."""

    weight: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = _as_float64(self.weight, "weight", 2)
        b = _as_float64(self.bias, "bias") if self.bias is not None else np.zeros(w.shape[0])
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} != ({w.shape[0]},)")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Apply to an (n, C_in) batch of vectors."""
        return vectors @ self.weight.T + self.bias


@dataclass(frozen=True)
class TwoLayerParams:
    """Two affine layers with rectification between them."""

    first: LinearParams
    second: LinearParams

    def __post_init__(self):
        if self.second.in_dim != self.first.out_dim:
            raise ValueError(
                f"layer widths disagree: {self.first.out_dim} -> {self.second.in_dim}"
            )

    @property
    def in_dim(self) -> int:
        return self.first.in_dim

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        hidden = np.maximum(self.first.apply(vectors), 0.0)
        return self.second.apply(hidden)


def similarity_map(
    query: FeatureMap,
    proto: np.ndarray,
    params: LinearParams | None = None,
) -> FeatureMap:
    """Compare every query pixel against the global prototype.

    Default mode emits a single channel holding the cosine similarity
    between each pixel vector and the prototype. With ``params``, each
    pixel's concatenation (pixel vector, prototype) is passed through
    the affine map instead, acting as a 1x1 convolution with loadable
    weights.
    """
    vec = _as_float64(proto, "prototype")
    if vec.ndim != 1 or vec.shape[0] != query.channels:
        raise ShapeMismatch(
            f"prototype length {vec.shape} != query channels {query.channels}"
        )
    pixels = query.pixel_vectors()  # (HW, C)
    h, w = query.height, query.width
    if params is None:
        sims = _unit_rows(pixels) @ _unit_rows(vec[None, :])[0]
        return FeatureMap(np.clip(sims, -1.0, 1.0).reshape(1, h, w))
    if params.in_dim != 2 * query.channels:
        raise ShapeMismatch(
            f"params expect {params.in_dim} inputs, need {2 * query.channels}"
        )
    stacked = np.concatenate(
        [pixels, np.broadcast_to(vec, pixels.shape)], axis=1
    )
    out = params.apply(stacked)  # (HW, C')
    return FeatureMap(out.T.reshape(params.out_dim, h, w))


def fuse_confidence(sim: FeatureMap, conf: ConfidenceMap) -> FeatureMap:
    """Scale every channel of the similarity map by the confidence map."""
    if sim.data.shape[1:] != conf.values.shape:
        raise ShapeMismatch(f"similarity {sim.data.shape[1:]} vs confidence {conf.values.shape}")
    return FeatureMap(sim.data * conf.values[None, :, :])


def spatial_consistency_calibrate(
    fused: FeatureMap,
    transform: TwoLayerParams | None = None,
) -> FeatureMap:
    """Rectified-similarity average over all pixels.

    Each output pixel i is the mean over every pixel j (including
    j = i) of max(cos(v_i, v_j), 0) times the transformed v_j. Pixels
    with near-zero norm take similarity 0 to everything. The transform
    defaults to identity. A one-channel map's cosines are -1, 0 or 1, so
    each of its pixels averages over its own sign class: O(HW) time and
    memory. Wider maps take O(HW^2 C) time in blocks of 64 rows.
    """
    c, h, w = fused.data.shape
    pixels = fused.pixel_vectors()  # (HW, C)
    if transform is not None and transform.in_dim != c:
        raise ShapeMismatch(
            f"transform expects {transform.in_dim} channels, map has {c}"
        )
    unit = _unit_rows(pixels)
    target = pixels if transform is None else transform.apply(pixels)
    n_px, c_out = target.shape
    if c == 1:  # max(cos, 0) is 1 within a sign class and 0 across
        out = np.zeros((n_px, c_out), dtype=np.float64)
        for members in (unit[:, 0] == -1.0, unit[:, 0] == 1.0):
            out[members] = target[members].sum(axis=0) / n_px
    else:
        out = np.empty((n_px, c_out), dtype=np.float64)
        # row blocks keep the similarity table at O(block * HW)
        for lo in range(0, n_px, _BLOCK_ROWS):
            sims = unit[lo : lo + _BLOCK_ROWS] @ unit.T
            np.maximum(sims, 0.0, out=sims)
            out[lo : lo + _BLOCK_ROWS] = sims @ target / n_px
    return FeatureMap(out.T.reshape(c_out, h, w))
