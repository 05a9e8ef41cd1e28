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
from .tensor import FeatureMap, _as_float64, _norms

_BLOCK_PIXELS = 64


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

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """Apply to a (C_in, n) batch of column vectors, giving (C_out, n)."""
        return self.weight @ columns + self.bias[:, None]


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

    def apply(self, columns: np.ndarray) -> np.ndarray:
        return self.second.apply(np.maximum(self.first.apply(columns), 0.0))


def similarity_map(
    query: FeatureMap,
    proto: np.ndarray,
    params: LinearParams | None = None,
) -> FeatureMap:
    """Compare every query pixel against the global prototype.

    Default mode emits a single channel holding the cosine similarity
    ``(proto @ pixel) / (|pixel| * |proto|)``, 0 where either norm is
    below 1e-12. With ``params``, each pixel's concatenation (pixel
    vector, prototype) is passed through the affine map instead, acting
    as a 1x1 convolution with loadable weights. Both read the map as
    (C, H*W), with no per-pixel copy.
    """
    c, h, w = query.data.shape
    vec = _as_float64(proto, "prototype")
    if vec.shape != (c,):
        raise ShapeMismatch(f"prototype length {vec.shape} != query channels {c}")
    flat = query.data.reshape(c, h * w)
    if params is None:
        # one norm routine for both sides keeps cos(u, v) == cos(v, u) bit for bit
        norms = _norms(flat, 0) * _norms(vec[:, None], 0)
        sims = np.divide(vec @ flat, norms, out=np.zeros(h * w), where=norms > 0.0)
        return FeatureMap(np.clip(sims, -1.0, 1.0).reshape(1, h, w))
    if params.in_dim != 2 * c:
        raise ShapeMismatch(f"params expect {params.in_dim} inputs, need {2 * c}")
    out = params.weight[:, :c] @ flat + (params.weight[:, c:] @ vec + params.bias)[:, None]
    return FeatureMap(out.reshape(params.out_dim, h, w))


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
    j = i) of max(cos(v_i, v_j), 0) times the transformed v_j. A pixel
    with norm below 1e-12 takes similarity 0 to everything, so it
    neither gives nor takes: only the m other columns of the map, read
    as (C, H*W), are gathered and transformed, and the rest output 0.
    The transform defaults to identity. A one-channel map's cosines are
    -1, 0 or 1, so each of its pixels averages over its own sign class:
    O(HW) time and memory. Wider maps take O(m^2 C) time: the similarity
    table is symmetric, so each pair of 64-pixel blocks is formed once
    and feeds both blocks, in O(64 m) working memory.
    """
    c, h, w = fused.data.shape
    if transform is not None and transform.in_dim != c:
        raise ShapeMismatch(
            f"transform expects {transform.in_dim} channels, map has {c}"
        )
    flat = fused.data.reshape(c, h * w)
    norms = _norms(flat, 0)
    live = np.flatnonzero(norms)
    pixels = flat[:, live]
    unit = pixels / norms[live]
    target = pixels if transform is None else transform.apply(pixels)
    acc = np.zeros((target.shape[0], live.size), dtype=np.float64)
    if c == 1:  # max(cos, 0) is 1 within a sign class and 0 across
        for members in (unit[0] == -1.0, unit[0] == 1.0):
            acc[:, members] = target[:, members].sum(axis=1, keepdims=True)
    else:
        # the strip of block I against blocks J >= I feeds J from I, and I from J > I
        for lo in range(0, live.size, _BLOCK_PIXELS):
            hi = lo + _BLOCK_PIXELS
            sims = unit[:, lo:hi].T @ unit[:, lo:]
            np.maximum(sims, 0.0, out=sims)
            acc[:, lo:] += target[:, lo:hi] @ sims
            acc[:, lo:hi] += target[:, hi:] @ sims[:, _BLOCK_PIXELS:].T
    out = np.zeros((target.shape[0], h * w), dtype=np.float64)
    out[:, live] = acc / (h * w)
    return FeatureMap(out.reshape(-1, h, w))
